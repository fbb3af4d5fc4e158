"""Batch command line front end.

Subcommands: eval (W/WW of two catalog expressions), compare (multiplicity
functions over a shared space), classify (isomorphism verdicts), oz
(order-zero laboratory: check, eps, compare, witness) and axioms (fragment
checks on the extended naturals).

Each handler imports the layer it uses, so a run loads only that layer:
eval and classify load algebra and catalog and never multiplicity, also
for CX values; compare loads multiplicity, axioms loads waxioms, and only
the oz subcommands load orderzero and numpy.  json is loaded only to
read a document or to write JSON.

Exit codes: 0 success, 1 input error, 2 Unknown evaluation, 3 Undecided
classification, 4 negative comparison or failed check.  All file documents
are UTF-8 JSON carrying "schema": "cuntz/1"; output is byte-identical for
identical inputs, seed and tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional

SCHEMA = "cuntz/1"

# (x <= y, y <= x) -> verdict printed by both compare subcommands.
_VERDICTS = {
    (True, True): "equal",
    (True, False): "leq",
    (False, True): "geq",
    (False, False): "incomparable",
}


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise CliInputError(message)


def _emit(doc: dict, text_lines: List[str], fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_doc(path: str) -> dict:
    import json

    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliInputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise CliInputError(f'{path}: expected a document with "schema": "{SCHEMA}"')
    payload = dict(doc)
    del payload["schema"]
    return payload


def _load_map(path: str):
    from .orderzero import OrderZeroError, oz_from_json

    payload = _load_doc(path)
    try:
        return oz_from_json(payload)
    except (OrderZeroError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        raise CliInputError(f"{path}: invalid map document: {exc}") from None


def _parse_expr(text: str):
    from .algebra import ExprSyntaxError, parse_algebra

    try:
        return parse_algebra(text)
    except ExprSyntaxError as exc:
        quote = text
        if len(text) > 60:  # quote 30 characters either side of the error
            lo, hi = max(exc.pos - 30, 0), exc.pos + 30
            quote = ("…" if lo else "") + text[lo:hi] + ("…" if hi < len(text) else "")
        raise CliInputError(f"cannot parse {quote!r}: {exc}") from None


def _positive_tol(value: str) -> float:
    tol = float(value)
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError("tolerance must be > 0 and finite")
    return tol


def _trial_count(value: str) -> int:
    try:
        trials = int(value)
    except ValueError:  # argparse's own message for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if trials < 0:
        raise argparse.ArgumentTypeError("trials must be >= 0")
    return trials


# ---------------------------------------------------------------------------
# Subcommand handlers.

def cmd_eval(args) -> int:
    from .catalog import eval_W, eval_WW, has_unknown, value_text, value_to_json

    a = _parse_expr(args.expr_a)
    b = _parse_expr(args.expr_b)
    value, trace = (eval_WW if args.ww else eval_W)(a, b)
    variant = "WW" if args.ww else "W"
    query = f"{variant}({args.expr_a}, {args.expr_b})"
    doc = {
        "schema": SCHEMA,
        "query": query,
        "value": value_to_json(value),
        "value_text": value_text(value),
        "trace": [step.to_json() for step in trace],
    }
    lines = [f"{query} = {value_text(value)}"]
    for step in trace:
        lines.append(f"  {step.rule} [{step.anchor}]: {step.before} => {step.after}")
    _emit(doc, lines, args.format)
    return 2 if has_unknown(value) else 0


def cmd_compare(args) -> int:
    from .multiplicity import mf_from_json, mf_leq, space_from_json

    space_doc = _load_doc(args.space)
    nu_doc = _load_doc(args.nu)
    mu_doc = _load_doc(args.mu)
    try:
        space = space_from_json(space_doc)
        nu = mf_from_json(nu_doc)
        mu = mf_from_json(mu_doc)
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        raise CliInputError(f"invalid document: {exc}") from None
    if nu.space != space or mu.space != space:
        raise CliInputError("documents disagree about the underlying space")
    verdict = _VERDICTS[(mf_leq(nu, mu), mf_leq(mu, nu))]
    _emit({"schema": SCHEMA, "verdict": verdict}, [verdict], args.format)
    return 0


def cmd_classify(args) -> int:
    from .catalog import NotDecidable, classify, scale_membership_note

    a = _parse_expr(args.expr_a)
    b = _parse_expr(args.expr_b)
    result = classify(a, b)
    doc = {"schema": SCHEMA, **result.to_json()}
    lines = [f"{result.verdict}: {result.certificate}"]
    try:
        note = scale_membership_note(a, b)
    except NotDecidable:
        note = None
    if note is not None:
        doc["scale"] = note.to_json()
        lines.append(note.text())
    _emit(doc, lines, args.format)
    return 3 if result.verdict == "Undecided" else 0


def cmd_oz_check(args) -> int:
    from .orderzero import OrderZeroError, oz_check_order_zero

    phi = _load_map(args.phi)
    try:
        report = oz_check_order_zero(phi, trials=args.trials, seed=args.seed, tol=args.tol)
    except OrderZeroError as exc:
        raise CliInputError(str(exc)) from None
    doc = {
        "schema": SCHEMA,
        "passed": report.passed,
        "max_violation": report.max_violation,
        "trials": report.trials,
        "tolerance": report.tolerance,
        "vacuous": report.vacuous,
    }
    if report.vacuous:
        lines = ["order zero check: vacuous (0 trials)"]
    else:
        lines = [
            f"order zero check: {'pass' if report.passed else 'FAIL'} "
            f"(max violation {report.max_violation:.3e} over {report.trials} trials)"
        ]
    _emit(doc, lines, args.format)
    return 0 if report.passed else 4


def cmd_oz_eps(args) -> int:
    import json
    from fractions import Fraction

    from .orderzero import OrderZeroError, oz_eps_cut, oz_to_json

    phi = _load_map(args.phi)
    try:
        cut = oz_eps_cut(phi, Fraction(args.eps))
    except (ValueError, ZeroDivisionError, OrderZeroError) as exc:
        raise CliInputError(f"invalid eps: {exc}") from None
    doc = {"schema": SCHEMA, **oz_to_json(cut)}
    lines = [json.dumps(doc, sort_keys=True, indent=2)]
    _emit(doc, lines, args.format)
    return 0


def cmd_oz_compare(args) -> int:
    from .orderzero import (
        OrderZeroError,
        comparison_certificate,
        obstruction_margin,
        oz_construct_witness,
        rank_cutoff,
    )

    phi = _load_map(args.phi)
    psi = _load_map(args.psi)
    try:
        cert = comparison_certificate(phi, psi)
        below = cert is None
        above = comparison_certificate(psi, phi) is None
        report = oz_construct_witness(phi, psi, tol=args.tol) if below else None
        margin = None if below else obstruction_margin(phi, psi)
        cutoff = None if below else rank_cutoff(phi, psi, phi.domain.point_labels.index(cert[0]))
    except OrderZeroError as exc:
        raise CliInputError(str(exc)) from None
    verdict = _VERDICTS[(below, above)]
    doc = {"schema": SCHEMA, "verdict": verdict}
    lines = [verdict]
    code = 0 if below else 4
    if below:
        doc["witness_residual"] = report.residual
        doc["tolerance"] = report.tolerance
        status = "residual" if report.passed else "REJECTED: residual"
        lines.append(f"witness {status} {report.residual:.3e} (tol {report.tolerance:g})")
        if not report.passed:
            doc["witness_passed"] = False
            code = 4
    else:
        point, lhs, rhs = cert
        doc["certificate"] = {"point": point, "phi_rank": lhs, "psi_rank": rhs}
        doc["obstruction_margin"] = margin
        lines.append(f"rank exceeds at {point}: {lhs} > {rhs}")
        if cutoff is not None:
            cut, counted, uncounted = cutoff
            doc["rank_cutoff"] = {
                "cutoff": cut,
                "phi_smallest_counted": counted,
                "psi_largest_uncounted": uncounted,
            }
            shown = "none" if uncounted is None else f"{uncounted:.3e}"
            lines.append(
                f"rank cutoff {cut:g} at {point}: phi's smallest counted eigenvalue "
                f"{counted:.3e}, psi's largest uncounted {shown}"
            )
        lines.append(f"obstruction margin {margin:.3e} (no witness residual is below it)")
    _emit(doc, lines, args.format)
    return code


def cmd_oz_witness(args) -> int:
    from .orderzero import OrderZeroError, PreconditionViolated, oz_construct_witness

    phi = _load_map(args.phi)
    psi = _load_map(args.psi)
    try:
        report = oz_construct_witness(phi, psi, tol=args.tol)
    except PreconditionViolated as exc:
        _emit(
            {"schema": SCHEMA, "passed": False, "reason": str(exc)},
            [f"no witness: {exc}"],
            args.format,
        )
        return 4
    except OrderZeroError as exc:
        raise CliInputError(str(exc)) from None
    doc = {
        "schema": SCHEMA,
        "passed": report.passed,
        "residual": report.residual,
        "tolerance": report.tolerance,
        "norm_tolerance": report.norm_tolerance,
    }
    if args.format == "json":  # the only place the corner is zero-padded
        try:
            doc["witness"] = report.dense().tolist()
        except OrderZeroError as exc:
            raise CliInputError(str(exc)) from None
    lines = [
        f"witness {'accepted' if report.passed else 'REJECTED'}: "
        f"residual {report.residual:.3e} (tol {report.tolerance:g})"
    ]
    _emit(doc, lines, args.format)
    return 0 if report.passed else 4


def cmd_axioms(args) -> int:
    from .waxioms import check_wm_axioms, check_wo_axioms, extnat_fragment, extnat_scaling

    if not 0 <= args.bound <= 64:
        raise CliInputError("bound must lie in 0..64")
    fragment = extnat_fragment(args.bound, aux=args.aux, sup=args.sup)
    checks = list(check_wo_axioms(fragment))
    for k in (2, 3, 5):
        morphism = extnat_scaling(fragment, k)
        for check in check_wm_axioms(morphism, fragment, fragment):
            checks.append(
                type(check)(f"{check.axiom}[x{k}]", check.passed, check.witness)
            )
    doc = {
        "schema": SCHEMA,
        "carrier": fragment.name,
        "bound": args.bound,
        "checks": [
            {"axiom": c.axiom, "passed": c.passed, "witness": c.witness}
            for c in checks
        ],
        "passed": all(c.passed for c in checks),
    }
    lines = [f"carrier: {fragment.name}"]
    for c in checks:
        status = "pass" if c.passed else f"FAIL ({c.witness})"
        lines.append(f"  {c.axiom}: {status}")
    _emit(doc, lines, args.format)
    return 0 if doc["passed"] else 4


# ---------------------------------------------------------------------------
# Parser assembly.

def _add_format(p) -> None:
    p.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="cuntz", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate W(A,B) or WW(A,B)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--w", action="store_true", help="unstabilized variant (default)")
    group.add_argument("--ww", action="store_true", help="stabilized variant")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    _add_format(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("compare", help="compare two multiplicity functions")
    p.add_argument("space", help="space document")
    p.add_argument("nu", help="first multiplicity function")
    p.add_argument("mu", help="second multiplicity function")
    _add_format(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("classify", help="isomorphism verdict for two algebras")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    _add_format(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("oz", help="order-zero laboratory")
    ozsub = p.add_subparsers(dest="oz_command", required=True)

    q = ozsub.add_parser("check", help="probe the order zero identity")
    q.add_argument("phi")
    q.add_argument("--trials", type=_trial_count, default=50)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--tol", type=_positive_tol, default=1e-9)
    _add_format(q)
    q.set_defaults(handler=cmd_oz_check)

    q = ozsub.add_parser("eps", help="epsilon cut of a map")
    q.add_argument("phi")
    q.add_argument("--eps", required=True, help='rational, e.g. "1/2"')
    _add_format(q)
    q.set_defaults(handler=cmd_oz_eps)

    q = ozsub.add_parser("compare", help="Cuntz comparison of two maps")
    q.add_argument("phi")
    q.add_argument("psi")
    q.add_argument("--tol", type=_positive_tol, default=1e-6)
    _add_format(q)
    q.set_defaults(handler=cmd_oz_compare)

    q = ozsub.add_parser("witness", help="construct and verify a witness")
    q.add_argument("phi")
    q.add_argument("psi")
    q.add_argument("--tol", type=_positive_tol, default=1e-6)
    _add_format(q)
    q.set_defaults(handler=cmd_oz_witness)

    p = sub.add_parser("axioms", help="fragment axiom checks")
    p.add_argument("carrier", choices=("extnat",))
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--aux", choices=("way-below", "leq"), default="way-below")
    p.add_argument("--sup", choices=("max", "finite-only"), default="max")
    _add_format(p)
    p.set_defaults(handler=cmd_axioms)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
