"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A smoke-size run of every workload passes its oracles: no op returns an
   answer its oracle rejects.  Ops that raise are listed; none are
   expected.
2. Every oracle rejects a deliberately wrong answer, and the rejection
   counts as a failed op, so ``failed`` cannot be stuck at 0.
3. A traced smoke run yields exactly the per-layer metrics BENCHMARK.json
   lists, apart from the ones run.py measures itself.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cuntz.catalog import ClassificationVerdict, NatSG, ZeroSG  # noqa: E402

import cli_mix  # noqa: E402
import exact_mix  # noqa: E402
import oz_lab  # noqa: E402
from common import Op, measure_paired, run_op, summarize  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SMOKE = {exact_mix: 90, oz_lab: 12, cli_mix: 3}
RUN_BY_RUN_PY = {"cli.import_s", "trace.overhead_pct", "trace.spans"}


def _wrong_value(value):
    return NatSG() if isinstance(value, ZeroSG) else ZeroSG()


def corrupt(kind: str, result):
    """A wrong answer of the same shape as ``result``."""
    if kind in ("identity", "chain", "sum"):
        return _wrong_value(result[0]), result[1]
    if kind == "absorption":
        return result[0], result[1] + "?"
    if kind == "classify-matrix":
        verdict, note = result
        flipped = "NotIsomorphic" if verdict.verdict == "Isomorphic" else "Isomorphic"
        return ClassificationVerdict(flipped, verdict.certificate), note
    if kind in ("classify-uhf", "classify-cx"):
        flipped = "NotIsomorphic" if result.verdict == "Isomorphic" else "Isomorphic"
        return ClassificationVerdict(flipped, result.certificate)
    if kind.startswith(("witness-", "obstruction-")):
        return dict(result, below=not result["below"])
    if kind.startswith("wo-") or kind == "wm":
        first = result[0]
        return [dataclasses.replace(first, passed=not first.passed), *result[1:]]
    if kind == "recover":
        return dataclasses.replace(result, point_count=result.point_count + 1)
    if kind in ("mf-leq", "mf-law"):
        return not result
    if kind == "mf-add":
        return result[0], result[0].space  # the second sum is no longer equal
    if isinstance(result, subprocess.CompletedProcess):
        return subprocess.CompletedProcess(result.args, result.returncode + 1,
                                           result.stdout, result.stderr)
    raise KeyError(kind)


def main() -> int:
    problems = []
    (HERE / "out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
    try:
        for module, count in SMOKE.items():
            name = module.__name__
            checked, wrongs = 0, []
            ops = itertools.chain.from_iterable(module.make_decks(7, tmp))
            for op_id, op in enumerate(itertools.islice(ops, count)):
                try:
                    result = op.run(Tracer(False))
                except Exception as exc:  # reported; the oracle cannot judge it
                    print(f"  {name}: {op.kind} raised {type(exc).__name__}: {str(exc)[:80]}")
                    continue
                verdict = op.check(result)
                if verdict is not None:
                    problems.append(f"{name}: oracle rejected a real answer: {verdict}")
                checked += 1
                bad = Op(op.kind, lambda t, r=corrupt(op.kind, result): r, op.check)
                wrongs.append(run_op(bad, Tracer(False), op_id))
            bad = summarize(wrongs)
            if bad["wrong"] != len(wrongs) or bad["failed"] != len(wrongs):
                missed = [s.kind for s in wrongs if not s.error]
                problems.append(f"{name}: oracle accepted wrong answers for {missed}")
            print(f"{name}: {checked} answers accepted, "
                  f"{bad['failed']}/{len(wrongs)} wrong answers counted as failed")

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        tracer = Tracer(True)
        measure_paired(itertools.islice(exact_mix.make_decks(7, tmp), 1), 1e9, tracer,
                       min_pairs=0)
        got = set(layer_metrics(tracer.spans))
        want = {m["name"] for m in spec["per_layer"]} - RUN_BY_RUN_PY
        if got != want:
            problems.append(f"per-layer metrics differ from BENCHMARK.json: {sorted(got ^ want)}")
        if not tracer.spans:
            problems.append("traced run recorded no spans")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
