"""cli-mix: one ``python -m cuntz.cli`` child per op, one after another.

Interpreter start and imports dominate each op, so this is the workload
where import and lazy-loading changes show.  Small map, space and function
documents are written during set-up.  The oracle runs the same arguments
through ``cuntz.cli.main`` in this process and compares the exit code and
the first output line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import List

from cuntz.cli import main as cli_main
from cuntz.multiplicity import Space, mf_to_json, space_to_json
from cuntz.orderzero import oz_to_json

from catalog_queries import FAMILIES, known_identity
from common import Op, dealt, decks
from monoid_fragments import Fn
from oz_lab import map_pair

# Op times are scaled by the median calibration time of the whole run, not
# of the calibrations next to each op.  A CLI op is mostly process start-up,
# and its time did not follow the calibration loop from one op to the next
# (correlation about 0); over a run, both follow the host's speed.  The
# worker and its children share one CPU, so that the loop measures the CPU
# the children run on.
CALIBRATION_WINDOW = None
ONE_CPU = True
ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 60

# peak_rss_mb is the largest CLI child.  A child's ru_maxrss also counts the
# worker's pages up to the child's exec (Linux carries the old address
# space's high-water mark into it), so each child reports the high-water
# mark of its own address space, VmHWM, on its last stderr line instead.
CHILD_MAIN = """\
import runpy, sys
try:
    runpy.run_module("cuntz.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        hwm = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    sys.stderr.write(f"\\nVmHWM {hwm[0] if hwm else 0}\\n")
"""
child_peaks_kib = [0]


def peak_rss_mb() -> float:
    return max(child_peaks_kib) / 1024.0


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps({"schema": "cuntz/1", **doc}), encoding="utf-8")
    return str(path)


def write_documents(rng: random.Random, tmp: Path) -> dict:
    """Map pairs and function pairs for the file-based subcommands."""
    tmp.mkdir(parents=True, exist_ok=True)
    docs = {"maps": [], "functions": []}
    for i, (mode, dominated) in enumerate(
        [(m, d) for m in ("diag", "psd") for d in (True, True, False)]
    ):
        phi, psi = map_pair(rng, rng.randint(1, 4), rng.randint(4, 12), mode, dominated)
        docs["maps"].append((_write(tmp / f"phi{i}.json", oz_to_json(phi.map)),
                             _write(tmp / f"psi{i}.json", oz_to_json(psi.map))))
    for i in range(6):
        if i % 3 == 2:
            space = Space.interval()
        else:
            space = Space.discrete(tuple(f"p{j}" for j in range(rng.randint(1, 5))))
        nu, mu = Fn(rng, space), Fn(rng, space)
        docs["functions"].append((
            _write(tmp / f"space{i}.json", space_to_json(space)),
            _write(tmp / f"nu{i}.json", mf_to_json(nu.obj)),
            _write(tmp / f"mu{i}.json", mf_to_json(mu.obj)),
        ))
    return docs


def _argv(rng: random.Random, kind: str, docs: dict) -> List[str]:
    if kind == "eval":
        variant, a, b, _ = known_identity(rng, rng.randrange(FAMILIES))
        return ["eval", "--ww" if variant == "WW" else "--w", a, b]
    if kind == "classify":
        n, m, k = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 4)
        return ["classify", *rng.choice([
            (f"M({n})", f"M({m})"),
            (f"UHF({rng.choice([2, 3])}:inf)", rng.choice(["CAR", "UHF(3:inf)", "Q"])),
            ("CX(" + ",".join("abcd"[:k]) + ")", "CX(" + ",".join("pqrs"[:rng.randint(1, 4)]) + ")"),
            ("Z", "O2"),
        ])]
    if kind == "compare":
        return ["compare", *rng.choice(docs["functions"])]
    if kind in ("oz compare", "oz witness"):
        return [*kind.split(), *rng.choice(docs["maps"])]
    options = rng.choice([[], ["--aux", "leq"], ["--sup", "finite-only"],
                          ["--aux", "leq", "--sup", "finite-only"]])
    return ["axioms", "extnat", "--bound", str(rng.randint(0, 12)), *options]


def in_process(argv: List[str]):
    """Exit code and stdout of ``cuntz.cli.main`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def cli_op(argv: List[str]) -> Op:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    tracer_of_run = []  # the oracle's in-process run joins the op's trace

    def run(t):
        tracer_of_run.append(t)
        child = t.call(
            "cli.child", {"command": argv[0]}, subprocess.run,
            [sys.executable, "-c", CHILD_MAIN, *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        stderr, _, hwm = child.stderr.rstrip("\n").rpartition("\nVmHWM ")
        child_peaks_kib.append(int(hwm) if hwm.isdigit() else 0)
        child.stderr = stderr
        return child

    def check(child):
        code, stdout = tracer_of_run[-1].call("cli.main", {}, in_process, argv)
        got = (child.stdout.splitlines() or [""])[0]
        want = (stdout.splitlines() or [""])[0]
        if (child.returncode, got) != (code, want):
            return (f"{' '.join(argv)}: exit {child.returncode} {got!r}, in-process "
                    f"{code} {want!r}; stderr {child.stderr[-200:]!r}")
        return None

    return Op(argv[0] if argv[0] != "oz" else " ".join(argv[:2]), run, check)


def make_decks(seed: int, workdir: Path):
    docs = write_documents(random.Random(seed), Path(workdir))
    kinds = (["eval"] * 3 + ["classify"] * 2 + ["compare"] * 2 + ["oz compare"] * 2
             + ["oz witness"] + ["axioms"] * 2)

    def deck(rng: random.Random) -> List[Op]:
        return [cli_op(_argv(rng, kind, docs)) for kind in dealt(rng, kinds)]

    return decks(seed + 1, deck)


def warmup_op(seed: int, workdir=None) -> Op:
    return cli_op(["eval", "--w", "C", "C"])
