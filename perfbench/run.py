"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures set-up time
over several fresh interpreters, then runs the workload closed-loop with one
caller for S seconds (and at least 100 ops) and reports the end-to-end
metrics.  With ``--trace 1`` it runs the workload with spans around every
library call and reports the per-layer metrics and the tracing overhead.
Every op is checked against an oracle.  Human-readable lines come first;
the last line of stdout is one JSON object.  A result file with provenance
is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # extra fresh-interpreter set-ups; the measured worker is one more
IMPORT_PROBES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


class Worker:
    """A worker.py process; times the span from spawn to its READY line."""

    def __init__(self, args: list, deadline: float):
        self.t0 = time.perf_counter()
        # A session of its own, so that a kill at the deadline also reaches
        # the CLI children of a cli-mix worker.
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.kill)
        self.timer.start()
        self.setup_s = None

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self) -> list:
        """Wait for the worker; return its stdout lines after READY."""
        lines = []
        try:
            for line in self.proc.stdout:
                if line.strip() == "READY" and self.setup_s is None:
                    self.setup_s = time.perf_counter() - self.t0
                else:
                    lines.append(line)
            code = self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
            if self.proc.poll() is None:
                self.kill()
                self.proc.wait()
        if code != 0 or self.setup_s is None:
            raise RuntimeError(f"worker exited with code {code}")
        return lines


def import_probe() -> float:
    """Seconds for a fresh interpreter to import cuntz.cli."""
    code = ("import time; t = time.perf_counter(); import cuntz.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def provenance(args, report: dict) -> dict:
    commit = "unknown"  # a checkout without .git, as the benchmark usually runs in
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cuntz").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": report.get("numpy"),
        "nproc": nproc(),
        "blas_threads": nproc(),
        "cpu": cpu,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "loop_wall_s": report["loop_wall_s"],
        "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind so that Worker.finish kills the worker's session.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cuntz" / "__init__.py").is_file():
        print(f"error: no cuntz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]

    setup_samples, import_samples = [], []
    try:
        if args.trace:
            import_samples = [import_probe() for _ in range(IMPORT_PROBES)]
        else:
            for _ in range(SETUP_PROBES):
                probe = Worker([*common, "--setup-only"], deadline)
                probe.finish()
                setup_samples.append(probe.setup_s)
        worker = Worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                        deadline)
        report = json.loads(worker.finish()[-1])
    except (RuntimeError, subprocess.SubprocessError, IndexError, ValueError) as exc:
        print(f"error: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(worker.setup_s)

    if args.trace:
        wanted = spec["per_layer"]
        values = dict(report["layers"], **{"cli.import_s": statistics.median(import_samples)})
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": report["ops_per_s"],
            "op_p50_ms": report["op_p50_ms"],
            "op_p90_ms": report["op_p90_ms"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    fail_ratio = report["failed"] / report["attempted"]
    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {
        **result,
        "fail_ratio": fail_ratio,
        "wrong": report["wrong"],
        "beyond_p90": report["beyond_p90"],
        "by_kind": report["by_kind"],
        "setup_samples_s": setup_samples,
        "calibration_median_ms": report["calibration_ms"],
        "calibrations": report["calibrations"],
        "raw": report["raw"],
        "import_samples_s": import_samples,
        "failures": report["failures"],
        "provenance": provenance(args, report),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['attempted']} ops, {report['failed']} failed, {report['wrong']} wrong")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':32s} {fail_ratio:.6g} ratio")
    if not args.trace:
        print(f"  op times scaled to a 1 ms calibration loop; its median was "
              f"{report['calibration_ms']:.4g} ms")
    for failure in report["failures"][:5]:
        print(f"  failed op: {failure[:160]}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
