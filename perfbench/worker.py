"""One benchmark process: set up a workload, run it closed-loop, report.

Started by run.py in a fresh interpreter.  It prints ``READY`` once the
first timed op could run (imports done, first inputs built, one untimed
warm-up op finished); with ``--setup-only`` it stops there.  Otherwise it
ends with one JSON line holding the latency summary and, for a traced run,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from common import (  # noqa: E402
    CALIBRATION_WINDOW, calibration_loop, measure, measure_paired, run_op, summarize,
)
from tracing import Tracer, layer_metrics  # noqa: E402

MODULES = {
    "exact-mix": "exact_mix",
    "oz-lab": "oz_lab",
    "cli-mix": "cli_mix",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    tmp = workdir / f"tmp-{os.getpid()}"  # documents a workload writes during set-up
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        module = importlib.import_module(MODULES[args.workload])
        module.make_decks(args.seed, tmp)  # writes any documents the ops read
        warm = run_op(module.warmup_op(args.seed, tmp), Tracer(False), -1)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        if getattr(module, "ONE_CPU", False):
            # Children inherit the mask, so they run on the CPU that the
            # calibration loop measures.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if args.trace:
            # The ratio of traced to untraced busy time over the same ops is
            # the tracing overhead.
            tracer = Tracer(True)
            t0 = time.perf_counter()
            traced, plain = measure_paired(module.make_decks(args.seed, tmp), args.seconds,
                                           tracer)
            wall = time.perf_counter() - t0
            samples = traced + plain
            spans = tracer.spans
            layers = layer_metrics(spans)
            calibration = []
            if hasattr(module, "layer_probes"):
                layers.update(module.layer_probes())
            t_busy = sum(s.seconds for s in traced)
            p_busy = sum(s.seconds for s in plain)
            layers["trace.overhead_pct"] = 100.0 * (t_busy / p_busy - 1.0)
            layers["trace.spans"] = float(len(spans))
            with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span.to_json()) + "\n")
        else:
            t0 = time.perf_counter()
            loop = getattr(module, "calibration_loop", calibration_loop)
            window = getattr(module, "CALIBRATION_WINDOW", CALIBRATION_WINDOW)
            samples, calibration = measure(module.make_decks(args.seed, tmp), args.seconds,
                                           Tracer(False), loop, window)
            wall = time.perf_counter() - t0
            layers = None

        report = summarize(samples)
        report.update(
            warmup_error=warm.error,
            calibrations=len(calibration),
            calibration_ms=1e3 * statistics.median(calibration) if calibration else None,
            loop_wall_s=wall,
            peak_rss_mb=getattr(module, "peak_rss_mb", peak_rss_mb)(),
            layers=layers,
            numpy=sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        )
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
