"""Pieces shared by the workloads: the op record, stratified draws and the
closed measurement loop."""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from tracing import Tracer

# Below this many ops a run keeps going past its time budget, so that at
# least ten latency samples lie beyond p90.
MIN_OPS = 100

# The timed loop runs the calibration loop between ops, at most once per
# CALIBRATE_EVERY_S.  Each op time is scaled to a machine on which one
# calibration loop takes NOMINAL_CALIBRATION_S, by the median of the
# CALIBRATION_WINDOW calibrations run nearest to the op: half before it and
# half after.  A window of None takes the median over the whole run.
CALIBRATE_EVERY_S = 0.05
NOMINAL_CALIBRATION_S = 1e-3
CALIBRATION_WINDOW = 4


@dataclass
class Op:
    """One closed-loop request: ``run`` calls the library through the tracer,
    ``check`` returns None when the oracle accepts the result, else why not."""

    kind: str
    run: Callable[[Tracer], object]
    check: Callable[[object], Optional[str]]


def strata(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """``count`` integers covering [lo, hi] evenly, one drawn from each of
    ``count`` equal slices, in shuffled order.  Keeps the size mix of every
    deck the same whatever the seed."""
    width = (hi - lo + 1) / count
    out = [lo + int(width * i + rng.random() * width) for i in range(count)]
    rng.shuffle(out)
    return out


def dealt(rng: random.Random, cards: Sequence) -> list:
    out = list(cards)
    rng.shuffle(out)
    return out


class Shoe:
    """Draws from shuffled copies of ``cards``, one copy after another, so
    that a few draws per deck still cover every card evenly over a run."""

    def __init__(self, cards: Sequence):
        self.cards = list(cards)
        self.left: list = []

    def draw(self, rng: random.Random):
        if not self.left:
            self.left = dealt(rng, self.cards)
        return self.left.pop()


def decks(seed: int, make_deck: Callable[[random.Random], List[Op]]) -> Iterator[List[Op]]:
    """An endless stream of shuffled decks; the same seed gives the same
    stream."""
    rng = random.Random(seed)
    while True:
        deck = make_deck(rng)
        rng.shuffle(deck)
        yield deck


def calibration_loop() -> int:
    """The default calibration loop, for workloads of plain Python code: a
    fixed piece of pure-Python work, dict updates, int and str ops.  A
    workload whose ops run other kinds of code may bring its own loop."""
    table: dict = {}
    total = 0
    for i in range(2000):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i
        total += len(str(i)) + (i & 7)
    return total


def calibrate(loop: Callable[[], object] = calibration_loop) -> float:
    """Seconds one calibration loop takes right now."""
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


@dataclass
class Sample:
    kind: str
    seconds: float
    error: Optional[str]  # None, "raised: ..." or "wrong: ..."
    scale: float = 1.0  # turns ``seconds`` into seconds on the nominal machine


def run_op(op: Op, tracer: Tracer, op_id: int) -> Sample:
    """Time one op and judge it.  A raise or an oracle rejection fails it."""
    root = tracer.open("op", op=op_id, kind=op.kind)
    t0 = time.perf_counter()
    try:
        result = op.run(tracer)
    except Exception as exc:  # a failed op is data, not a benchmark crash
        seconds = time.perf_counter() - t0
        tracer.close(root, error=True)
        return Sample(op.kind, seconds, f"raised: {type(exc).__name__}: {exc}"[:300])
    seconds = time.perf_counter() - t0
    tracer.close(root)
    verdict = op.check(result)
    return Sample(op.kind, seconds, None if verdict is None else f"wrong: {verdict}"[:300])


def measure(stream: Iterator[List[Op]], seconds: float, tracer: Tracer,
            loop: Callable[[], object] = calibration_loop,
            window: Optional[int] = CALIBRATION_WINDOW):
    """Closed loop with one caller: run ops back to back, whole decks at a
    time, until ``seconds`` of wall time and ``MIN_OPS`` ops are done.  Whole
    decks keep the op mix of every run the same.  Between ops, the
    calibration ``loop`` samples the host's current speed, and each sample
    gets the scale of the ``window`` calibrations nearest to it, or of all
    of them.  Returns the samples and the calibration times."""
    samples: List[Sample] = []
    calibration: List[float] = []
    before: List[int] = []  # calibrations run before each op
    deadline = time.perf_counter() + seconds
    next_calibration = 0.0
    for deck in stream:
        for op in deck:
            if time.perf_counter() >= next_calibration:
                calibration.append(calibrate(loop))
                next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
            before.append(len(calibration))
            samples.append(run_op(op, tracer, len(samples)))
        if len(samples) >= MIN_OPS and time.perf_counter() >= deadline:
            break
    calibration.append(calibrate(loop))
    for sample, k in zip(samples, before):
        near = calibration if window is None else calibration[max(0, k - window // 2):
                                                               k + window // 2]
        sample.scale = NOMINAL_CALIBRATION_S / statistics.median(near)
    return samples, calibration


def measure_paired(stream: Iterator[List[Op]], seconds: float, tracer: Tracer,
                   min_pairs: int = MIN_OPS // 2):
    """Like ``measure``, but every op runs twice, once traced and once not,
    alternating which goes first, so that both see the same inputs equally
    warm.  Returns the traced and the untraced samples."""
    traced: List[Sample] = []
    plain: List[Sample] = []
    off = Tracer(False)
    deadline = time.perf_counter() + seconds
    for deck in stream:
        for op in deck:
            op_id = len(traced)
            if op_id % 2:
                traced.append(run_op(op, tracer, op_id))
                plain.append(run_op(op, off, op_id))
            else:
                plain.append(run_op(op, off, op_id))
                traced.append(run_op(op, tracer, op_id))
        if len(traced) >= min_pairs and time.perf_counter() >= deadline:
            break
    return traced, plain


def latency_metrics(lat: List[float]) -> dict:
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "beyond_p90": sum(1 for x in lat if x > deciles[8]),
    }


def summarize(samples: List[Sample]) -> dict:
    """Latency metrics of ``samples`` on the nominal machine; the unscaled
    ones under ``raw``."""
    lat = [s.seconds for s in samples]
    failed = [s for s in samples if s.error]
    by_kind: dict = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.seconds)
    return {
        "attempted": len(samples),
        "failed": len(failed),
        "wrong": sum(1 for s in failed if s.error.startswith("wrong")),
        "busy_s": sum(lat),
        **latency_metrics([s.seconds * s.scale for s in samples]),
        "raw": latency_metrics(lat),
        "by_kind": {
            kind: {"ops": len(xs), "median_ms": statistics.median(xs) * 1e3}
            for kind, xs in sorted(by_kind.items())
        },
        "failures": [f"{s.kind}: {s.error}" for s in failed[:20]],
    }
