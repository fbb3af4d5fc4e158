"""exact-mix: catalog rewrites, axiom checks and multiplicity ops in one deck.

All of it is exact pure-Python work with numpy idle: parsing, normalizing
and rewriting in ``algebra`` and ``catalog``, axiom checks in ``waxioms``
and multiplicity functions in ``multiplicity``.  The ops and their oracles
live in ``catalog_queries`` and ``monoid_fragments``.
"""

from __future__ import annotations

import random
from typing import List

import catalog_queries as cq
import monoid_fragments as mfr
from common import Op, Shoe, decks, strata

# Every deck of 90 ops holds the same kinds of op in the same numbers, so
# the cost of a deck barely depends on the seed.
#
# - p90 (the ninth costliest op of a deck) falls inside a class of twelve
#   axiom checks at bound 20.  Their input is fixed, so they cost alike on
#   every seed.  Four costlier ops sit above them: a 240- and a
#   150-summand sum, an axiom check at bound 28 and a CX(6) classification.
#   check_wo_axioms grows as about bound**4; one check at bound 40 would
#   cost as much as a whole deck, so the timed loop stops at 28.
# - p50 falls among the sixty small identities, classifications and
#   multiplicity law ops.
# - Between them: tensor chains, 60-120-summand sums, the overflow fault at
#   a low bound, scaling checks, a reconstruction and a small CX pair.
SUM_TARGETS = ("Z", "O2", "Q")  # absorb every summand of their pools
ZEROING_TARGETS = ("C", "M(4)", "stab(C)")  # most summands admit only zero maps
P90_BOUND, TOP_BOUND = 20, 28
P90_FAULTS = ("none", "sup-none") * 6
LOW_BOUNDS = (8, 12, 16)
SMALL_CX_PAIRS = [(k, k) for k in range(1, 5)] + [(k, k - 1) for k in range(2, 5)]
# (kind, points of the space; 0 is the unit interval)
TINY_OPS = ([("leq", p) for p in (0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 2, 3, 4)] + [("law", 4)] * 14
            + [("add", p) for p in (0, 3, 6)])


def make_decks(seed: int, workdir=None):
    singles: dict = {}  # (summand, target) -> value, filled by the sum oracle
    low, wm_bounds = Shoe(LOW_BOUNDS), Shoe(range(8, 41, 4))
    recover_k, small_cx = Shoe(range(1, 8)), Shoe(SMALL_CX_PAIRS)
    big_sum, mid_sum, zeroing = Shoe(SUM_TARGETS), Shoe(SUM_TARGETS), Shoe(ZEROING_TARGETS)

    def deck(rng: random.Random) -> List[Op]:
        families = list(range(cq.FAMILIES)) * 2 + [1, 2, 4, 5]
        ops = [cq.identity_op(rng, f) for f in families]
        ops += [cq.absorption_op(rng) for _ in range(2)]
        ops += [cq.matrix_classify_op(rng) for _ in range(4)]
        ops += [cq.uhf_classify_op(rng) for _ in range(2)]
        ops += [mfr.tiny_op(rng, kind, points) for kind, points in TINY_OPS]

        ops += [cq.chain_op(rng, n, True) for n in strata(rng, 1, cq.ABSORBING_CHAIN_MAX, 3)]
        ops += [cq.chain_op(rng, n, False) for n in strata(rng, 1, 80, 2)]
        ops += [cq.sum_op(rng, 80, mid_sum.draw(rng), singles) for _ in range(2)]
        ops += [cq.sum_op(rng, n, zeroing.draw(rng), singles) for n in strata(rng, 60, 120, 2)]
        ops.append(mfr.wo_op(low.draw(rng), "overflow"))
        ops += [mfr.wm_op(wm_bounds.draw(rng), rng.randint(1, 5)) for _ in range(2)]
        ops.append(mfr.recover_op(recover_k.draw(rng), rng.randrange(2**32)))
        ops.append(mfr.cx_classify_op(*small_cx.draw(rng)))

        ops += [mfr.wo_op(P90_BOUND, fault) for fault in P90_FAULTS]

        ops.append(cq.sum_op(rng, 240, big_sum.draw(rng), singles))
        ops.append(cq.sum_op(rng, 150, big_sum.draw(rng), singles))
        ops.append(mfr.wo_op(TOP_BOUND, "none"))
        ops.append(mfr.cx_classify_op(6, 6))
        return ops

    return decks(seed, deck)


def warmup_op(seed: int, workdir=None) -> Op:
    rng = random.Random(seed)
    first, second = cq.identity_op(rng, 0), mfr.tiny_op(rng, "leq", 3)

    def run(t):
        return first.run(t), second.run(t)

    def check(results):
        return first.check(results[0]) or second.check(results[1])

    return Op("warmup", run, check)


def layer_probes() -> dict:
    """Per-layer metrics measured apart from the timed loop."""
    return {"catalog.eval.failed": float(cq.over_budget_failures())}
