"""oz-lab: Cuntz comparison of order-zero maps on commutative domains.

Each op compares a seeded pair of maps both ways, then either builds the
witness (dominated pairs) or asks for the rank certificate and runs the
randomized witness search (obstructions).  Some ops also cut the first map
at a rational epsilon or probe the order-zero identity.  Maps come in diag
and psd form; psd blocks are U diag(lambda) U^T with a rational orthogonal U,
so every entry is an exact Fraction and every non-zero eigenvalue is at
least 1/4.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

import numpy as np

from cuntz.orderzero import (
    comparison_certificate,
    findim,
    oz_check_order_zero,
    oz_construct_witness,
    oz_cuntz_leq_commutative,
    oz_eps_cut,
    oz_new,
    oz_witness_search,
)

from common import Op, dealt, decks

SAMPLES = 4096
CHECK_TRIALS = 20

# Fixed inputs of this workload's calibration loop: a batch of 8 x 8 blocks
# and three generator images, as in the witness search.
_CAL = np.random.default_rng(0)
_CAL_BLOCKS = _CAL.standard_normal((24, 8, 8))
_CAL_IMAGES = _CAL.standard_normal((3, 8, 8))


def calibration_loop() -> float:
    """The calibration loop of this workload: the batched conjugation and
    max-norm bound of the witness search, and one singular value, on fixed
    small inputs.  Small numpy kernels meet a slower host differently from
    plain Python loops, so oz-lab scales its times by this loop."""
    r = np.einsum("sji,gjk,skl->sgil", _CAL_BLOCKS, _CAL_IMAGES, _CAL_BLOCKS)
    lower = np.abs(r).reshape(len(_CAL_BLOCKS), len(_CAL_IMAGES), -1).max(axis=2).max(axis=1)
    return float(np.linalg.svd(r[int(np.argmin(lower)), 0], compute_uv=False)[0])

POS16 = tuple(Fraction(j, 16) for j in range(4, 17))  # spectral floor 1/4
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


def exact_rank(rows) -> int:
    """Rank of a Fraction matrix by Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rational_orthogonal(rng: random.Random, n: int):
    """A product of Givens rotations with Pythagorean cosines and sines."""
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a, b, h = rng.choice(TRIPLES)
        c, s = Fraction(a, h), Fraction(b, h) * rng.choice((1, -1))
        for row in u:
            row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
    return u


class Block:
    """One point's structure matrix with its spectrum known exactly."""

    def __init__(self, rng: random.Random, mode: str, size: int, rank: int):
        self.eigs = [rng.choice(POS16) for _ in range(rank)] + [Fraction(0)] * (size - rank)
        rng.shuffle(self.eigs)
        if mode == "diag":
            self.data = tuple(self.eigs)
            self.rows = [[self.eigs[i] if i == j else Fraction(0) for j in range(size)]
                         for i in range(size)]
        else:
            u = rational_orthogonal(rng, size)
            self.rows = [
                [sum(u[i][k] * self.eigs[k] * u[j][k] for k in range(size)) for j in range(size)]
                for i in range(size)
            ]
            self.data = self.rows if size else np.zeros((0, 0))


class MapSpec:
    """The Fraction data of a map and the ranks the oracle reads from it."""

    def __init__(self, rng, mode, sizes, ranks, target_dim):
        self.mode = mode
        self.blocks = [Block(rng, mode, m, r) for m, r in zip(sizes, ranks)]
        self.ranks = [
            exact_rank(b.rows) if mode == "psd" and b.rows else sum(1 for x in b.eigs if x)
            for b in self.blocks
        ]
        self.target_dim = target_dim
        self.map = oz_new(findim(*[1] * len(sizes)), self.target_dim, sizes,
                          [b.data for b in self.blocks], mode)


def _fit(rng: random.Random, ranks: list, target_dim: int) -> list:
    """Lower random ranks until they fit in the target dimension."""
    while sum(ranks) > target_dim:
        i = rng.choice([i for i, r in enumerate(ranks) if r])
        ranks[i] -= 1
    return ranks


def _sizes(rng: random.Random, ranks: list, target_dim: int) -> list:
    """Block sizes between each rank and 3 that fit in the target dimension."""
    sizes = list(ranks)
    for i in dealt(rng, range(len(sizes))):
        sizes[i] += rng.randint(0, min(3 - sizes[i], target_dim - sum(sizes)))
    return sizes


def map_pair(rng: random.Random, points: int, target_dim: int, mode: str, dominated: bool):
    """phi and psi on ``points`` points, both into M(target_dim); phi <= psi
    exactly when ``dominated``."""
    ranks = _fit(rng, [rng.randint(0, 3) for _ in range(points)], target_dim)
    if not any(ranks):
        ranks[rng.randrange(points)] = 1
    if dominated:
        psi_ranks = list(ranks)
        for i in dealt(rng, range(points)):
            if psi_ranks[i] < 3 and sum(psi_ranks) < target_dim:
                psi_ranks[i] += rng.randint(0, 1)
    else:
        j = rng.choice([i for i, r in enumerate(ranks) if r])
        psi_ranks = [rng.randint(0, 3) for _ in range(points)]
        psi_ranks[j] = rng.randint(0, ranks[j] - 1)
        psi_ranks = _fit(rng, psi_ranks, target_dim)
    phi = MapSpec(rng, mode, _sizes(rng, ranks, target_dim), ranks, target_dim)
    psi = MapSpec(rng, mode, _sizes(rng, psi_ranks, target_dim), psi_ranks, target_dim)
    return phi, psi


def comparison_op(rng: random.Random, points: int, target_dim: int, mode: str,
                  dominated: bool, extra: str) -> Op:
    phi, psi = map_pair(rng, points, target_dim, mode, dominated)
    below = all(a <= b for a, b in zip(phi.ranks, psi.ranks))
    above = all(b <= a for a, b in zip(phi.ranks, psi.ranks))
    op_seed = rng.randrange(2**31)
    eps = Fraction(rng.randint(0, 16), 16)
    size = {"target_dim": target_dim}

    def run(t):
        out = {
            "below": t.call("orderzero.leq", size, oz_cuntz_leq_commutative, phi.map, psi.map),
            "above": t.call("orderzero.leq", size, oz_cuntz_leq_commutative, psi.map, phi.map),
        }
        if out["below"]:
            out["witness"] = t.call("orderzero.witness", size, oz_construct_witness,
                                    phi.map, psi.map)
        else:
            out["cert"] = t.call("orderzero.certificate", size, comparison_certificate,
                                 phi.map, psi.map)
            out["best"] = t.call("orderzero.search", {**size, "samples": SAMPLES},
                                 oz_witness_search, phi.map, psi.map,
                                 samples=SAMPLES, seed=op_seed)
        if extra == "eps":
            out["cut"] = t.call("orderzero.eps_cut", size, oz_eps_cut, phi.map, eps)
        elif extra == "check":
            out["check"] = t.call("orderzero.check", size, oz_check_order_zero, phi.map,
                                  trials=CHECK_TRIALS, seed=op_seed)
        return out

    def check(out):
        if (out["below"], out["above"]) != (below, above):
            return f"leq {out['below']}/{out['above']}, ranks {phi.ranks} vs {psi.ranks}"
        if below:
            rep = out["witness"]
            if not (rep.passed and rep.residual < rep.tolerance):
                return f"witness residual {rep.residual}"
        else:
            if out["cert"] is None:
                return "no certificate for an obstruction"
            point, lhs, rhs = out["cert"]
            i = int(point[1:]) - 1  # points are labelled x1, x2, ...
            if (lhs, rhs) != (phi.ranks[i], psi.ranks[i]) or lhs <= rhs:
                return f"certificate {out['cert']} for ranks {phi.ranks} vs {psi.ranks}"
            if out["best"] < 0.1:
                return f"search beat the obstruction: {out['best']}"
        if extra == "eps":
            return _check_cut(phi, eps, out["cut"])
        if extra == "check":
            rep = out["check"]
            trials = CHECK_TRIALS if points > 1 else 0  # one point: no orthogonal pair
            if not rep.passed or rep.trials != trials or rep.max_violation > rep.tolerance:
                return f"order zero check {rep}"
        return None

    return Op(f"{'witness' if below else 'obstruction'}-{mode}", run, check)


def _check_cut(phi: MapSpec, eps: Fraction, cut) -> Optional[str]:
    for i, block in enumerate(phi.blocks):
        want = sorted(max(x - eps, Fraction(0)) for x in block.eigs)
        if phi.mode == "diag":
            if sorted(cut.blocks[i]) != want:
                return f"eps cut of point {i}: {cut.blocks[i]}"
        elif block.eigs:
            got = np.linalg.eigvalsh(cut.block_dense(i))
            if np.max(np.abs(got - np.array([float(x) for x in want]))) > 1e-9:
                return f"eps cut spectrum of point {i}: {got}"
    return None


# One deck: four obstructions that share one shape, three of them psd (whose
# search costs more), so that p90 falls inside a class of ops that cost
# alike; and six witnesses, four of which share the costliest witness shape
# so that p50 does the same.  Cuts and order-zero checks ride on the
# obstructions, whose search dwarfs them.
OBSTRUCTION_SHAPE = (3, 8)  # (points, target_dim)
WITNESS_SHAPES = ((1, 4), (2, 6), (4, 12), (4, 12), (4, 12), (4, 12))


def make_decks(seed: int, workdir=None):
    def deck(rng: random.Random) -> List[Op]:
        ops = []
        modes = dealt(rng, ["diag", "psd", "psd", "psd"])
        for mode, extra in zip(modes, dealt(rng, ["check", "check", "eps", "eps"])):
            ops.append(comparison_op(rng, *OBSTRUCTION_SHAPE, mode, False, extra))
        modes = dealt(rng, ["diag", "psd"] * 3)
        for (points, dim), mode in zip(WITNESS_SHAPES, modes):
            ops.append(comparison_op(rng, points, dim, mode, True, ""))
        return ops

    return decks(seed, deck)


def warmup_op(seed: int, workdir=None) -> Op:
    return comparison_op(random.Random(seed), 2, 6, "diag", True, "")
