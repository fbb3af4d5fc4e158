"""Finite-dimensional models of completely positive contractive order zero
maps and the comparison theory between them.

A map is stored through its structure decomposition: the domain is a finite
direct sum of matrix blocks, block i is represented with multiplicity
``mults[i]``, and ``blocks[i]`` is the positive contraction h restricted to
the corresponding reducing subspace, so the map acts as

    a = (a_1, ..., a_k)  |->  diag(H_1 (x) a_1, ..., H_k (x) a_k)

zero-padded to the target dimension.  Two numeric modes are supported:
``diag`` keeps every H_i diagonal with rational entries so ranks, cuts and
comparisons are decided exactly; ``psd`` allows arbitrary positive
semidefinite blocks in floating point.

A psd block is positive, so it is self-adjoint: ``oz_new`` accepts one
that ``np.allclose`` finds symmetric and stores its symmetric part
(h + h^T)/2, a new read-only array.  The spectrum, the ranks, ``apply`` and
every witness residual then read one matrix, and a later write to the
caller's array cannot change the map.

Every spectral question reads one cached eigensystem per block,
``OrderZeroMap.spectrum``, and one rank rule: in diag mode every exact
positive entry counts, in psd mode every eigenvalue above 1e-10 counts.
The eigenpairs the rule counts are kept once per map, largest first
(``OrderZeroMap.positive``); the ranks and the multiplicity profile are
counted from them (``OrderZeroMap.ranks`` and ``OrderZeroMap.multiplicity``),
and witness construction and search read them.  Float work reads each
block as a read-only float matrix, converted once per map
(``OrderZeroMap.dense_blocks``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import inf, isfinite
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

# The package's own modules before numpy: compiled from source where no
# bytecode cache is written, their compile memory is then reused by numpy
# instead of adding to its peak (1.3 MB of an oz run's 32 MB).  The
# multiplicity layer is imported where a spectrum or a profile needs it, so
# that check, compare and witness never load it.
from .extnat import ExtNat
from .record import Record

import numpy as np

if TYPE_CHECKING:
    from .multiplicity import MultiplicityFunction, Space

DIAG = "diag"
PSD = "psd"

EIG_CUTOFF = 1e-10
NORM_TOL = 1e-12


class OrderZeroError(Exception):
    """Base of every error the order-zero laboratory raises."""


class DimensionMismatch(OrderZeroError):
    """Block data does not fit the declared dimensions."""


class NotPositive(OrderZeroError):
    """A matrix that must be positive semidefinite is not."""


class NormExceedsOne(OrderZeroError):
    """A contraction was declared but its norm exceeds one."""


class NotFinite(OrderZeroError, ValueError):
    """A block holds an infinite or NaN entry."""


class NonCommutativeDomain(OrderZeroError):
    """The operation needs a commutative domain (all blocks of size 1)."""


class ShapeMismatch(OrderZeroError):
    """A witness matrix has the wrong shape."""


class PreconditionViolated(OrderZeroError):
    """The comparison hypothesis of the construction does not hold."""


class NotDominated(OrderZeroError):
    """Handelman's construction needs a <= b."""


class DomainMismatch(OrderZeroError):
    """The maps do not share the required domain or target."""


class FinDimAlgebra(Record):
    """A finite direct sum of matrix algebras, given by its block sizes."""

    blocks: Tuple[int, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("a finite-dimensional algebra needs at least one block")
        if any(not isinstance(n, int) or n < 1 for n in self.blocks):
            raise ValueError(f"block sizes must be integers >= 1, got {self.blocks}")

    @property
    def is_commutative(self) -> bool:
        return all(n == 1 for n in self.blocks)

    @property
    def point_labels(self) -> Tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(len(self.blocks)))

    def spectrum(self) -> Space:
        from .multiplicity import Space

        return Space.discrete(self.point_labels)


def findim(*blocks: int) -> FinDimAlgebra:
    return FinDimAlgebra(tuple(blocks))


SCALARS = findim(1)

DiagBlock = Tuple[Fraction, ...]
Block = Union[DiagBlock, np.ndarray]
Element = Sequence[Union[float, Fraction, Sequence, np.ndarray]]
Corner = Tuple[slice, slice, np.ndarray]  # rows, columns, block


class OrderZeroMap(Record):
    """A map equals only itself: its blocks may be numpy arrays."""

    domain: FinDimAlgebra
    target_dim: int
    mults: Tuple[int, ...]
    blocks: Tuple[Block, ...]
    mode: str

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @cached_property
    def used(self) -> int:
        """u = sum of m_i n_i: every image vanishes outside its first u rows
        and columns, the used corner of the target."""
        return sum(m * n for m, n in zip(self.mults, self.domain.blocks))

    @cached_property
    def offsets(self) -> Tuple[int, ...]:
        out = []
        acc = 0
        for m, n in zip(self.mults, self.domain.blocks):
            out.append(acc)
            acc += m * n
        return tuple(out)

    @cached_property
    def dense_blocks(self) -> Tuple[np.ndarray, ...]:
        """Every H_i as a read-only float matrix, converted once per map."""
        if self.mode == DIAG:
            return tuple(_frozen(np.diag([float(x) for x in h])) for h in self.blocks)
        return tuple(np.asarray(h, dtype=float) for h in self.blocks)

    def block_dense(self, i: int) -> np.ndarray:
        """H_i as a read-only float matrix."""
        return self.dense_blocks[i]

    def apply(self, element: Element) -> np.ndarray:
        """Evaluate the map on a domain element, given block by block: the
        image on the used corner, zero-padded to the target dimension."""
        corner = self._used_image(element)
        out = _zeros(self.target_dim, self.target_dim)
        out[: self.used, : self.used] = corner
        return out

    def _used_image(self, element: Element, lead: Tuple[int, ...] = ()) -> np.ndarray:
        """The image of ``apply`` on its used corner, the first u rows and
        columns, outside which it vanishes.  With ``lead`` = (s,), every
        block of ``element`` is a stack of s matrices, and so is the image;
        a block that is zero in every element of the stack is left out.

        Block i of the image is the Kronecker product H_i (x) a_i, built as
        one broadcast product of its entries."""
        if len(element) != len(self.domain.blocks):
            raise DimensionMismatch(
                f"element has {len(element)} blocks, domain has {len(self.domain.blocks)}"
            )
        out = np.zeros(lead + (self.used, self.used))
        for i, (m, n, off) in enumerate(zip(self.mults, self.domain.blocks, self.offsets)):
            if m == 0:
                continue
            a = np.atleast_2d(np.asarray(element[i], dtype=float))
            if a.shape != lead + (n, n):
                raise DimensionMismatch(f"block {i} must be {n}x{n}, got {a.shape}")
            if lead and not a.any():
                continue  # a probe stack; apply writes the -0.0 of H_i (x) 0, as np.kron does
            h = self.dense_blocks[i]
            piece = h[:, None, :, None] * a[..., None, :, None, :]
            out[..., off : off + m * n, off : off + m * n] = piece.reshape(lead + (m * n,) * 2)
        return out

    @cached_property
    def spectrum(self) -> Tuple[Tuple[Sequence, np.ndarray], ...]:
        """Eigenvalues and eigenvectors (as columns) of every H_i.

        Diag mode gives the stored Fraction entries in stored order with the
        identity basis; psd mode gives ``np.linalg.eigh`` of the block, in
        ascending order.
        """
        if self.mode == DIAG:
            return tuple((h, np.eye(len(h))) for h in self.blocks)
        return tuple(np.linalg.eigh(h) for h in self.dense_blocks)

    @property
    def cutoff(self):
        """Eigenvalues above this count as positive: 0 exactly, or 1e-10."""
        return 0 if self.mode == DIAG else EIG_CUTOFF

    @cached_property
    def positive(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """The eigenpairs of every H_i that the rank rule counts, largest
        first: the eigenvalues as floats and the eigenvectors as columns,
        both read-only, computed on first use."""
        out = []
        for w, v in self.spectrum:
            if self.mode == DIAG:  # exact Fraction > 0 comparisons
                wf = np.array([float(x) for x in w])
                counted = np.array([x > 0 for x in w], dtype=bool)
            else:
                wf, counted = w, w > EIG_CUTOFF
            order = np.argsort(-wf)
            order = order[counted[order]]
            out.append((_frozen(wf[order]), _frozen(v[:, order])))
        return tuple(out)

    @cached_property
    def ranks(self) -> Tuple[int, ...]:
        """The rank of every H_i under the rank rule."""
        return tuple(len(lam) for lam, _ in self.positive)

    @cached_property
    def multiplicity(self) -> MultiplicityFunction:
        """The multiplicity function of a commutative-domain map.

        Point i of the spectrum carries the rank of H_i; rank-zero points are
        simply absent from the atom list.  Built on first use; a
        non-commutative domain raises ``NonCommutativeDomain`` on every call.
        """
        from .multiplicity import mf

        if not self.domain.is_commutative:
            raise NonCommutativeDomain("multiplicity profiles need a commutative domain")
        atoms = {p: ExtNat(r) for p, r in zip(self.domain.point_labels, self.ranks) if r}
        return mf(self.domain.spectrum(), atoms)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only."""
    a.setflags(write=False)
    return a


def _symmetric_part(h: np.ndarray) -> np.ndarray:
    """(h + h^T)/2 as a new read-only matrix, symmetric to the bit.  It is
    summed as h/2 + h^T/2, the same float wherever h/2 is exact, so that
    entries above half the float range do not overflow to inf."""
    return _frozen(h / 2 + h.T / 2)


def _zeros(*shape: int) -> np.ndarray:
    """A dense zero matrix (or stack), refusing a shape numpy cannot
    allocate with ``DimensionMismatch`` instead of numpy's own error."""
    try:
        return np.zeros(shape)
    except (ValueError, MemoryError) as exc:
        raise DimensionMismatch(
            f"target_dim too large for a dense {'x'.join(map(str, shape[-2:]))} matrix: {exc}"
        ) from None


def oz_new(
    domain: FinDimAlgebra,
    target_dim: int,
    mults: Sequence[int],
    blocks: Sequence,
    mode: str = DIAG,
) -> OrderZeroMap:
    """Validate and build an order zero map from its block data."""
    if mode not in (DIAG, PSD):
        raise ValueError(f"unknown mode {mode!r}")
    mults = tuple(int(m) for m in mults)
    if len(mults) != len(domain.blocks) or len(blocks) != len(domain.blocks):
        raise DimensionMismatch(
            "need one multiplicity and one block per domain summand"
        )
    if any(m < 0 for m in mults):
        raise DimensionMismatch("multiplicities are non-negative")
    used = sum(m * n for m, n in zip(mults, domain.blocks))
    if used > target_dim:
        raise DimensionMismatch(
            f"blocks need dimension {used} but the target has {target_dim}"
        )

    stored: List[Block] = []
    for i, (m, raw) in enumerate(zip(mults, blocks)):
        if mode == DIAG:
            if any(isinstance(x, (float, np.floating)) and not isfinite(x) for x in raw):
                raise NotFinite(f"block {i} has a non-finite entry")
            entries = tuple(Fraction(x) for x in raw)
            if len(entries) != m:
                raise DimensionMismatch(
                    f"block {i} has {len(entries)} diagonal entries, multiplicity is {m}"
                )
            stored.append(entries)
        else:
            h = np.asarray(raw, dtype=float)
            if h.shape != (m, m):
                raise DimensionMismatch(f"block {i} must be {m}x{m}, got {h.shape}")
            if not np.isfinite(h).all():
                raise NotFinite(f"block {i} has a non-finite entry")
            if not np.allclose(h, h.T, atol=EIG_CUTOFF):
                raise NotPositive(f"block {i} is not symmetric")
            stored.append(_symmetric_part(h))
    phi = OrderZeroMap(domain, int(target_dim), mults, tuple(stored), mode)
    for i, (w, _) in enumerate(phi.spectrum):
        low, high = min(w, default=0), max(w, default=0)
        if low < -phi.cutoff:
            raise NotPositive(
                f"block {i} has a negative entry" if mode == DIAG
                else f"block {i} has eigenvalue {low}"
            )
        if high > 1 + phi.cutoff:
            raise NormExceedsOne(
                f"block {i} has an entry above 1" if mode == DIAG
                else f"block {i} has eigenvalue {high}"
            )
    return phi


class OrthogonalityReport(Record):
    passed: bool
    max_violation: float
    trials: int
    tolerance: float

    @property
    def vacuous(self) -> bool:
        """No orthogonal pair was probed, so ``passed`` carries no evidence."""
        return self.trials == 0


# The order-zero probe draws and images its trials in chunks of at most
# PROBE_CHUNK trials and PROBE_FLOATS floats (1 MB) in a chunk's stacks:
# larger stacks leave the cache, and from a used dimension of about 100 on,
# a chunk of them took longer than its trials one by one.
PROBE_CHUNK = 512
PROBE_FLOATS = 2**17


def oz_check_order_zero(
    phi, trials: int = 50, seed: int = 0, tol: float = 1e-9
) -> OrthogonalityReport:
    """Probe the order zero identity on random orthogonal positive pairs.

    Accepts any object with ``domain`` and ``apply``; pairs are supported on
    disjoint coordinate sets (inside one block or across two blocks), so
    their product vanishes in the domain and must vanish in the image.  Only
    the nonzero support of the two images is multiplied and normed.

    The pairs come in chunks (``_probe_pairs``).  An ``OrderZeroMap`` images
    a whole chunk at once on the used corner, where that support lies, and
    one reduction finds the trials whose supports meet: only those are
    multiplied, and on an order-zero map there are none.  The report is the
    dense one, the cost does not grow with ``target_dim``, and a chunk holds
    at most 512 trials and about 2^17 floats, so memory stays bounded for
    any number of trials and any used dimension.  Any other object is
    probed pair by pair through ``apply``.
    """
    rng = random.Random(seed)
    sizes = phi.domain.blocks
    options = (["cross"] if len(sizes) >= 2 else []) + (
        ["split"] if any(n >= 2 for n in sizes) else []
    )
    stacked = isinstance(phi, OrderZeroMap)
    width = sum(n * n for n in sizes) + (phi.used**2 if stacked else 0)
    chunk = max(1, min(PROBE_CHUNK, PROBE_FLOATS // (2 * width)))
    worst = 0.0
    done = 0
    while options and done < trials:
        s = min(chunk, trials - done)
        a, b = _probe_pairs(sizes, options, s, rng)
        if stacked:
            va = phi._used_image(a, (s,))
            vb = phi._used_image(b, (s,))
            meet = (va.any(axis=-2) & vb.any(axis=-1)).any(axis=-1)
            images = ((va[t], vb[t]) for t in np.flatnonzero(meet))
        else:
            images = (
                (phi.apply([x[t] for x in a]), phi.apply([x[t] for x in b])) for t in range(s)
            )
        for va_t, vb_t in images:
            worst = max(worst, op_norm(_support_product(va_t, vb_t)))
        done += s
    return OrthogonalityReport(worst <= tol, worst, done, tol)


def _support_product(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """va @ vb on its nonzero support: the inner indices where va's column
    and vb's row are both nonzero, the rows of va and the columns of vb that
    are nonzero there.  The product vanishes elsewhere, so the norm is the
    same; with no shared inner index it is empty."""
    inner = va.any(axis=0) & vb.any(axis=1)
    a, b = va[:, inner], vb[inner]
    return a[a.any(axis=1)] @ b[:, b.any(axis=0)]


def _probe_pairs(
    sizes: Sequence[int], options: Sequence[str], count: int, rng: random.Random
) -> List[List[np.ndarray]]:
    """``count`` orthogonal pairs of positive contractions, as two element
    stacks: block i of each is an array of shape (count, n_i, n_i).

    A "cross" pair puts one contraction on each of two blocks, a "split"
    pair puts them on complementary coordinate sets of one block.  Each
    contraction is m / ||m|| for m = g g^T, g a Gaussian matrix; every draw
    comes from ``rng`` in trial order, and all draws of one size are
    multiplied and normed in one stacked ``matmul`` and ``eigvalsh``.
    """
    k = len(sizes)
    splittable = [i for i, n in enumerate(sizes) if n >= 2]
    draws = {}  # size -> the Gaussian entries of every draw of that size
    groups = {}  # (side, block, size) -> [(trial, coordinates, draw index)]
    for t in range(count):
        if rng.choice(options) == "cross":
            i, j = rng.sample(range(k), 2)
            halves = ((i, range(sizes[i])), (j, range(sizes[j])))
        else:
            i = rng.choice(splittable)
            n = sizes[i]
            cut = rng.randrange(1, n)
            coords = list(range(n))
            rng.shuffle(coords)
            halves = ((i, coords[:cut]), (i, coords[cut:]))
        for side, (i, coords) in enumerate(halves):
            n = len(coords)
            pool = draws.setdefault(n, [])
            groups.setdefault((side, i, n), []).append((t, coords, len(pool) // (n * n)))
            pool.extend([rng.gauss(0, 1) for _ in range(n * n)])
    psd = {}
    for n, pool in draws.items():
        g = np.array(pool).reshape(-1, n, n)
        m = g @ g.swapaxes(-1, -2)
        top = np.linalg.eigvalsh(m).max(axis=-1)
        psd[n] = m / np.where(top > 0, top, 1.0)[:, None, None]
    out = [[np.zeros((count, n, n)) for n in sizes] for _ in range(2)]
    for (side, i, n), group in groups.items():
        t, coords, index = (np.array(x) for x in zip(*group))
        out[side][i][t[:, None, None], coords[:, :, None], coords[:, None, :]] = psd[n][index]
    return out


def oz_eps_cut(phi: OrderZeroMap, eps) -> OrderZeroMap:
    """The cut-down (h - eps)+ applied to the structure decomposition; a psd
    cut is stored as its symmetric part, as ``oz_new`` stores a block."""
    e = Fraction(eps) if phi.mode == DIAG else _float(eps)
    if not e >= 0:  # also refuses NaN
        raise NotPositive("eps must be >= 0")
    if phi.mode == DIAG:
        blocks = tuple(tuple(max(x - e, Fraction(0)) for x in w) for w, _ in phi.spectrum)
    else:
        cuts = ((v * np.clip(w - e, 0.0, None)) @ v.T for w, v in phi.spectrum)
        blocks = tuple(_symmetric_part(m) for m in cuts)
    return OrderZeroMap(phi.domain, phi.target_dim, phi.mults, blocks, phi.mode)


def _float(x) -> float:
    """``float(x)``, saturating to +-inf where x lies beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return inf if x > 0 else -inf


def oz_cuntz_leq_commutative(phi: OrderZeroMap, psi: OrderZeroMap) -> bool:
    """Decide Cuntz subequivalence phi <= psi on any finite-dimensional
    domain: no block where phi's rank exceeds psi's."""
    return comparison_certificate(phi, psi) is None


def comparison_certificate(
    phi: OrderZeroMap, psi: OrderZeroMap
) -> Optional[Tuple[str, int, int]]:
    """The first block where phi's rank exceeds psi's, as (point label, rank
    phi, rank psi), or None when phi <= psi.  Additivity and W(M_n, B) =
    W(C, B) make this the comparison on any finite-dimensional domain."""
    if phi.domain != psi.domain:
        a, b = list(phi.domain.blocks), list(psi.domain.blocks)
        raise DomainMismatch(f"comparison needs a common domain, got {a} and {b}")
    for p, lhs, rhs in zip(phi.domain.point_labels, phi.ranks, psi.ranks):
        if lhs > rhs:
            return (p, lhs, rhs)
    return None


class WitnessReport(Record):
    """A witness b, stored as its corner: b is ``corner`` in the top left of
    a ``shape`` matrix and zero elsewhere."""

    corner: np.ndarray
    shape: Tuple[int, int]
    residual: float
    tolerance: float
    norm_tolerance: float = NORM_TOL

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def dense(self) -> np.ndarray:
        """b itself, zero-padded to its full shape; ``DimensionMismatch``
        where that shape is too large to allocate."""
        b = _zeros(*self.shape)
        b[tuple(map(slice, self.corner.shape))] = self.corner
        return b


def oz_verify_witness(
    phi: OrderZeroMap, psi: OrderZeroMap, b: np.ndarray, tol: float = 1e-6
) -> WitnessReport:
    """Residual max_g ||b* psi(g) b - phi(g)|| over the matrix-unit generators.

    Row and column j of every residual vanish where phi does not use j and
    column j of b is zero on psi's used rows, so the residuals are normed on
    the other columns alone, which is exact (see ``_witness_residual``).
    """
    if phi.domain != psi.domain:
        raise DomainMismatch("witness verification needs a common domain")
    b = np.asarray(b, dtype=float)
    if b.shape != (psi.target_dim, phi.target_dim):
        raise ShapeMismatch(
            f"witness must be {psi.target_dim}x{phi.target_dim}, got {b.shape}"
        )
    if not np.isfinite(b).all():
        raise NotFinite("the witness has a non-finite entry")
    rows = b[: psi.used]
    cols = rows.any(axis=0)
    cols[: phi.used] = True
    residual = _witness_residual(phi, psi, rows[:, cols])
    return WitnessReport(b, b.shape, residual, tol)


def _witness_residual(phi: OrderZeroMap, psi: OrderZeroMap, b: np.ndarray) -> float:
    """The residual of a witness given by psi's used rows and a set of its
    columns that starts with phi's used ones, in order: every other row and
    column of every residual is zero.  All generators go through
    ``_residuals`` and one stacked exact norm."""
    pairs = _generator_images(phi, psi)
    r = _residuals(b, pairs, _phi_images(pairs, b.shape[-1]))
    return float(_op_norms(r, phi.domain.is_commutative).max())


def _paired_witness(phi: OrderZeroMap, psi: OrderZeroMap) -> np.ndarray:
    """The witness b = (+)_i c_i (x) 1_{n_i} on psi's used rows and phi's
    used columns.

    On block i the top k = min(rank phi_i, rank psi_i) eigenpairs of both
    maps that ``positive`` holds are paired in decreasing order, and
    c_i = V_psi diag(sqrt(lambda/mu)) V_phi^T over them, one product;
    c_i (x) 1_n is c_i on the n corners of the units E_rr (see
    ``_corners``).  Block i's residual is then minus phi's part off the
    paired eigenvectors, of norm sigma_{k+1}(H_i): phi's largest uncounted
    |eigenvalue| where phi <= psi, and at most ``obstruction_margin`` on
    an obstruction, which no witness beats.  A pair without a finite scale
    (a positive exact eigenvalue of psi that underflows a float) stays out
    and shows in the residual.
    """
    if phi.domain != psi.domain:
        raise DomainMismatch("the witness needs a common domain")
    b = np.zeros((psi.used, phi.used))
    for i, n in enumerate(phi.domain.blocks):
        (lam, vecs_phi), (mu, vecs_psi) = phi.positive[i], psi.positive[i]
        k = min(len(lam), len(mu))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scale = np.sqrt(lam[:k] / mu[:k])
        kept = np.flatnonzero(np.isfinite(scale))
        c = (vecs_psi[:, kept] * scale[kept]) @ vecs_phi[:, kept].T
        rows, cols = psi.offsets[i], phi.offsets[i]
        mq, mp = psi.mults[i], phi.mults[i]
        for r in range(n):
            b[rows + r : rows + mq * n : n, cols + r : cols + mp * n : n] = c
    return b


def oz_construct_witness(
    phi: OrderZeroMap, psi: OrderZeroMap, tol: float = 1e-6
) -> WitnessReport:
    """Build the witness b = (+)_i c_i (x) 1_{n_i} for phi <= psi.

    Every counted eigenpair of phi is paired with one of psi and scaled by
    sqrt(lambda/mu) into c_i (see ``_paired_witness``).  b is built and
    verified on its used corner, psi's used rows and phi's used columns,
    so the cost does not grow with the targets.  The residual vanishes up
    to rounding.
    """
    if comparison_certificate(phi, psi) is not None:
        raise PreconditionViolated("phi is not below psi; no witness exists")
    b = _paired_witness(phi, psi)
    shape = (psi.target_dim, phi.target_dim)
    return WitnessReport(b, shape, _witness_residual(phi, psi, b), tol)


class EpsRankReport(Record):
    lhs_rank: int
    rhs_rank: int

    @property
    def holds(self) -> bool:
        return self.lhs_rank <= self.rhs_rank


def oz_eps_rank_inequality(phi: OrderZeroMap, a: Element, eps) -> EpsRankReport:
    """Compare rank((phi(a) - eps)+) with rank(phi((a - eps)+)).

    Both ranks are counts over the eigenvalues lambda * mu of H_i (x) a_i:
    the left one counts lambda * mu > eps + cut, the right one
    lambda * (mu - eps)+ > cut.  A block of ``a`` is an n x n matrix or a
    length-n sequence of numbers, read as its diagonal.  The count is exact
    (cut 0) when the map is diagonal and every block of ``a`` is a diagonal
    of ints or Fractions; otherwise it runs in floating point with the 1e-10
    cutoff.
    """
    sizes = phi.domain.blocks
    if len(a) != len(sizes):
        raise DimensionMismatch("element blocks do not match the domain")
    exact = phi.mode == DIAG and all(
        isinstance(blk, (tuple, list))
        and len(blk) == n
        and all(isinstance(x, (int, Fraction)) for x in blk)
        for blk, n in zip(a, sizes)
    )
    if exact:
        cut, e = 0, Fraction(eps)
        lams = [w for w, _ in phi.spectrum]
        mus = [tuple(Fraction(x) for x in blk) for blk in a]
    else:
        cut, e = EIG_CUTOFF, _float(eps)
        lams = [[float(x) for x in w] for w, _ in phi.spectrum]
        mus = [_element_eigenvalues(blk, n, i) for i, (blk, n) in enumerate(zip(a, sizes))]
    if not e >= 0:  # also refuses NaN
        raise NotPositive("eps must be >= 0")
    if any(x < -cut for mu in mus for x in mu):
        raise NotPositive("the element must be positive")
    pairs = [(x, y) for lam, mu in zip(lams, mus) for x in lam for y in mu]
    lhs = sum(1 for x, y in pairs if x * y > e + cut)
    rhs = sum(1 for x, y in pairs if x * max(y - e, 0) > cut)
    return EpsRankReport(lhs, rhs)


def _element_eigenvalues(blk, n: int, i: int) -> np.ndarray:
    """Float eigenvalues of element block i: a length-n sequence of numbers
    is its diagonal, anything else the n x n matrix itself.  A positive
    matrix is self-adjoint: as in ``oz_new``, one that ``np.allclose`` does
    not find symmetric is ``NotPositive``, and the eigenvalues are those of
    its symmetric part, whichever triangle holds an entry."""
    x = np.atleast_1d(np.asarray(blk, dtype=float))
    if x.shape not in ((n,), (n, n)):
        raise DimensionMismatch(f"block {i} must be {n}x{n}, got {x.shape}")
    if not np.isfinite(x).all():
        raise NotFinite(f"block {i} has a non-finite entry")
    if x.ndim == 1:
        return x
    if not np.allclose(x, x.T, atol=EIG_CUTOFF):
        raise NotPositive(f"block {i} is not symmetric")
    return np.linalg.eigvalsh(_symmetric_part(x))


class HandelmanReport(Record):
    z: np.ndarray
    z_norm: float
    deviation: float
    norm_tolerance: float = NORM_TOL


def oz_handelman(a: np.ndarray, b: np.ndarray, n: int) -> HandelmanReport:
    """The contraction z_n = a^(1/2) b^(1/2) (b + 1/n)^(-1) for 0 <= a <= b.

    Reports its norm (at most 1 up to rounding) and the deviation
    ||z_n b^(1/2) - a^(1/2)||, which tends to 0 as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch("a and b must be square matrices of equal size")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NotFinite("a and b must have finite entries")
    for name, m in (("a", a), ("b", b)):
        if not np.allclose(m, m.T, atol=EIG_CUTOFF):
            raise NotPositive(f"{name} is not symmetric")
        if np.linalg.eigvalsh(m).min() < -EIG_CUTOFF:
            raise NotPositive(f"{name} is not positive semidefinite")
    if np.linalg.eigvalsh(b - a).min() < -EIG_CUTOFF:
        raise NotDominated("a <= b fails")
    ra = _psd_sqrt(a)
    rb = _psd_sqrt(b)
    z = ra @ rb @ np.linalg.inv(b + np.eye(a.shape[0]) / n)
    return HandelmanReport(z, op_norm(z), op_norm(z @ rb - ra))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def oz_kronecker_rank(phi: OrderZeroMap, psi: OrderZeroMap) -> ExtNat:
    """Rank of the composition representative for scalar-domain maps."""
    if phi.domain != SCALARS or psi.domain != SCALARS:
        raise PreconditionViolated("the Kronecker model needs scalar domains")
    return ExtNat(phi.ranks[0]) * ExtNat(psi.ranks[0])


def oz_witness_search(
    phi: OrderZeroMap, psi: OrderZeroMap, samples: int = 10000, seed: int = 0
) -> float:
    """The least residual max_g ||b^T psi(g) b - phi(g)|| over all witnesses
    b, attained by ``_paired_witness``: ``obstruction_margin`` on an
    obstruction.  Where phi <= psi it is 0 up to rounding and phi's
    uncounted psd eigenvalues (at most 1e-10), which the witness leaves
    out.  An exact eigenvalue of psi that underflows a float leaves more.

    ``samples`` and ``seed`` are kept for callers that pass them: the seed
    no longer changes the value, and ``samples <= 0`` returns inf, no
    candidate tried.  The next benchmark revision (ROADMAP, benchmark v2)
    drops both together with its call.
    """
    if samples <= 0:
        return inf
    return _witness_residual(phi, psi, _paired_witness(phi, psi))


def obstruction_margin(phi: OrderZeroMap, psi: OrderZeroMap) -> float:
    """max_i sigma_{r_i + 1}(H_i) over phi's blocks, r_i the rank of psi's
    block i: a lower bound on the residual of every witness, which
    ``oz_witness_search`` attains on an obstruction.

    b^T psi(E_11) b has rank at most r_i on the unit E_11 of block i, and
    phi(E_11) has the singular values of H_i, so by Eckart-Young-Mirsky no
    witness comes closer to it than the (r_i + 1)-th of them (0 where H_i
    has no more).  It is 0 when phi <= psi up to psd eigenvalues below the
    cutoff, and exact in diag mode up to the final float conversion.
    """
    if phi.domain != psi.domain:
        raise DomainMismatch("the obstruction margin needs a common domain")
    margin = 0
    for (w, _), r in zip(phi.spectrum, psi.ranks):
        sv = sorted((abs(x) for x in w), reverse=True)
        if r < len(sv):
            margin = max(margin, sv[r])
    return _float(margin)


def rank_cutoff(
    phi: OrderZeroMap, psi: OrderZeroMap, i: int
) -> Optional[Tuple[float, float, Optional[float]]]:
    """What a psd rank reads at block i: the cutoff, phi's smallest counted
    eigenvalue there and psi's largest uncounted one (None where psi counts
    every eigenvalue of the block).  None when both maps are diag, whose
    ranks count exact positive entries."""
    if phi.mode == DIAG and psi.mode == DIAG:
        return None
    uncounted = [float(x) for x in psi.spectrum[i][0] if not x > psi.cutoff]
    return EIG_CUTOFF, float(phi.positive[i][0][-1]), max(uncounted, default=None)


def _generator_images(phi: OrderZeroMap, psi: OrderZeroMap) -> List[Tuple[Corner, Corner]]:
    """The corners of psi(g) and phi(g) for every matrix-unit generator g
    of their common domain."""
    sizes = phi.domain.blocks
    return list(zip(_corners(psi.dense_blocks, sizes), _corners(phi.dense_blocks, sizes)))


def _corners(blocks: Sequence[np.ndarray], sizes: Sequence[int]) -> List[Corner]:
    """The image of every matrix unit g as (rows, columns, H_i) under the
    map whose block i is ``blocks[i]`` (of multiplicity its size) on a
    domain block of size ``sizes[i]``: block by block, then row by row.

    The image of the unit E_rc of block i is H_i (x) E_rc: H_i itself on the
    rows off+r, off+r+n, ... and the columns off+c, off+c+n, ... of the
    block's corner, and zero everywhere else.
    """
    out, off = [], 0
    for h, n in zip(blocks, sizes):
        end = off + len(h) * n
        out += [
            (slice(off + r, end, n), slice(off + c, end, n), h)
            for r in range(n)
            for c in range(n)
        ]
        off = end
    return out


def _phi_images(pairs: Sequence[Tuple[Corner, Corner]], width: int) -> np.ndarray:
    """The images phi(g) of ``pairs``, as wide as a witness, in one stack."""
    images = np.zeros((len(pairs), width, width))
    for g, (_, (rows, cols, k)) in enumerate(pairs):
        images[g, rows, cols] = k
    return images


def _residuals(
    b: np.ndarray, pairs: Sequence[Tuple[Corner, Corner]], images: np.ndarray
) -> np.ndarray:
    """r[g] = b^T psi(g) b - phi(g) for every generator g, with psi(g) given
    by its corner in ``pairs``: only the rows of b that psi(g) meets take
    part.  The stack ``images`` of every phi(g) (``_phi_images``) is
    subtracted in one pass."""
    r = np.empty(images.shape)
    for g, ((rows, cols, h), _) in enumerate(pairs):
        np.matmul(b[rows].T @ h, b[cols], out=r[g])
    r -= images
    return r


def _op_norms(m: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """Largest singular value of each matrix in a stack; 0 for empty ones.

    A stack of symmetric matrices takes max |lambda| from ``eigvalsh``."""
    if m.size == 0:
        return np.zeros(m.shape[:-2])
    if symmetric:
        w = np.linalg.eigvalsh(m)
        return np.maximum(-w[..., 0], w[..., -1])
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def op_norm(m: np.ndarray) -> float:
    """Largest singular value of a matrix, by SVD; 0 for an empty one."""
    return float(_op_norms(m))


# ---------------------------------------------------------------------------
# JSON interchange.

def oz_to_json(phi: OrderZeroMap) -> dict:
    blocks = []
    for i, m in enumerate(phi.mults):
        if phi.mode == DIAG:
            rows = [
                [str(phi.blocks[i][r]) if r == c else "0" for c in range(m)]
                for r in range(m)
            ]
        else:
            rows = [[float(x) for x in row] for row in phi.block_dense(i)]
        blocks.append(rows)
    return {
        "domain": list(phi.domain.blocks),
        "target_dim": phi.target_dim,
        "mult": list(phi.mults),
        "blocks": blocks,
        "mode": phi.mode,
    }


def _json_int(value, what: str) -> int:
    # Not int(): it would truncate 1.5 and read true as 1.
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _zero_literal(x) -> bool:
    """x is a zero that needs no Fraction: the int or float 0 (not False)
    or the string "0".  Every other entry parses as before, so a diag block
    of m x m entries builds m Fractions where its off-diagonal is zero."""
    return x == "0" if type(x) is str else type(x) in (int, float) and x == 0


def oz_from_json(doc: dict) -> OrderZeroMap:
    domain = FinDimAlgebra(tuple(_json_int(n, "domain") for n in doc["domain"]))
    mode = doc.get("mode", DIAG)
    mults = [_json_int(m, "mult") for m in doc["mult"]]
    raw_blocks = doc["blocks"]
    if len(raw_blocks) != len(mults):
        raise DimensionMismatch("need one block matrix per multiplicity")
    blocks = []
    for m, rows in zip(mults, raw_blocks):
        if len(rows) != m or any(len(r) != m for r in rows):
            raise DimensionMismatch(f"block must be {m}x{m}")
        if mode == DIAG:
            diag = []
            for r in range(m):
                for c in range(m):
                    x = rows[r][c]
                    if r == c:
                        diag.append(Fraction(str(x)))
                    elif not _zero_literal(x) and Fraction(str(x)) != 0:
                        raise ValueError(
                            "diagonal mode requires zero off-diagonal entries"
                        )
            blocks.append(diag)
        else:
            blocks.append(np.array([[float(x) for x in r] for r in rows]).reshape(m, m))
    target_dim = _json_int(doc["target_dim"], "target_dim")
    return oz_new(domain, target_dim, mults, blocks, mode)
