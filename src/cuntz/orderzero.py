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
(``OrderZeroMap.positive``, one descending sort per block); the ranks and
the multiplicity profile are counted from them (``OrderZeroMap.ranks`` and
``OrderZeroMap.multiplicity``), and witness construction and search read
them.  Float work reads each block as a read-only float matrix, converted
once per map (``OrderZeroMap.dense_blocks``).  Each of these is computed on
first use and stored on the map, with no lock taken (``cached``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate
from math import inf, isfinite, sqrt
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
        return max(self.blocks) == 1  # every size is >= 1

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


class cached:
    """``functools.cached_property`` without the lock that Python 3.11 takes on
    each first access: the value goes to the instance's ``__dict__``."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class OrderZeroMap(Record):
    """A map equals only itself: its blocks may be numpy arrays."""

    domain: FinDimAlgebra
    target_dim: int
    mults: Tuple[int, ...]
    blocks: Tuple[Block, ...]
    mode: str

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @cached
    def used(self) -> int:
        """u = sum of m_i n_i: every image vanishes outside its first u rows
        and columns, the used corner of the target.  ``offsets`` finds it."""
        self.offsets
        return self.__dict__["used"]

    @cached
    def offsets(self) -> Tuple[int, ...]:
        """Where the corner of block i starts: the sum of m_j n_j over j < i.
        The same loop stores ``used``, where the last corner ends."""
        spans = (m * n for m, n in zip(self.mults, self.domain.blocks))
        *starts, self.__dict__["used"] = accumulate(spans, initial=0)
        return tuple(starts)

    @cached
    def _diagonals(self) -> Tuple[np.ndarray, ...]:
        """A diag map's H_i as float vectors, for ``positive`` and ``dense_blocks``:
        each entry is its numerator over its denominator, float(x) itself."""
        return tuple(np.array([x.numerator / x.denominator for x in h]) for h in self.blocks)

    @cached
    def dense_blocks(self) -> Tuple[np.ndarray, ...]:
        """Every H_i as a read-only float matrix, converted once per map; a
        diag H_i is its identity eigenbasis scaled column by column."""
        if self.mode == DIAG:
            return tuple(_frozen(v * w) for (_, v), w in zip(self.spectrum, self._diagonals))
        return tuple(np.asarray(h, dtype=float) for h in self.blocks)

    def block_dense(self, i: int) -> np.ndarray:
        """H_i as a read-only float matrix."""
        return self.dense_blocks[i]

    def apply(self, element: Element) -> np.ndarray:
        """Evaluate the map on a domain element, given block by block.  Block
        i of the image is the Kronecker product H_i (x) a_i, one broadcast
        product of its entries, on the used corner (the first u rows and
        columns); the image is zero-padded to the target dimension, which
        is allocated once every block of the element is checked."""
        if len(element) != len(self.domain.blocks):
            raise DimensionMismatch(
                f"element has {len(element)} blocks, domain has {len(self.domain.blocks)}"
            )
        pieces = []
        for i, (m, n, off) in enumerate(zip(self.mults, self.domain.blocks, self.offsets)):
            if m:
                a = np.atleast_2d(np.asarray(element[i], dtype=float))
                if a.shape != (n, n):
                    raise DimensionMismatch(f"block {i} must be {n}x{n}, got {a.shape}")
                piece = self.dense_blocks[i][:, None, :, None] * a[None, :, None, :]
                pieces.append((slice(off, off + m * n), piece.reshape(m * n, m * n)))
        out = _zeros(self.target_dim, self.target_dim)
        for span, piece in pieces:
            out[span, span] = piece
        return out

    @cached
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

    @cached
    def positive(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """The eigenpairs of every H_i that the rank rule counts, largest
        first: the eigenvalues as floats and the eigenvectors as columns,
        both read-only, computed on first use.  They are the first c of one
        descending sort, unless a positive exact entry underflows to 0.0 and
        ties with an uncounted one: then the entries' signs pick them."""
        out = []
        for i, (w, v) in enumerate(self.spectrum):
            if self.mode == DIAG:  # every entry is >= 0: the nonzero ones count
                wf, c = self._diagonals[i], len(w) - w.count(0)
            else:  # eigh's eigenvalues ascend
                wf, c = w, len(w) - w.searchsorted(EIG_CUTOFF, "right")
            order = (-wf).argsort()
            if c and not wf[order[c - 1]]:
                order = order[np.array([x.numerator > 0 for x in w])[order]]
            else:
                order = order[:c]
            out.append((_frozen(wf[order]), _frozen(v[:, order])))
        return tuple(out)

    @cached
    def ranks(self) -> Tuple[int, ...]:
        """The rank of every H_i under the rank rule."""
        return tuple(len(lam) for lam, _ in self.positive)

    @cached
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
        raise DimensionMismatch("need one multiplicity and one block per domain summand")
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
        """No trial: the domain has no orthogonal pair, or no trial was
        asked for.  ``passed`` then carries no evidence."""
        return self.trials == 0


def oz_check_order_zero(
    phi, trials: int = 50, seed: int = 0, tol: float = 1e-9
) -> OrthogonalityReport:
    """Check the order zero identity: phi(a) phi(b) = 0 wherever ab = 0.

    An ``OrderZeroMap`` is decided by its block form, with nothing drawn:
    phi(a) phi(b) = (+)_i H_i^2 (x) a_i b_i vanishes wherever ab does.  Its
    report is the probe's, to the bit: violation 0.0, ``passed`` when
    0.0 <= tol, and the trials the probe would run.  Any other object with
    ``domain`` and ``apply`` is probed on ``trials`` seeded orthogonal
    pairs (``_probe_pair``); only the nonzero support of the two images is
    multiplied and normed.  A one-point domain has no pair to try.
    """
    sizes = phi.domain.blocks
    options = (["cross"] if len(sizes) >= 2 else []) + (
        ["split"] if any(n >= 2 for n in sizes) else []
    )
    done = max(trials, 0) if options else 0
    if isinstance(phi, OrderZeroMap):
        return OrthogonalityReport(0.0 <= tol, 0.0, done, tol)
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(done):
        a, b = _probe_pair(sizes, options, rng)
        worst = max(worst, op_norm(_support_product(phi.apply(a), phi.apply(b))))
    return OrthogonalityReport(worst <= tol, worst, done, tol)


def _support_product(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """va @ vb on its nonzero support: the inner indices where va's column
    and vb's row are both nonzero, the rows of va and the columns of vb that
    are nonzero there.  The product vanishes elsewhere, so the norm is the
    same; with no shared inner index it is empty."""
    inner = va.any(axis=0) & vb.any(axis=1)
    a, b = va[:, inner], vb[inner]
    return a[a.any(axis=1)] @ b[:, b.any(axis=0)]


def _probe_pair(
    sizes: Sequence[int], options: Sequence[str], rng: random.Random
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """An orthogonal pair of positive contractions, as two elements: one on
    each of two blocks ("cross") or on complementary coordinate sets of one
    block ("split").  Each is m / ||m|| for m = g g^T, g a Gaussian matrix
    whose entries come from ``rng`` row by row, the first element's first."""

    def contraction(n: int) -> np.ndarray:
        g = np.array([rng.gauss(0, 1) for _ in range(n * n)]).reshape(n, n)
        m = g @ g.T
        top = np.linalg.eigvalsh(m).max()
        return m / top if top > 0 else m

    a, b = ([np.zeros((n, n)) for n in sizes] for _ in "ab")
    if rng.choice(options) == "cross":
        i, j = rng.sample(range(len(sizes)), 2)
        a[i], b[j] = contraction(sizes[i]), contraction(sizes[j])
    else:
        i = rng.choice([k for k, n in enumerate(sizes) if n >= 2])
        n = sizes[i]
        cut = rng.randrange(1, n)
        coords = list(range(n))
        rng.shuffle(coords)
        a[i][np.ix_(coords[:cut], coords[:cut])] = contraction(cut)
        b[i][np.ix_(coords[cut:], coords[cut:])] = contraction(n - cut)
    return a, b


def oz_eps_cut(phi: OrderZeroMap, eps) -> OrderZeroMap:
    """The cut-down (h - eps)+ applied to the structure decomposition; a psd
    cut is stored as its symmetric part, as ``oz_new`` stores a block."""
    e = Fraction(eps) if phi.mode == DIAG else _float(eps)
    if not e >= 0 or e == 0 > eps:  # also NaN, and a negative eps that rounds to 0
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
    for i, (lhs, rhs) in enumerate(zip(phi.ranks, psi.ranks)):
        if lhs > rhs:
            return (f"x{i + 1}", lhs, rhs)  # point i's label
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
    column of every residual is zero.

    r[g] = b^T psi(g) b - phi(g) for every matrix-unit generator g, block by
    block, then row by row.  psi(E_rc) of block i is H_i on the rows off+r,
    off+r+n, ... and the columns off+c, off+c+n, ... of its corner: only
    those rows of b take part, b_r^T H_i once per row r.  phi's H_i is
    subtracted from the n^2 residuals of block i through one strided view
    of its corners.  One stacked exact norm follows."""
    sizes, width = phi.domain.blocks, b.shape[-1]
    r = np.empty((sum(n * n for n in sizes), width, width))
    sg, sw, s1 = r.strides
    g = 0
    blocks = zip(sizes, psi.dense_blocks, psi.offsets, phi.dense_blocks, phi.offsets)
    for n, h, off, k, phi_off in blocks:
        end, m = off + len(h) * n, len(k)
        for row in range(n):
            left = b[off + row : end : n].T @ h
            for col in range(n):
                np.matmul(left, b[off + col : end : n], r[g + row * n + col])  # out
        if m:  # a view of r: corners[row, col] is r[g + row n + col] on phi's corner
            shape, strides = (n, n, m, m), (n * sg + sw, sg + s1, n * sw, n * s1)
            corners = np.ndarray(shape, float, r, g * sg + phi_off * (sw + s1), strides)
            corners -= k
        g += n * n
    return float(_op_norms(r, phi.domain.is_commutative).max())


def _paired_witness(phi: OrderZeroMap, psi: OrderZeroMap) -> np.ndarray:
    """The witness b = (+)_i c_i (x) 1_{n_i} on psi's used rows and phi's
    used columns.

    On block i the top k = min(rank phi_i, rank psi_i) eigenpairs of both
    maps that ``positive`` holds are paired in decreasing order, and
    c_i = V_psi diag(sqrt(lambda/mu)) V_phi^T over them, one product;
    c_i (x) 1_n is c_i on the n corners of the units E_rr (see
    ``_witness_residual``).  Block i's residual is then minus phi's part
    off the paired eigenvectors, of norm sigma_{k+1}(H_i): phi's largest
    uncounted |eigenvalue| where phi <= psi, and at most
    ``obstruction_margin`` on an obstruction, which no witness beats.  A
    pair without a finite scale (a positive exact eigenvalue of psi that
    underflows a float) stays out and shows in the residual.
    """
    if phi.domain != psi.domain:
        raise DomainMismatch("the witness needs a common domain")
    b = np.zeros((psi.used, phi.used))
    blocks = zip(phi.domain.blocks, phi.positive, psi.positive, phi.offsets, psi.offsets)
    for n, (lam, vecs_phi), (mu, vecs_psi), cols, rows in blocks:
        scale = [sqrt(x / y) if y else inf for x, y in zip(lam.tolist(), mu.tolist())]
        if not scale:  # c = 0, and b is 0 already
            continue
        kept = [j for j, s in enumerate(scale) if s < inf] if inf in scale else slice(len(scale))
        c = (vecs_psi[:, kept] * np.array(scale)[kept]) @ vecs_phi[:, kept].T
        mq, mp = c.shape
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


def _psd_float(x, k: int, r: int, c: int) -> float:
    """Entry (r, c) of psd block k as a float: a string that float() refuses
    is read as an exact rational, such as "1/2", and rounded once."""
    if type(x) is bool:  # float() would read true as 1.0: refused as "true"
        x = str(x).lower()
    try:
        return float(x)
    except ValueError:
        pass
    try:
        return _float(Fraction(x))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"psd block {k} entry ({r}, {c}) must be a number, got {x}") from None


def oz_from_json(doc: dict) -> OrderZeroMap:
    domain = FinDimAlgebra(tuple(_json_int(n, "domain") for n in doc["domain"]))
    mode = doc.get("mode", DIAG)
    mults = [_json_int(m, "mult") for m in doc["mult"]]
    raw_blocks = doc["blocks"]
    if len(raw_blocks) != len(mults):
        raise DimensionMismatch("need one block matrix per multiplicity")
    blocks = []
    for k, (m, rows) in enumerate(zip(mults, raw_blocks)):
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
                        raise ValueError("diagonal mode requires zero off-diagonal entries")
            blocks.append(diag)
        else:
            blocks.append(np.array([[_psd_float(x, k, r, c) for c, x in enumerate(row)]
                                    for r, row in enumerate(rows)]).reshape(m, m))
    return oz_new(domain, _json_int(doc["target_dim"], "target_dim"), mults, blocks, mode)
