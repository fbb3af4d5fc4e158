import json
import random
from fractions import Fraction
from functools import cached_property
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cuntz.extnat import ExtNat
from cuntz import orderzero
from cuntz.multiplicity import Space, mf
from cuntz.orderzero import (
    SCALARS,
    DimensionMismatch,
    DomainMismatch,
    NonCommutativeDomain,
    NormExceedsOne,
    NotDominated,
    NotFinite,
    NotPositive,
    OrderZeroMap,
    PreconditionViolated,
    ShapeMismatch,
    comparison_certificate,
    findim,
    obstruction_margin,
    op_norm,
    oz_check_order_zero,
    oz_construct_witness,
    oz_cuntz_leq_commutative,
    oz_eps_cut,
    oz_eps_rank_inequality,
    oz_from_json,
    oz_handelman,
    oz_kronecker_rank,
    oz_new,
    oz_to_json,
    oz_verify_witness,
    oz_witness_search,
    rank_cutoff,
)

F = Fraction


def diag_map(domain, target_dim, *diags):
    return oz_new(domain, target_dim, [len(d) for d in diags], list(diags), "diag")


def generators(domain):
    """Matrix units of every block, block by block and row by row; they span
    the domain linearly."""
    gens = []
    for i, n in enumerate(domain.blocks):
        for r, c in product(range(n), repeat=2):
            elem = [np.zeros((k, k)) for k in domain.blocks]
            elem[i][r, c] = 1.0
            gens.append(elem)
    return gens


def direct_sum(phi, psi):
    """phi (+) psi on their shared domain: block i is H_i (+) K_i, and the
    targets add.  Diagonal when both maps are."""
    mults = [a + b for a, b in zip(phi.mults, psi.mults)]
    if phi.mode == psi.mode == "diag":
        return oz_new(phi.domain, phi.target_dim + psi.target_dim, mults,
                      [h + k for h, k in zip(phi.blocks, psi.blocks)], "diag")
    blocks = []
    for i, m in enumerate(mults):
        h, k = phi.block_dense(i), psi.block_dense(i)
        out = np.zeros((m, m))
        out[: len(h), : len(h)], out[len(h) :, len(h) :] = h, k
        blocks.append(out)
    return oz_new(phi.domain, phi.target_dim + psi.target_dim, mults, blocks, "psd")


# ---------------------------------------------------------------------------
# Construction.

def test_new_validates_dimensions_and_entries():
    with pytest.raises(DimensionMismatch):
        oz_new(findim(1, 1), 1, [1, 1], [(F(1),), (F(1),)], "diag")
    with pytest.raises(DimensionMismatch):
        oz_new(findim(1), 2, [1], [(F(1), F(1))], "diag")
    with pytest.raises(NotPositive):
        oz_new(findim(1), 2, [1], [(F(-1, 2),)], "diag")
    with pytest.raises(NormExceedsOne):
        oz_new(findim(1), 2, [1], [(F(3, 2),)], "diag")
    with pytest.raises(ValueError):
        oz_new(findim(1), 2, [1], [(F(1),)], "weird")


def test_psd_mode_validates_blocks():
    with pytest.raises(NotPositive):
        oz_new(findim(1), 3, [2], [np.array([[0.0, 1.0], [0.0, 0.0]])], "psd")
    with pytest.raises(NotPositive):
        oz_new(findim(1), 3, [2], [np.array([[1.0, 2.0], [2.0, 1.0]])], "psd")
    with pytest.raises(NormExceedsOne):
        oz_new(findim(1), 3, [2], [2 * np.eye(2)], "psd")
    phi = oz_new(findim(1), 3, [2], [0.5 * np.eye(2)], "psd")
    assert phi.ranks[0] == 2


@pytest.mark.parametrize("entry", [float("inf"), float("nan")])
def test_new_rejects_non_finite_blocks(entry):
    # A psd block holding inf or nan has NaN eigenvalues, which pass every
    # eigenvalue comparison; it must be refused before them.
    with pytest.raises(NotFinite):
        oz_new(findim(1), 2, [1], [np.array([[entry]])], "psd")
    with pytest.raises(NotFinite):
        oz_new(findim(1), 3, [2], [np.array([[0.5, entry], [entry, 0.5]])], "psd")
    with pytest.raises(NotFinite):
        oz_new(findim(1), 2, [1], [(entry,)], "diag")


def test_a_psd_block_above_half_the_float_range_is_not_a_contraction():
    # (h + h^T)/2 summed as h + h^T overflows to inf, eigh then reads NaN,
    # which passes every eigenvalue comparison: the map had rank 0.
    for h in ([[1e308, 0.0], [0.0, 1e308]], [[1.7e308, 1e307], [1e307, 1.7e308]]):
        with pytest.raises(NormExceedsOne):
            oz_new(findim(1), 2, [2], [np.array(h)], "psd")
    # an element block that large is ranked, not read as NaN
    phi = diag_map(findim(2), 2, (F(1, 2),))
    rep = oz_eps_rank_inequality(phi, [[[1.7e308, 1e307], [1e307, 1.7e308]]], 0.1)
    assert (rep.lhs_rank, rep.rhs_rank) == (2, 2)


def test_a_psd_block_is_copied_from_the_callers_array():
    # A later write to the caller's array must not reach the map, whose
    # spectrum and ranks are cached.
    h = np.array([[0.5]])
    phi = oz_new(findim(1), 2, [1], [h], "psd")
    h[0, 0] = 0.0
    assert phi.ranks == (1,)
    assert phi.apply([np.eye(1)])[0, 0] == 0.5
    assert not oz_cuntz_leq_commutative(phi, oz_new(findim(1), 2, [1], [h], "psd"))
    with pytest.raises(ValueError):
        phi.blocks[0][0, 0] = 0.0


@pytest.mark.parametrize("mode", ["diag", "psd"])
def test_dense_blocks_are_built_once_and_read_only(mode):
    phi = random_map(np.random.default_rng(2), mode, [2, 0, 1], 6)
    dense = phi.dense_blocks
    assert phi.dense_blocks is dense
    assert all(phi.block_dense(i) is h for i, h in enumerate(dense))
    assert [h.shape for h in dense] == [(m, m) for m in phi.mults]
    for i, h in enumerate(dense):
        assert not h.flags.writeable
        want = (np.diag([float(x) for x in phi.blocks[i]]) if mode == "diag"
                else phi.blocks[i])
        assert np.array_equal(h, np.asarray(want, dtype=float).reshape(h.shape))
    cut = oz_eps_cut(phi, F(1, 8))
    assert not any(h.flags.writeable for h in cut.dense_blocks)


def test_apply_is_the_block_kron():
    phi = diag_map(findim(2), 5, (F(1), F(1, 2)))
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = phi.apply([a])
    assert out.shape == (5, 5)
    assert np.allclose(out[:2, :2], a)
    assert np.allclose(out[2:4, 2:4], a / 2)
    assert np.allclose(out[4:, :], 0)
    with pytest.raises(DimensionMismatch):
        phi.apply([np.eye(3)])


def kron_apply(phi, element):
    """The dense apply before broadcasting: one np.kron per used block."""
    out = np.zeros((phi.target_dim, phi.target_dim))
    for i, (m, n, off) in enumerate(zip(phi.mults, phi.domain.blocks, phi.offsets)):
        if m:
            out[off : off + m * n, off : off + m * n] = np.kron(
                phi.block_dense(i), np.asarray(element[i], dtype=float)
            )
    return out


def image_cases():
    """Maps on commutative and non-commutative domains, with a zero
    multiplicity and a target larger than the used dimension."""
    rng = np.random.default_rng(5)
    psd = lambda m: random_block(rng, "psd", m, m)  # noqa: E731
    return [
        diag_map(findim(2), 7, (F(1), F(1, 2), F(0))),
        oz_new(findim(2), 9, [2], [psd(2)], "psd"),
        oz_new(findim(1, 3), 11, [2, 3], [psd(2), psd(3)], "psd"),
        oz_new(findim(1, 3), 8, [0, 2], [(), (F(1, 3), F(1))], "diag"),
        oz_new(findim(3, 1, 2), 10, [1, 0, 2], [psd(1), np.zeros((0, 0)), psd(2)], "psd"),
        diag_map(findim(1, 1, 1), 6, (F(1, 4),), (), (F(1), F(1, 2))),
        oz_new(SCALARS, 0, [0], [()], "diag"),
    ]


def padded_images(phi):
    """The generator corners of phi, each written into a zero matrix."""
    corners = orderzero._corners(phi.dense_blocks, phi.domain.blocks)
    out = np.zeros((len(corners), phi.target_dim, phi.target_dim))
    for image, (rows, cols, h) in zip(out, corners):
        image[rows, cols] = h
    return out


@pytest.mark.parametrize("case", range(7))
def test_block_built_images_equal_the_dense_apply(case):
    phi = image_cases()[case]
    gens = generators(phi.domain)
    dense = np.stack([phi.apply(g) for g in gens])
    images = padded_images(phi)
    assert images.shape == dense.shape == (len(gens), phi.target_dim, phi.target_dim)
    assert np.array_equal(images, dense)


@pytest.mark.parametrize("case", range(7))
def test_zero_padded_corners_are_the_images(case):
    # The residual kernel reads phi(g) and psi(g) only as corners; padded
    # with zeros they must be the images of the np.kron reference.
    psi = image_cases()[case]
    corners = orderzero._corners(psi.dense_blocks, psi.domain.blocks)
    assert len(corners) == len(generators(psi.domain))
    for image, g in zip(padded_images(psi), generators(psi.domain)):
        assert np.array_equal(image, kron_apply(psi, g))  # kron may write -0.0


@pytest.mark.parametrize("case", range(7))
def test_apply_equals_the_kron_reference_bit_for_bit(case):
    phi = image_cases()[case]
    rng = np.random.default_rng(case)
    for _ in range(3):
        element = [rng.standard_normal((n, n)) for n in phi.domain.blocks]
        assert phi.apply(element).tobytes() == kron_apply(phi, element).tobytes()
    for g in generators(phi.domain):
        assert phi.apply(g).tobytes() == kron_apply(phi, g).tobytes()


def test_generator_images_need_a_common_domain():
    with pytest.raises(DomainMismatch):
        oz_witness_search(
            diag_map(findim(1, 1), 3, (F(1),), ()), diag_map(findim(1), 3, (F(1),)), 10
        )


def test_spectrum_is_cached_per_map(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    h = np.array([[0.5, 0.25], [0.25, 0.5]])
    phi = oz_new(findim(1, 1), 4, [2, 1], [h, np.array([[0.25]])], "psd")
    assert calls == [(2, 2), (1, 1)]
    w, v = phi.spectrum[0]
    assert np.allclose(w, [0.25, 0.75]) and np.allclose((v * w) @ v.T, h)
    assert phi.multiplicity.value_at("x1") == ExtNat(2)
    oz_eps_cut(phi, 0.3)
    assert oz_construct_witness(phi, phi).passed
    assert calls == [(2, 2), (1, 1)]
    exact = diag_map(findim(1), 3, (F(1, 4), F(0), F(1)))
    assert exact.spectrum[0][0] == (F(1, 4), F(0), F(1))
    assert np.array_equal(exact.spectrum[0][1], np.eye(3))
    assert exact.ranks[0] == 2


def test_zero_multiplicity_blocks_are_allowed():
    phi = oz_new(findim(1, 1), 4, [0, 2], [(), (F(1), F(1, 4))], "diag")
    assert phi.ranks[0] == 0
    assert phi.ranks[1] == 2
    assert phi.multiplicity.value_at("x1") == ExtNat(0)


def test_a_psd_block_is_stored_as_its_symmetric_part():
    # np.allclose finds h symmetric (1e-10 + 1e-5 |entry|), but not to the
    # bit: eigh would rank its lower triangle and apply use the whole block.
    h = np.array([[0.5, 0.499998], [0.5, 0.5]])
    phi = oz_new(SCALARS, 2, [2], [h], "psd")
    psi = oz_new(SCALARS, 1, [1], [np.array([[1.0]])], "psd")
    stored = phi.block_dense(0)
    assert stored.tobytes() == stored.T.tobytes() == ((h + h.T) / 2).tobytes()
    assert not stored.flags.writeable
    assert phi.ranks == (2,)
    assert comparison_certificate(phi, psi) == ("x1", 2, 1)
    assert oz_construct_witness(psi, phi).passed
    # a block symmetric to the bit is stored bit for bit, -0.0 facing -0.0
    # included; a -0.0 facing a 0.0 becomes 0.0
    g = np.array([[0.5, -0.0], [-0.0, 0.25]])
    assert oz_new(SCALARS, 2, [2], [g], "psd").block_dense(0).tobytes() == g.tobytes()
    g[1, 0] = 0.0
    assert oz_new(SCALARS, 2, [2], [g], "psd").block_dense(0).tobytes() == np.abs(g).tobytes()


def test_a_signed_zero_in_a_psd_block_does_not_change_the_search():
    phi = oz_new(findim(1, 1), 6, [3, 1], [np.diag([1, 0.75, 0.5]), [[0.5]]], "psd")
    psis = [
        oz_new(findim(1, 1), 6, [2, 1], [np.array([[0.5, zero], [0.0, 0.25]]), [[1.0]]], "psd")
        for zero in (-0.0, 0.0)
    ]
    best = [oz_witness_search(phi, psi, samples=1024, seed=0) for psi in psis]
    assert best[0] == best[1]


def test_positive_holds_the_counted_eigenpairs_once_per_map(monkeypatch):
    exact = diag_map(findim(1, 1), 4, (F(1, 4), F(0), F(1)), ())
    (lam, v), (none, w) = exact.positive
    assert lam.tolist() == [1.0, 0.25] and np.array_equal(v, np.eye(3)[:, [2, 0]])
    assert none.shape == (0,) and w.shape == (0, 0)
    assert not (lam.flags.writeable or v.flags.writeable)
    assert exact.ranks == (2, 0)
    calls = []
    positive = OrderZeroMap.positive.func
    counted = cached_property(lambda f: calls.append(f) or positive(f))
    counted.__set_name__(OrderZeroMap, "positive")
    monkeypatch.setattr(OrderZeroMap, "positive", counted)
    h = np.array([[0.5, 0.25], [0.25, 0.5]])
    phi = oz_new(findim(1, 1), 4, [2, 1], [h, [[0.25]]], "psd")
    psi = oz_new(findim(1, 1), 5, [2, 2], [h, np.eye(2) / 2], "psd")
    assert phi.ranks == (2, 1) and psi.ranks == (2, 2)
    assert comparison_certificate(phi, psi) is None
    assert oz_construct_witness(phi, psi).passed
    oz_witness_search(phi, psi, samples=64)
    oz_witness_search(psi, phi, samples=64)
    assert oz_construct_witness(phi, phi).passed
    assert [f is phi for f in calls] == [True, False]


# ---------------------------------------------------------------------------
# Order zero identity.

def test_order_zero_check_passes_for_structure_maps():
    phi = diag_map(findim(2, 3), 15, (F(1), F(1, 2)), (F(1, 4),))
    report = oz_check_order_zero(phi, trials=40, seed=1)
    assert report.passed
    assert report.trials == 40
    assert not report.vacuous
    assert report.max_violation <= report.tolerance


def test_order_zero_check_catches_an_overlapping_fake():
    class Fake:
        domain = findim(1, 1)

        def apply(self, element):
            # both coordinates land on the same 1x1 corner: orthogonality dies
            a = np.atleast_2d(np.asarray(element[0], dtype=float))
            b = np.atleast_2d(np.asarray(element[1], dtype=float))
            return np.array([[a[0, 0] + b[0, 0]]])

    report = oz_check_order_zero(Fake(), trials=20, seed=0)
    assert not report.passed
    assert report.max_violation > 0.1


class DenseProbe:
    """The map behind ``domain`` and ``apply`` alone: the order-zero check
    then probes it through the dense, zero-padded images of ``apply``."""

    def __init__(self, phi):
        self.domain, self.apply = phi.domain, phi.apply


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["diag", "psd"]),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    ranks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    spare=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
def test_order_zero_check_on_the_used_corner_equals_the_dense_probe(
    mode, sizes, ranks, spare, seed
):
    # Commutative domains (all sizes 1) and non-commutative ones: the report
    # of the corner probe is the dense one, to the bit.
    phi = block_map(np.random.default_rng(seed), mode, sizes, ranks[: len(sizes)], spare)
    report = oz_check_order_zero(phi, trials=12, seed=seed)
    assert report == oz_check_order_zero(DenseProbe(phi), trials=12, seed=seed)
    assert report.passed


def test_order_zero_check_reads_no_dense_image(monkeypatch):
    phi = diag_map(findim(1, 2), 9, (F(1, 2),), (F(1), F(1, 4)))
    monkeypatch.setattr(type(phi), "apply", lambda self, element: pytest.fail("dense image"))
    report = oz_check_order_zero(phi, trials=10, seed=3)
    assert report.passed and report.trials == 10


def test_support_product_keeps_the_norm():
    # Sparse factors with zero rows and columns on both sides: the product
    # on the nonzero support has the norm of the whole product.
    rng = np.random.default_rng(8)
    for _ in range(30):
        va, vb = (rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.3) for _ in "ab")
        va[rng.random(9) < 0.3] = 0
        vb[:, rng.random(9) < 0.3] = 0
        part = orderzero._support_product(va, vb)
        assert abs(op_norm(part) - op_norm(va @ vb)) <= 1e-12


def test_scalar_domain_has_no_orthogonal_pairs():
    phi = diag_map(SCALARS, 2, (F(1),))
    report = oz_check_order_zero(phi, trials=10, seed=0)
    assert report.passed
    assert report.trials == 0
    assert report.vacuous


def reference_probe_pairs(sizes, trials, seed):
    """The pairs of the order-zero probe drawn and normalised one trial at a
    time, each contraction m / ||m|| for m = g g^T, as separate element
    lists."""
    rng = random.Random(seed)

    def psd(n):
        g = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        m = g @ g.T
        top = np.linalg.eigvalsh(m).max()
        return m / top if top > 0 else m

    options = (["cross"] if len(sizes) >= 2 else []) + (
        ["split"] if any(n >= 2 for n in sizes) else []
    )
    out = []
    for _ in range(trials):
        a, b = ([np.zeros((n, n)) for n in sizes] for _ in "ab")
        if rng.choice(options) == "cross":
            i, j = rng.sample(range(len(sizes)), 2)
            a[i], b[j] = psd(sizes[i]), psd(sizes[j])
        else:
            i = rng.choice([k for k, n in enumerate(sizes) if n >= 2])
            cut = rng.randrange(1, sizes[i])
            coords = list(range(sizes[i]))
            rng.shuffle(coords)
            a[i][np.ix_(coords[:cut], coords[:cut])] = psd(cut)
            b[i][np.ix_(coords[cut:], coords[cut:])] = psd(sizes[i] - cut)
        out.append((a, b))
    return out, options


@pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 1, 3), (4,)])
def test_probe_pairs_are_the_pairs_drawn_one_trial_at_a_time(sizes):
    # One stream, in trial order, and one stacked matmul and eigvalsh per
    # size: every element equals the one drawn and normalised on its own.
    for count, seed in ((1, 0), (37, 5), (300, 9)):
        reference, options = reference_probe_pairs(sizes, count, seed)
        stacks = orderzero._probe_pairs(sizes, options, count, random.Random(seed))
        for t, pair in enumerate(reference):
            for side, element in enumerate(pair):
                for x, stack in zip(element, stacks[side]):
                    assert stack[t].tobytes() == x.tobytes()


@pytest.mark.parametrize("trials", [0, 1, 511, 512, 513, 1100])
@pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 1, 3)])
@pytest.mark.parametrize("mode", ["diag", "psd"])
def test_chunked_check_equals_the_dense_probe_at_the_chunk_edges(mode, sizes, trials):
    # A chunk holds 512 trials: 511, 512 and 513 sit at its edge, and 1,100
    # take three chunks.  Commutative and non-commutative domains.
    phi = block_map(np.random.default_rng(trials), mode, list(sizes), [1, 2, 1], 2)
    report = oz_check_order_zero(phi, trials=trials, seed=trials + 1)
    assert report == oz_check_order_zero(DenseProbe(phi), trials=trials, seed=trials + 1)
    assert report.passed and report.trials == trials
    assert report.vacuous == (trials == 0)


def count_images(monkeypatch):
    """The leading axes of every call to ``OrderZeroMap._used_image``."""
    calls, used_image = [], OrderZeroMap._used_image
    monkeypatch.setattr(
        OrderZeroMap,
        "_used_image",
        lambda self, element, lead=(): calls.append(lead) or used_image(self, element, lead),
    )
    return calls


def test_the_check_images_each_side_of_a_chunk_in_one_call(monkeypatch):
    calls = count_images(monkeypatch)
    small = diag_map(findim(1, 2), 9, (F(1), F(1, 2)), (F(1, 4), F(1, 8)))
    assert oz_check_order_zero(small, trials=1100, seed=0).passed
    assert calls == [(512,)] * 4 + [(76,)] * 2
    # u = 50: 2^17 floats in all hold the elements and images of
    # 2^16 // (50^2 + 2) = 26 trials, which bounds the memory of a chunk
    calls.clear()
    wide = diag_map(findim(1, 1), 50, (F(1, 2),) * 40, (F(1, 4),) * 10)
    assert oz_check_order_zero(wide, trials=60, seed=0).passed
    assert calls == [(26,)] * 4 + [(8,)] * 2


def test_a_check_with_a_used_corner_in_the_thousands_forms_no_product(monkeypatch):
    # u = 1,001: each chunk is one trial, its two images are the only u x u
    # arrays, and their supports never meet, so nothing is multiplied.
    phi = diag_map(findim(1, 1), 1001, tuple(F(k % 8 + 1, 8) for k in range(1000)), (F(1, 2),))
    calls = count_images(monkeypatch)
    monkeypatch.setattr(orderzero, "_support_product", lambda va, vb: pytest.fail("product"))
    report = oz_check_order_zero(phi, trials=6, seed=2)
    monkeypatch.undo()
    assert calls == [(1,)] * 12
    assert report.passed and report.trials == 6
    assert report == oz_check_order_zero(DenseProbe(phi), trials=6, seed=2)


# ---------------------------------------------------------------------------
# Cuts and multiplicity.

def test_eps_cut_exact():
    phi = diag_map(findim(1, 1), 3, (F(1),), (F(1, 2), F(1, 4)))
    cut = oz_eps_cut(phi, F(1, 4))
    assert cut.blocks[0] == (F(3, 4),)
    assert cut.blocks[1] == (F(1, 4), F(0))
    assert cut.ranks[1] == 1
    with pytest.raises(NotPositive):
        oz_eps_cut(phi, F(-1, 4))


def test_eps_cut_psd_matches_spectral_cut():
    h = np.array([[0.5, 0.25], [0.25, 0.5]])
    phi = oz_new(findim(1), 3, [2], [h], "psd")
    cut = oz_eps_cut(phi, 0.3)
    w = np.linalg.eigvalsh(cut.block_dense(0))
    assert np.allclose(sorted(w), [0.0, 0.45], atol=1e-12)
    with pytest.raises(NotPositive):
        oz_eps_cut(phi, float("nan"))


def test_psd_eps_cut_is_symmetric_to_the_last_bit():
    # Searches on a cut map then take the eigvalsh norms, not the SVD.
    rng = np.random.default_rng(12)
    for _ in range(20):
        phi = oz_new(findim(1), 3, [3], [random_block(rng, "psd", 3, 3)], "psd")
        cut = oz_eps_cut(phi, 0.1)
        h = cut.block_dense(0)
        assert h.tobytes() == h.T.tobytes()
        w = np.linalg.eigvalsh(h)
        assert np.allclose(w, np.clip(np.linalg.eigvalsh(phi.block_dense(0)) - 0.1, 0, None))


def test_eps_beyond_the_float_range_cuts_everything():
    # Every eigenvalue is at most 1 + 1e-10, so any eps above it gives the
    # zero cut; 10^400 has no float and must not raise OverflowError.
    phi = oz_new(findim(1), 3, [2], [np.array([[0.5, 0.25], [0.25, 0.5]])], "psd")
    huge = oz_eps_cut(phi, F(10**400))
    assert oz_to_json(huge) == oz_to_json(oz_eps_cut(phi, 2))
    assert huge.ranks[0] == 0
    report = oz_eps_rank_inequality(phi, [np.eye(1)], F(10**400))
    assert (report.lhs_rank, report.rhs_rank) == (0, 0)


def test_multiplicity_profile():
    phi = diag_map(findim(1, 1, 1), 8, (F(1), F(1, 2)), (), (F(1),))
    nu = phi.multiplicity
    assert nu.space == Space.discrete(("x1", "x2", "x3"))
    assert nu.value_at("x1") == ExtNat(2)
    assert nu.value_at("x2") == ExtNat(0)
    assert nu.value_at("x3") == ExtNat(1)
    with pytest.raises(NonCommutativeDomain):
        diag_map(findim(2), 4, (F(1), F(1))).multiplicity


def recount(phi):
    """Ranks and multiplicity function counted afresh from the blocks."""
    ranks = []
    for i in range(len(phi.mults)):
        if phi.mode == "diag":
            ranks.append(sum(1 for x in phi.blocks[i] if x > 0))
        else:
            ranks.append(int((np.linalg.eigvalsh(phi.block_dense(i)) > 1e-10).sum()))
    space = phi.domain.spectrum()
    return tuple(ranks), mf(space, {p: ExtNat(r) for p, r in zip(space.points, ranks) if r})


@pytest.mark.parametrize("mode", ["diag", "psd"])
def test_ranks_and_multiplicity_are_computed_once_on_first_use(mode):
    rng = np.random.default_rng(3)
    phi = random_map(rng, mode, [2, 0, 3, 1], 12)
    assert "ranks" not in vars(phi) and "multiplicity" not in vars(phi)
    ranks, nu = recount(phi)
    assert phi.ranks == ranks
    assert phi.multiplicity == nu
    assert phi.multiplicity is phi.multiplicity


def test_derived_maps_carry_their_own_profile():
    phi = diag_map(findim(1, 1, 1), 9, (F(1), F(1, 2)), (F(1, 4),), (F(3, 4), F(1, 4), F(1, 8)))
    assert phi.ranks == (2, 1, 3)
    nu = phi.multiplicity
    cut = oz_eps_cut(phi, F(1, 4))  # eps equals an eigenvalue: that rank drops
    assert cut.ranks == (2, 0, 1) == recount(cut)[0]
    assert cut.multiplicity == recount(cut)[1] != nu
    assert phi.ranks == (2, 1, 3) and phi.multiplicity is nu
    both = direct_sum(phi, cut)
    assert both.ranks == (4, 1, 4) and both.multiplicity == recount(both)[1]
    rng = np.random.default_rng(8)
    dense = random_map(rng, "psd", [2, 1, 2], 9)
    dense_cut = oz_eps_cut(dense, float(dense.spectrum[0][0][-1]))
    assert dense_cut.ranks == recount(dense_cut)[0]
    assert dense_cut.ranks[0] < dense.ranks[0] and dense_cut.multiplicity != dense.multiplicity


def test_non_commutative_profile_raises_on_every_call():
    phi = diag_map(findim(2), 4, (F(1), F(1)))
    psi = diag_map(findim(2), 4, (F(1), F(1, 2)))
    for _ in range(2):
        with pytest.raises(NonCommutativeDomain):
            phi.multiplicity
        assert oz_cuntz_leq_commutative(phi, psi)  # rank 2 in the one block of both
    assert phi.ranks == (2,)


# ---------------------------------------------------------------------------
# Comparison and witnesses.

def test_comparison_and_witness_round_trip():
    phi = diag_map(findim(1, 1), 6, (F(1, 2),), (F(1), F(1, 4)))
    psi = diag_map(findim(1, 1), 6, (F(1), F(3, 4)), (F(1), F(1, 2)))
    assert oz_cuntz_leq_commutative(phi, psi)
    assert comparison_certificate(phi, psi) is None
    report = oz_construct_witness(phi, psi)
    assert report.passed
    assert report.residual < 1e-9


def test_witness_rejected_when_ranks_obstruct():
    phi = diag_map(SCALARS, 3, (F(1), F(1, 2)))
    psi = diag_map(SCALARS, 3, (F(1),))
    assert not oz_cuntz_leq_commutative(phi, psi)
    point, lhs, rhs = comparison_certificate(phi, psi)
    assert (point, lhs, rhs) == ("x1", 2, 1)
    with pytest.raises(PreconditionViolated):
        oz_construct_witness(phi, psi)
    # no random candidate can do better than the spectral gap
    best = oz_witness_search(phi, psi, samples=2000, seed=0)
    assert best >= 0.25


def test_witness_search_is_deterministic_per_seed():
    phi = diag_map(SCALARS, 3, (F(1, 2),))
    psi = diag_map(SCALARS, 3, (F(1), F(1)))
    a = oz_witness_search(phi, psi, samples=1500, seed=3)
    b = oz_witness_search(phi, psi, samples=1500, seed=3)
    assert a == b
    # no candidate is drawn, so the seed changes nothing
    assert oz_witness_search(phi, psi, samples=1500, seed=4) == a
    # phi <= psi here, so the least residual vanishes up to rounding
    assert a < 1e-12


def eigenbasis(f):
    """f's counted eigenvectors on its used corner, a u(f) x sum rank(f_i) n_i
    matrix: on block i, V (x) 1_{n_i}, V the eigenvectors of H_i in
    ``positive``, largest eigenvalue first, so that column k n_i + r is
    eigenvector k on the r-th row set of the block."""
    out = np.zeros((f.used, sum(r * n for r, n in zip(f.ranks, f.domain.blocks))))
    at = 0
    for (lam, v), m, n, off in zip(f.positive, f.mults, f.domain.blocks, f.offsets):
        out[off : off + m * n, at : at + len(lam) * n] = np.kron(v, np.eye(n))
        at += len(lam) * n
    return out


def lift(phi, psi, y):
    """The candidates B = V_psi Y V_phi^T on psi's used rows and phi's used
    columns whose eigenbasis entries are y."""
    return eigenbasis(psi) @ y @ eigenbasis(phi).T


def reference_witness_search(phi, psi, samples, seed):
    """The search before batching: einsum conjugation, max-entry screening
    and one op_norm per candidate and generator.  Each candidate is drawn
    in the eigenbases of both maps, as the search draws it, lifted to psi's
    used rows and phi's used columns and zero-padded to the full targets,
    and its residuals are taken against the whole of phi."""
    rng = np.random.default_rng(seed)
    gens = generators(phi.domain)
    psi_g = np.stack([psi.apply(g) for g in gens])
    phi_g = np.stack([phi.apply(g) for g in gens])
    rows = sum(r * n for r, n in zip(psi.ranks, psi.domain.blocks))
    width = sum(r * n for r, n in zip(phi.ranks, phi.domain.blocks))
    best = float("inf")
    left = samples
    while left > 0:
        s = min(512, left)
        left -= s
        y = rng.standard_normal((s, rows, width))
        y *= rng.uniform(0.05, 2.0, size=(s, 1, 1))
        bs = np.zeros((s, psi.target_dim, phi.target_dim))
        bs[:, : psi.used, : phi.used] = lift(phi, psi, y)
        r = np.einsum("sji,gjk,skl->sgil", bs, psi_g, bs) - phi_g[None, :, :, :]
        lower = np.abs(r).reshape(s, len(gens), -1).max(axis=2).max(axis=1)
        for idx in np.argsort(lower):
            if lower[idx] >= best:
                break
            best = min(best, max(op_norm(r[idx, g]) for g in range(len(gens))))
    return best


def random_block(rng, mode, size, rank):
    """A positive contraction of the given size and rank, spectrum in [1/4, 1]."""
    eigs = np.concatenate([rng.uniform(0.25, 1.0, rank), np.zeros(size - rank)])
    if mode == "diag":
        return tuple(F(x).limit_denominator(64) for x in eigs)
    u, _ = np.linalg.qr(rng.standard_normal((size, size)))
    h = (u * eigs) @ u.T
    return (h + h.T) / 2


def random_map(rng, mode, ranks, target_dim):
    sizes = [r + int(rng.integers(0, 2)) for r in ranks]
    while sum(sizes) > target_dim:
        slack = [s - r for s, r in zip(sizes, ranks)]
        sizes[int(np.argmax(slack if max(slack) > 0 else sizes))] -= 1
    blocks = [random_block(rng, mode, s, min(r, s)) for s, r in zip(sizes, ranks)]
    return oz_new(findim(*[1] * len(ranks)), target_dim, sizes, blocks, mode)


def obstructed_pair(rng, mode, points, phi_dim, psi_dim):
    """phi, psi with rank phi > rank psi at a random point, provided that
    phi's ranks fit into phi_dim (always so for phi_dim >= 2 * points)."""
    phi_ranks = [int(x) for x in rng.integers(0, 3, points)]
    j = int(rng.integers(points))
    phi_ranks[j] = max(phi_ranks[j], 1)
    psi_ranks = [int(x) for x in rng.integers(0, 3, points)]
    psi_ranks[j] = int(rng.integers(0, phi_ranks[j]))
    phi = random_map(rng, mode, phi_ranks, phi_dim)
    psi = random_map(rng, mode, psi_ranks, psi_dim)
    return phi, psi


@pytest.mark.parametrize("mode", ["diag", "psd"])
@pytest.mark.parametrize("points", [1, 2, 3, 4])
@pytest.mark.parametrize("dims", [(8, 8), (9, 6), (5, 10)])
def test_witness_search_matches_reference(mode, points, dims):
    rng = np.random.default_rng([points, *dims, mode == "psd"])
    phi_dim, psi_dim = dims
    phi, psi = obstructed_pair(rng, mode, points, phi_dim, psi_dim)
    # the search returns the margin, and no seeded reference draw beats it
    fast = oz_witness_search(phi, psi, samples=1300, seed=0)
    assert abs(fast - obstruction_margin(phi, psi)) <= 1e-12
    for seed in (0, 7):
        assert reference_witness_search(phi, psi, 1300, seed) >= fast - 1e-12
    # dominated pairs too: there the minimum is zero up to rounding
    fast = oz_witness_search(psi, psi, samples=700, seed=1)
    assert fast <= 1e-9
    assert reference_witness_search(psi, psi, 700, 1) >= fast - 1e-12


@settings(max_examples=30, deadline=None)
@given(
    mode=st.sampled_from(["diag", "psd"]),
    points=st.integers(1, 4),
    dims=st.tuples(st.integers(8, 10), st.integers(6, 10)),  # phi's ranks fit
    seed=st.integers(0, 2**16),
)
def test_witness_search_respects_eckart_young(mode, points, dims, seed):
    # b^T psi(e_i) b has rank <= rank psi_i, so no candidate gets closer to
    # phi(e_i) than the (rank psi_i + 1)-th singular value of H^phi_i.
    rng = np.random.default_rng(seed)
    phi, psi = obstructed_pair(rng, mode, points, *dims)
    margin = obstruction_margin(phi, psi)
    assert margin >= 0.25 - 1e-12
    assert oz_witness_search(phi, psi, samples=600, seed=seed) >= margin - 1e-12


def svd_margin(phi, psi):
    """max_i sigma_{r_i + 1}(H_i) from numpy's SVD of phi's blocks."""
    margin = 0.0
    for i, r in enumerate(psi.ranks):
        sv = np.linalg.svd(phi.block_dense(i), compute_uv=False) if phi.mults[i] else []
        margin = max(margin, float(sv[r]) if r < len(sv) else 0.0)
    return margin


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["diag", "psd"]),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    phi_ranks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    psi_ranks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_obstruction_margin_is_the_singular_value_bound(mode, sizes, phi_ranks, psi_ranks, seed):
    rng = np.random.default_rng(seed)
    k = len(sizes)
    phi = block_map(rng, mode, sizes, phi_ranks[:k], 0)
    psi = block_map(rng, mode, sizes, psi_ranks[:k], 1)
    margin = obstruction_margin(phi, psi)
    assert abs(margin - svd_margin(phi, psi)) <= 1e-12
    assert (margin > 1e-9) == (comparison_certificate(phi, psi) is not None)


def test_obstruction_margin_is_exact_in_diag_mode():
    phi = diag_map(findim(1, 1), 6, (F(1, 3), F(1), F(1, 7)), (F(1, 2), F(1, 5)))
    psi = diag_map(findim(1, 1), 6, (F(1),), (F(1), F(1)))
    assert obstruction_margin(phi, psi) == float(F(1, 3))
    assert obstruction_margin(psi, phi) == 0.0
    assert obstruction_margin(phi, diag_map(findim(1, 1), 2, (), ())) == 1.0
    with pytest.raises(DomainMismatch):
        obstruction_margin(phi, diag_map(findim(1), 2, (F(1),)))


def test_rank_cutoff_names_the_eigenvalues_nearest_the_cutoff():
    half = oz_new(findim(1, 1), 3, [1, 2], [[[0.5]], np.diag([1.0, 1e-11])], "psd")
    tiny = oz_new(findim(1, 1), 2, [1, 1], [[[1e-11]], [[0.25]]], "psd")
    assert comparison_certificate(half, tiny) == ("x1", 1, 0)
    assert rank_cutoff(half, tiny, 0) == (1e-10, 0.5, 1e-11)
    # psi counts every eigenvalue of its block: none is uncounted
    assert rank_cutoff(half, tiny, 1) == (1e-10, 1.0, None)
    # a diag map against a psd one: the diag zero is uncounted
    exact = diag_map(findim(1, 1), 3, (F(1, 4),), (F(1), F(0)))
    assert rank_cutoff(half, exact, 1) == (1e-10, 1.0, 0.0)
    assert rank_cutoff(exact, tiny, 0) == (1e-10, 0.25, 1e-11)
    # two diag maps count exact entries: no cutoff
    assert rank_cutoff(exact, exact, 0) is None


def zero_block(mode, m):
    return (F(0),) * m if mode == "diag" else np.zeros((m, m))


def test_a_psd_block_below_the_cutoff_goes_to_the_floor():
    # Every entry of psi's block at x1 is nonzero but below 1e-10, so it has
    # rank 0 under the rank rule and the witness no rows there: every
    # residual at x1 is -phi(e_1), of norm 1, and x2's residual vanishes.
    tiny = np.array([[3e-11, 1e-11], [1e-11, 3e-11]])
    psi = oz_new(findim(1, 1), 4, [2, 1], [tiny, np.array([[1.0]])], "psd")
    assert psi.ranks == (0, 1)
    phi = diag_map(findim(1, 1), 4, (F(1), F(1, 2)), (F(1, 4),))
    best = oz_witness_search(phi, psi, samples=1300, seed=6)
    assert best == 1.0
    assert abs(best - reference_witness_search(phi, psi, 1300, 6)) <= 1e-12
    # with x2 at rank 0 as well, the witness is zero
    flat = oz_new(findim(1, 1), 4, [2, 1], [tiny, np.array([[1e-11]])], "psd")
    assert flat.ranks == (0, 0)
    assert oz_witness_search(phi, flat, samples=1300, seed=6) == 1.0


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["diag", "psd"]),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    phi_ranks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    psi_ranks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_compressing_a_candidate_to_phis_range_never_raises_its_residual(
    mode, sizes, phi_ranks, psi_ranks, seed
):
    # phi(g) commutes with the projection P onto phi's counted eigenvectors,
    # so r_g(bP) = P r_g(b) P - (1 - P) phi(g) (1 - P), whose second term
    # vanishes here up to rounding: the search loses nothing on phi's range.
    rng = np.random.default_rng(seed)
    k = len(sizes)
    phi = block_map(rng, mode, sizes, phi_ranks[:k], 1)
    psi = block_map(rng, mode, sizes, psi_ranks[:k], 1)
    b = rng.standard_normal((psi.target_dim, phi.target_dim)) * rng.uniform(0.05, 2.0)
    v = eigenbasis(phi)
    p = np.zeros((phi.target_dim, phi.target_dim))
    p[: phi.used, : phi.used] = v @ v.T
    full = oz_verify_witness(phi, psi, b).residual
    assert oz_verify_witness(phi, psi, b @ p).residual <= full + 1e-12


@pytest.mark.parametrize("mode", ["diag", "psd"])
def test_a_rank_zero_phi_returns_its_floor(mode):
    # phi has no counted eigenpair, so the witness is b = 0 and its
    # residual -phi(g) has the norm ||H_i||, 0 here, whatever psi is.
    rng = np.random.default_rng(12)
    phi = oz_new(findim(2, 1), 5, [2, 1], [zero_block(mode, 2), zero_block(mode, 1)], mode)
    psi = block_map(rng, mode, [2, 1], [1, 2], 1)
    assert phi.ranks == (0, 0)
    for a, b in ((phi, psi), (phi, with_zero_points(rng, psi, [0]))):
        assert oz_witness_search(a, b, samples=700, seed=4) == 0.0
        assert reference_witness_search(a, b, 700, 4) == 0.0
    # no candidate tried
    assert oz_witness_search(phi, psi, samples=0, seed=4) == np.inf


def test_an_uncounted_psd_eigenvalue_is_carried_by_the_floor():
    # phi's eigenvalues 1e-11 and -5e-11 lie within the cutoff, so phi has
    # rank 0 and the witness is b = 0.  Its residual -phi(g), of norm 5e-11,
    # is the value, also against psi of full rank.
    phi = oz_new(findim(1, 1), 4, [2, 1], [np.diag([1e-11, 0.0]), [[-5e-11]]], "psd")
    assert phi.ranks == (0, 0)
    for psi in (diag_map(findim(1, 1), 3, (F(1),), (F(1), F(1, 2))),
                oz_new(findim(1, 1), 3, [2, 1], [np.eye(2) / 2, [[0.0]]], "psd")):
        best = oz_witness_search(phi, psi, samples=700, seed=8)
        assert best == 5e-11
        assert abs(best - reference_witness_search(phi, psi, 700, 8)) <= 1e-12
        assert abs(best - oz_verify_witness(phi, psi, np.zeros((3, 4))).residual) <= 1e-25


def with_zero_points(rng, psi, points):
    """psi with a zero corner at each of ``points``: multiplicity 0 or a
    block of zeros, at random."""
    mults, blocks = list(psi.mults), list(psi.blocks)
    for i in points:
        if rng.integers(2):
            mults[i] = 0
        blocks[i] = zero_block(psi.mode, mults[i])
    return oz_new(psi.domain, psi.target_dim, mults, blocks, psi.mode)


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(["diag", "psd"]),
    points=st.integers(1, 4),
    dims=st.tuples(st.integers(8, 10), st.integers(4, 10)),  # phi's ranks fit
    zero=st.sets(st.integers(0, 3)),
    seed=st.integers(0, 2**16),
)
def test_witness_search_with_zero_corners_matches_reference(mode, points, dims, zero, seed):
    rng = np.random.default_rng(seed)
    phi, psi = obstructed_pair(rng, mode, points, *dims)
    psi = with_zero_points(rng, psi, [i for i in zero if i < points])
    fast = oz_witness_search(phi, psi, samples=700, seed=seed)
    assert abs(fast - obstruction_margin(phi, psi)) <= 1e-12
    assert reference_witness_search(phi, psi, 700, seed) >= fast - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["diag", "psd"]),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    phi_ranks=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    psi_ranks=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    below_cutoff=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_the_search_returns_the_least_residual(
    mode, sizes, phi_ranks, psi_ranks, below_cutoff, seed
):
    # Pairing the top min(rank phi_i, rank psi_i) eigenpairs leaves
    # sigma_{r_i + 1}(H_i) on block i: the Eckart-Young margin on an
    # obstruction, which no witness beats, and 0 up to rounding (and phi's
    # uncounted eigenvalues) on a dominated pair.
    rng = np.random.default_rng(seed)
    k = len(sizes)
    phi = block_map(rng, mode, sizes, phi_ranks[:k], 1, below_cutoff)
    psi = block_map(rng, mode, sizes, psi_ranks[:k], 1, below_cutoff)
    best = oz_witness_search(phi, psi, samples=64, seed=seed)
    if comparison_certificate(phi, psi) is None:
        assert best <= 1e-9
    else:
        assert abs(best - obstruction_margin(phi, psi)) <= 1e-12
    assert reference_witness_search(phi, psi, 64, seed) >= best - 1e-12


def test_a_target_too_large_for_a_dense_matrix_is_a_dimension_mismatch():
    # 10^30 only: numpy refuses that shape at once, while 10^4 would
    # allocate gigabytes.  apply builds the dense image.
    big = oz_new(findim(1, 1), 10**30, [1, 0], [(F(1, 2),), ()], "diag")
    with pytest.raises(DimensionMismatch, match="target_dim"):
        big.apply([np.eye(1), np.eye(1)])


def test_the_order_zero_check_at_a_huge_target_is_the_check_on_the_used_corner():
    big = oz_new(findim(1, 1), 10**30, [1, 0], [(F(1, 2),), ()], "diag")
    report = oz_check_order_zero(big, trials=20, seed=4)
    small = with_target(big, big.used)
    assert report == oz_check_order_zero(DenseProbe(small), trials=20, seed=4)
    assert report.passed and report.trials == 20


def with_target(phi, target_dim):
    return oz_new(phi.domain, target_dim, phi.mults, phi.blocks, phi.mode)


def test_the_witness_at_a_huge_target_is_the_witness_on_the_used_corner():
    # Search, construction and verification never leave the used corner,
    # so a target of 10^30 gives exactly what a target of u gives.
    phi = oz_new(findim(1, 1), 10**30, [1, 0], [(F(1, 2),), ()], "diag")
    psi = oz_new(findim(1, 1), 10**30, [2, 1], [(F(1), F(1, 4)), (F(1, 2),)], "diag")
    small_phi, small_psi = with_target(phi, phi.used), with_target(psi, psi.used)
    assert oz_cuntz_leq_commutative(phi, psi)  # ranks need no matrix
    for a, b, small_a, small_b in ((phi, psi, small_phi, small_psi),
                                   (psi, phi, small_psi, small_phi)):
        assert oz_witness_search(a, b, samples=600, seed=3) == oz_witness_search(
            small_a, small_b, samples=600, seed=3
        )
    report, small = oz_construct_witness(phi, psi), oz_construct_witness(small_phi, small_psi)
    assert report.shape == (10**30, 10**30)
    assert report.corner.tobytes() == small.corner.tobytes()
    assert report.residual == small.residual and report.passed
    with pytest.raises(DimensionMismatch, match="target_dim"):
        report.dense()


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(["diag", "psd"]),
    points=st.integers(1, 3),
    dims=st.tuples(st.integers(6, 8), st.integers(4, 8)),  # phi's ranks fit
    pads=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    seed=st.integers(0, 2**16),
)
def test_unused_dimensions_change_no_witness_value(mode, points, dims, pads, seed):
    rng = np.random.default_rng(seed)
    phi, psi = obstructed_pair(rng, mode, points, *dims)
    wide_phi = with_target(phi, phi.target_dim + pads[0])
    wide_psi = with_target(psi, psi.target_dim + pads[1])
    # search, both ways: the obstructed one and the other
    for a, b, wide_a, wide_b in ((phi, psi, wide_phi, wide_psi), (psi, phi, wide_psi, wide_phi)):
        assert oz_witness_search(a, b, 600, seed) == oz_witness_search(wide_a, wide_b, 600, seed)
    # construction, on the dominated pair phi <= phi (+) psi
    top = direct_sum(phi, psi)
    wide_top = with_target(top, top.target_dim + pads[1])
    report = oz_construct_witness(phi, top)
    wide = oz_construct_witness(wide_phi, wide_top)
    assert wide.corner.tobytes() == report.corner.tobytes()
    assert wide.residual == report.residual
    assert wide.shape == (wide_top.target_dim, wide_phi.target_dim)
    # verification of a dense witness, zero-padded; and of the padded corner
    b = rng.standard_normal((psi.target_dim, phi.target_dim))
    padded = np.zeros((wide_psi.target_dim, wide_phi.target_dim))
    padded[: psi.target_dim, : phi.target_dim] = b
    assert (oz_verify_witness(wide_phi, wide_psi, padded).residual
            == oz_verify_witness(phi, psi, b).residual)
    assert oz_verify_witness(wide_phi, wide_top, wide.dense()).residual == wide.residual


def test_search_and_verify_accept_an_empty_target():
    # The zero map into M(0) is below everything: every residual is empty.
    phi = oz_new(SCALARS, 0, [0], [()], "diag")
    psi = diag_map(SCALARS, 2, (F(1),))
    assert oz_witness_search(phi, psi, samples=100, seed=0) == 0.0
    assert oz_verify_witness(phi, psi, np.zeros((2, 0))).residual == 0.0
    assert oz_witness_search(psi, phi, samples=100, seed=0) == 1.0


def test_verify_witness_matches_per_generator_norms():
    rng = np.random.default_rng(11)
    phi, psi = obstructed_pair(rng, "psd", 3, 7, 9)
    b = rng.standard_normal((9, 7))
    expected = max(
        op_norm(b.T @ psi.apply(g) @ b - phi.apply(g)) for g in generators(phi.domain)
    )
    assert abs(oz_verify_witness(phi, psi, b).residual - expected) <= 1e-12


def test_verify_witness_shapes_and_domains():
    phi = diag_map(findim(1), 2, (F(1),))
    psi = diag_map(findim(1), 3, (F(1),))
    with pytest.raises(ShapeMismatch):
        oz_verify_witness(phi, psi, np.eye(2))
    with pytest.raises(DomainMismatch):
        oz_verify_witness(phi, diag_map(findim(1, 1), 3, (F(1),), (F(1),)), np.ones((3, 2)))
    exact = oz_verify_witness(phi, psi, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    assert exact.passed


@pytest.mark.parametrize("entry", [float("inf"), float("nan")])
def test_verify_witness_rejects_non_finite_entries(entry):
    phi = oz_new(SCALARS, 2, [2], [np.eye(2) / 2], "psd")
    with pytest.raises(NotFinite):
        oz_verify_witness(phi, phi, np.array([[entry, 0.0], [0.0, 0.0]]))


def test_tiny_exact_entries_count_in_comparison_and_witness():
    # ranks counts every exact positive entry; the witness must pair
    # the same eigenvalues, not only those above the float cutoff.
    phi = diag_map(SCALARS, 2, (F(1, 2),))
    psi = diag_map(SCALARS, 2, (F(1, 10**12),))
    assert psi.ranks[0] == 1
    assert oz_cuntz_leq_commutative(phi, psi) and oz_cuntz_leq_commutative(psi, phi)
    for a, b in ((phi, psi), (psi, phi)):
        report = oz_construct_witness(a, b)
        assert report.passed
        assert report.residual < 1e-12
    assert oz_eps_cut(psi, 0).ranks[0] == 1
    assert oz_eps_rank_inequality(psi, [(F(1),)], 0).lhs_rank == 1


def test_witness_for_an_entry_below_the_float_range_is_rejected():
    # 10^-400 counts exactly but is 0.0 as a float: no finite scale pairs
    # with it, so the witness misses phi and says so instead of raising.
    phi = diag_map(SCALARS, 2, (F(1, 2),))
    psi = diag_map(SCALARS, 2, (F(1, 10**400),))
    assert oz_cuntz_leq_commutative(phi, psi)
    report = oz_construct_witness(phi, psi)
    assert not report.passed
    assert report.residual == 0.5


def test_witness_construction_on_a_non_commutative_domain():
    phi = diag_map(findim(2), 5, (F(1, 2),))
    psi = diag_map(findim(2), 5, (F(1), F(3, 4)))
    report = oz_construct_witness(phi, psi)
    assert report.passed and report.residual < 1e-12
    # b = c (x) 1_2 with c = [[sqrt(1/2)], [0]]: c on the rows 0, 2 and the
    # column 0, and again on the rows 1, 3 and the column 1
    # (the used corner is psi's 4 rows by phi's 2 columns)
    expected = np.zeros((5, 5))
    expected[0, 0] = expected[1, 1] = np.sqrt(0.5)
    assert report.corner.shape == (4, 2) and report.shape == (5, 5)
    assert np.allclose(report.dense(), expected, atol=1e-15)


def test_comparison_needs_a_common_domain():
    three = diag_map(findim(1, 1, 1), 3, (F(1),), (F(1),), (F(1),))
    two = diag_map(findim(1, 1), 3, (F(1),), ())
    for a, b in ((three, two), (two, three)):
        with pytest.raises(DomainMismatch, match="common domain"):
            comparison_certificate(a, b)
        with pytest.raises(DomainMismatch):
            oz_cuntz_leq_commutative(a, b)
        with pytest.raises(DomainMismatch):
            oz_construct_witness(a, b)
    # the same block count with other block sizes is another domain too
    with pytest.raises(DomainMismatch):
        comparison_certificate(two, diag_map(findim(1, 2), 3, (F(1),), ()))


def block_map(rng, mode, sizes, ranks, spare, below_cutoff=False):
    """A map on the domain with the given block sizes: block i has
    multiplicity ranks[i] or one more, and eigenvalues k/8, ranks[i] of them
    positive, rotated by a random orthogonal matrix in psd mode.  The target
    has ``spare`` dimensions beyond the used ones.  With ``below_cutoff``,
    the zero eigenvalues of a psd block lie just below the 1e-10 cutoff."""
    mults = [r + int(rng.integers(0, 2)) for r in ranks]
    target_dim = sum(m * n for m, n in zip(mults, sizes)) + spare
    blocks = []
    for m, r in zip(mults, ranks):
        eigs = [F(int(k), 8) for k in rng.integers(1, 9, r)] + [F(0)] * (m - r)
        if mode == "diag":
            blocks.append(tuple(eigs))
        else:
            low = rng.uniform(5e-11, 9e-11, m - r) if below_cutoff else np.zeros(m - r)
            u, _ = np.linalg.qr(rng.standard_normal((m, m)))
            h = (u * np.concatenate([[float(x) for x in eigs[:r]], low])) @ u.T
            blocks.append((h + h.T) / 2)
    return oz_new(findim(*sizes), target_dim, mults, blocks, mode)


def rank_oracle(phi):
    """rank phi(E_11) of every block, from the dense image."""
    ranks = []
    for i, n in enumerate(phi.domain.blocks):
        e11 = [np.zeros((k, k)) for k in phi.domain.blocks]
        e11[i][0, 0] = 1.0
        ranks.append(int(np.linalg.matrix_rank(phi.apply(e11), tol=1e-9)))
    return ranks


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["diag", "psd"]),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    phi_ranks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    psi_ranks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_comparison_by_block_ranks_on_any_domain(mode, sizes, phi_ranks, psi_ranks, seed):
    # By additivity and W(M_n, B) = W(C, B), phi <= psi exactly when
    # rank phi(E_11) <= rank psi(E_11) in every block.  A dominated pair has
    # the witness c (x) 1_n; an obstructed one no candidate within the
    # Eckart-Young margin of the obstructed block.
    rng = np.random.default_rng(seed)
    k = len(sizes)
    phi = block_map(rng, mode, sizes, phi_ranks[:k], 0)
    psi = block_map(rng, mode, sizes, psi_ranks[:k], 1)
    lhs, rhs = rank_oracle(phi), rank_oracle(psi)
    below = all(a <= b for a, b in zip(lhs, rhs))
    assert oz_cuntz_leq_commutative(phi, psi) == below
    cert = comparison_certificate(phi, psi)
    if below:
        assert cert is None
        assert oz_construct_witness(phi, psi).residual < 1e-12
        return
    i = next(j for j in range(k) if lhs[j] > rhs[j])
    assert cert == (f"x{i + 1}", lhs[i], rhs[i])
    with pytest.raises(PreconditionViolated):
        oz_construct_witness(phi, psi)
    margin = obstruction_margin(phi, psi)
    assert margin >= 1 / 8 - 1e-12
    assert oz_witness_search(phi, psi, samples=200, seed=seed) >= margin - 1e-12


# ---------------------------------------------------------------------------
# Rank inequality and the Handelman sequence.

def test_eps_rank_inequality_exact_and_float_paths():
    phi = diag_map(findim(1, 2), 8, (F(1), F(1, 2)), (F(1, 3),))
    a = [(F(1, 2),), (F(1), F(1, 8))]
    rep = oz_eps_rank_inequality(phi, a, F(1, 4))
    assert rep.holds
    rep_float = oz_eps_rank_inequality(
        phi, [np.array([[0.5]]), np.diag([1.0, 0.125])], 0.25
    )
    assert rep_float.holds
    assert (rep_float.lhs_rank, rep_float.rhs_rank) == (rep.lhs_rank, rep.rhs_rank)
    with pytest.raises(NotPositive):
        oz_eps_rank_inequality(phi, [(F(-1),), (F(1), F(1))], F(1, 4))


def test_eps_rank_inequality_is_strict_sometimes():
    phi = diag_map(findim(1), 2, (F(1, 2),))
    a = [(F(1, 2),)]
    rep = oz_eps_rank_inequality(phi, a, F(1, 3))
    # (1/4 - 1/3)+ = 0 but phi((a - 1/3)+) has rank 1
    assert rep.lhs_rank == 0
    assert rep.rhs_rank == 1
    assert rep.holds


def reference_eps_rank(phi, a, eps):
    """The float epsilon-rank before the spectral count: eigvalsh of the two
    dense target-size matrices phi(a) and phi((a - eps)+)."""
    e = float(eps)
    mats = [np.atleast_2d(np.asarray(blk, dtype=float)) for blk in a]
    cut = []
    for m_blk in mats:
        w, v = np.linalg.eigh(m_blk)
        cut.append((v * np.clip(w - e, 0.0, None)) @ v.T)
    lhs = int(np.count_nonzero(np.linalg.eigvalsh(phi.apply(mats)) > e + 1e-10))
    rhs = int(np.count_nonzero(np.linalg.eigvalsh(phi.apply(cut)) > 1e-10))
    return lhs, rhs


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(["diag", "psd"]),
    sizes=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    form=st.sampled_from(["matrix", "exact diagonal", "float diagonal"]),
    eps=st.integers(0, 16).map(lambda k: F(k, 16)),
    seed=st.integers(0, 2**16),
)
def test_eps_rank_matches_dense_reference(mode, sizes, form, eps, seed):
    rng = np.random.default_rng(seed)
    mults = [int(rng.integers(0, 3)) for _ in sizes]
    blocks = [random_block(rng, mode, m, int(rng.integers(0, m + 1))) for m in mults]
    phi = oz_new(findim(*sizes), sum(m * n for m, n in zip(mults, sizes)), mults, blocks, mode)
    diags = [[F(int(k), 16) for k in rng.integers(0, 17, n)] for n in sizes]
    mats = []
    for d in diags:
        u, _ = np.linalg.qr(rng.standard_normal((len(d), len(d))))
        mats.append((u * [float(x) for x in d]) @ u.T)
    a = {
        "matrix": mats,
        "exact diagonal": [tuple(d) for d in diags],
        "float diagonal": [tuple(float(x) for x in d) for d in diags],
    }[form]
    rep = oz_eps_rank_inequality(phi, a, eps)
    assert type(rep.lhs_rank) is int and type(rep.rhs_rank) is int
    assert (rep.lhs_rank, rep.rhs_rank) == reference_eps_rank(phi, mats, eps)


@pytest.mark.parametrize("mode", ["diag", "psd"])
def test_eps_rank_reads_diagonal_forms_in_both_modes(mode):
    h = (F(1, 2), F(1, 4)) if mode == "diag" else np.array([[0.5, 0.125], [0.125, 0.25]])
    phi = oz_new(findim(2), 4, [2], [h], mode)
    dense = oz_eps_rank_inequality(phi, [np.diag([0.5, 0.25])], 0.125)
    for a, eps in (
        ([(F(1, 2), F(1, 4))], F(1, 8)),
        ([(0.5, 0.25)], 0.125),
        ([np.array([0.5, 0.25])], 0.125),
    ):
        rep = oz_eps_rank_inequality(phi, a, eps)
        assert (rep.lhs_rank, rep.rhs_rank) == (dense.lhs_rank, dense.rhs_rank)
    assert (dense.lhs_rank, dense.rhs_rank) == reference_eps_rank(
        phi, [np.diag([0.5, 0.25])], 0.125
    )


def test_eps_rank_cutoff_follows_the_rank_rule():
    # (phi(a) - eps)+ has eigenvalue 1e-11 here: positive exactly, but not
    # above the float cutoff.
    eps = F(1, 4) - F(1, 10**11)
    exact = oz_eps_rank_inequality(diag_map(SCALARS, 1, (F(1, 2),)), [(F(1, 2),)], eps)
    assert (exact.lhs_rank, exact.rhs_rank) == (1, 1)
    phi = oz_new(SCALARS, 1, [1], [np.array([[0.5]])], "psd")
    rep = oz_eps_rank_inequality(phi, [(0.5,)], float(eps))
    assert (rep.lhs_rank, rep.rhs_rank) == (0, 1) == reference_eps_rank(phi, [[[0.5]]], eps)


def test_eps_rank_refuses_an_element_block_that_is_not_symmetric():
    # Which triangle holds the 5 must not decide the verdict: neither matrix
    # is positive, so both are refused, as oz_new refuses such a block.
    phi = diag_map(findim(2), 2, (F(1, 2),))
    for a in ([[1, 5], [0, 1]], [[1, 0], [5, 1]]):
        with pytest.raises(NotPositive, match="not symmetric"):
            oz_eps_rank_inequality(phi, [a], 0.1)
    # within np.allclose's tolerance, the symmetric part is ranked
    near = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    rep = oz_eps_rank_inequality(phi, [near], 0.1)
    assert (rep.lhs_rank, rep.rhs_rank) == (2, 2)
    assert rep == oz_eps_rank_inequality(phi, [near.T], 0.1)


@pytest.mark.parametrize("mode", ["diag", "psd"])
def test_eps_rank_rejects_bad_elements(mode):
    h = (F(1, 2),) if mode == "diag" else np.array([[0.5]])
    phi = oz_new(findim(1, 2), 4, [1, 1], [h, h], mode)
    ok = [(F(1, 2),), (F(1), F(1, 4))]
    for entry in (float("nan"), float("inf")):
        with pytest.raises(NotFinite):
            oz_eps_rank_inequality(phi, [np.array([[entry]]), np.eye(2)], 0.1)
        with pytest.raises(NotFinite):
            oz_eps_rank_inequality(phi, [(0.5,), (entry, 0.5)], 0.1)
    with pytest.raises(NotPositive):
        oz_eps_rank_inequality(phi, [(0.5,), (1.0, 0.25)], float("nan"))
    with pytest.raises(NotPositive):
        oz_eps_rank_inequality(phi, ok, F(-1, 4))
    with pytest.raises(NotPositive):
        oz_eps_rank_inequality(phi, [(0.5,), np.diag([1.0, -0.5])], 0.1)
    with pytest.raises(DimensionMismatch):
        oz_eps_rank_inequality(phi, ok[:1], 0.1)
    for bad in ((F(1), F(1), F(1)), np.eye(3), np.ones((1, 2))):
        with pytest.raises(DimensionMismatch):
            oz_eps_rank_inequality(phi, [ok[0], bad], 0.1)


def test_handelman_contraction():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4))
    a = g @ g.T
    a /= np.linalg.eigvalsh(a).max()
    b = a + 0.25 * np.eye(4)
    rep = oz_handelman(a, b, 10**4)
    assert rep.z_norm <= 1 + 1e-9
    assert rep.deviation < 1e-3
    with pytest.raises(NotDominated):
        oz_handelman(b, a, 10)
    with pytest.raises(ShapeMismatch):
        oz_handelman(a, np.eye(3), 10)
    with pytest.raises(NotFinite):
        oz_handelman(np.diag([np.inf, 0.0, 0.0, 0.0]), b, 10)
    with pytest.raises(ValueError):
        oz_handelman(a, b, 0)


def test_handelman_deviation_shrinks():
    a = np.diag([1.0, 0.5, 0.0, 0.25])
    b = np.diag([1.0, 1.0, 0.5, 0.25])
    devs = [oz_handelman(a, b, n).deviation for n in (10, 100, 1000)]
    assert devs[0] > devs[1] > devs[2]


# ---------------------------------------------------------------------------
# Direct sums and the Kronecker model.

def test_direct_sum_hat_adds_profiles():
    phi = diag_map(findim(1, 1), 4, (F(1),), (F(1, 2),))
    psi = diag_map(findim(1, 1), 4, (F(1), F(1)), ())
    both = direct_sum(phi, psi)
    assert both.target_dim == 8
    nu = both.multiplicity
    assert nu.value_at("x1") == ExtNat(3)
    assert nu.value_at("x2") == ExtNat(1)


def _psd_pair(phi_mode, psi_mode):
    # the same spectra in both modes: {3/4, 1/4} and {1/2} for phi,
    # {1, 0} and nothing for psi
    if phi_mode == "diag":
        phi = diag_map(findim(1, 1), 4, (F(3, 4), F(1, 4)), (F(1, 2),))
    else:
        phi = oz_new(findim(1, 1), 4, [2, 1],
                     [np.array([[0.5, 0.25], [0.25, 0.5]]), np.array([[0.5]])], "psd")
    if psi_mode == "diag":
        psi = diag_map(findim(1, 1), 3, (F(1), F(0)), ())
    else:
        psi = oz_new(findim(1, 1), 3, [2, 0],
                     [np.array([[0.5, 0.5], [0.5, 0.5]]), np.zeros((0, 0))], "psd")
    return phi, psi


@pytest.mark.parametrize("modes", [("psd", "psd"), ("diag", "psd"), ("psd", "diag")])
def test_direct_sum_hat_with_a_psd_map_adds_ranks_and_spectra(modes):
    phi, psi = _psd_pair(*modes)
    both = direct_sum(phi, psi)
    assert (both.mode, both.target_dim) == ("psd", 7)
    assert both.ranks == (3, 1) == tuple(a + b for a, b in zip(phi.ranks, psi.ranks))
    x = [np.array([[2.0]]), np.array([[-1.0]])]
    union = np.concatenate([np.linalg.eigvalsh(phi.apply(x)), np.linalg.eigvalsh(psi.apply(x))])
    assert np.allclose(np.linalg.eigvalsh(both.apply(x)), np.sort(union))


def test_kronecker_rank():
    phi = diag_map(SCALARS, 4, (F(1), F(1, 2), F(1, 4)))
    psi = diag_map(SCALARS, 3, (F(1), F(1)))
    assert oz_kronecker_rank(phi, psi) == ExtNat(6)
    with pytest.raises(PreconditionViolated):
        oz_kronecker_rank(diag_map(findim(1, 1), 2, (F(1),), ()), psi)


# ---------------------------------------------------------------------------
# Norms and JSON.

def test_op_norm_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.standard_normal((4, 6))
        assert abs(op_norm(m) - np.linalg.norm(m, 2)) < 1e-12
    assert op_norm(np.zeros((0, 0))) == 0.0


def test_json_round_trip_diag():
    phi = diag_map(findim(1, 1), 4, (F(1), F(1, 2)), (F(1),))
    doc = json.loads(json.dumps(oz_to_json(phi)))
    assert doc["mode"] == "diag"
    assert doc["blocks"][0] == [["1", "0"], ["0", "1/2"]]
    back = oz_from_json(doc)
    assert back.blocks == phi.blocks
    assert back.domain == phi.domain


def test_json_round_trip_psd():
    h = np.array([[0.5, 0.1], [0.1, 0.5]])
    phi = oz_new(findim(1), 3, [2], [h], "psd")
    back = oz_from_json(json.loads(json.dumps(oz_to_json(phi))))
    assert np.allclose(back.block_dense(0), h)


@pytest.mark.parametrize("mode", ["diag", "psd"])
def test_json_round_trip_with_a_multiplicity_zero_block(mode):
    blocks = [(), (F(1, 2),)] if mode == "diag" else [np.zeros((0, 0)), np.eye(1) / 2]
    phi = oz_new(findim(1, 1), 2, [0, 1], blocks, mode)
    doc = json.loads(json.dumps(oz_to_json(phi)))
    assert doc["blocks"][0] == []
    back = oz_from_json(doc)
    assert oz_to_json(back) == oz_to_json(phi)
    assert back.block_dense(0).shape == (0, 0)


def test_json_rejects_off_diagonal_in_diag_mode():
    doc = {
        "domain": [1],
        "target_dim": 2,
        "mult": [2],
        "blocks": [[["1", "1/2"], ["0", "1"]]],
        "mode": "diag",
    }
    with pytest.raises(ValueError):
        oz_from_json(doc)
    with pytest.raises(DimensionMismatch):
        oz_from_json({**doc, "blocks": [[["1"]]]})


NOT_ZERO = (ValueError, "diagonal mode requires zero off-diagonal entries")


def invalid(text):
    return (ValueError, f"Invalid literal for Fraction: {text!r}")


@pytest.mark.parametrize("literal, error", [
    # zero literals, the int and float ones and "0" read without a Fraction
    ("0", None), ("0/1", None), ("-0", None), ("+0", None), ("00", None), (" 0", None),
    ("0 ", None), ("0.0", None), ("-0.0", None), ("0e5", None), (0, None), (0.0, None),
    (-0.0, None),
    # a bool is not a number here, nor is any other non-numeric literal
    (False, invalid("False")), (True, invalid("True")), ("abc", invalid("abc")),
    ("", invalid("")), ("nan", invalid("nan")), (float("nan"), invalid("nan")),
    (float("inf"), invalid("inf")), (None, invalid("None")), ([], invalid("[]")),
    ("1/0", (ZeroDivisionError, "Fraction(1, 0)")),
    # non-zero numbers, however small
    (1, NOT_ZERO), ("1", NOT_ZERO), ("1e-400", NOT_ZERO), (1e-300, NOT_ZERO),
])
def test_json_reads_every_off_diagonal_literal_as_a_fraction_would(literal, error):
    doc = {"domain": [1], "target_dim": 2, "mult": [2], "mode": "diag",
           "blocks": [[["1/2", literal], ["0", "1/4"]]]}
    if error is None:
        assert oz_from_json(doc).blocks == ((F(1, 2), F(1, 4)),)
    else:
        kind, message = error
        with pytest.raises(kind) as caught:
            oz_from_json(doc)
        assert str(caught.value) == message


def test_json_parses_only_the_diagonal_of_a_large_diag_block(monkeypatch):
    # m = 1,000: the 999,000 off-diagonal "0"s build no Fraction.
    m = 1000
    rows = [["0"] * m for _ in range(m)]
    for r in range(m):
        rows[r][r] = f"{r % 7}/8"
    doc = {"domain": [1], "target_dim": m, "mult": [m], "blocks": [rows], "mode": "diag"}
    built = []
    monkeypatch.setattr(orderzero, "Fraction", lambda x: built.append(x) or F(x))
    monkeypatch.setattr(orderzero, "oz_new", lambda domain, dim, mults, blocks, mode: blocks)
    blocks = oz_from_json(doc)
    monkeypatch.undo()
    assert len(built) <= m
    assert blocks == [[F(r % 7, 8) for r in range(m)]]
    assert oz_from_json(doc).ranks == (m - (m + 6) // 7,)


def test_spec_example_document():
    doc = {
        "domain": [1, 1],
        "target_dim": 3,
        "mult": [2, 1],
        "blocks": [[["1", "0"], ["0", "1/2"]], [["1"]]],
        "mode": "diag",
    }
    phi = oz_from_json(doc)
    assert phi.target_dim == 3
    assert phi.multiplicity.value_at("x1") == ExtNat(2)
    assert oz_to_json(phi) == doc
