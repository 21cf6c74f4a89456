import numpy as np
import pytest

from covkit import numlin
from oracles import compression_functionals, dense_commutant
from covkit.numlin import (
    DimensionError,
    NotPositiveError,
    Tolerances,
    block_layout,
    constrained_commutant,
    lstsq_define,
    null_space,
    psd_check,
    psd_factor,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_psd(rng, n, rank=None):
    r = rank if rank is not None else n
    b = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
    return b.conj().T @ b


def test_psd_check_identity():
    assert psd_check(np.eye(2))


def test_psd_check_rejects_non_hermitian():
    assert not psd_check(np.array([[0, 1], [0, 0]], dtype=complex))


def test_psd_check_all_ones():
    # eigenvalues {2, 0}
    assert psd_check(np.ones((2, 2), dtype=complex))


def test_psd_check_requires_square():
    with pytest.raises(DimensionError):
        psd_check(np.ones((2, 3)))


def test_psd_factor_identity():
    n, f = psd_factor(np.eye(2))
    assert n == 2
    assert numlin.is_unitary(f)


def test_psd_factor_all_ones_rank_one():
    a = np.ones((2, 2), dtype=complex)
    n, f = psd_factor(a)
    assert n == 1
    assert np.linalg.norm(f.conj().T @ f - a) < 1e-12


def test_psd_factor_zero():
    n, f = psd_factor(np.zeros((3, 3)))
    assert n == 0
    assert f.shape == (0, 3)


def test_psd_factor_rejects_negative():
    with pytest.raises(NotPositiveError) as exc:
        psd_factor(-np.eye(2))
    assert exc.value.min_eigenvalue == pytest.approx(-1.0)


def test_psd_factor_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(1, 7)
        r = int(rng.integers(0, n + 1))
        a = rand_psd(rng, n, rank=r)
        k, f = psd_factor(a)
        assert k == r
        assert np.linalg.norm(f.conj().T @ f - a) <= 1e-8 * max(1.0, np.linalg.norm(a, 2))
        # F has full row rank
        assert numlin.rank(f) == k


def test_null_space_identity_empty():
    assert null_space(np.eye(2)).shape == (2, 0)


def test_null_space_row():
    b = null_space(np.array([[1.0, 1.0]]))
    assert b.shape == (2, 1)
    v = b[:, 0]
    assert abs(abs(v[0]) - 1 / np.sqrt(2)) < 1e-12
    assert np.linalg.norm(np.array([[1.0, 1.0]]) @ v) < 1e-12


def test_null_space_zero():
    assert null_space(np.zeros((2, 2))).shape == (2, 2)


def test_null_space_rank_completeness():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m, n = rng.integers(1, 8, size=2)
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        ns = null_space(a)
        assert numlin.rank(a) + ns.shape[1] == n
        if ns.shape[1]:
            assert np.linalg.norm(ns.conj().T @ ns - np.eye(ns.shape[1])) < 1e-10
            smax = np.linalg.svd(a, compute_uv=False)[0]
            assert np.linalg.norm(a @ ns) <= 1e-9 * smax * np.sqrt(ns.shape[1])


def _reference_projector(a, tol=numlin.DEFAULT_TOL):
    # kernel projector from the full-matrices SVD of the unreduced system
    _, sv, vh = np.linalg.svd(a)
    r = int(np.sum(sv > tol.rank_rel * sv[0])) if sv.size and sv[0] > 0 else 0
    v = vh[r:].conj().T
    return v @ v.conj().T, a.shape[1] - r


def _rank_deficient(rng, m, n, r):
    left = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
    right = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
    return left @ right


@pytest.mark.parametrize(
    "m,n,r", [(600, 40, 27), (600, 40, 40), (300, 25, 1), (41, 40, 39), (120, 16, 0)]
)
def test_null_space_tall_rank_deficient_matches_full_svd(m, n, r):
    rng = np.random.default_rng(m + 7 * n + r)
    a = _rank_deficient(rng, m, n, r) if r else np.zeros((m, n), dtype=complex)
    ns = null_space(a)
    proj, freedom = _reference_projector(a)
    assert ns.shape == (n, freedom) == (n, n - r)
    assert np.linalg.norm(ns.conj().T @ ns - np.eye(freedom)) < 1e-10
    assert np.linalg.norm(ns @ ns.conj().T - proj) < 1e-10


def test_null_space_with_zero_rows_appended():
    rng = np.random.default_rng(11)
    a = _rank_deficient(rng, 12, 30, 9)  # wide: 21-dimensional kernel
    tall = np.vstack([a, np.zeros((500, 30), dtype=complex)])
    ns_wide, ns_tall = null_space(a), null_space(tall)
    proj, freedom = _reference_projector(tall)
    assert ns_wide.shape[1] == ns_tall.shape[1] == freedom == 21
    assert np.linalg.norm(ns_tall @ ns_tall.conj().T - proj) < 1e-10
    assert np.linalg.norm(ns_wide @ ns_wide.conj().T - proj) < 1e-10


def test_null_space_of_roundoff_level_system_is_everything():
    rng = np.random.default_rng(5)
    noise = 1e-17 * (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
    assert null_space(noise).shape == (4, 4)
    # a scalar unitary up to roundoff commutes with every matrix
    almost_scalar = np.exp(0.3j) * np.eye(2) + 1e-17 * noise[:2, :2]
    assert len(constrained_commutant([almost_scalar])) == 4


def test_commutant_of_irreducible_pair_is_scalar():
    basis = constrained_commutant([PAULI_X, PAULI_Z])
    assert len(basis) == 1
    d = basis[0]
    # proportional to the identity, normalized in Frobenius norm
    assert abs(abs(d[0, 0]) - 1 / np.sqrt(2)) < 1e-12
    assert abs(d[0, 1]) < 1e-12 and abs(d[1, 0]) < 1e-12


def test_commutant_of_identity_is_everything():
    basis = constrained_commutant([np.eye(2)])
    assert len(basis) == 4


def test_trace_constraint_on_scalars():
    basis = constrained_commutant([], [(np.eye(1)[None], np.eye(1)[None])])
    assert basis == []


def test_commutant_hermitian_only():
    # the real Hermitian branch lives on only in the dense test oracle
    basis = dense_commutant([np.eye(2)], hermitian_only=True)
    assert len(basis) == 4
    for d in basis:
        assert np.linalg.norm(d - d.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(d))


def test_commutant_members_commute():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    basis = constrained_commutant([g])
    assert len(basis) == len(dense_commutant([g])) == 3
    for d in basis:
        assert np.linalg.norm(d @ g - g @ d) <= 1e-8 * np.linalg.norm(g)


def test_commutant_size_mismatch():
    with pytest.raises(DimensionError):
        constrained_commutant([np.eye(2), np.eye(3)])
    with pytest.raises(DimensionError):
        constrained_commutant([np.eye(3)], layout=[(1, 2)])
    with pytest.raises(DimensionError):
        constrained_commutant([np.eye(2)], [(np.eye(2), np.eye(2))])
    with pytest.raises(DimensionError):
        constrained_commutant([np.ones((2, 3))])
    with pytest.raises(DimensionError):
        constrained_commutant([])


def _block_diagonal_reference(generators, compressions, layout):
    """The engine's answer from the dense kron system: solve over all N x N
    matrices with the layout's commutant generators added (E_ab (x) I_{r_i}
    in every block i), as a projector."""
    n = sum(b * r for b, r in layout)
    units, start = [], 0
    for b, r in layout:
        for a in range(b):
            for c in range(b):
                unit = np.zeros((n, n), dtype=complex)
                unit[start + a * r : start + (a + 1) * r, start + c * r : start + (c + 1) * r] = np.eye(r)
                units.append(unit)
        start += b * r
    basis = dense_commutant(list(generators) + units, compression_functionals(compressions), dim=n)
    return sum((np.outer(d.reshape(-1), d.reshape(-1).conj()) for d in basis), np.zeros((n * n, n * n)))


@pytest.mark.parametrize("layout", [[(2, 1), (1, 2)], [(1, 3)], [(2, 2), (1, 0), (1, 1)], [(3, 1)]])
def test_commutant_on_a_block_layout_matches_the_kron_system(layout):
    rng = np.random.default_rng(len(layout) + sum(r for _, r in layout))
    n = sum(b * r for b, r in layout)
    # a generator of the layout's own shape, +_i I_{n_i} (x) Y_i, a random one, and a compression stack
    shaped = np.zeros((n, n), dtype=complex)
    start = np.cumsum([0] + [b * r for b, r in layout])
    for (b, r), s0 in zip(layout, start):
        shaped[s0 : s0 + b * r, s0 : s0 + b * r] = np.kron(np.eye(b), rng.normal(size=(r, r)))
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    left = rng.normal(size=(2, n, 1)) + 1j * rng.normal(size=(2, n, 1))
    right = rng.normal(size=(2, n, 2))
    for comps in ((), [(left, right)]):
        for g in ([], [shaped], [shaped, noise]):
            basis = constrained_commutant(g, comps, layout=layout)
            proj = sum((np.outer(d.reshape(-1), d.reshape(-1).conj()) for d in basis), np.zeros((n * n, n * n)))
            assert len(basis) <= sum(r * r for _, r in layout)
            assert np.linalg.norm(proj - _block_diagonal_reference(g, comps, layout)) < 1e-8
            gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
            assert np.allclose(gram, np.eye(len(basis)))


def test_commutant_of_an_empty_block_layout_has_no_columns():
    # blocks of multiplicity 0 contribute neither rows nor unknowns
    basis = constrained_commutant([], [], layout=[(2, 0), (1, 1), (3, 0)])
    assert len(basis) == 1 and np.allclose(basis[0], np.eye(1))
    assert constrained_commutant([np.zeros((0, 0))], layout=[(2, 0)]) == []


def test_lstsq_define_exact():
    l, res = lstsq_define([(np.eye(2), PAULI_X)])
    assert res < 1e-12
    assert np.linalg.norm(l - PAULI_X) < 1e-12


def test_lstsq_define_inconsistent():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    _, res = lstsq_define([(e1, e1), (e1, e2)])
    assert res > 0.1


def test_lstsq_define_connects_two_factorizations():
    rng = np.random.default_rng(3)
    a = rand_psd(rng, 4, rank=3)
    _, f1 = psd_factor(a)
    # second factorization: remix by a random unitary
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    f2 = q @ f1
    l, res = lstsq_define([(f1, f2)])
    assert res < 1e-9
    assert numlin.is_unitary(l)


@pytest.mark.parametrize("value", [0.0, -1e-9, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", ["psd_eig", "rank_rel", "unitary_fro", "recon_fro"])
def test_tolerances_must_be_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"tolerance {name} must be positive and finite"):
        Tolerances(**{name: value})


def test_rank_of_roundoff_level_matrix_is_zero():
    rng = np.random.default_rng(5)
    noise = 1e-17 * (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
    assert numlin.rank(noise) == 0
    assert numlin.rank(noise) + null_space(noise).shape[1] == 4


@pytest.mark.parametrize("scale", [1e-12, 1e-3, 1.0, 1e4])
def test_rank_plus_nullity_is_column_count(scale):
    rng = np.random.default_rng(int(-np.log10(scale)) + 20)
    for _ in range(12):
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        left = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
        right = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
        a = scale * (left @ right)
        assert numlin.rank(a) + null_space(a).shape[1] == a.shape[1]
        if scale >= 1e-3:
            assert numlin.rank(a) == r


# ---------------------------------------------------------------------------
# the one PSD primitive: verdict, residual, scale and factor from one eigh
# ---------------------------------------------------------------------------


def _hermitian_stack(rng, count, n):
    x = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return 0.5 * (x + x.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("size", [0.01, 1.0, 30.0])
def test_spectrum_scale_is_the_spectral_norm_on_hermitian_stacks(size):
    rng = np.random.default_rng(int(size * 100))
    a = size * _hermitian_stack(rng, 7, 5)
    a[0] = size * rand_psd(rng, 5, rank=2)
    spectrum = numlin.psd_spectrum(a)
    want = np.maximum(1.0, np.linalg.norm(a, 2, axis=(1, 2)))
    assert np.allclose(spectrum.scale, want, rtol=1e-12, atol=0.0)
    assert np.all(spectrum.skew <= 1e-15 * want)


def test_spectrum_scale_of_a_non_hermitian_matrix_is_within_half_its_skew():
    # ||h||_2 and ||a||_2 differ by at most ||a - a^+||_2 / 2, which the Hermitian verdict bounds
    rng = np.random.default_rng(40)
    for skew in (1e-12, 1e-6, 1e-2, 1.0, 10.0):
        a = 5.0 * _hermitian_stack(rng, 6, 4)
        noise = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
        a = a + skew * (noise - noise.conj().transpose(0, 2, 1))
        spectrum = numlin.psd_spectrum(a)
        gap = np.abs(spectrum.scale - np.maximum(1.0, np.linalg.norm(a, 2, axis=(1, 2))))
        half = 0.5 * np.linalg.norm(a - a.conj().transpose(0, 2, 1), 2, axis=(1, 2))
        assert np.all(gap <= half * (1 + 1e-12) + 1e-12)
        assert np.all(2 * half <= spectrum.skew * (1 + 1e-12))
        hermitian = spectrum.skew <= Tolerances().psd_eig * spectrum.scale
        assert np.all(gap[hermitian] <= 0.5 * Tolerances().psd_eig * spectrum.scale[hermitian])


def test_psd_status_of_a_stack_is_that_of_each_matrix():
    from oracles import psd_status_loop

    rng = np.random.default_rng(41)
    psd = np.stack([rand_psd(rng, 4, rank=r) for r in range(5)])
    assert numlin.psd_status(psd) == (True, pytest.approx(0.0, abs=1e-12))
    bad = psd.copy()
    bad[2] -= 0.3 * np.eye(4)
    bad[3, 0, 1] += 0.5
    got = numlin.psd_spectrum(bad)
    for k, a in enumerate(bad):
        ok, res = psd_status_loop(a)
        assert bool(got.passes()[k]) == ok == numlin.psd_check(a)
        assert got.residual()[k] == pytest.approx(res, rel=1e-12, abs=1e-15)
    assert numlin.psd_status(bad) == (False, pytest.approx(max(psd_status_loop(a)[1] for a in bad), rel=1e-12))


def test_a_carried_bound_covers_every_matrix_near_a_unitary_conjugate():
    # Weyl: b within Frobenius distance c of V a V^+ has its eigenvalues
    # within c of a's, and its skew within 2 c of a's
    rng = np.random.default_rng(43)
    a = rand_psd(rng, 4, rank=2)
    a /= 2 * np.linalg.norm(a, 2)  # scale 1, so the slack is psd_eig
    c, tol = 1e-10, Tolerances()
    ok, res = numlin.psd_status(a, tol, c)
    assert ok and res == numlin.psd_status(a, tol)[1] + c
    v = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    for _ in range(20):
        e = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        near = numlin.psd_status(v @ a @ v.conj().T + c * e / np.linalg.norm(e), tol)
        assert near[0] and near[1] <= res
    # 0.6 psd_eig carried leaves the residual under the slack, but not twice it on the skew
    assert numlin.psd_status(a, tol, 0.4 * tol.psd_eig)[0]
    assert not numlin.psd_status(a, tol, 0.6 * tol.psd_eig)[0]


def test_stacked_factor_matches_psd_factor_per_matrix():
    rng = np.random.default_rng(42)
    a = np.stack([rand_psd(rng, 5, rank=r) for r in (0, 1, 3, 5)])
    ranks, f = numlin.psd_spectrum(a, vectors=True).factor()
    assert ranks.tolist() == [0, 1, 3, 5]
    for k, m in enumerate(a):
        n, want = psd_factor(m)
        assert n == ranks[k]
        assert np.array_equal(f[k, :n], want)
        assert not f[k, n:].any()
        assert np.linalg.norm(f[k].conj().T @ f[k] - m) <= 1e-10 * max(1.0, np.linalg.norm(m, 2))


def test_empty_nan_and_non_square_inputs_behave_as_before():
    # empty: nothing to fail
    assert numlin.psd_status(np.zeros((0, 0))) == (True, 0.0)
    assert numlin.psd_status(np.zeros((0, 3, 3))) == (True, 0.0)
    assert numlin.psd_status(np.zeros((2, 0, 0))) == (True, 0.0)
    n, f = psd_factor(np.zeros((0, 0)))
    assert n == 0 and f.shape == (0, 0)
    assert psd_check(np.zeros((0, 0)))
    # NaN
    nan = np.eye(2)
    nan[0, 1] = np.nan
    for fn in (psd_check, psd_factor, numlin.psd_status, numlin.psd_spectrum):
        with pytest.raises(ValueError, match="NaN or Inf"):
            fn(nan)
    # not square, or not a matrix
    for bad in (np.ones((2, 3)), np.ones((4, 2, 3)), np.ones(3)):
        for fn in (psd_check, psd_factor, numlin.psd_status, numlin.psd_spectrum):
            with pytest.raises(DimensionError):
                fn(bad)


def test_unitary_moves_of_a_stack_of_families_is_each_family_solve():
    rng = np.random.default_rng(43)
    src = rng.normal(size=(3, 2, 6)) + 1j * rng.normal(size=(3, 2, 6))
    q = np.linalg.qr(rng.normal(size=(4, 3, 2, 2)) + 1j * rng.normal(size=(4, 3, 2, 2)))[0]
    ws, unitary, moved = numlin.unitary_moves(src, q @ src)
    assert ws.shape == (4, 3, 2, 2) and unitary.shape == moved.shape == (4, 3)
    assert np.abs(ws - q).max() <= 1e-12
    assert unitary.max() <= 1e-12 and moved.max() <= 1e-12
    for b in range(3):
        single, _, _ = numlin.unitary_moves(src[b], (q @ src)[:, b])
        assert np.abs(single - ws[:, b]).max() <= 1e-13


def test_block_layout_of_mixed_shapes_with_a_zero_multiplicity():
    start, shapes = block_layout((2, 1, 2, 3, 1, 2), (1, 2, 1, 0, 2, 3))
    assert start.dtype == np.int64 and start.tolist() == [0, 2, 4, 6, 6, 8, 14]
    # sorted by (n, r); the zero-multiplicity block (3, 0) has no shape
    assert [(n, r, idx.tolist()) for n, r, idx in shapes] == [(1, 2, [1, 4]), (2, 1, [0, 2]), (2, 3, [5])]


def test_block_layout_with_a_scalar_multiplicity():
    start, shapes = block_layout((3, 1, 3), 1)
    assert start.tolist() == [0, 3, 4, 7]
    assert [(n, r, idx.tolist()) for n, r, idx in shapes] == [(1, 1, [1]), (3, 1, [0, 2])]
    start, shapes = block_layout((2, 2), 0)
    assert start.tolist() == [0, 0, 0] and shapes == []
    # mult = blocks gives the matrix units: n_i^2 of them per block
    assert block_layout((2, 1, 3), (2, 1, 3))[0].tolist() == [0, 4, 5, 14]
