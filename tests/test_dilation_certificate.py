"""The KSGNS certificate: batched unit-index work against its loop forms, the
Choi blocks against the grand kernel, the multiplicativity bound through the
block factorization against the all-pairs products, and the generalized
block factorization."""

from dataclasses import replace

import numpy as np
import pytest

from covkit.cpmaps import (
    CPMapSpec,
    NotSingleBlockError,
    _certify_covariant,
    _certify_pi,
    cp_validate,
    factor_rep_tensor,
    ksgns,
)
from covkit.cstar import FiniteCStarAlgebra, ModuleSpace
from covkit.fingroup import FiniteGroup
from covkit.instruments import as_cpmap, phase_space
from covkit.kernels import Check, Checks, DilationResidualError
from covkit.numlin import DEFAULT_TOL, psd_status
from covkit.numlin import rank as num_rank
from covkit.random import rand_covariant_cpmap, rand_unitary

from oracles import (
    coefficients_loop,
    element_loop,
    multiplicativity_loop,
    transport_loop,
    unit_kernel_loop,
    unit_tables_loop,
)

ALGEBRAS = [(1,), (3,), (2, 1), (1, 1, 1), (2, 3, 1)]


def _block_diag(mats):
    size = sum(m.shape[0] for m in mats)
    out = np.zeros((size, size), dtype=complex)
    pos = 0
    for m in mats:
        out[pos : pos + m.shape[0], pos : pos + m.shape[0]] = m
        pos += m.shape[0]
    return out


def _block_rep(alg, mult, order=None, w=None):
    """Images of the matrix units under W (+_j b_j (x) I_{r_j}) W^+, the
    blocks laid out on the big space in ``order``."""
    order = range(len(alg.blocks)) if order is None else order
    out = []
    for i, a, b in alg.unit_index():
        parts = []
        for j in order:
            n, r = alg.blocks[j], mult[j]
            e = np.zeros((n, n))
            if j == i:
                e[a, b] = 1.0
            parts.append(np.kron(e, np.eye(r)))
        out.append(_block_diag(parts))
    pi = np.stack(out)
    return pi if w is None else w @ pi @ w.conj().T


@pytest.mark.parametrize("blocks", ALGEBRAS)
def test_unit_tables_match_loop_forms(blocks):
    alg = FiniteCStarAlgebra(blocks)
    prod, adj = unit_tables_loop(alg)
    table = alg.unit_product_table()
    for (k1, k2), kk in prod.items():
        assert table[k1, k2] == (-1 if kk is None else kk)
    assert alg.adjoint_table().tolist() == adj


@pytest.mark.parametrize("blocks", ALGEBRAS)
def test_coefficients_and_element_match_loops_on_stacks(blocks):
    alg = FiniteCStarAlgebra(blocks)
    rng = np.random.default_rng(sum(blocks))
    d, m = alg.defining_dim, alg.n_units
    mats = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
    coeffs = rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))
    got_c, got_e = alg.coefficients(mats), alg.element(coeffs)
    for x in range(4):
        assert np.array_equal(got_c[x], coefficients_loop(alg, mats[x]))
        assert np.array_equal(got_e[x], element_loop(alg, coeffs[x]))
    assert np.array_equal(alg.coefficients(mats[0]), coefficients_loop(alg, mats[0]))


def test_transport_and_outside_norms_match_loops():
    rng = np.random.default_rng(3)
    alg = FiniteCStarAlgebra((2, 2, 1))
    d, m = alg.defining_dim, alg.n_units
    stack = rng.normal(size=(m, 3, 2)) + 1j * rng.normal(size=(m, 3, 2))
    # a block-permuting unitary (blocks 0 and 1 swapped) and a generic one
    perm = np.zeros((d, d), dtype=complex)
    perm[2:4, 0:2] = rand_unitary(rng, 2)
    perm[0:2, 2:4] = rand_unitary(rng, 2)
    perm[4, 4] = np.exp(0.3j)
    for u in (perm, rand_unitary(rng, d)):
        assert np.allclose(alg.transport(u, stack), transport_loop(alg, u, stack), atol=1e-13)
        outside, size = alg.outside_norms(u)
        for k, (i, a, b) in enumerate(alg.unit_index()):
            moved = u @ alg.unit(i, a, b) @ u.conj().T
            direct = np.linalg.norm(moved - element_loop(alg, coefficients_loop(alg, moved)))
            assert abs(outside[k] - direct) < 1e-12
            assert abs(size[k] - np.linalg.norm(moved)) < 1e-12
    assert np.all(alg.outside_norms(perm)[0] == 0.0)


def test_grand_kernel_matches_loop():
    rng = np.random.default_rng(4)
    spec = rand_covariant_cpmap(rng, (2, 1), FiniteGroup.cyclic(3), n_v=2)
    blocks = spec.choi_blocks()
    want = _block_diag([np.kron(np.eye(n), c) for n, c in zip(spec.algebra.blocks, blocks)])
    assert np.array_equal(unit_kernel_loop(spec), want)
    assert [c.shape for c in blocks] == [(4, 4), (2, 2)]


def _cases():
    rng = np.random.default_rng(11)
    groups = [
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(4),
        FiniteGroup.dihedral(4),
        FiniteGroup.symmetric(3),
        FiniteGroup.symmetric(4),
    ]
    for group in groups:
        for blocks in ((2,), (2, 1), (1, 2, 1)):
            yield rand_covariant_cpmap(rng, blocks, group, n_v=2)
    # phase-space instruments: the inner action permutes the blocks
    for d in (2, 3):
        b = np.zeros((d, d), dtype=complex)
        b[0, 0] = 1.0 / np.sqrt(d)
        b[1, 0] = 0.5 / np.sqrt(d)
        b = b / np.sqrt(d * np.trace(b.conj().T @ b).real)
        yield as_cpmap(phase_space(d, [b]))


def _non_cp_cases():
    """The transpose map on M_2, and a map on M_2 + M_1 with random Hermitian
    Choi blocks: the first PSD, the second with a negative eigenvalue."""
    m2 = FiniteCStarAlgebra.full(2)
    yield CPMapSpec(m2, ModuleSpace(k=1, n_v=2), np.stack([u.T for u in m2.units()]))
    rng = np.random.default_rng(13)
    alg, nv = FiniteCStarAlgebra((2, 1)), 2
    values = []
    for i, n in enumerate(alg.blocks):
        x = rng.normal(size=(n * nv, n * nv)) + 1j * rng.normal(size=(n * nv, n * nv))
        c = x @ x.conj().T if i == 0 else x + x.conj().T
        assert (np.linalg.eigvalsh(c).min() < -0.1) == (i == 1)
        values.append(c.reshape(n, nv, n, nv).transpose(0, 2, 1, 3).reshape(n * n, nv, nv))
    yield CPMapSpec(alg, ModuleSpace(k=1, n_v=nv), np.concatenate(values))


@pytest.mark.parametrize("spec", list(_cases()) + list(_non_cp_cases()))
def test_complete_positivity_matches_the_unit_kernel(spec):
    want_ok, want_res = psd_status(unit_kernel_loop(spec))
    got = cp_validate(spec)["completely_positive"]
    assert got.ok == want_ok
    assert got.residual == pytest.approx(want_res, rel=1e-9, abs=1e-13)
    if not want_ok:
        assert got.residual > 0.1


@pytest.mark.parametrize("spec", list(_cases()))
def test_ksgns_rank_is_the_choi_rank_and_pi_is_a_unit_pattern(spec):
    dil = ksgns(spec)
    assert dil.rank == sum(n * num_rank(c) for n, c in zip(spec.algebra.blocks, spec.choi_blocks()))
    assert np.all((dil.pi_units == 0.0) | (dil.pi_units == 1.0))


@pytest.mark.parametrize("spec", list(_cases()))
def test_pi_multiplicative_bounds_the_all_pairs_residual(spec):
    dil = ksgns(spec)
    bound = dil.checks["pi_multiplicative"].residual
    brute = multiplicativity_loop(spec.algebra, dil.pi_units)
    assert brute <= bound <= 1e-8 * max(1.0, np.sqrt(dil.rank))


def _dilation():
    rng = np.random.default_rng(5)
    spec = rand_covariant_cpmap(rng, (2, 1), FiniteGroup.cyclic(2), n_v=1)
    dil = ksgns(spec)
    assert dil.rank > spec.n_v
    return spec, dil


def test_perturbed_pi_unit_raises():
    spec, dil = _dilation()
    rng = np.random.default_rng(6)
    for k in range(spec.algebra.n_units):
        pi = dil.pi_units.copy()
        x = rng.normal(size=pi.shape[1:]) + 1j * rng.normal(size=pi.shape[1:])
        pi[k] += 1e-6 * x / np.linalg.norm(x)
        with pytest.raises(DilationResidualError):
            _certify_pi(replace(dil, pi_units=pi), DEFAULT_TOL)


def test_certificate_catches_a_perturbation_only_multiplicativity_sees():
    # change pi(E_01) and pi(E_10) by X and X^+ with j^+ X j = 0: the
    # reconstruction, adjoint and unital residuals stay at roundoff
    spec, dil = _dilation()
    rng = np.random.default_rng(7)
    n = dil.rank
    q, _ = np.linalg.qr(dil.j)
    away = np.eye(n) - q @ q.conj().T
    x = away @ (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) @ away
    x *= 1e-6 / np.linalg.norm(x)
    index = spec.algebra.unit_index().tolist()
    k01, k10 = index.index([0, 0, 1]), index.index([0, 1, 0])
    pi = dil.pi_units.copy()
    pi[k01] += x
    pi[k10] += x.conj().T
    before = dict(dil.checks)
    with pytest.raises(DilationResidualError, match="certification failed") as exc:
        _certify_pi(replace(dil, pi_units=pi), DEFAULT_TOL)
    assert dil.checks == before  # the certifier fills a fresh certificate
    res = exc.value.checks
    assert res["reconstruction"].residual < 1e-12 and res["pi_adjoint"].residual < 1e-12 and res["pi_unital"].residual < 1e-12
    brute = multiplicativity_loop(spec.algebra, pi)
    assert 1e-7 < brute <= res["pi_multiplicative"].residual


@pytest.mark.parametrize("order", [None, (2, 0, 1), (1, 2, 0)])
def test_factor_rep_tensor_multi_block(order):
    alg = FiniteCStarAlgebra((2, 1, 3))
    mult = (1, 3, 2)
    rng = np.random.default_rng(8)
    big = sum(n * r for n, r in zip(alg.blocks, mult))
    pi = _block_rep(alg, mult, order, rand_unitary(rng, big))
    r, v = factor_rep_tensor(pi, alg)
    assert r == mult
    assert np.allclose(v.conj().T @ v, np.eye(big), atol=1e-10)
    # V^+ pi V is the block layout in algebra order, whatever the input layout
    want = _block_rep(alg, mult)
    assert np.allclose(v.conj().T @ pi @ v, want, atol=1e-10)


def test_factor_rep_tensor_zero_multiplicity_and_rejections():
    alg = FiniteCStarAlgebra((2, 1))
    pi = _block_rep(alg, (2, 0))
    r, v = factor_rep_tensor(pi, alg)
    assert r == (2, 0)
    assert np.allclose(v.conj().T @ pi @ v, pi, atol=1e-12)
    # a non-unital map: the corners do not fill the space
    with pytest.raises(NotSingleBlockError):
        factor_rep_tensor(_block_rep(alg, (1, 1))[:, :2, :2] * 0.0, alg)
    # images of the wrong algebra
    with pytest.raises(NotSingleBlockError):
        factor_rep_tensor(pi, FiniteCStarAlgebra((2, 2)))


def test_block_factorization_of_a_multi_block_dilation():
    rng = np.random.default_rng(9)
    spec = rand_covariant_cpmap(rng, (2, 1), FiniteGroup.symmetric(3), n_v=2)
    dil = ksgns(spec)
    mult, v = factor_rep_tensor(dil.pi_units, spec.algebra)
    assert sum(n * r for n, r in zip(spec.algebra.blocks, mult)) == dil.rank
    assert np.allclose(v.conj().T @ dil.pi_units @ v, _block_rep(spec.algebra, mult), atol=1e-8)


def _hidden_unitary(dil, rng, eps=1e-6):
    """exp(i eps H) with H Hermitian and H j = 0: unitary, fixes the range of j."""
    n = dil.rank
    q, _ = np.linalg.qr(dil.j)
    away = np.eye(n) - q @ q.conj().T
    h = away @ (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) @ away
    w, vecs = np.linalg.eigh(h + h.conj().T)
    return (vecs * np.exp(1j * eps * w / np.abs(w).max())) @ vecs.conj().T


def test_twist_certificates_check_every_group_element():
    # turn sym(g) and sym_bar(g) of the last element by a unitary that keeps
    # unitarity and j-intertwining: only the twist and commutation see it
    rng = np.random.default_rng(10)
    spec = rand_covariant_cpmap(rng, (2, 1), FiniteGroup.cyclic(3), n_v=1)
    dil = ksgns(spec)
    assert dil.sym_bar is not None
    last = spec.symmetry.group.order - 1
    w = _hidden_unitary(dil, rng)

    mats = dil.sym.matrices.copy()
    mats[last] = w @ mats[last]
    broken = replace(dil, sym=replace(dil.sym, matrices=mats))
    with pytest.raises(DilationResidualError, match="covariant dilation") as exc:
        _certify_covariant(broken, DEFAULT_TOL)
    res = exc.value.checks
    assert res["sym_unitary"].residual < 1e-12 and res["sym_j"].residual < 1e-12 and res["sym_twist"].residual > 1e-8

    bars = dil.sym_bar.matrices.copy()
    bars[last] = w @ bars[last]
    broken = replace(dil, sym_bar=replace(dil.sym_bar, matrices=bars))
    with pytest.raises(DilationResidualError, match="commuting twist") as exc:
        _certify_covariant(broken, DEFAULT_TOL)
    assert exc.value.checks["bar_commutes"].residual > 1e-8


def test_checks_require_records_every_residual_then_raises():
    checks = Checks().require(1.0, "first", a=0.5)
    with pytest.raises(DilationResidualError, match="second: c residual 2.00e[+]00") as exc:
        checks.require(1.0, "second", b=1.0, c=2.0, d=0.0)
    assert exc.value.checks is checks
    assert list(checks) == ["a", "b", "c", "d"]
    assert checks["b"] == Check(True, 1.0) and checks["c"] == Check(False, 2.0)
    assert checks.failed() == ["c"] and not checks.ok
