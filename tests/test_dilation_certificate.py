"""The KSGNS certificate: batched unit-index work against its loop forms, the
Choi blocks against the grand kernel, the implicit pi against its dense
stack, the type boundary of a dilation, the twist and commutation block moves
against the dense loops, and the block factorization oracle."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from covkit.cpmaps import (
    CPMapSpec,
    KSGNSDilation,
    NotSingleBlockError,
    _certify_covariant,
    cp_validate,
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
    commutation_loop,
    element_loop,
    factor_rep_tensor,
    multiplicativity_loop,
    transport_loop,
    twist_loop,
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


def _zero_block_case():
    """A map on M_2 + M_1 whose second block is zero: multiplicities (2, 0)."""
    spec = rand_covariant_cpmap(np.random.default_rng(16), (2, 1), FiniteGroup.cyclic(4), n_v=2)
    spec = replace(spec, values=np.concatenate([spec.values[:4], 0 * spec.values[4:]]))
    assert ksgns(spec).mult == (2, 0)
    return spec


@pytest.mark.parametrize("spec", list(_cases()) + [_zero_block_case()])
def test_pi_is_exactly_a_unital_star_representation(spec):
    # the pattern T_k = E_ab (x) I_{r_i} is a representation by construction:
    # the dense stack meets every identity with no roundoff at all
    dil = ksgns(spec)
    alg, pi = spec.algebra, dil.pi_units
    assert multiplicativity_loop(alg, pi) == 0.0
    assert np.array_equal(pi.conj().transpose(0, 2, 1), pi[alg.adjoint_table()])
    assert np.array_equal(dil.pi(alg.one()), np.eye(dil.rank))


@pytest.mark.parametrize("spec", list(_cases()) + [_zero_block_case()])
def test_implicit_pi_matches_the_dense_stack(spec):
    dil = ksgns(spec)
    assert np.array_equal(dil.r_blocks, dil.pi_units @ dil.j)
    rng = np.random.default_rng(18)
    d = spec.algebra.defining_dim
    b = spec.algebra.element(spec.algebra.coefficients(rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))))
    assert np.array_equal(dil.pi(b), np.tensordot(spec.algebra.coefficients(b), dil.pi_units, axes=(-1, 0)))


def test_a_dilation_off_the_layout_cannot_be_built():
    spec = rand_covariant_cpmap(np.random.default_rng(5), (2, 1), FiniteGroup.cyclic(2), n_v=1)
    dil = ksgns(spec)
    n = dil.rank
    assert KSGNSDilation(spec, n, dil.mult, dil.j, None, None).r_blocks.shape == (spec.algebra.n_units, n, 1)
    # sum_i n_i r_i must be the rank
    with pytest.raises(DilationResidualError, match="multiplicities"):
        KSGNSDilation(spec, n, (dil.mult[0], dil.mult[1] + 1), dil.j, None, None)
    with pytest.raises(DilationResidualError, match="multiplicities"):
        KSGNSDilation(spec, n + 1, dil.mult, np.vstack([dil.j, dil.j[:1]]), None, None)
    # and j must have one row per dilation index
    for rows in (n - 1, n + 1):
        with pytest.raises(DilationResidualError, match="or j do not fill"):
            KSGNSDilation(spec, n, dil.mult, np.resize(dil.j, (rows, 1)), None, None)
        with pytest.raises(DilationResidualError, match="or j do not fill"):
            replace(dil, j=np.resize(dil.j, (rows, 1)))


def test_ksgns_never_allocates_a_dense_pi_stack():
    # the d = 4 rank-2 phase-space instrument: N = 128 over 256 matrix units, so one
    # dense (m, N, N) complex stack is 64 MiB; the whole dilation stays well below it
    rng = np.random.default_rng(20)
    ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2)]
    norm = 4 * sum(np.vdot(b, b).real for b in ops)
    spec = as_cpmap(phase_space(4, [b / np.sqrt(norm) for b in ops]))
    stack = spec.algebra.n_units * 128 * 128 * 16
    assert stack == 64 * 2**20
    tracemalloc.start()
    try:
        dil = ksgns(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dil.rank == 128 and dil.checks.ok
    assert peak < stack


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


def test_factor_rep_tensor_identity():
    alg = FiniteCStarAlgebra.full(2)
    pi_units = np.stack(list(alg.units()))
    r, v = factor_rep_tensor(pi_units, alg)
    assert r == (1,)
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-9)


def test_factor_rep_tensor_doubled():
    alg = FiniteCStarAlgebra.full(2)
    pi_units = np.stack([np.kron(np.eye(2), u) for u in alg.units()])
    # b -> I (x) b is equivalent to b (x) I with multiplicity 2
    r, v = factor_rep_tensor(pi_units, alg)
    assert r == (2,)
    for u, p in zip(alg.units(), pi_units):
        assert np.allclose(v.conj().T @ p @ v, np.kron(u, np.eye(2)), atol=1e-9)


def test_factor_rep_tensor_rejects_bad_dim():
    alg = FiniteCStarAlgebra.full(2)
    pi_units = np.stack(list(alg.units()))  # acting on C^2
    with pytest.raises(NotSingleBlockError):
        factor_rep_tensor(pi_units, FiniteCStarAlgebra.full(3))


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


def _symmetric_cases():
    """Phase-space instruments (u(g) permutes the blocks), a cyclic map with
    a commuting twist, a multi-block S_3 map, and a map whose second block
    has multiplicity 0, each with the multiplicities of its dilation and
    whether it has a commuting twist."""
    for d in (2, 3):
        b = np.zeros((d, d), dtype=complex)
        b[0, 0], b[1, 0] = 1.0, 0.5
        spec = as_cpmap(phase_space(d, [b / np.linalg.norm(b) / np.sqrt(d)]))
        yield pytest.param(spec, (1,) * d * d, False, id=f"phase_space_d{d}")
    rng = np.random.default_rng(16)
    spec = rand_covariant_cpmap(rng, (2, 1), FiniteGroup.cyclic(3), n_v=2)
    yield pytest.param(spec, (2, 1), True, id="cyclic")
    spec = rand_covariant_cpmap(rng, (2, 1, 2), FiniteGroup.symmetric(3), n_v=2)
    yield pytest.param(spec, (3, 1, 1), True, id="s3")
    spec = rand_covariant_cpmap(rng, (2, 1), FiniteGroup.cyclic(4), n_v=2)
    values = np.concatenate([spec.values[:4], 0 * spec.values[4:]])
    yield pytest.param(replace(spec, values=values), (2, 0), True, id="zero_block")


@pytest.mark.parametrize("spec, mult, bar", list(_symmetric_cases()))
def test_twist_and_commutation_block_moves_match_the_dense_loops(spec, mult, bar):
    dil = ksgns(spec)
    assert dil.mult == mult and (dil.sym_bar is not None) == bar
    assert abs(dil.checks["sym_twist"].residual - twist_loop(dil)) <= 1e-12
    if dil.sym_bar is not None:
        assert abs(dil.checks["bar_commutes"].residual - commutation_loop(dil)) <= 1e-12
    # turn every sym(g), then every sym_bar(g), by one unitary fixing the range of j: only the
    # twist and the commutation see it, far above roundoff
    w = _hidden_unitary(dil, np.random.default_rng(16), eps=1e-3)
    broken = replace(dil, sym=replace(dil.sym, matrices=w @ dil.sym.matrices))
    with pytest.raises(DilationResidualError, match="sym_twist") as exc:
        _certify_covariant(broken, DEFAULT_TOL)
    got, want = exc.value.checks["sym_twist"].residual, twist_loop(broken)
    assert want > 1e-5 and abs(got - want) <= 1e-12
    if dil.sym_bar is not None:
        broken = replace(dil, sym_bar=replace(dil.sym_bar, matrices=w @ dil.sym_bar.matrices))
        with pytest.raises(DilationResidualError, match="bar_commutes") as exc:
            _certify_covariant(broken, DEFAULT_TOL)
        got, want = exc.value.checks["bar_commutes"].residual, commutation_loop(broken)
        assert want > 1e-5 and abs(got - want) <= 1e-12


def test_checks_require_records_every_residual_then_raises():
    checks = Checks().require(1.0, "first", a=0.5)
    with pytest.raises(DilationResidualError, match="second: c residual 2.00e[+]00") as exc:
        checks.require(1.0, "second", b=1.0, c=2.0, d=0.0)
    assert exc.value.checks is checks
    assert list(checks) == ["a", "b", "c", "d"]
    assert checks["b"] == Check(True, 1.0) and checks["c"] == Check(False, 2.0)
    assert checks.failed() == ["c"] and not checks.ok
