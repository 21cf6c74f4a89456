"""The KSGNS certificate: batched unit-index work against its loop forms, the
Choi blocks against the grand kernel, the implicit pi against its dense
stack, the type boundary of a dilation, the implicit symmetry u(g) (*) W(g)
against the dense twist, commutation and cocycle loops and the
pseudo-inverse solve, minimality block by block against the rank of F, and
the block factorization oracle."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from covkit.cpmaps import (
    CPMapSpec,
    CPSymmetry,
    KSGNSDilation,
    NotSingleBlockError,
    _certify_covariant,
    _certify_reconstruction,
    cp_validate,
    ksgns,
)
from covkit.cstar import FiniteCStarAlgebra, ModuleSpace
from covkit.fingroup import FiniteGroup, MultiplierRep, TwoCocycle
from covkit.instruments import as_cpmap, phase_space
from covkit.kernels import Check, Checks, DilationResidualError
from covkit.numlin import DEFAULT_TOL, psd_status
from covkit.numlin import rank as num_rank
from covkit.random import rand_covariant_cpmap, rand_unitary

from oracles import (
    cocycle_loop,
    as_cpmap_dense,
    choi_covariance_loop,
    coefficients_loop,
    commutation_loop,
    element_loop,
    factor_rep_tensor,
    has_bar,
    multiplicativity_loop,
    sym_pinv_solve,
    sym_stack,
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


def _swap_spec(rng, values):
    """A CP map on (2, 2, 1) covariant for nothing in particular: Z_2 acts by
    a dense u swapping blocks 0 and 1 through a random unitary, and by a
    reflection on the module."""
    alg, group = FiniteCStarAlgebra((2, 2, 1)), FiniteGroup.cyclic(2)
    v = rand_unitary(rng, 2)
    swap = np.zeros((5, 5), dtype=complex)
    swap[2:4, 0:2], swap[0:2, 2:4], swap[4, 4] = v, v.conj().T, -1.0
    q = rand_unitary(rng, 2)
    u = MultiplierRep(group, TwoCocycle.trivial(group), np.stack([np.eye(5), swap]))
    rep = MultiplierRep(group, TwoCocycle.trivial(group), np.stack([np.eye(2), q @ np.diag([1.0, -1.0]) @ q.conj().T]))
    return CPMapSpec(alg, ModuleSpace(k=1, n_v=2), values, CPSymmetry(u=u, rep=rep))


def test_choi_covariance_matches_block_loop():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2))
    spec = _swap_spec(rng, raw)
    # the twirl of the random map over Z_2 is covariant
    swap, refl = spec.symmetry.u(1), spec.symmetry.rep(1)
    twirled = 0.5 * (raw + refl.conj().T @ transport_loop(spec.algebra, swap, raw) @ refl)
    instrument = phase_space(3, [np.diag([1.0, 1.0, 0.0]) / np.sqrt(6.0)])
    # the block action of the instrument's CP form is checked against the loop in test_batched_checks
    cases = [spec, replace(spec, values=twirled), as_cpmap_dense(instrument)]
    for case in cases:
        for bumped in (False, True):
            values = case.values.copy()
            if bumped:
                values[0] += 1e-4 * (1.0 + 1j)  # E_00 of the first block, which u moves
            case = replace(case, values=values)
            check = cp_validate(case)["covariant"]
            assert check.residual == pytest.approx(choi_covariance_loop(case, on_generators=True), rel=1e-12, abs=1e-14)
            assert check.ok == (check.residual < 1e-12)
    assert cp_validate(replace(spec, values=twirled))["covariant"].ok



def test_a_non_unitary_dense_u_moves_by_its_inverse_adjoint():
    # the identity map on M_2 is covariant for a non-unitary u of Z_2 with
    # rep = u^{-+}: S(u b u^+) = rep^{-+} S(b) rep^{-1}, so the certificate
    # moves Choi blocks by the inverse adjoints of both
    group, alg = FiniteGroup.cyclic(2), FiniteCStarAlgebra((2,))
    w = np.array([[1.0, 0.7], [0.0, -1.0]], dtype=complex)

    def rep(m):
        return MultiplierRep(group, TwoCocycle.trivial(group), np.stack([np.eye(2), m]), False)

    values = np.stack([alg.unit(*t) for t in alg.unit_index()])
    for r, ok in ((np.linalg.inv(w).conj().T, True), (w, False)):
        check = cp_validate(CPMapSpec(alg, ModuleSpace(k=1, n_v=2), values, CPSymmetry(u=rep(w), rep=rep(r))))["covariant"]
        assert check.ok == ok and (check.residual == 0.0) == ok

def test_outside_norms_match_loop():
    rng = np.random.default_rng(3)
    alg = FiniteCStarAlgebra((2, 2, 1))
    d = alg.defining_dim
    # a block-permuting unitary (blocks 0 and 1 swapped) and a generic one
    perm = np.zeros((d, d), dtype=complex)
    perm[2:4, 0:2] = rand_unitary(rng, 2)
    perm[0:2, 2:4] = rand_unitary(rng, 2)
    perm[4, 4] = np.exp(0.3j)
    generic = rand_unitary(rng, d)
    outside, size = alg.outside_norms(np.stack([perm, generic]))
    for x, u in enumerate((perm, generic)):
        for k, (i, a, b) in enumerate(alg.unit_index()):
            moved = u @ alg.unit(i, a, b) @ u.conj().T
            direct = np.linalg.norm(moved - element_loop(alg, coefficients_loop(alg, moved)))
            assert abs(outside[x, k] - direct) < 1e-12
            assert abs(size[x, k] - np.linalg.norm(moved)) < 1e-12
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
    assert KSGNSDilation(spec, n, dil.mult, dil.j).r_blocks.shape == (spec.algebra.n_units, n, 1)
    # sum_i n_i r_i must be the rank
    with pytest.raises(DilationResidualError, match="multiplicities"):
        KSGNSDilation(spec, n, (dil.mult[0], dil.mult[1] + 1), dil.j)
    with pytest.raises(DilationResidualError, match="multiplicities"):
        KSGNSDilation(spec, n + 1, dil.mult, np.vstack([dil.j, dil.j[:1]]))
    # and j must have one row per dilation index
    for rows in (n - 1, n + 1):
        with pytest.raises(DilationResidualError, match="or j do not fill"):
            KSGNSDilation(spec, n, dil.mult, np.resize(dil.j, (rows, 1)))
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


def _phase_turned(dil, elements, phase=1e-3):
    """The dilation with W_{g,i} times exp(i phase) for the given elements g and
    every block i: sym(g) stays unitary and keeps the twist."""
    mult_rep = []
    for ws in dil.mult_rep:
        ws = ws.copy()
        ws[elements] *= np.exp(1j * phase)
        mult_rep.append(ws)
    return replace(dil, mult_rep=tuple(mult_rep))


def test_twist_certificates_check_every_group_element():
    # turn W(g) of the last element alone: sym(g) stays unitary and keeps the
    # twist, which holds by construction; the j-intertwining and the cocycle of W see it
    rng = np.random.default_rng(10)
    spec = rand_covariant_cpmap(rng, (2, 1), FiniteGroup.cyclic(3), n_v=1)
    dil = ksgns(spec)
    assert has_bar(dil)
    broken = _phase_turned(dil, [spec.symmetry.group.order - 1])
    with pytest.raises(DilationResidualError, match="covariant dilation") as exc:
        _certify_covariant(broken, DEFAULT_TOL)
    res = exc.value.checks
    assert res["sym_unitary"].residual < 1e-12
    assert res["sym_j"].residual > 1e-5 and res["sym_cocycle"].residual > 1e-5
    assert twist_loop(broken) < 1e-12 and commutation_loop(broken) < 1e-12


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


def _dense_residuals(dil):
    """The dense ||sym(g) j - j rep(g)||, ||sym(g)^+ sym(g) - I|| and the
    cocycle residual ||sym(a) sym(b) - c_rep(a, b) sym(ab)|| of sym."""
    spec, syms, j = dil.spec, sym_stack(dil), dil.j
    return {
        "sym_j": np.linalg.norm(syms @ j - j @ spec.symmetry.rep.matrices, axis=(1, 2)).max(),
        "sym_unitary": np.linalg.norm(syms.conj().transpose(0, 2, 1) @ syms - np.eye(dil.rank), axis=(1, 2)).max(),
        "sym_cocycle": cocycle_loop(syms, spec.symmetry.rep.cocycle, spec.symmetry.group),
    }


@pytest.mark.parametrize("spec, mult, bar", list(_symmetric_cases()))
def test_twist_and_commutation_block_moves_match_the_dense_loops(spec, mult, bar):
    # the twist and the commutation of sym_bar with pi hold by construction: the
    # dense loops find roundoff only, and every certified residual is the dense one
    dil = ksgns(spec)
    assert dil.mult == mult and has_bar(dil) == bar
    assert twist_loop(dil) <= 1e-12
    if bar:
        assert commutation_loop(dil) <= 1e-12
    want = _dense_residuals(dil)
    assert sorted(dil.checks) == sorted(["reconstruction", *want])
    for name, value in want.items():
        assert abs(dil.checks[name].residual - value) <= 1e-12
    # turn W(g) of every g != e by one phase: the residuals follow the dense ones far above roundoff
    broken = _phase_turned(dil, np.arange(1, spec.symmetry.group.order))
    with pytest.raises(DilationResidualError, match="sym_j") as exc:
        _certify_covariant(broken, DEFAULT_TOL)
    want = _dense_residuals(broken)
    assert want["sym_j"] > 1e-5 and want["sym_cocycle"] > 1e-5
    for name, value in want.items():
        assert abs(exc.value.checks[name].residual - value) <= 1e-12
    # sym_cocycle is certified on the generator rows, which bound every row
    group = spec.symmetry.group
    for d, checks in ((dil, dil.checks), (broken, exc.value.checks)):
        rows = cocycle_loop(sym_stack(d), spec.symmetry.rep.cocycle, group, on_generators=True)
        assert abs(checks["sym_cocycle"].residual - rows) <= 1e-12
        assert _dense_residuals(d)["sym_cocycle"] <= group.max_word_length * rows + 1e-14


@pytest.mark.parametrize("spec", list(_cases()) + [case.values[0] for case in _symmetric_cases()])
def test_implicit_symmetry_is_the_dense_solve(spec):
    # sym(g) = u(g) (*) W(g) is the pseudo-inverse solve of sym(g) F = target, a
    # multiplier representation with the module's cocycle, and keeps the twist
    dil = ksgns(spec)
    syms, group = sym_stack(dil), spec.symmetry.group
    assert np.abs(syms - sym_pinv_solve(dil)).max() <= 1e-10
    assert cocycle_loop(syms, spec.symmetry.rep.cocycle, group) <= 1e-12
    assert twist_loop(dil) <= 1e-12
    if has_bar(dil):
        assert commutation_loop(dil) <= 1e-12


def test_multiplicity_unitaries_must_match_the_layout():
    dil = ksgns(rand_covariant_cpmap(np.random.default_rng(5), (2, 1), FiniteGroup.cyclic(3), n_v=2))
    for bad in (dil.mult_rep[:1], (dil.mult_rep[0], dil.mult_rep[0]), tuple(w[:2] for w in dil.mult_rep)):
        with pytest.raises(DilationResidualError, match="multiplicity unitaries"):
            replace(dil, mult_rep=bad)
    with pytest.raises(DilationResidualError, match="multiplicity unitaries"):
        replace(dil, spec=replace(dil.spec, symmetry=None))


def _dependent_row_dilation(seed=21, n_v=2):
    """A dilation of an S_3 map on M_2 + M_1 whose block-0 Kraus family gains
    a copy of its first operator, with the map it reconstructs: j has a
    dependent row in every cell of block 0."""
    spec = rand_covariant_cpmap(np.random.default_rng(seed), (2, 1), FiniteGroup.symmetric(3), n_v=n_v)
    dil = ksgns(spec)
    r0 = dil.mult[0]
    block = dil.j[: 2 * r0].reshape(2, r0, n_v)
    block = np.concatenate([block, block[:, :1]], axis=1)
    j = np.concatenate([block.reshape(-1, n_v), dil.j[2 * r0 :]])
    dep = KSGNSDilation(spec, dil.rank + 2, (r0 + 1, dil.mult[1]), j)
    return replace(dep, spec=replace(spec, values=j.conj().T @ dep.r_blocks))


def _f_is_full_rank(dil):
    return num_rank(dil.r_blocks.transpose(1, 0, 2).reshape(dil.rank, -1)) == dil.rank


# (seed, n_V) of the dependent-row dilations; in "longer", block 0 already
# has Choi rank n_0 n_V = 2, so its three Kraus operators have only two
# singular values, both large
_DEPENDENT = {"dependent": (21, 2), "longer": (1, 1)}


@pytest.mark.parametrize("case", list(_cases()) + list(_DEPENDENT))
def test_minimality_per_block_agrees_with_the_rank_of_f(case):
    dependent = isinstance(case, str)
    dil = _dependent_row_dilation(*_DEPENDENT[case]) if dependent else ksgns(case)
    assert _f_is_full_rank(dil) != dependent
    if _f_is_full_rank(dil):
        assert _certify_reconstruction(dil, DEFAULT_TOL)["reconstruction"].ok
    else:
        with pytest.raises(DilationResidualError, match="not minimal") as exc:
            _certify_reconstruction(dil, DEFAULT_TOL)
        assert exc.value.checks["reconstruction"].ok


def test_checks_require_records_every_residual_then_raises():
    checks = Checks().require(1.0, "first", a=0.5)
    with pytest.raises(DilationResidualError, match="second: c residual 2.00e[+]00") as exc:
        checks.require(1.0, "second", b=1.0, c=2.0, d=0.0)
    assert exc.value.checks is checks
    assert list(checks) == ["a", "b", "c", "d"]
    assert checks["b"] == Check(True, 1.0) and checks["c"] == Check(False, 2.0)
    assert checks.failed() == ["c"] and not checks.ok
