import re
from dataclasses import replace

import numpy as np
import pytest

from covkit import instruments as ins
from covkit.constructions import (
    DecomposableOp,
    canonical_system,
    cosets,
    decomposable_extract,
    marginal_channel,
    marginal_observable,
    marginals,
    sample,
    sq_structure,
    subminimal,
    wigner_rotation,
)
from covkit.cpmaps import CPMapSpec, CPSymmetry, _certify_covariant, cp_validate, ksgns
from covkit.cstar import ModuleSpace
from covkit.fingroup import FiniteGroup, MultiplierRep, SubgroupData, TwoCocycle, heisenberg_rep
from covkit.instruments import (
    B_from_instrument,
    CovariantInstrumentData,
    InstrumentSpec,
    ObservableSpec,
    Symmetry,
    as_cpmap,
    instrument_extremal,
    instrument_from_B,
    lambda_from_observable,
    naimark,
    observable_extremal,
    observable_from_lambda,
    phase_space,
    sample_stream,
    sq_constant,
    validate_instrument,
    validate_observable,
)
from covkit.kernels import DilationResidualError, kernel_extremal, validate_kernel
from covkit.numlin import DimensionError, Tolerances, block_layout
from covkit.random import (
    all_subgroups,
    rand_covariant_instrument,
    rand_covariant_observable,
    rand_density,
)
from oracles import (
    choi_covariance_loop,
    choi_from_kraus,
    cocycle_loop,
    has_bar,
    instrument_extremal_cpform,
    naimark_loop,
    observable_kernel_form,
    structure_chain_B,
    sym_stack,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def flip_symmetry():
    g = FiniteGroup.cyclic(2)
    sub = SubgroupData(g, (0,))
    rep = MultiplierRep(g, TwoCocycle.trivial(g), np.stack([np.eye(2, dtype=complex), X]))
    return Symmetry(sub, rep)


def flip_observable(p):
    effects = np.stack(
        [np.diag([p, 1 - p]).astype(complex), np.diag([1 - p, p]).astype(complex)]
    )
    return ObservableSpec(effects, flip_symmetry())


def trine_observable():
    g = FiniteGroup.cyclic(3)
    sub = SubgroupData(g, (0,))
    w = 2 * np.pi / 3
    mats = np.stack(
        [
            np.array(
                [
                    [np.cos(k * w), -np.sin(k * w)],
                    [np.sin(k * w), np.cos(k * w)],
                ],
                dtype=complex,
            )
            for k in range(3)
        ]
    )
    rep = MultiplierRep(g, TwoCocycle.trivial(g), mats)
    v0 = np.array([1.0, 0.0], dtype=complex)
    effects = np.stack(
        [(2.0 / 3.0) * np.outer(mats[k] @ v0, (mats[k] @ v0).conj()) for k in range(3)]
    )
    return ObservableSpec(effects, Symmetry(sub, rep))


def identity_instrument(k=2):
    g = FiniteGroup.trivial()
    sub = SubgroupData(g, (0,))
    sym = Symmetry(sub, MultiplierRep.trivial(g, k), MultiplierRep.trivial(g, k))
    choi = choi_from_kraus([np.eye(k, dtype=complex)], k, k)[None, :, :]
    return InstrumentSpec(choi, sym)


def lueders_flip_instrument():
    g = FiniteGroup.cyclic(2)
    sub = SubgroupData(g, (0,))
    rep = MultiplierRep(g, TwoCocycle.trivial(g), np.stack([np.eye(2, dtype=complex), X]))
    sym = Symmetry(sub, rep, rep)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    choi = np.stack(
        [choi_from_kraus([p0], 2, 2), choi_from_kraus([p1], 2, 2)]
    )
    return InstrumentSpec(choi, sym)



def test_an_outcome_symmetry_needs_unitary_reps():
    g = FiniteGroup.cyclic(2)
    sub = SubgroupData(g, (0,))
    rep = MultiplierRep(g, TwoCocycle.trivial(g), np.stack([np.eye(2, dtype=complex), X]))
    flagged = MultiplierRep(g, rep.cocycle, rep.matrices, False)
    for reps in ((flagged,), (flagged, rep), (rep, flagged)):
        with pytest.raises(ValueError, match="unitary representations"):
            Symmetry(sub, *reps)

def test_validate_trivial_observable():
    g = FiniteGroup.cyclic(3)
    sub = SubgroupData(g, (0,))
    rep = MultiplierRep.trivial(g, 2)
    effects = np.stack([np.eye(2) / 3.0] * 3).astype(complex)
    assert validate_observable(ObservableSpec(effects, Symmetry(sub, rep))).ok


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_validate_flip_observable(p):
    assert validate_observable(flip_observable(p)).ok


def test_validate_rejects_unnormalized():
    spec = flip_observable(0.5)
    bad = ObservableSpec(spec.effects * 2.0, spec.symmetry)
    report = validate_observable(bad)
    assert not report.ok and "normalization" in report.failed()


def test_naimark_projective_observable():
    spec = flip_observable(1.0)
    naim = naimark(spec)
    assert naim.mult == (1, 1)
    k = naim.j
    assert np.allclose(k.conj().T @ k, np.eye(2), atol=1e-10)


def test_naimark_flip_half():
    naim = naimark(flip_observable(0.5))
    assert naim.mult == (2, 2)
    f0 = naim.j[:2]
    assert np.allclose(f0.conj().T @ f0, np.eye(2) / 2, atol=1e-10)


def test_naimark_trine():
    naim = naimark(trine_observable())
    assert naim.mult == (1, 1, 1)
    assert naim.rank == 3


def test_naimark_cocycle_blocks_are_unitary():
    naim = naimark(flip_observable(0.3))
    for g in range(2):
        for w in range(2):
            blk = naim.mult_rep[w][g]
            assert np.allclose(blk.conj().T @ blk, np.eye(blk.shape[0]), atol=1e-9)


def _naimark_cases():
    """Flip, trine and projective observables, random covariant observables
    with nontrivial stabilizers, and phase-space marginals (projective rep)."""
    yield pytest.param(flip_observable(0.3), id="flip")
    yield pytest.param(flip_observable(1.0), id="projective")
    yield pytest.param(trine_observable(), id="trine")
    rng = np.random.default_rng(15)
    for name, group in (("Z4", FiniteGroup.cyclic(4)), ("D4", FiniteGroup.dihedral(4)),
                        ("S3", FiniteGroup.symmetric(3)), ("S4", FiniteGroup.symmetric(4))):
        sub = next(h for h in all_subgroups(group) if 1 < len(h.members) < group.order)
        yield pytest.param(rand_covariant_observable(rng, sub, v_dim=3), id=f"random_{name}")
    for d in (2, 3):
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        instrument = phase_space(d, [b / np.linalg.norm(b) / np.sqrt(d)])
        yield pytest.param(marginal_observable(instrument), id=f"phase_space_marginal_d{d}")


@pytest.mark.parametrize("spec", list(_naimark_cases()))
def test_naimark_is_the_per_fiber_solve(spec):
    # the KSGNS dilation of the CP form against the per-(g, w) solve it replaced
    naim, want = naimark(spec), naimark_loop(spec)
    assert naim.mult == want.fiber_dims
    assert sorted(naim.checks) == ["isometry", "reconstruction", "sym_cocycle", "sym_j", "sym_unitary"]
    assert naim.checks.ok
    start, group = block_layout(naim.mult, 1)[0], spec.symmetry.group
    factors = [naim.j[a:b] for a, b in zip(start, start[1:])]
    for f, old, effect in zip(factors, want.factors, spec.effects):
        assert np.allclose(f.conj().T @ f, old.conj().T @ old, atol=1e-12)
        assert np.allclose(f.conj().T @ f, effect, atol=1e-12)
    # cocycle_blocks[g][w] = mult_rep[g^{-1} w][g] carries fiber g^{-1} w into fiber w
    for g in group.elements():
        for w in range(spec.n_outcomes):
            src = spec.symmetry.action.apply(group.inv(g), w)
            blk = naim.mult_rep[src][g]
            assert np.allclose(factors[w] @ spec.symmetry.rep(g), blk @ factors[src], atol=1e-10)
            assert np.allclose(blk.conj().T @ blk, np.eye(len(blk)), atol=1e-10)
    assert cocycle_loop(sym_stack(naim), spec.symmetry.rep.cocycle, group) <= 1e-12


def test_an_unnormalized_observable_fails_the_isometry_verdict():
    spec = flip_observable(0.3)
    with pytest.raises(ValueError, match="sum to the identity"):
        naimark(replace(spec, effects=1.5 * spec.effects))


def _turned_once(dil):
    """The dilation with one W_{g,i}, g != e, turned by a phase: still
    unitary, but no longer a cocycle together with the others."""
    mult_rep = [ws.copy() for ws in dil.mult_rep]
    mult_rep[1][1] *= np.exp(1e-3j)
    return replace(dil, mult_rep=tuple(mult_rep))


@pytest.mark.parametrize("kind", ["instrument", "observable"])
def test_sym_cocycle_catches_one_turned_multiplicity_unitary(kind):
    # both dilations permute their outcome blocks, so no commuting twist exists
    instrument = phase_space(2, [np.array([[1.0, 0.0], [0.5, 0.0]]) / np.sqrt(2.5)])
    dil = ksgns(as_cpmap(instrument)) if kind == "instrument" else naimark(marginal_observable(instrument))
    assert not has_bar(dil) and dil.checks["sym_cocycle"].residual <= 1e-12
    with pytest.raises(DilationResidualError, match="covariant dilation") as exc:
        _certify_covariant(_turned_once(dil), Tolerances())
    assert exc.value.checks["sym_unitary"].ok
    assert not exc.value.checks["sym_cocycle"].ok and exc.value.checks["sym_cocycle"].residual > 1e-5


def test_decomposable_extract_swap():
    op = np.zeros((4, 4), dtype=complex)
    op[:2, 2:] = np.eye(2)
    op[2:, :2] = np.eye(2)
    dec = decomposable_extract(op, perm=[1, 0], fiber_dims=[2, 2])
    assert np.allclose(dec.blocks[0], np.eye(2))
    assert dec.is_unitary_op()
    assert np.allclose(dec.assemble(), op)


def test_decomposable_extract_diagonal():
    blocks = [np.diag([1.0, 2.0]), np.diag([3.0 + 1j, 4.0])]
    op = np.zeros((4, 4), dtype=complex)
    op[:2, :2] = blocks[0]
    op[2:, 2:] = blocks[1]
    dec = decomposable_extract(op, perm=[0, 1], fiber_dims=[2, 2])
    assert np.allclose(dec.blocks[1], blocks[1])
    assert not dec.is_unitary_op()


def test_decomposable_rejects_non_intertwining():
    op = np.ones((4, 4), dtype=complex)
    with pytest.raises(Exception):
        decomposable_extract(op, perm=[1, 0], fiber_dims=[2, 2])


def test_decomposable_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(0, 4, size=4))
        perm = tuple(int(p) for p in rng.permutation(4))
        if any(dims[perm[w]] != dims[w] for w in range(4)):
            continue
        blocks = tuple(
            rng.normal(size=(dims[w], dims[w])) + 1j * rng.normal(size=(dims[w], dims[w]))
            for w in range(4)
        )
        op = DecomposableOp(perm, dims, blocks).assemble()
        dec = decomposable_extract(op, perm, dims)
        for b1, b2 in zip(dec.blocks, blocks):
            assert np.allclose(b1, b2)


def test_naimark_rep_is_decomposable_with_cocycle():
    spec = flip_observable(0.25)
    naim = naimark(spec)
    act = spec.symmetry.action
    for g in range(2):
        dec = decomposable_extract(
            naim.sym(g), perm=[act.apply(g, w) for w in range(2)], fiber_dims=naim.mult
        )
        assert dec.is_unitary_op()
    assert cocycle_loop(sym_stack(naim), spec.symmetry.rep.cocycle, spec.symmetry.group) <= 1e-12


def test_wigner_rotation_trivial_subgroup():
    g = FiniteGroup.cyclic(3)
    sub = SubgroupData(g, (0,))
    rho = MultiplierRep.trivial(sub.subgroup_group(), 2)
    table = wigner_rotation(rho, sub)
    for a in g.elements():
        for w in range(sub.n_cosets):
            assert np.allclose(table[a, w], np.eye(2))


def test_wigner_rotation_sign_rep():
    g = FiniteGroup.cyclic(4)
    sub = cosets(g, [0, 2])
    hgrp = sub.subgroup_group()
    rho = MultiplierRep(
        hgrp, TwoCocycle.trivial(hgrp), np.array([[[1.0]], [[-1.0]]], dtype=complex)
    )
    table = wigner_rotation(rho, sub)
    # strictness identities hold exhaustively
    act = sub.coset_action()
    for a in g.elements():
        for b in g.elements():
            for w in range(sub.n_cosets):
                lhs = table[g.prod(a, b), w]
                rhs = table[a, w] @ table[b, act.apply(g.inv(a), w)]
                assert np.allclose(lhs, rhs, atol=1e-12)
    # restriction to the subgroup at the base coset is the representation
    assert np.allclose(table[2, 0], [[-1.0]])
    assert np.allclose(table[0, 0], [[1.0]])


def test_canonical_system_trivial_rho():
    g = FiniteGroup.symmetric(3)
    transposition = next(a for a in range(1, 6) if g.prod(a, a) == g.identity)
    sub = cosets(g, [0, transposition])
    rho = MultiplierRep.trivial(sub.subgroup_group(), 1)
    system = canonical_system(rho, sub)
    assert system.dim == 3
    # translation acts by permutation matrices
    for a in g.elements():
        assert np.allclose(np.abs(system.theta[a]) ** 2, np.abs(system.theta[a]))


def test_canonical_system_whole_group():
    g = FiniteGroup.cyclic(3)
    sub = cosets(g, [0, 1, 2])
    hgrp = sub.subgroup_group()
    omega = np.exp(2j * np.pi / 3)
    rho = MultiplierRep(
        hgrp,
        TwoCocycle.trivial(hgrp),
        np.array([[[1.0]], [[omega]], [[omega ** 2]]], dtype=complex),
    )
    system = canonical_system(rho, sub)
    assert system.dim == 1
    for a in g.elements():
        assert np.allclose(system.theta[a], rho(a))


def test_canonical_system_induced_character():
    g = FiniteGroup.cyclic(4)
    sub = cosets(g, [0, 2])
    hgrp = sub.subgroup_group()
    rho = MultiplierRep(
        hgrp, TwoCocycle.trivial(hgrp), np.array([[[1.0]], [[-1.0]]], dtype=complex)
    )
    system = canonical_system(rho, sub)
    chars = [np.trace(system.theta[a]) for a in g.elements()]
    assert np.allclose(chars, [2.0, 0.0, -2.0, 0.0], atol=1e-10)


def test_observable_from_lambda_regular_z2():
    g = FiniteGroup.cyclic(2)
    sub = SubgroupData(g, (0,))
    rep = MultiplierRep.regular(g)
    from covkit.fingroup import irrep_decompose

    decomp = irrep_decompose(rep, seed=0)
    # one block operator per character, equal weights, base fiber C^1
    blocks = tuple((np.array([[1.0]], dtype=complex),) for _ in decomp.blocks)
    hgrp = sub.subgroup_group()
    rho = MultiplierRep.trivial(hgrp, 1)
    data = ins.CovariantObservableData(sub, rho, decomp, blocks)
    spec = observable_from_lambda(data)
    assert validate_observable(spec).ok
    for w in range(2):
        assert abs(np.trace(spec.effects[w]) - 1.0) < 1e-9
        assert np.linalg.matrix_rank(spec.effects[w]) == 1


def test_observable_from_lambda_whole_group_single_effect():
    g = FiniteGroup.cyclic(2)
    sub = cosets(g, [0, 1])
    rep = MultiplierRep.regular(g)
    from covkit.fingroup import irrep_decompose

    decomp = irrep_decompose(rep, seed=0)
    hgrp = sub.subgroup_group()
    # the base-fiber representation matches the block characters, and each
    # character block maps its multiplicity line into its own direction
    rho_mats = np.stack(
        [
            np.diag([decomp.blocks[0].rep(h)[0, 0], decomp.blocks[1].rep(h)[0, 0]])
            for h in range(2)
        ]
    )
    rho = MultiplierRep(hgrp, TwoCocycle.trivial(hgrp), rho_mats)
    blocks = (
        (np.array([[1.0], [0.0]], dtype=complex),),
        (np.array([[0.0], [1.0]], dtype=complex),),
    )
    data = ins.CovariantObservableData(sub, rho, decomp, blocks)
    spec = observable_from_lambda(data)
    assert spec.n_outcomes == 1
    assert np.allclose(spec.effects[0], np.eye(2), atol=1e-9)


@pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
def test_lambda_roundtrip_flip(p):
    spec = flip_observable(p)
    data = lambda_from_observable(spec, seed=1)
    expected_base = 1 if p in (0.0, 1.0) else 2
    assert data.base_dim == expected_base
    rebuilt = observable_from_lambda(data)
    assert np.allclose(rebuilt.effects, spec.effects, atol=1e-8)


def test_lambda_roundtrip_trine():
    spec = trine_observable()
    data = lambda_from_observable(spec, seed=2)
    assert data.base_dim == 1
    rebuilt = observable_from_lambda(data)
    assert np.allclose(rebuilt.effects, spec.effects, atol=1e-8)


def test_lambda_roundtrip_random_observables():
    rng = np.random.default_rng(3)
    for group in (FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)):
        for sub in all_subgroups(group)[:3]:
            spec = rand_covariant_observable(rng, sub, v_dim=2)
            assert validate_observable(spec).ok
            data = lambda_from_observable(spec, seed=4)
            rebuilt = observable_from_lambda(data)
            assert np.allclose(rebuilt.effects, spec.effects, atol=1e-8)


def test_observable_extremal_flip_family():
    for p in (0.0, 1.0):
        data = lambda_from_observable(flip_observable(p), seed=5)
        assert observable_extremal(data).extreme
    for p in (0.1, 0.5, 0.9):
        data = lambda_from_observable(flip_observable(p), seed=5)
        cert = observable_extremal(data)
        assert not cert.extreme
        for nb in cert.perturbed:
            assert validate_observable(nb).ok
        mid = 0.5 * (cert.perturbed[0].effects + cert.perturbed[1].effects)
        assert np.allclose(mid, flip_observable(p).effects, atol=1e-9)


def test_block_normalization_follows_recon_fro():
    data = lambda_from_observable(flip_observable(0.3), seed=5)
    checks = ins.validate_observable_data(data)
    assert checks.ok and checks["totality"].residual == 0.0
    # blocks off their normalization by about 2e-9: inside the default 1e-8, outside 1e-10
    scaled = replace(data, lambda_blocks=tuple(tuple((1 + 1e-9) * op for op in ops) for ops in data.lambda_blocks))
    assert ins.validate_observable_data(scaled).ok
    tight = ins.validate_observable_data(scaled, Tolerances(recon_fro=1e-10))
    assert tight.failed() == ["block_normalization"]
    assert 1e-10 < tight["block_normalization"].residual < 1e-8


def test_totality_reports_the_missing_rank(monkeypatch):
    data = lambda_from_observable(flip_observable(0.3), seed=5)
    monkeypatch.setattr(ins, "rank", lambda a, tol: 0)
    checks = ins.validate_observable_data(data)
    assert checks.failed() == ["totality"]
    assert checks["totality"].residual == float(data.base_dim) > 0


def test_observable_extremal_single_outcome():
    g = FiniteGroup.cyclic(2)
    sub = cosets(g, [0, 1])
    rep = MultiplierRep.regular(g)
    effects = np.stack([np.eye(2, dtype=complex)])
    spec = ObservableSpec(effects, Symmetry(sub, rep))
    data = lambda_from_observable(spec, seed=6)
    assert observable_extremal(data).extreme


def test_observable_kernel_form_agrees_on_flip_family():
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = flip_observable(p)
        kernel, z = observable_kernel_form(spec)
        assert validate_kernel(kernel).ok
        cert_kernel = kernel_extremal(kernel, z)
        data = lambda_from_observable(spec, seed=7)
        cert_lambda = observable_extremal(data)
        assert cert_kernel.extreme == cert_lambda.extreme == (p in (0.0, 1.0))


def test_identity_instrument_roundtrip():
    spec = identity_instrument()
    assert validate_instrument(spec).ok
    data = B_from_instrument(spec)
    assert len(data.b_ops) == 1
    assert np.allclose(np.abs(data.b_ops[0]), np.eye(2), atol=1e-9)


def test_lueders_instrument_marginals():
    spec = lueders_flip_instrument()
    assert validate_instrument(spec).ok
    obs = marginal_observable(spec)
    assert np.allclose(obs.effects[0], np.diag([1.0, 0.0]), atol=1e-10)
    chan = marginal_channel(spec)
    assert cp_validate(chan).ok
    # decohering channel kills off-diagonals
    b = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    assert np.allclose(chan.value_of(b), np.eye(2), atol=1e-10)


def test_lueders_b_family_projective():
    spec = lueders_flip_instrument()
    data = B_from_instrument(spec)
    assert len(data.b_ops) == 1
    b = data.b_ops[0]
    assert np.allclose(b @ b, b, atol=1e-9)


def test_instrument_from_b_rejects_bad_family():
    sym = lueders_flip_instrument().symmetry
    bad = CovariantInstrumentData((np.eye(2, dtype=complex),))  # breaks normalization
    with pytest.raises(ins.StructureViolation):
        instrument_from_B(bad, sym)


def test_random_instrument_roundtrips():
    rng = np.random.default_rng(8)
    groups = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)]
    count = 0
    for group in groups:
        for sub in all_subgroups(group):
            if count >= 6:
                break
            spec = rand_covariant_instrument(rng, sub, k_dim=2, v_dim=2)
            assert validate_instrument(spec).ok
            data = B_from_instrument(spec)
            worst_inv, worst_norm = ins.check_b_family(data, spec.symmetry)
            assert worst_inv <= 1e-8 and worst_norm <= 1e-8
            rebuilt = instrument_from_B(data, spec.symmetry)
            assert np.allclose(rebuilt.choi, spec.choi, atol=1e-8)
            count += 1


def test_structure_chain_matches_base_point_route():
    for spec in (lueders_flip_instrument(), phase_space(2, [_ps_seed_ops(2)[0]])):
        chain = structure_chain_B(spec)
        rebuilt = instrument_from_B(chain, spec.symmetry)
        assert np.allclose(rebuilt.choi, spec.choi, atol=1e-8)


def _ps_seed_ops(d):
    b = np.zeros((d, d), dtype=complex)
    b[0, 0] = 1.0 / np.sqrt(d)
    return [b]


def test_as_cpmap_and_subminimal_consistency():
    spec = lueders_flip_instrument()
    cp = as_cpmap(spec)
    assert cp_validate(cp).ok
    first, second = marginals(cp)
    assert cp_validate(first).ok
    sub = subminimal(cp)
    dil = sub.dilation
    total = sub.e_units.sum(axis=0)
    assert np.allclose(total, np.eye(dil.rank), atol=1e-9)
    # E(beta_g(c)) = sym(g) E(c) sym(g)^+ is the covariance of E as a CP map, against the per-block loop
    group = cp.symmetry.group
    syms = MultiplierRep(group, TwoCocycle.trivial(group), sym_stack(dil))
    e_map = CPMapSpec(second.algebra, ModuleSpace(k=1, n_v=dil.rank), sub.e_units, CPSymmetry(cp.symmetry.u_factors[1], syms))
    assert sub.checks["covariance"].ok
    assert sub.checks["covariance"].residual == pytest.approx(choi_covariance_loop(e_map, on_generators=True), abs=1e-13)


def test_instrument_extremal_identity():
    assert instrument_extremal(identity_instrument()).extreme


def test_instrument_extremal_uniform_mixing():
    g = FiniteGroup.cyclic(2)
    sub = SubgroupData(g, (0,))
    rep = MultiplierRep(g, TwoCocycle.trivial(g), np.stack([np.eye(2, dtype=complex), X]))
    sym = Symmetry(sub, rep, rep)
    # outcome maps b -> tr(b) I / 4: completely mixing, manifestly splittable
    k = 2
    choi = np.zeros((2, 4, 4), dtype=complex)
    for w in range(2):
        for a in range(k):
            choi[w][a * 2 : (a + 1) * 2, a * 2 : (a + 1) * 2] = np.eye(2) / 4.0
    spec = InstrumentSpec(choi, sym)
    assert validate_instrument(spec).ok
    cert = instrument_extremal(spec)
    assert not cert.extreme
    for nb in cert.perturbed:
        assert validate_instrument(nb).ok


def test_sq_constant_heisenberg():
    for d in (2, 3):
        _, _, rep = heisenberg_rep(d)
        result = sq_constant(rep)
        assert result.ok
        assert abs(result.value - d) < 1e-10


def test_sq_constant_failure_reducible():
    g = FiniteGroup.trivial()
    rep = MultiplierRep.trivial(g, 2)
    result = sq_constant(rep)
    assert not result.ok
    assert result.spread > 0.1


def test_phase_space_d2_rank1():
    spec = phase_space(2, _ps_seed_ops(2))
    assert validate_instrument(spec).ok
    obs = marginal_observable(spec)
    # effects are half rank-one projectors onto the translated seed vector
    for w in range(4):
        assert abs(np.trace(obs.effects[w]).real - 0.5) < 1e-10
        assert np.linalg.matrix_rank(obs.effects[w]) == 1
    assert np.allclose(obs.effects.sum(axis=0), np.eye(2), atol=1e-10)


def test_phase_space_maximally_mixed_seed():
    b1 = np.diag([0.5, 0.0]).astype(complex)
    b2 = np.diag([0.0, 0.5]).astype(complex)
    spec = phase_space(2, [b1, b2])
    obs = marginal_observable(spec)
    for w in range(4):
        assert np.allclose(obs.effects[w], np.eye(2) / 4.0, atol=1e-10)


def test_phase_space_d1_trivial():
    spec = phase_space(1, [np.array([[1.0]], dtype=complex)])
    assert spec.n_outcomes == 1
    assert np.allclose(spec.outcome_map(0, np.eye(1)), np.eye(1))


def test_phase_space_b_extraction():
    spec = phase_space(2, _ps_seed_ops(2))
    data = B_from_instrument(spec)
    assert len(data.b_ops) == 1
    total = data.b_ops[0].conj().T @ data.b_ops[0]
    seed = np.zeros((2, 2), dtype=complex)
    seed[0, 0] = 0.5
    assert np.allclose(total, seed, atol=1e-10)


def test_assembly_builds_one_choi_stack_on_every_subgroup(monkeypatch):
    # the invariance check is the section independence, so no assembly builds
    # a second Choi stack at a shifted section: not on phase space's one-point
    # cosets, and not in the round trip over any subgroup of S_3 or D_4
    stacks = []
    choi_of = ins._choi_of
    monkeypatch.setattr(ins, "_choi_of", lambda ops: stacks.append(ops.shape) or choi_of(ops))
    phase_space(2, _ps_seed_ops(2))
    assert len(stacks) == 1
    rng = np.random.default_rng(2)
    for group in (FiniteGroup.symmetric(3), FiniteGroup.dihedral(4)):
        for sub in all_subgroups(group):
            spec = rand_covariant_instrument(rng, sub)
            stacks.clear()
            B_from_instrument(spec)
            assert len(stacks) == 1, sub.members


def test_sq_structure_phase_space():
    spec = phase_space(2, _ps_seed_ops(2))
    st = sq_structure(spec)
    assert abs(st.constant - 2.0) < 1e-10
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(st.seed_matrix, expected, atol=1e-9)


def test_sq_structure_mixed_seed():
    b1 = np.diag([0.5, 0.0]).astype(complex)
    b2 = np.diag([0.0, 0.5]).astype(complex)
    spec = phase_space(2, [b1, b2])
    st = sq_structure(spec)
    assert np.allclose(st.seed_matrix, np.eye(2) / 2.0, atol=1e-9)


def test_sq_structure_follows_the_callers_tolerances():
    # a seed of trace 1 + 1e-5 passes every check at recon_fro = 1e-4
    group, _, w0 = heisenberg_rep(2)
    symmetry = Symmetry(SubgroupData(group, (group.identity,)), rep=w0, out_rep=w0)
    b = _ps_seed_ops(2)[0] * np.sqrt(1.0 + 1e-5)
    loose = Tolerances(recon_fro=1e-4)
    spec = instrument_from_B(CovariantInstrumentData((b,)), symmetry, loose)
    st = sq_structure(spec, loose)
    assert st.checks.ok
    assert list(st.checks) == ["positive", "trace", "subgroup_commutant", "observable_form"]
    assert st.checks["trace"].residual == pytest.approx(1e-5, rel=1e-6)


def test_phase_space_extremality_ground_truth():
    rank1 = phase_space(2, _ps_seed_ops(2))
    assert instrument_extremal(rank1).extreme
    b1 = np.diag([0.5, 0.0]).astype(complex)
    b2 = np.diag([0.0, 0.5]).astype(complex)
    mixed = phase_space(2, [b1, b2])
    assert not instrument_extremal(mixed).extreme


def test_twirl_identity():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        _, _, rep = heisenberg_rep(d)
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        total = sum(rep(g) @ rho @ rep(g).conj().T for g in range(d * d))
        assert np.allclose(total, d * np.trace(rho) * np.eye(d), atol=1e-9)


def test_sample_identity_instrument():
    spec = identity_instrument()
    rho = rand_density(np.random.default_rng(10), 2)
    out = sample(spec, rho, rng_seed=0)
    assert out.outcome == 0
    assert abs(out.probability - 1.0) < 1e-12
    assert np.allclose(out.post_state, rho, atol=1e-10)


def test_sample_projective_on_plus_state():
    spec = lueders_flip_instrument()
    plus = np.full((2, 2), 0.5, dtype=complex)
    probs = ins.outcome_distribution(spec, plus)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)
    out = sample(spec, plus, rng_seed=3)
    expected = np.zeros((2, 2), dtype=complex)
    expected[out.outcome, out.outcome] = 1.0
    assert np.allclose(out.post_state, expected, atol=1e-10)


def test_sample_phase_space_born_value():
    spec = phase_space(2, _ps_seed_ops(2))
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    probs = ins.outcome_distribution(spec, rho)
    assert abs(probs[0] - 0.5) < 1e-12


def test_sampler_statistics():
    spec = phase_space(2, _ps_seed_ops(2))
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    n = 100_000
    hits = sum(1 for s in sample_stream(spec, rho, n, rng_seed=42) if s.outcome == 0)
    p = 0.5
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_sample_deterministic_per_seed():
    spec = lueders_flip_instrument()
    plus = np.full((2, 2), 0.5, dtype=complex)
    a = [s.outcome for s in sample_stream(spec, plus, 20, rng_seed=7)]
    b = [s.outcome for s in sample_stream(spec, plus, 20, rng_seed=7)]
    assert a == b


def test_sample_stream_of_a_seed_is_pinned():
    # the draws come from random.Random(seed).random(), whose sequence Python
    # keeps across versions: inverse CDF over p = (0.35, 0.35, 0.15, 0.15)
    spec = phase_space(2, _ps_seed_ops(2))
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    assert np.allclose(ins.outcome_distribution(spec, rho), [0.35, 0.35, 0.15, 0.15], atol=1e-12)
    stream = [s.outcome for s in sample_stream(spec, rho, 16, rng_seed=2026)]
    assert stream == [0, 1, 1, 3, 0, 0, 1, 1, 2, 1, 2, 2, 2, 1, 0, 1]
    assert sample(spec, rho, rng_seed=2026).outcome == stream[0]
    # the same stream, by bisection on the cumulative distribution
    import bisect
    import random

    rng = random.Random(2026)
    assert stream == [bisect.bisect_right([0.35, 0.7, 0.85, 1.0], rng.random()) for _ in range(16)]


@pytest.mark.parametrize("state", [np.eye(3) / 3, np.full(2, 0.5), np.eye(2).reshape(1, 2, 2) / 2])
def test_sample_stream_refuses_a_state_of_another_size(state):
    spec = phase_space(2, _ps_seed_ops(2))
    with pytest.raises(DimensionError, match=re.escape(f"state has shape {state.shape}, but the instrument acts on 2 x 2 states")):
        next(sample_stream(spec, state, 5, rng_seed=1))


@pytest.mark.parametrize("state", [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], ids=["last_zero", "first_zero"])
def test_sample_never_draws_an_outcome_of_probability_zero(state):
    spec = lueders_flip_instrument()
    p = ins.outcome_distribution(spec, state)
    assert sorted(p.tolist()) == [0.0, 1.0]
    for seed in range(20):
        drawn = {s.outcome for s in sample_stream(spec, state.astype(complex), 500, rng_seed=seed)}
        assert drawn == {int(np.argmax(p))}


def test_draws_clamp_to_the_last_positive_outcome(monkeypatch):
    # a point at the total of the cumulative distribution, which random()
    # (always below 1) only reaches through rounding, is clamped to the last
    # outcome of positive probability, never to a zero tail
    class Top:
        def __init__(self, seed):
            pass

        def random(self):
            return 1.0

    monkeypatch.setattr(ins.random, "Random", Top)
    for p in ([0.3, 0.7, 0.0], [0.1] * 10 + [0.0, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0]):
        top = max(i for i, x in enumerate(p) if x > 0)
        assert list(ins._draws(np.array(p), 3, 0)) == [top] * 3
