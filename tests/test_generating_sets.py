"""Extremality commutants solved over generating sets.

The commutant of a representation equals the commutant of the images of a
generating set, so the extremality routes solve over generating sets of the
group and then re-check the basis against everything.  Every route solves
through ``numlin.constrained_commutant``, given the multiplicity moves of the
generators; the CP route passes the block layout of pi(A)' and the block
permutation sigma, so no dense sym(g) is built.  These tests pin
those solves down against dense references (the kron system of
``oracles.dense_commutant`` and the eigenspace commutant
``oracles.cp_commutant_dense``) on random covariant objects and phase-space
instruments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covkit import cpmaps, instruments, kernels, numlin
from covkit.cpmaps import CPMapSpec, cp_extremal, ksgns
from covkit.cstar import FiniteCStarAlgebra, ModuleSpace
from covkit.fingroup import FiniteGroup, closure, heisenberg_rep
from covkit.instruments import as_cpmap, lambda_from_observable, observable_extremal, phase_space
from covkit.kernels import DilationResidualError, _certify_commutant, _hermitian_witness, kernel_extremal
from covkit.numlin import Tolerances, constrained_commutant
from covkit.random import (
    all_subgroups,
    rand_covariant_cpmap,
    rand_covariant_kernel,
    rand_covariant_observable,
)

from oracles import cell_commutant, compression_functionals, cp_commutant_dense, dense_commutant, sym_stack

GROUPS = {
    "Z3": FiniteGroup.cyclic(3),
    "Z4": FiniteGroup.cyclic(4),
    "Z6": FiniteGroup.cyclic(6),
    "D4": FiniteGroup.dihedral(4),
    "S3": FiniteGroup.symmetric(3),
    "S4": FiniteGroup.symmetric(4),
}


# ---------------------------------------------------------------------------
# generating sets of groups
# ---------------------------------------------------------------------------


def _named_groups():
    out = [("trivial", FiniteGroup.trivial())]
    out += [(f"Z{n}", FiniteGroup.cyclic(n)) for n in range(1, 9)]
    out += [(f"D{n}", FiniteGroup.dihedral(n)) for n in range(3, 7)]
    out += [(f"S{n}", FiniteGroup.symmetric(n)) for n in (3, 4)]
    z2, z3, s3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)
    out += [
        ("Z2xZ2", FiniteGroup.direct_product(z2, z2)),
        ("Z2xS3", FiniteGroup.direct_product(z2, s3)),
        ("Z3xZ4", FiniteGroup.direct_product(z3, FiniteGroup.cyclic(4))),
    ]
    out += [(f"WH{d}", heisenberg_rep(d)[0]) for d in range(1, 6)]
    return out


@pytest.mark.parametrize("name,group", _named_groups(), ids=[n for n, _ in _named_groups()])
def test_generators_close_to_the_whole_group(name, group):
    gens = group.generators()
    assert closure(group, gens) == tuple(range(group.order))
    # greedy: each generator is the smallest element outside the span so far
    for k, g in enumerate(gens):
        span = closure(group, gens[:k])
        assert g not in span
        assert all(h in span for h in range(g))
    assert group.generators() == gens


def test_generators_of_trivial_group_are_empty():
    assert FiniteGroup.trivial().generators() == ()
    assert FiniteGroup.cyclic(1).generators() == ()


def test_generator_counts():
    assert FiniteGroup.cyclic(7).generators() == (1,)
    assert len(heisenberg_rep(4)[0].generators()) == 2
    assert len(FiniteGroup.symmetric(4).generators()) <= 3


def test_closure_of_subsets():
    s4 = FiniteGroup.symmetric(4)
    assert closure(s4, ()) == (s4.identity,)
    assert len(closure(s4, (1,))) == 2  # a transposition
    assert len(closure(s4, (1, 2))) == 6  # permutations fixing the first letter
    z8 = FiniteGroup.cyclic(8)
    assert closure(z8, (2,)) == (0, 2, 4, 6)
    assert closure(z8, (2, 3)) == tuple(range(8))


# ---------------------------------------------------------------------------
# commutant over generating sets == commutant over the full set
# ---------------------------------------------------------------------------


def _projector(basis, n):
    if not basis:
        return np.zeros((n * n, n * n), dtype=complex)
    b = np.stack([d.reshape(-1) for d in basis], axis=1)
    return b @ b.conj().T


def _assert_same_commutant(call, full, n):
    """The recorded solve over generators against the dense kron system over
    the full set, with the route's compressions and without them (a larger,
    rarely trivial space)."""
    gens, compressions, kwargs, basis = call
    for comps, small in ((compressions, basis), ((), _ENGINE(gens, (), **kwargs))):
        ref = dense_commutant(full, compression_functionals(comps))
        assert len(small) == len(ref)
        assert np.linalg.norm(_projector(small, n) - _projector(ref, n)) < 1e-8


_ENGINE = numlin.constrained_commutant


class _Recorder:
    """Wraps ``constrained_commutant`` and keeps each call and its answer."""

    def __init__(self):
        self.calls = []

    def __call__(self, generators, compressions=(), **kwargs):
        basis = _ENGINE(generators, compressions, **kwargs)
        self.calls.append((list(generators), list(compressions), kwargs, basis))
        return basis


def _distance(basis, ref):
    """||P - P_ref||_F for the projectors onto the spans of two orthonormal
    bases of the same size, as sqrt(2) ||(I - P_ref) B|| (no N^2 x N^2
    projector)."""
    if not basis:
        return 0.0
    a = np.stack([d.reshape(-1) for d in basis], axis=1)
    b = np.stack([d.reshape(-1) for d in ref], axis=1)
    return np.sqrt(2.0) * np.linalg.norm(a - b @ (b.conj().T @ a))


def _compressions(j):
    """The functionals D -> (j^+ D j)[a, b] as coefficient matrices."""
    if j is None:
        return ()
    return compression_functionals([(j[None], j[None])])


def _assert_same_block_commutant(call, reference):
    """The recorded block-coordinate solve against a dense reference over
    every pi unit and every group element, with the compression constraints
    and without them (a larger, rarely trivial space)."""
    ws, ((j, _),), kwargs, basis = call
    assert kwargs["layout"]
    for jj, small in ((j[0], basis), (None, _ENGINE(ws, (), sigma=kwargs["sigma"], layout=kwargs["layout"]))):
        ref = reference(jj)
        assert len(small) == len(ref)
        assert _distance(small, ref) < 1e-8


@pytest.mark.parametrize("name", ["Z3", "Z6", "D4", "S3", "S4"])
def test_cp_commutant_over_generators_equals_full(name, monkeypatch):
    group = GROUPS[name]
    rng = np.random.default_rng(7 + group.order)
    recorder = _Recorder()
    monkeypatch.setattr(cpmaps, "constrained_commutant", recorder)
    for blocks in ((2,), (1, 1)):
        spec = rand_covariant_cpmap(rng, blocks, group, n_v=2)
        dil = ksgns(spec)
        recorder.calls.clear()
        cp_extremal(spec)
        assert {len(w) for w in recorder.calls[0][0]} == {len(group.generators())} and len(group.generators()) < group.order
        full = list(dil.pi_units) + list(sym_stack(dil))
        _assert_same_block_commutant(recorder.calls[0], lambda j: dense_commutant(full, _compressions(j)))


def _phase_space_cp(d, ops):
    ops = [np.asarray(b, dtype=complex) for b in ops]
    norm = d * sum(np.trace(b.conj().T @ b).real for b in ops)
    return as_cpmap(phase_space(d, [b / np.sqrt(norm) for b in ops]))


def _rank_one(d):
    b = np.zeros((d, d))
    b[0, 0], b[1, 0] = 1.0, 0.5
    return [b]


PHASE_SPACE = [
    pytest.param(3, [np.eye(3)], 27, 0, id="d3_identity"),
    pytest.param(3, _rank_one(3), 27, 0, id="d3_rank1"),
    pytest.param(3, [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])], 54, 3, id="d3_mixed"),
    pytest.param(4, [np.eye(4)], 64, 0, id="d4_identity"),
]


@pytest.mark.parametrize("d, ops, rank, freedom", PHASE_SPACE)
def test_phase_space_block_commutant_matches_the_dense_reference(d, ops, rank, freedom, monkeypatch):
    spec = _phase_space_cp(d, ops)
    dil = ksgns(spec)
    recorder = _Recorder()
    monkeypatch.setattr(cpmaps, "constrained_commutant", recorder)
    cert = cp_extremal(spec)
    assert dil.rank == rank and cert.freedom == freedom and cert.extreme == (freedom == 0)
    assert len(recorder.calls) == 1 and {len(w) for w in recorder.calls[0][0]} == {2}
    _assert_same_block_commutant(recorder.calls[0], lambda j: cp_commutant_dense(dil, sym_stack(dil), j))


def test_dense_reference_matches_constrained_commutant():
    # the eigenspace reference of the phase-space tests against the kron system
    # where both run, the kron system against the per-cell builder on the dense
    # pi units and sym(g), and against the engine on the moves of the whole group
    spec = _phase_space_cp(2, [np.diag([1.0, 0]), np.diag([0, 1.0])])
    rng = np.random.default_rng(19)
    for spec in (spec, rand_covariant_cpmap(rng, (2, 1), GROUPS["S3"], n_v=2)):
        dil = ksgns(spec)
        full = list(dil.pi_units) + list(sym_stack(dil))
        layout = list(zip(spec.algebra.blocks, dil.mult))
        for j in (dil.j, None):
            comps = [(j[None], j[None])] if j is not None else ()
            ref = dense_commutant(full, _compressions(j))
            dense = cp_commutant_dense(dil, sym_stack(dil), j)
            assert len(dense) == len(ref) and _distance(dense, ref) < 1e-8
            cells = cell_commutant(full, comps)
            assert len(cells) == len(ref) and _distance(cells, ref) < 1e-8
            engine = constrained_commutant(dil.mult_rep, comps, sigma=spec.block_action.sigma, layout=layout)
            assert len(engine) == len(ref) and _distance(engine, ref) < 1e-8


def test_cp_extremal_solves_sum_of_squared_multiplicities_unknowns(monkeypatch):
    spec = _phase_space_cp(3, [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])])
    dil = ksgns(spec)
    shapes = []

    solve = numlin.null_space

    def null_space(a, tol):
        shapes.append(a.shape)
        return solve(a, tol)

    monkeypatch.setattr(numlin, "null_space", null_space)
    assert cp_extremal(spec).freedom == 3
    assert shapes and all(cols == sum(r * r for r in dil.mult) == 36 for _, cols in shapes)


@pytest.mark.parametrize("name", ["Z4", "Z6", "D4", "S3", "S4"])
def test_kernel_commutant_over_generators_equals_full(name, monkeypatch):
    group = GROUPS[name]
    rng = np.random.default_rng(11 + group.order)
    recorder = _Recorder()
    monkeypatch.setattr(kernels, "constrained_commutant", recorder)
    for trial in range(3):
        spec = rand_covariant_kernel(rng, group, max_x=3, n_v=2)
        dec = kernels.kolmogorov_decompose(spec)
        # one symmetric and one non-symmetric Z; the second is solved over its symmetrization
        for z in ([(0, 0)], [(0, spec.x_size - 1)]):
            recorder.calls.clear()
            kernel_extremal(spec, z)
            if not recorder.calls:
                continue
            assert [len(w) for w in recorder.calls[0][0]] == [len(group.generators())]
            assert len(recorder.calls[0][1]) == len({*z, *((y, x) for x, y in z)})
            _assert_same_commutant(recorder.calls[0], list(dec.sym.matrices), dec.rank)


@pytest.mark.parametrize("name", ["Z6", "D4", "S3", "S4"])
def test_observable_commutant_over_generators_equals_full(name, monkeypatch):
    group = GROUPS[name]
    rng = np.random.default_rng(13 + group.order)
    recorder = _Recorder()
    monkeypatch.setattr(instruments, "constrained_commutant", recorder)
    proper = [s for s in all_subgroups(group) if 1 < len(s.members) < group.order]
    sub = max(proper, key=lambda s: (len(s.members), s.members))
    spec = rand_covariant_observable(rng, sub, v_dim=3)
    data = lambda_from_observable(spec, seed=3)
    observable_extremal(data)
    assert [len(w) for w in recorder.calls[0][0]] == [len(data.rho.group.generators())]
    _assert_same_commutant(recorder.calls[0], list(data.rho.matrices), data.base_dim)


def test_phase_space_cp_extremal_stacks_at_most_ten_generators(monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(cpmaps, "constrained_commutant", recorder)
    b1 = np.diag([0.5, 0.0]).astype(complex)
    b2 = np.diag([0.0, 0.5]).astype(complex)
    cert = cp_extremal(as_cpmap(phase_space(2, [b1, b2])))
    assert recorder.calls
    assert max(len(w) for ws, *_ in recorder.calls for w in ws) <= 10
    assert not cert.extreme and cert.freedom == 3


# ---------------------------------------------------------------------------
# the full-set certificate and the witness threshold
# ---------------------------------------------------------------------------


def test_certify_commutant_rejects_a_non_commuting_basis():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    full = [np.stack([np.eye(2, dtype=complex), x])]
    _certify_commutant([np.eye(2) / np.sqrt(2), x / np.sqrt(2)], full, (), Tolerances())
    with pytest.raises(DilationResidualError):
        _certify_commutant([z / np.sqrt(2)], full, (), Tolerances())


def test_block_commutant_recheck_covers_every_pi_unit():
    # a map without symmetry: the re-check has no group element, only pi(A)' = +_i I (x) M_{r_i}
    alg, rng = FiniteCStarAlgebra((2, 1)), np.random.default_rng(31)
    # two Kraus operators per block: S(E^i_ab)[v, w] = sum_l conj(A^i_l[a, v]) A^i_l[b, w]
    ops = [rng.normal(size=(2, n, 2)) + 1j * rng.normal(size=(2, n, 2)) for n in alg.blocks]
    values = np.concatenate([np.einsum("lav,lbw->abvw", a.conj(), a).reshape(-1, 2, 2) for a in ops])
    dil = ksgns(CPMapSpec(alg, ModuleSpace(k=1, n_v=2), values))
    assert dil.mult_rep is None and dil.mult == (2, 2)
    layout, comps = list(zip(alg.blocks, dil.mult)), [(dil.j[None], dil.j[None])]
    basis = constrained_commutant((), comps, layout=layout)
    assert len(basis) == 2 * 2 * 2 - 4
    _certify_commutant(basis, (), comps, Tolerances(), layout=layout)
    # a direction off pi(A)' that still has j^+ D j = 0
    q, _ = np.linalg.qr(dil.j)
    away = np.eye(dil.rank) - q @ q.conj().T
    off = away @ (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))) @ away
    with pytest.raises(DilationResidualError, match="commutant"):
        _certify_commutant([off / np.linalg.norm(off)], (), comps, Tolerances(), layout=layout)
    # an element of pi(A)' that j does not compress to zero
    with pytest.raises(DilationResidualError, match="compression"):
        _certify_commutant([np.eye(dil.rank) / np.sqrt(dil.rank)], (), comps, Tolerances(), layout=layout)


def test_hermitian_witness_threshold_follows_recon_fro():
    tiny = 1e-9 * np.eye(2, dtype=complex)
    assert _hermitian_witness([tiny], Tolerances()) is None
    witness = _hermitian_witness([tiny], Tolerances(recon_fro=1e-10))
    assert np.allclose(witness, np.eye(2))


# ---------------------------------------------------------------------------
# asymmetric Z: the symmetrized complex solve against the Hermitian kron solve
# ---------------------------------------------------------------------------


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.sampled_from(["Z3", "Z4", "D4", "S3"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.integers(0, 1),
)
def test_asymmetric_z_freedom_equals_the_hermitian_oracle(name, seed, n_v, n_pairs):
    # Z always holds (0, |X| - 1), so it is asymmetric whenever |X| > 1
    rng = np.random.default_rng(seed)
    spec = rand_covariant_kernel(rng, GROUPS[name], max_x=4, n_v=n_v)
    dec = kernels.kolmogorov_decompose(spec)
    x = spec.x_size
    z = sorted({(int(a), int(b)) for a, b in rng.integers(0, x, size=(n_pairs, 2))} | {(0, x - 1)})
    cert = kernel_extremal(spec, z)
    if dec.rank == 0:
        assert cert.extreme and cert.freedom == 0
        return
    functionals = compression_functionals([(dec.factors[a][None], dec.factors[b][None]) for a, b in z])
    oracle = dense_commutant(list(dec.sym.matrices), functionals, hermitian_only=True, dim=dec.rank)
    assert cert.freedom == len(oracle)
    assert cert.extreme == (len(oracle) == 0)


# ---------------------------------------------------------------------------
# the shared certificate re-checks every compression
# ---------------------------------------------------------------------------


def test_kernel_recheck_rejects_a_basis_not_compressed_to_zero(monkeypatch):
    # the identity commutes with every sym(g), but factors[0]^+ factors[0] != 0
    spec = rand_covariant_kernel(np.random.default_rng(1), GROUPS["S3"], max_x=3, n_v=2)
    dec = kernels.kolmogorov_decompose(spec)
    assert dec.rank == 3
    scalar = [np.eye(dec.rank) / np.sqrt(dec.rank)]
    monkeypatch.setattr(kernels, "constrained_commutant", lambda gens, comps, tol: scalar)
    with pytest.raises(DilationResidualError, match="compression"):
        kernel_extremal(spec, [(0, 0)])


def test_observable_recheck_rejects_a_basis_not_compressed_to_zero(monkeypatch):
    group = GROUPS["S3"]
    sub = max((s for s in all_subgroups(group) if 1 < len(s.members) < group.order), key=lambda s: s.members)
    data = lambda_from_observable(rand_covariant_observable(np.random.default_rng(4), sub, v_dim=3), seed=3)
    scalar = [np.eye(data.base_dim) / np.sqrt(data.base_dim)]
    monkeypatch.setattr(instruments, "constrained_commutant", lambda gens, comps, tol: scalar)
    with pytest.raises(DilationResidualError, match="compression"):
        observable_extremal(data)
