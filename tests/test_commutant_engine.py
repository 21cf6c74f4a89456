"""The commutant engine on the multiplicity spaces and its one certificate.

``numlin.constrained_commutant`` takes the generators as multiplicity moves:
generator g carries block i onto block sigma_g(i) as w_{g,i} (x) W_{g,i}, and
each generator and block gives the r_i^2 rows of X_{sigma_g(i)} W_{g,i} -
W_{g,i} X_i = 0.  These tests hold it to the per-cell builder on the dense
generators (``oracles.cell_commutant``): the same freedom and projector on
the CP maps of several block shapes, a map with a zero multiplicity, the CP
forms of phase-space instruments and random instruments over subgroups of
S_3 and D_4; the same Gram matrix for unitary w; the instrument route's
moves at the subgroup's generators only, against the all-member solve; and
``kernels._certify_commutant``, which reads each D as +_i I (x) Y_i, against
a basis off that form and a move of a non-generator turned by a phase.  The
CP route builds no dense sym(g), and a map without a symmetry has no block
action.
"""

import numpy as np
import pytest

from covkit import instruments as ins
from covkit import numlin
from covkit.cpmaps import CPMapSpec, KSGNSDilation, cp_extremal, ksgns
from covkit.cstar import FiniteCStarAlgebra, ModuleSpace
from covkit.fingroup import FiniteGroup
from covkit.instruments import B_from_instrument, _multiplicity_rep, as_cpmap, phase_space
from covkit.kernels import DilationResidualError, _certify_commutant
from covkit.numlin import Tolerances, constrained_commutant
from covkit.random import all_subgroups, rand_covariant_instrument

from oracles import cell_commutant, cell_rows
from test_block_stacked import _mixed_shape_maps, _zero_block_map


def _phase_space_forms():
    rng = np.random.default_rng(41)
    for d in (2, 3):
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        norm = d * sum(np.vdot(b, b).real for b in ops)
        yield as_cpmap(phase_space(d, [b / np.sqrt(norm) for b in ops]))


CP_CASES = [*_mixed_shape_maps(), _zero_block_map(), *_phase_space_forms()]


def _cp_system(spec):
    """The CP route's engine input, its dense generators sym(g) and layout."""
    dil, gens = ksgns(spec), list(spec.symmetry.group.generators())
    layout = list(zip(spec.algebra.blocks, dil.mult))
    moves = dict(sigma=spec.block_action.sigma[gens], layout=layout)
    return [w[gens] for w in dil.mult_rep], moves, list(dil.sym(gens)), [(dil.j[None], dil.j[None])]


def _instrument_systems():
    """The instrument route's engine input on random instruments over the
    subgroups of S_3 and D_4, and its dense generators I_K (x) W_h."""
    rng = np.random.default_rng(43)
    for group in (FiniteGroup.symmetric(3), FiniteGroup.dihedral(4)):
        for sub in all_subgroups(group):
            spec = rand_covariant_instrument(rng, sub, k_dim=2, v_dim=2)
            data = B_from_instrument(spec)
            k, r, g = spec.k_dim, len(data.b_ops), list(spec.symmetry.sub.section)
            ws = _multiplicity_rep(data, spec.symmetry, numlin.DEFAULT_TOL)
            j = np.stack(data.b_ops).transpose(1, 0, 2).reshape(k * r, -1)
            moved = j @ spec.symmetry.rep.matrices[g].conj().transpose(0, 2, 1)
            yield [ws], dict(layout=[(k, r)]), [np.kron(np.eye(k), w) for w in ws], [(moved, moved)]


def _projector(basis):
    if not basis:
        return 0.0
    b = np.stack([d.reshape(-1) for d in basis], axis=1)
    return b @ b.conj().T


def _assert_same_solution(ws, kwargs, dense, comps):
    for c in (comps, ()):
        engine = constrained_commutant(ws, c, **kwargs)
        reference = cell_commutant(dense, c, layout=kwargs["layout"])
        assert len(engine) == len(reference)
        assert np.linalg.norm(_projector(engine) - _projector(reference)) < 1e-10


@pytest.mark.parametrize("spec", CP_CASES)
def test_cp_moves_match_the_per_cell_builder(spec):
    _assert_same_solution(*_cp_system(spec))


def test_instrument_moves_match_the_per_cell_builder():
    systems = list(_instrument_systems())
    assert len(systems) == 6 + 10
    for system in systems:
        _assert_same_solution(*system)


def _engine_system(monkeypatch, ws, comps, kwargs):
    """The stacked system the engine hands to null_space."""
    seen, solve = [], numlin.null_space
    monkeypatch.setattr(numlin, "null_space", lambda a, tol: seen.append(a) or solve(a, tol))
    constrained_commutant(ws, comps, **kwargs)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("spec", CP_CASES)
def test_move_rows_have_the_gram_matrix_of_the_cell_rows(spec, monkeypatch):
    # u is unitary, so every w_{g,i} is: the r_i^2 move rows and the n_i^2 r_i^2
    # cell rows of a block give the same normal equations
    ws, kwargs, dense, comps = _cp_system(spec)
    for c in (comps, ()):
        moves = _engine_system(monkeypatch, ws, c, kwargs)
        cells = cell_rows(dense, c, layout=kwargs["layout"])
        assert moves.shape[1] == cells.shape[1] and len(moves) <= len(cells)
        want = cells.conj().T @ cells
        assert np.abs(moves.conj().T @ moves - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_engine_rows_are_fewer_than_the_cell_rows():
    # a block pair (sigma_g(i), i) gives r^2 rows, not n^2 r^2
    spec = next(_phase_space_forms())
    ws, kwargs, dense, _ = _cp_system(spec)
    cells = cell_rows(dense, layout=kwargs["layout"])
    assert len(cells) == sum(len(w) * n * n * w.shape[1] ** 2 for w, (n, _) in zip(ws, kwargs["layout"]))
    rows = sum(len(w) * w.shape[1] ** 2 for w in ws)
    assert rows * spec.algebra.blocks[0] ** 2 == len(cells)


# ---------------------------------------------------------------------------
# the one certificate
# ---------------------------------------------------------------------------


def _full_moves(spec):
    dil = ksgns(spec)
    layout = list(zip(spec.algebra.blocks, dil.mult))
    return dil, dil.mult_rep, spec.block_action.sigma, layout


@pytest.mark.parametrize("spec", CP_CASES[:4])
def test_certificate_passes_the_engine_basis_and_rejects_one_off_the_block_form(spec):
    dil, ws, sigma, layout = _full_moves(spec)
    gens = list(spec.symmetry.group.generators())
    basis = constrained_commutant([w[gens] for w in ws], sigma=sigma[gens], layout=layout)
    assert basis
    _certify_commutant(basis, ws, (), Tolerances(), sigma=sigma, layout=layout)
    # one entry of a diagonal cell moved by 1e-6: no longer I (x) Y on its block
    start = dil.layout[0]
    block = next(i for i, (n, r) in enumerate(layout) if n > 1 and r > 0)
    off = basis[0].copy()
    off[start[block], start[block]] += 1e-6
    with pytest.raises(DilationResidualError, match="commutant"):
        _certify_commutant([off], ws, (), Tolerances(), sigma=sigma, layout=layout)
    # and an entry between two blocks
    off = basis[0].copy()
    off[0, -1] += 1e-6
    with pytest.raises(DilationResidualError, match="commutant"):
        _certify_commutant([off], ws, (), Tolerances(), sigma=sigma, layout=layout)


def test_certificate_rejects_a_non_generator_move_turned_by_a_phase():
    # Z_3 acting trivially on M_2 + M_1 with n = (2, 1): over the generator every
    # X commutes; the identity and g = 2 are no generators, and the certificate
    # reads their moves too
    group, layout = FiniteGroup.cyclic(3), [(2, 2), (1, 1)]
    gens = list(group.generators())
    ws = [np.tile(np.eye(r, dtype=complex), (group.order, 1, 1)) for _, r in layout]
    basis = constrained_commutant([w[gens] for w in ws], layout=layout)
    assert len(basis) == 5
    _certify_commutant(basis, ws, (), Tolerances(), layout=layout)
    for g in (h for h in range(group.order) if h not in gens):
        turned = [w.copy() for w in ws]
        turned[0][g] = turned[0][g] @ np.diag([np.exp(0.1j), 1.0])
        with pytest.raises(DilationResidualError, match="commutant"):
            _certify_commutant(basis, turned, (), Tolerances(), layout=layout)


def test_certificate_move_defect_is_the_dense_commutator():
    # sqrt(sum_i n_i ||Y_sigma(i) W - W Y_i||^2) against max_g ||[D, sym(g)]||_F for
    # a random D in pi(A)', which commutes with pi(A) but in general not with the symmetry
    rng, checked = np.random.default_rng(5), 0
    for spec in CP_CASES:
        dil, ws, sigma, layout = _full_moves(spec)
        basis = constrained_commutant([], layout=layout)
        d = sum(complex(*rng.normal(size=2)) * b for b in basis)
        d /= np.linalg.norm(d)
        syms = dil.sym(np.arange(spec.symmetry.group.order))
        dense = float(np.linalg.norm(d @ syms - syms @ d, axis=(1, 2)).max())
        if dense < 1e-3:
            _certify_commutant([d], ws, (), Tolerances(), sigma=sigma, layout=layout)
            continue
        with pytest.raises(DilationResidualError) as caught:
            _certify_commutant([d], ws, (), Tolerances(), sigma=sigma, layout=layout)
        assert caught.value.checks["commutant"].residual == pytest.approx(dense, rel=1e-10)
        checked += 1
    assert checked >= 3


# ---------------------------------------------------------------------------
# extremality builds no dense symmetry
# ---------------------------------------------------------------------------


def test_cp_extremal_never_builds_the_dense_symmetry(monkeypatch):
    specs = list(_mixed_shape_maps())
    want = []
    for spec in specs:
        _, kwargs, dense, comps = _cp_system(spec)
        want.append(len(cell_commutant(dense, comps, layout=kwargs["layout"])))

    def refuse(self, g):
        raise AssertionError("extremality built a dense sym(g)")

    monkeypatch.setattr(KSGNSDilation, "sym", refuse)
    certs = [cp_extremal(spec) for spec in specs]
    assert [c.freedom for c in certs] == want
    assert [c.extreme for c in certs] == [f == 0 for f in want]


def test_instrument_engine_takes_the_moves_of_the_subgroup_generators(monkeypatch):
    # one move per generator of the subgroup (2 for S_3 and for D_4 themselves,
    # not 5 and 7); the commutant over the generators is the commutant over every
    # member, so freedom and projector match the all-member solve
    seen, solve = [], ins.constrained_commutant
    monkeypatch.setattr(ins, "constrained_commutant", lambda ws, comps, **kw: seen.append((ws, comps, kw)) or solve(ws, comps, **kw))
    rng = np.random.default_rng(47)
    for group in (FiniteGroup.symmetric(3), FiniteGroup.dihedral(4)):
        for sub in all_subgroups(group):
            spec = rand_covariant_instrument(rng, sub, k_dim=2, v_dim=2)
            seen.clear()
            cert = ins.instrument_extremal(spec)
            ((ws, comps, kwargs),) = seen
            assert len(ws[0]) == len(sub.subgroup_group().generators()) <= len(sub.members) - 1
            if len(sub.members) == group.order:
                assert len(ws[0]) == 2
            every = [_multiplicity_rep(B_from_instrument(spec), spec.symmetry, numlin.DEFAULT_TOL)]
            assert len(every[0]) == len(sub.members) - 1
            engine, reference = solve(ws, comps, **kwargs), solve(every, comps, **kwargs)
            assert len(engine) == len(reference) == cert.freedom
            assert np.linalg.norm(_projector(engine) - _projector(reference)) < 1e-10


# ---------------------------------------------------------------------------
# a map without a symmetry has no block action
# ---------------------------------------------------------------------------


def _plain_map():
    values = np.einsum("av,bw->abvw", np.eye(2), np.eye(2)).reshape(4, 2, 2).astype(complex)
    return CPMapSpec(FiniteCStarAlgebra((2,)), ModuleSpace(k=1, n_v=2), values)


def test_block_action_of_a_map_without_symmetry_is_a_value_error():
    with pytest.raises(ValueError, match="no symmetry"):
        _plain_map().block_action


def test_sym_of_a_dilation_without_symmetry_is_a_value_error():
    dil = ksgns(_plain_map())
    assert dil.rank == 2 and dil.mult_rep is None
    with pytest.raises(ValueError, match="no symmetry"):
        dil.sym(0)
    assert cp_extremal(_plain_map()).extreme
