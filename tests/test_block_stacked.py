"""The KSGNS stages stacked by block shape against their per-block loop
forms: the Choi verdict and residual, the Kraus factors and j, the
multiplicity unitaries W_{g,i} and the covariance certificate; and the CP
form of an instrument, whose u is a block action, against the dense u that
as_cpmap used to build; and the command line that dilates, and validates
an observable or a phase_space document, without importing ``numpy.ma``."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from covkit import specfile
from covkit.cpmaps import (
    BlockAction,
    CPSymmetry,
    _certify_covariant,
    cp_validate,
    ksgns,
)
from covkit.cstar import FiniteCStarAlgebra
from covkit.fingroup import FiniteGroup, TwoCocycle
from covkit.instruments import as_cpmap, naimark, phase_space
from covkit.kernels import DilationResidualError
from covkit.numlin import DEFAULT_TOL, DimensionError, frob
from covkit.random import all_subgroups, rand_covariant_cpmap, rand_covariant_instrument, rand_covariant_observable

from oracles import (
    as_cpmap_dense,
    certify_covariant_loop,
    cp_status_loop,
    dense_u,
    ksgns_j_loop,
    sym_loop,
)


def _mixed_shape_maps():
    """Random covariant maps whose dilations have two or more block shapes
    (n_i, r_i)."""
    rng = np.random.default_rng(31)
    for blocks, group in (
        ((2, 1, 1), FiniteGroup.cyclic(3)),
        ((2, 1, 1), FiniteGroup.symmetric(3)),
        ((1, 2, 1, 3), FiniteGroup.dihedral(4)),
        ((2, 2, 1), FiniteGroup.cyclic(4)),
    ):
        yield rand_covariant_cpmap(rng, blocks, group, n_v=2)


def _zero_block_map():
    """A map on M_2 + M_1 + M_1 whose middle block is zero: r_1 = 0."""
    spec = rand_covariant_cpmap(np.random.default_rng(32), (2, 1, 1), FiniteGroup.cyclic(3), n_v=2)
    values = spec.values.copy()
    values[4] = 0.0
    return replace(spec, values=values)


def _instruments():
    """Instruments and observables as instruments: their CP forms' u
    permutes the blocks."""
    rng = np.random.default_rng(33)
    for d in (2, 3):
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        norm = d * sum(np.vdot(b, b).real for b in ops)
        yield phase_space(d, [b / np.sqrt(norm) for b in ops])
    for sub in all_subgroups(FiniteGroup.symmetric(3))[:3]:
        yield rand_covariant_instrument(rng, sub, k_dim=2, v_dim=2)
        yield rand_covariant_observable(rng, sub, v_dim=2).as_instrument()


def _instrument_forms():
    return [as_cpmap(spec) for spec in _instruments()]


CASES = [*_mixed_shape_maps(), _zero_block_map(), *_instrument_forms()]


def test_the_cases_cover_several_shapes_and_a_zero_block():
    shapes = [len(ksgns(s).layout[1]) for s in _mixed_shape_maps()]
    assert min(shapes) >= 2
    assert ksgns(_zero_block_map()).mult[1] == 0


@pytest.mark.parametrize("spec", CASES)
def test_stacked_stages_match_the_per_block_loops(spec):
    checks = cp_validate(spec)
    ok, res = cp_status_loop(spec)
    assert checks["completely_positive"].ok == ok
    assert checks["completely_positive"].residual == pytest.approx(res, rel=1e-12, abs=1e-15)
    dil = ksgns(spec)
    mult, j = ksgns_j_loop(spec)
    assert dil.mult == mult
    assert np.abs(dil.j - j).max(initial=0.0) <= 1e-12
    # the per-block solve of the multiplicity unitaries, from the same j
    ws, want = certify_covariant_loop(replace(dil, mult_rep=None))
    for got, ref in zip(dil.mult_rep, ws):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12
    for name, value in want.items():
        assert dil.checks[name].ok
        assert dil.checks[name].residual == pytest.approx(value, rel=1e-12, abs=1e-12)


def _phase_space_forms():
    """CP forms of phase-space instruments, whose u permutes |X| = d^2 blocks."""
    rng = np.random.default_rng(36)
    for d, rank in ((2, 1), (3, 2), (4, 2)):
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(rank)]
        norm = d * sum(np.vdot(b, b).real for b in ops)
        yield as_cpmap(phase_space(d, [b / np.sqrt(norm) for b in ops]))


@pytest.mark.parametrize("spec", [*_mixed_shape_maps(), _zero_block_map(), *_phase_space_forms()])
def test_sym_of_an_index_array_is_the_per_block_kron_loop_bit_for_bit(spec):
    dil = ksgns(spec)
    order = spec.symmetry.group.order
    stack = dil.sym(np.arange(order))
    assert stack.shape == (order, dil.rank, dil.rank)
    assert np.array_equal(stack, np.stack([sym_loop(dil, g) for g in range(order)]))
    # an element gives one matrix, and an index array of any shape its stack
    assert np.array_equal(dil.sym(order - 1), stack[-1])
    pairs = np.array([[order - 1, 0], [1 % order, order - 1]])
    assert np.array_equal(dil.sym(pairs), stack[pairs])
    assert dil.sym([]).shape == (0, dil.rank, dil.rank)


def _turned_once(dil, block):
    """The dilation with W_{g,i} of one element g != e and one block i turned
    by a phase."""
    mult_rep = [w.copy() for w in dil.mult_rep]
    mult_rep[block][1] *= np.exp(1e-3j)
    return replace(dil, mult_rep=tuple(mult_rep))


@pytest.mark.parametrize("spec", CASES)
def test_a_turned_multiplicity_unitary_fails_sym_j_and_sym_cocycle_in_both(spec):
    dil = ksgns(spec)
    broken = _turned_once(dil, int(np.argmax(dil.mult)))
    with pytest.raises(DilationResidualError, match="sym_j") as exc:
        _certify_covariant(broken, DEFAULT_TOL)
    got = exc.value.checks
    _, want = certify_covariant_loop(broken)
    group = spec.symmetry.group
    bound = DEFAULT_TOL.recon_fro * max(1.0, np.sqrt(dil.rank), frob(dil.j))
    assert want["sym_j"] > bound and group.max_word_length * want["sym_cocycle"] > bound
    assert not got["sym_j"].ok and not got["sym_cocycle"].ok and got["sym_unitary"].ok
    for name, value in want.items():
        assert got[name].residual == pytest.approx(value, rel=1e-12, abs=1e-12)


def _scaled_u(symmetry, factor):
    """The symmetry with u(g) times ``factor``, dense or as a block action."""
    u = symmetry.u
    if isinstance(u, BlockAction):
        return replace(symmetry, u=replace(u, w=tuple(factor * w for w in u.w)))
    return replace(symmetry, u=replace(u, matrices=factor * u.matrices))


@pytest.mark.parametrize("spec", CASES)
@pytest.mark.parametrize("u_factor", [1.0, 1.1])
def test_a_non_unitary_multiplicity_rep_fails_sym_unitary_in_both(spec, u_factor):
    # (P (x) Q) - I with Q = W^+ W, and P = w^+ w, far from I: the expanded norm is the dense one
    dil = ksgns(spec)
    block = int(np.argmax(dil.mult))
    mult_rep = list(dil.mult_rep)
    mult_rep[block] = mult_rep[block] * np.linspace(1.0, 1.5, len(mult_rep[block]))[:, None, None]
    broken = replace(dil, spec=replace(spec, symmetry=_scaled_u(spec.symmetry, u_factor)), mult_rep=tuple(mult_rep))
    with pytest.raises(DilationResidualError, match="sym_unitary") as exc:
        _certify_covariant(broken, DEFAULT_TOL)
    _, want = certify_covariant_loop(broken)
    assert want["sym_unitary"] > 0.5
    assert exc.value.checks["sym_unitary"].residual == pytest.approx(want["sym_unitary"], rel=1e-12)


def _non_cp_maps():
    """Maps on M_2 + M_1 + M_1 with one Choi block replaced: a non-Hermitian
    one, a Hermitian one with a negative eigenvalue."""
    base = rand_covariant_cpmap(np.random.default_rng(34), (2, 1, 1), FiniteGroup.cyclic(3), n_v=2)
    rng = np.random.default_rng(35)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for block in (x, x + x.conj().T - 5.0 * np.eye(2)):
        values = base.values.copy()
        values[5] = block
        yield replace(base, values=values)


@pytest.mark.parametrize("spec", list(_non_cp_maps()))
def test_a_non_hermitian_or_negative_block_fails_in_both(spec):
    ok, res = cp_status_loop(spec)
    check = cp_validate(spec)["completely_positive"]
    assert not ok and not check.ok
    assert check.residual == pytest.approx(res, rel=1e-12, abs=1e-15)
    with pytest.raises(ValueError, match="completely_positive"):
        ksgns(spec)


@pytest.mark.parametrize("instrument", list(_instruments()))
def test_the_block_action_of_an_instrument_is_its_dense_u(instrument):
    # as_cpmap keeps perm(g) (x) out_rep(g) as a block action; the dense form
    # goes through outside_norms and block_action, and both give the same
    # verdicts, residuals, j and W
    spec, dense = as_cpmap(instrument), as_cpmap_dense(instrument)
    assert isinstance(spec.symmetry.u, BlockAction)
    assert np.array_equal(dense_u(spec).matrices, dense.symmetry.u.matrices)
    assert cp_validate(spec) == cp_validate(dense)
    a, b = ksgns(spec), ksgns(dense)
    assert a.mult == b.mult and np.array_equal(a.j, b.j)
    for x, y in zip(a.mult_rep, b.mult_rep):
        assert np.array_equal(x, y)
    assert a.checks == b.checks
    for g in instrument.symmetry.group.elements():
        assert np.array_equal(a.sym(g), b.sym(g))


def test_a_block_action_must_fit_the_algebra():
    spec = _instrument_forms()[0]
    act = spec.symmetry.u
    for bad in (
        replace(act, sigma=act.sigma[:, :-1]),
        replace(act, w=act.w[:-1]),
        replace(act, w=(act.w[0][:, :1, :1],) + act.w[1:]),
        replace(act, sigma=np.zeros_like(act.sigma)),
    ):
        assert not bad.fits(spec.algebra)
        with pytest.raises(DimensionError, match="wrong space"):
            replace(spec, symmetry=replace(spec.symmetry, u=bad))
    # sigma may only permute blocks of equal size
    z2 = TwoCocycle.trivial(FiniteGroup.cyclic(2))
    w = (np.ones((2, 2, 2)), np.ones((2, 1, 1)))
    assert BlockAction(np.array([[0, 1], [0, 1]]), w, z2).fits(FiniteCStarAlgebra((2, 1)))
    assert not BlockAction(np.array([[0, 1], [1, 0]]), w, z2).fits(FiniteCStarAlgebra((2, 1)))


def test_naimark_reads_the_block_action_too():
    rng = np.random.default_rng(36)
    sub = all_subgroups(FiniteGroup.symmetric(3))[1]
    spec = rand_covariant_observable(rng, sub, v_dim=2)
    dil = naimark(spec)
    assert isinstance(dil.spec.symmetry.u, BlockAction)
    mult, j = ksgns_j_loop(dil.spec)
    assert dil.mult == mult and np.abs(dil.j - j).max() <= 1e-12
    ws, want = certify_covariant_loop(replace(dil, mult_rep=None))
    for got, ref in zip(dil.mult_rep, ws):
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12
    for name, value in want.items():
        assert dil.checks[name].residual == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_a_cpmap_document_needs_a_dense_u():
    spec = _instrument_forms()[0]
    with pytest.raises(specfile.SpecFileError, match="dense u"):
        specfile.cpmap_out(spec)
    dense = replace(spec, symmetry=CPSymmetry(dense_u(spec), spec.symmetry.rep))
    loaded = specfile.cpmap_in(specfile.cpmap_out(dense)).symmetry.u
    assert np.array_equal(loaded.matrices, dense.symmetry.u.matrices)


def test_a_dense_u_that_leaks_fails_covariance():
    spec = rand_covariant_cpmap(np.random.default_rng(37), (1, 1), FiniteGroup.cyclic(2), n_v=1)
    mix = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    leaky = replace(dense_u(spec), matrices=np.stack([np.eye(2), mix]).astype(complex))
    check = cp_validate(replace(spec, symmetry=CPSymmetry(leaky, spec.symmetry.rep)))["covariant"]
    assert not check.ok and check.residual > 0.1


SRC = str(Path(__file__).resolve().parents[1] / "src")
GUARD = """
import sys
from covkit.cli import main
code = main(sys.argv[1:])
print("numpy.ma loaded:", "numpy.ma" in sys.modules, file=sys.stderr)
print("numpy.random loaded:", "numpy.random" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_cli_dilate_never_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, which costs a fresh
    # process more than a small dilation; the block shapes are grouped
    # without it, and so are the cosets and the clock-and-shift system that
    # validating an observable or a phase_space document builds
    instrument = next(_instruments())
    cpmap = next(_mixed_shape_maps())
    observable = rand_covariant_observable(np.random.default_rng(2), all_subgroups(FiniteGroup.symmetric(3))[1], v_dim=2)
    seed = np.diag([3 ** -0.5, 0, 0]).astype(complex)
    runs = {
        ("dilate", "instrument"): specfile.instrument_out(instrument),
        ("dilate", "cpmap"): specfile.cpmap_out(replace(cpmap, symmetry=CPSymmetry(dense_u(cpmap), cpmap.symmetry.rep))),
        ("validate", "observable"): specfile.observable_out(observable),
        ("validate", "phase_space"): {"d": 3, "seed_ops": [specfile.matrix_out(seed)]},
    }
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    for (command, kind), payload in runs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(specfile.document(kind, payload))
        run = subprocess.run([sys.executable, "-c", GUARD, command, str(path)], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "numpy.ma loaded: False" in run.stderr


def test_cli_sample_never_imports_numpy_random(tmp_path):
    # the sampler draws with the interpreter's random.Random: a fresh process
    # that builds a phase-space instrument and samples it imports neither
    # numpy.random (about 10 ms) nor numpy.ma
    seed = np.diag([3 ** -0.5, 0, 0]).astype(complex)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    ps, state = tmp_path / "ps.json", tmp_path / "state.json"
    ps.write_text(specfile.document("phase_space", {"d": 3, "seed_ops": [specfile.matrix_out(seed)]}))
    state.write_text(specfile.document("state", {"matrix": specfile.matrix_out(rho)}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", GUARD, "sample", str(ps), str(state), "-n", "50", "--seed", "3"]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == 50
    assert "numpy.random loaded: False" in run.stderr
    assert "numpy.ma loaded: False" in run.stderr
