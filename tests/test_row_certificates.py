"""Instruments the engines build are certified on their Kraus rows.

``instrument_from_B`` (so ``phase_space``) and ``instrument_extremal``'s
neighbours hold Choi blocks R_w^+ P R_w of the rows R_w = u(g_w) B
rep(g_w)^+, and ``instruments._validate_rows`` certifies covariance from the
row move R_w f_s^+ = W R_{s w} with a carried bound, positivity from P's
spectrum.  Every printed covariance residual must cover the dense residual
of ``validate_instrument`` on the same blocks; a family whose rows miss the
move gets the dense verdict; and ``cpmaps._covariance`` gives the same
residual in chunks as in one piece."""

from __future__ import annotations

import numpy as np
import pytest

from covkit import cpmaps
from covkit import instruments as ins
from covkit.cpmaps import cp_validate
from covkit.fingroup import FiniteGroup
from covkit.instruments import (
    B_from_instrument,
    CovariantInstrumentData,
    as_cpmap,
    instrument_extremal,
    instrument_from_B,
    phase_space,
    validate_instrument,
)
from covkit.kernels import Checks
from covkit.numlin import Tolerances
from covkit.random import all_subgroups, rand_covariant_cpmap, rand_covariant_instrument, rand_covariant_observable

EPS = np.finfo(float).eps
# a recon_fro so loose that every row bound below passes, so the certificate that
# comes back is the row certificate, whose residual is the carried bound
LOOSE = Tolerances(recon_fro=10.0)


def _phase_space(d, rank=2, seed=None):
    rng = np.random.default_rng(d if seed is None else seed)
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(rank)]
    norm = d * sum(np.vdot(b, b).real for b in ops)
    return [b / np.sqrt(norm) for b in ops]


def _a3():
    return next(s for s in all_subgroups(FiniteGroup.symmetric(3)) if len(s.members) == 3)


def _z2():
    return next(s for s in all_subgroups(FiniteGroup.symmetric(3)) if len(s.members) == 2)


def _family_case(kind, seed):
    """A random covariant instrument whose base family the subgroup moves by
    a multiplicity representation W_h that is not scalar: an instrument over
    Z_2 < S_3 (K = V = 2; over A_3 the W_h of such instruments are scalar),
    or an observable over A_3 as an instrument (V = 3)."""
    if kind == "instrument":
        return rand_covariant_instrument(np.random.default_rng(seed), _z2(), 2, 2)
    return rand_covariant_observable(np.random.default_rng(seed), _a3(), 3).as_instrument()


def _spy(monkeypatch):
    """Every (instrument, certificate) that ``_validate_rows`` returns, and
    every instrument that ``validate_instrument`` is called on."""
    rows, dense = [], []
    validate_rows, validate = ins._validate_rows, ins.validate_instrument

    def rows_spy(specs, r, middles, tol):
        found = validate_rows(specs, r, middles, tol)
        rows.extend(zip(specs, found))
        return found

    def dense_spy(spec, tol=ins.DEFAULT_TOL):
        dense.append(spec)
        return validate(spec, tol)

    monkeypatch.setattr(ins, "_validate_rows", rows_spy)
    monkeypatch.setattr(ins, "validate_instrument", dense_spy)
    return rows, dense


def _assert_covers(spec, got, tol=ins.DEFAULT_TOL, rounding=True):
    """The certificate ``got`` has the dense verdicts, and its covariance
    residual covers the dense one; where the blocks are covariant in exact
    arithmetic both are rounding, and the dense product's own rounding is
    allowed for.  Off covariance the dense ``outcomes_cp`` carries the
    covariance residual to every block, while the rows decide every block
    exactly, so there it may fail where the row verdict passes, never the
    other way."""
    want = validate_instrument(spec, tol)
    ok, dense_ok = ({name: bool(c.ok) for name, c in checks.items()} for checks in (got, want))
    if rounding:
        assert ok == dense_ok
    else:
        assert ok.pop("outcomes_cp") >= dense_ok.pop("outcomes_cp") and ok == dense_ok
    slack = 64 * EPS * max(1.0, float(np.abs(spec.choi).max())) if rounding else 0.0
    assert want["covariance"].residual <= got["covariance"].residual + slack
    return want


def _inputs():
    yield from (f"phase_space_d{d}" for d in range(2, 7))
    yield from ("instrument_A3_seed0", "instrument_A3_seed1", "observable_A3_seed0", "observable_A3_seed1")


def _built(name):
    """The engine route of a case, and how many dense certificates it may run
    (one per input that ``B_from_instrument`` reads)."""
    if name.startswith("phase_space"):
        d = int(name[-1])
        spec = phase_space(d, _phase_space(d))
        return [lambda: phase_space(d, _phase_space(d)), lambda: instrument_extremal(spec)], 1
    seed = int(name[-1])
    if name.startswith("instrument"):
        spec = rand_covariant_instrument(np.random.default_rng(seed), _a3(), 2, 2)
    else:
        spec = rand_covariant_observable(np.random.default_rng(seed), _a3(), 3).as_instrument()
    return [lambda: instrument_from_B(B_from_instrument(spec), spec.symmetry), lambda: instrument_extremal(spec)], 2


@pytest.mark.parametrize("name", list(_inputs()))
def test_built_instruments_and_neighbours_cover_the_dense_residual(monkeypatch, name):
    runs, inputs = _built(name)
    rows, dense = _spy(monkeypatch)
    for run in runs:
        run()
    # each built instrument and each neighbour on its rows, with no dense fallback
    assert len(dense) == inputs and len(rows) >= 1
    assert all(got.ok for _, got in rows)
    for spec, got in rows:
        _assert_covers(spec, got)


def _perturbed_family(kind, seed):
    """The base family of :func:`_family_case` moved by 1e-6: it breaks the
    subgroup invariance, so the instrument built from it is not covariant."""
    spec = _family_case(kind, seed)
    b = np.stack(B_from_instrument(spec).b_ops)
    rng = np.random.default_rng(100 + seed)
    b = b + 1e-6 * (rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape))
    return CovariantInstrumentData(tuple(b)), spec.symmetry


@pytest.mark.parametrize("kind, seed", [("instrument", 1), ("instrument", 2), ("instrument", 3), ("observable", 0), ("observable", 1), ("observable", 2)])
def test_perturbed_families_are_covered(monkeypatch, kind, seed):
    data, symmetry = _perturbed_family(kind, seed)
    rows, dense = _spy(monkeypatch)
    got = Checks()
    spec = instrument_from_B(data, symmetry, LOOSE, got)
    assert dense == [] and len(rows) == 1
    want = _assert_covers(spec, got, LOOSE, rounding=False)
    assert want["covariance"].residual > 1e-8


def _certify(spec, rows, middle, tol):
    """The row certificate of one instrument with Choi blocks R_w^+ P R_w."""
    (checks,) = ins._validate_rows([spec], rows, middle[None], tol)
    return checks


def _rows_and_spec(rows, middle, symmetry):
    flat = rows.reshape(rows.shape[0], rows.shape[1], -1)
    return ins.InstrumentSpec(flat.conj().transpose(0, 2, 1) @ middle @ flat, symmetry)


def _phase_space_rows(d, rank=2):
    b = np.stack(_phase_space(d, rank))
    spec = phase_space(d, list(b))
    return ins._outcome_rows(b, spec.symmetry, spec.symmetry.sub.section), spec.symmetry


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("middle", ["identity", "neighbour"])
def test_perturbed_rows_are_covered(monkeypatch, d, middle):
    # rows of outcome 0 moved by 1e-6, under P = I or a boundary neighbour I + X
    rows, symmetry = _phase_space_rows(d)
    r = rows.shape[1]
    p = np.eye(r) + (np.diag(np.linspace(-1, 1, r)) if middle == "neighbour" else 0)
    rng = np.random.default_rng(d)
    rows = rows.copy()
    rows[0] += 1e-6 * (rng.normal(size=rows[0].shape) + 1j * rng.normal(size=rows[0].shape))
    spec = _rows_and_spec(rows, p, symmetry)
    _, dense = _spy(monkeypatch)
    got = _certify(spec, rows, p, LOOSE)
    assert dense == [] and got.ok
    want = _assert_covers(spec, got, LOOSE, rounding=False)
    assert want["covariance"].residual > 1e-8


@pytest.mark.parametrize("kind, seed", [("instrument", 1), ("instrument", 3), ("observable", 0)])
def test_a_middle_off_the_commutant_is_covered(monkeypatch, kind, seed):
    spec = _family_case(kind, seed)
    b = np.stack(B_from_instrument(spec).b_ops)
    rows = ins._outcome_rows(b, spec.symmetry, spec.symmetry.sub.section)
    r = rows.shape[1]
    p = np.eye(r) + 0.3 * np.diag(np.linspace(-1, 1, r)) + 0.1j * (np.eye(r, k=1) - np.eye(r, k=-1))
    built = _rows_and_spec(rows, p, spec.symmetry)
    _, dense = _spy(monkeypatch)
    got = _certify(built, rows, p, LOOSE)
    assert dense == [] and got.ok
    # P does not commute with the W_h that move the rows, so the blocks are far from covariant
    assert _assert_covers(built, got, LOOSE, rounding=False)["covariance"].residual > 1e-3


def test_a_dependent_family_gets_the_dense_verdict(monkeypatch):
    # two equal members: the row move of the pseudo-inverse is no unitary remix,
    # so the row certificate fails and validate_instrument decides
    (b,) = _phase_space(3, rank=1)
    rows, dense = _spy(monkeypatch)
    got = Checks()
    spec = phase_space(3, [b / np.sqrt(2), b / np.sqrt(2)], certificate=got)
    assert len(rows) == 1 and len(dense) == 1
    assert got == validate_instrument(spec) and got.ok


def test_a_dependent_neighbour_middle_falls_back(monkeypatch):
    # an indefinite middle that no block sees: the negative direction of P is
    # outside every row space, so positivity holds for the blocks but not for P
    rows, symmetry = _phase_space_rows(3, rank=1)
    rows = np.concatenate([rows, rows], axis=1) / np.sqrt(2)
    p = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1, (1, -1) spans the kernel of every block
    spec = _rows_and_spec(rows, p, symmetry)
    _, dense = _spy(monkeypatch)
    got = _certify(spec, rows, p, ins.DEFAULT_TOL)
    assert len(dense) == 1
    assert got == validate_instrument(spec)


def test_middles_certified_together_match_one_at_a_time():
    # the neighbours share one row move: a stack of middles gives each one's certificate,
    # here one that passes, one past the boundary (dense fallback) and one off the commutant
    spec = _family_case("instrument", 1)
    b = np.stack(B_from_instrument(spec).b_ops)
    rows = ins._outcome_rows(b, spec.symmetry, spec.symmetry.sub.section)
    r = rows.shape[1]
    x = np.diag(np.linspace(-1, 1, r))
    middles = np.stack([np.eye(r) + x, np.eye(r) + 1.5 * x, np.eye(r) + 0.2j * (np.eye(r, k=1) - np.eye(r, k=-1))])
    specs = [_rows_and_spec(rows, m, spec.symmetry) for m in middles]
    together = ins._validate_rows(specs, rows, middles, LOOSE)
    assert together == [_certify(one, rows, m, LOOSE) for one, m in zip(specs, middles)]
    assert [c.ok for c in together] == [True, False, True]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_middle_past_the_boundary_fails_positivity(monkeypatch, d):
    # I + 1.5 X, X of norm 1: one eigenvalue is -0.5 and the rows are independent, so
    # the blocks are indefinite; the dense verdict decides, and covariance still holds
    rows, symmetry = _phase_space_rows(d)
    r = rows.shape[1]
    p = np.eye(r) + 1.5 * np.diag(np.linspace(-1, 1, r))
    spec = _rows_and_spec(rows, p, symmetry)
    _, dense = _spy(monkeypatch)
    got = _certify(spec, rows, p, ins.DEFAULT_TOL)
    assert len(dense) == 1
    assert got == validate_instrument(spec)
    assert not got["outcomes_cp"].ok and got["covariance"].ok


@pytest.mark.parametrize("d", [2, 3])
def test_a_wrong_move_is_not_certified(d):
    # rows of outcome 0 replaced by those of outcome 1: no unitary remix moves them
    rows, symmetry = _phase_space_rows(d)
    rows = rows.copy()
    rows[0] = rows[1]
    spec = _rows_and_spec(rows, np.eye(rows.shape[1]), symmetry)
    got = _certify(spec, rows, np.eye(rows.shape[1]), ins.DEFAULT_TOL)
    assert not got["covariance"].ok
    assert got == validate_instrument(spec)


# -- the chunked dense certificate ------------------------------------------


def _covariance_cases():
    spec = phase_space(4, _phase_space(4))
    broken = ins.InstrumentSpec(spec.choi.copy(), spec.symmetry)
    broken.choi[[0, 1]] += 1e-6 * (spec.choi[[1, 0]] - spec.choi[[0, 1]])
    cpmap = rand_covariant_cpmap(np.random.default_rng(5), (2, 1, 2), FiniteGroup.symmetric(3), n_v=2)
    return [
        ("instrument", lambda: validate_instrument(spec)["covariance"]),
        ("broken instrument", lambda: validate_instrument(broken)["covariance"]),
        ("cp form", lambda: cp_validate(as_cpmap(phase_space(3, _phase_space(3))))["covariant"]),
        ("mixed blocks", lambda: cp_validate(cpmap)["covariant"]),
        ("many chunks", lambda: validate_instrument(phase_space(9, _phase_space(9)))["covariance"]),
    ]


@pytest.mark.parametrize("name, check", _covariance_cases())
def test_chunked_covariance_equals_the_one_shot_residual(monkeypatch, name, check):
    monkeypatch.setattr(cpmaps, "_COVARIANCE_CHUNK", 1 << 40)
    whole = check()
    for chunk in (1, 5000, 1 << 17):
        monkeypatch.setattr(cpmaps, "_COVARIANCE_CHUNK", chunk)
        part = check()
        assert part.ok == whole.ok
        assert abs(part.residual - whole.residual) <= 1e-15 * max(part.residual, whole.residual)


def test_the_largest_corpus_covariance_is_one_chunk(monkeypatch):
    # the d = 6 rank-2 phase-space instrument: 2 generators, 36 blocks of 36 x 36
    calls = []
    moved = cpmaps._moved

    def counted(*args):
        calls.append(args[0].shape)
        return moved(*args)

    monkeypatch.setattr(cpmaps, "_moved", counted)
    validate_instrument(phase_space(6, _phase_space(6)))
    assert calls == [(36, 36, 36)]
