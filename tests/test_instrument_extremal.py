"""Instrument extremality on the base fiber: cross-checks against the CP-form
route, the closed form on phase space, and mutants of each certificate."""

import numpy as np
import pytest

from covkit import cpmaps, numlin
from covkit import instruments as ins
from covkit.fingroup import FiniteGroup
from covkit.instruments import (
    B_from_instrument,
    CovariantInstrumentData,
    instrument_extremal,
    phase_space,
    validate_instrument,
)
from covkit.kernels import DilationResidualError
from covkit.numlin import frob
from covkit.random import all_subgroups, rand_covariant_instrument
from oracles import instrument_extremal_cpform


def _phase_space(d, rank):
    ops = [np.diag(np.eye(d)[k]).astype(complex) / np.sqrt(rank * d) for k in range(rank)]
    return phase_space(d, ops)


def _assert_splits(spec, cert):
    plus, minus = cert.perturbed
    for nb in cert.perturbed:
        assert validate_instrument(nb).ok
    assert np.allclose(0.5 * (plus.choi + minus.choi), spec.choi, atol=1e-9)
    assert frob(plus.choi - minus.choi) > 1e-6


@pytest.fixture(scope="module")
def random_instruments():
    """Seeded covariant instruments over S_3, D_4 and S_4: one per order of
    subgroup, trivial to whole group, with K, V <= 3."""
    rng = np.random.default_rng(1506)
    dims = [(1, 2), (2, 2), (2, 3), (3, 2)]
    out = []
    for group in (FiniteGroup.symmetric(3), FiniteGroup.dihedral(4), FiniteGroup.symmetric(4)):
        seen = set()
        for sub in all_subgroups(group):
            if len(sub.members) in seen:
                continue
            seen.add(len(sub.members))
            k_dim, v_dim = dims[len(out) % len(dims)]
            out.append(rand_covariant_instrument(rng, sub, k_dim=k_dim, v_dim=v_dim))
    return out


@pytest.fixture(scope="module")
def split_case(random_instruments):
    """A non-extreme random instrument whose subgroup is nontrivial."""
    for spec in random_instruments:
        if len(spec.symmetry.sub.members) > 1 and not instrument_extremal(spec).extreme:
            return spec
    raise AssertionError("no non-extreme instrument with nontrivial subgroup in the sample")


@pytest.mark.parametrize("d, rank", [(d, r) for d in (2, 3, 4) for r in (1, 2, 3) if r <= d])
def test_phase_space_freedom_is_r_squared_minus_one_and_matches_the_cp_form(d, rank):
    spec = _phase_space(d, rank)
    cert = instrument_extremal(spec)
    oracle = instrument_extremal_cpform(spec)
    assert cert.freedom == oracle.freedom == rank * rank - 1
    assert cert.extreme == oracle.extreme == (rank == 1)
    if not cert.extreme:
        # the witness lives on the base fiber: I_K (x) X on C^K (x) C^r
        x = cert.witness[:rank, :rank]
        assert cert.witness.shape == (d * rank, d * rank)
        assert np.allclose(cert.witness, np.kron(np.eye(d), x), atol=1e-12)
        assert np.allclose(x, x.conj().T) and np.isclose(np.linalg.norm(x, 2), 1.0)
        _assert_splits(spec, cert)


def test_random_instruments_match_the_cp_form_route(random_instruments):
    orders = {len(spec.symmetry.sub.members) for spec in random_instruments}
    assert orders >= {1, 2, 3, 4, 6, 8, 24}
    split_nontrivial = 0
    for spec in random_instruments:
        cert = instrument_extremal(spec)
        oracle = instrument_extremal_cpform(spec)
        assert (cert.extreme, cert.freedom) == (oracle.extreme, oracle.freedom)
        if not cert.extreme:
            _assert_splits(spec, cert)
            split_nontrivial += len(spec.symmetry.sub.members) > 1
    assert split_nontrivial >= 2


def test_multiplicity_rep_is_unitary_and_intertwines(split_case):
    # a Kraus family off the eigenbasis gauge, so W_h is neither diagonal nor symmetric
    sym = split_case.symmetry
    b = np.stack(B_from_instrument(split_case).b_ops)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(len(b),) * 2) + 1j * rng.normal(size=(len(b),) * 2))
    b = np.einsum("lm,mav->lav", q, b)
    ws = ins._multiplicity_rep(CovariantInstrumentData(tuple(b)), sym, ins.DEFAULT_TOL)
    members = [h for h in sym.sub.members if h != sym.group.identity]
    assert len(ws) == len(members)
    assert max(np.abs(w - w.T).max() for w in ws) > 1e-3
    for h, w in zip(members, ws):
        assert np.allclose(w.conj().T @ w, np.eye(len(b)), atol=1e-9)
        moved = sym.out_rep(h) @ b @ sym.rep(h).conj().T
        assert np.allclose(moved, np.einsum("lm,mav->lav", w, b), atol=1e-9)


def test_non_unitary_multiplicity_rep_raises(monkeypatch, split_case):
    solve = ins.unitary_moves
    monkeypatch.setattr(ins, "unitary_moves", lambda src, dst: solve(src, dst, 2.0 * solve(src, dst)[0]))
    with pytest.raises(DilationResidualError, match="multiplicity representation is not unitary"):
        instrument_extremal(split_case)


def test_unitary_multiplicity_rep_that_does_not_move_the_family_raises(monkeypatch, split_case):
    # i W_h is unitary and has the same commutant, but does not move B_l to u(h) B_l rep(h)^+
    solve = ins.unitary_moves
    monkeypatch.setattr(ins, "unitary_moves", lambda src, dst: solve(src, dst, 1j * solve(src, dst)[0]))
    with pytest.raises(DilationResidualError, match="does not move the Kraus family"):
        instrument_extremal(split_case)


def test_basis_element_breaking_the_compression_raises(monkeypatch, split_case):
    # the identity commutes with every W_h, but sum_w L_w^+ L_w = I is not zero
    solve = ins.constrained_commutant

    def padded(generators, compressions, *, layout, tol):
        n = sum(k * r for k, r in layout)
        return solve(generators, compressions, layout=layout, tol=tol) + [np.eye(n) / np.sqrt(n)]

    monkeypatch.setattr(ins, "constrained_commutant", padded)
    for spec in (_phase_space(2, 2), split_case):
        with pytest.raises(DilationResidualError, match="compressed to zero"):
            instrument_extremal(spec)


def test_neighbour_outside_the_face_raises(monkeypatch, split_case):
    witness = ins._hermitian_witness
    monkeypatch.setattr(ins, "_hermitian_witness", lambda basis, tol: 3.0 * witness(basis, tol))
    for spec in (_phase_space(2, 2), split_case):
        with pytest.raises((DilationResidualError, ins.StructureViolation)):
            instrument_extremal(spec)


def test_neighbours_that_do_not_split_the_input_raise(monkeypatch):
    # both neighbours valid instruments, but the plus one is the input itself
    spec = _phase_space(2, 2)
    base = B_from_instrument(spec)
    build, calls = ins.instrument_from_B, []

    def plus_unperturbed(data, symmetry, tol=ins.DEFAULT_TOL):
        calls.append(data)
        # call 1 is the round trip inside B_from_instrument, call 2 the plus neighbour
        return build(base if len(calls) == 2 else data, symmetry, tol)

    monkeypatch.setattr(ins, "instrument_from_B", plus_unperturbed)
    with pytest.raises(DilationResidualError, match="do not split the input"):
        instrument_extremal(spec)


def test_each_neighbour_is_validated_once(monkeypatch, split_case):
    calls = []
    validate = ins.validate_instrument

    def counted(spec, tol=ins.DEFAULT_TOL):
        calls.append(spec)
        return validate(spec, tol)

    cp_calls = []
    cp_validate = cpmaps.cp_validate

    def cp_counted(spec, tol=ins.DEFAULT_TOL):
        cp_calls.append(spec)
        return cp_validate(spec, tol)

    monkeypatch.setattr(ins, "validate_instrument", counted)
    monkeypatch.setattr(cpmaps, "cp_validate", cp_counted)
    for spec in (_phase_space(2, 2), split_case):
        calls.clear()
        cert = instrument_extremal(spec)
        assert not cert.extreme
        for nb in cert.perturbed:
            assert sum(c is nb for c in calls) == 1
        # the input in B_from_instrument (its round trip is not validated again), then one per neighbour
        assert len(calls) == 3
    # no neighbour is validated a second time in its CP form
    assert cp_calls == []


def test_no_cp_form_and_no_dilation(monkeypatch, random_instruments, split_case):
    def forbidden(*args, **kwargs):
        raise AssertionError("the base-fiber route must not build the CP form or its dilation")

    for module, name in ((ins, "as_cpmap"), (cpmaps, "ksgns"), (cpmaps, "cp_extremal"), (cpmaps, "cp_validate")):
        monkeypatch.setattr(module, name, forbidden)
    for spec in (_phase_space(2, 1), _phase_space(3, 2), *random_instruments[:4], split_case):
        instrument_extremal(spec)
