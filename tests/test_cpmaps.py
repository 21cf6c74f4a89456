import json
from dataclasses import replace

import numpy as np
import pytest

from covkit import kernels, specfile
from covkit.cli import main
from covkit.constructions import marginals, subminimal
from covkit.cpmaps import CPMapSpec, cp_extremal, cp_validate, kraus_extract, kraus_from_choi, ksgns
from covkit.cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from covkit.fingroup import FiniteGroup
from covkit.instruments import as_cpmap, phase_space
from covkit.kernels import DilationResidualError
from covkit.numlin import rank as num_rank
from covkit.random import rand_covariant_cpmap, rand_unitary

from oracles import choi_extreme, commutation_loop, factor_rep_tensor, has_bar, multiplicativity_loop, twist_loop

M2 = FiniteCStarAlgebra.full(2)


def channel_spec(kraus_ops, n_out=2):
    """Heisenberg-picture map b -> sum_i A_i^+ b A_i as a CPMapSpec."""
    n_v = kraus_ops[0].shape[1]
    alg = FiniteCStarAlgebra.full(n_out)
    values = np.stack(
        [sum(a.conj().T @ u @ a for a in kraus_ops) for u in alg.units()]
    )
    return CPMapSpec(alg, ModuleSpace(k=1, n_v=n_v), values)


def identity_channel():
    return channel_spec([np.eye(2, dtype=complex)])


def trace_form():
    values = np.stack([[[np.trace(u)]] for u in M2.units()])
    return CPMapSpec(M2, ModuleSpace(k=1, n_v=1), values)


def transpose_map():
    values = np.stack([u.T for u in M2.units()])
    return CPMapSpec(M2, ModuleSpace(k=1, n_v=2), values)


def depolarizing():
    values = np.stack([np.trace(u) / 2.0 * np.eye(2) for u in M2.units()])
    return CPMapSpec(M2, ModuleSpace(k=1, n_v=2), values)


def test_trace_form_is_cp():
    report = cp_validate(trace_form())
    assert report["completely_positive"].ok and report.ok
    # normality is automatic at finite dimension: no placeholder verdict
    assert list(report) == ["completely_positive", "covariant"]


def test_transpose_is_not_cp():
    assert not cp_validate(transpose_map())["completely_positive"].ok


def test_zero_map_flagged(tmp_path, capsys):
    spec = CPMapSpec(M2, ModuleSpace(k=1, n_v=1), np.zeros((4, 1, 1)))
    assert cp_validate(spec)["completely_positive"].ok
    path = tmp_path / "zero.json"
    path.write_text(specfile.document("cpmap", specfile.cpmap_out(spec)))
    assert main(["validate", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["warning"]["message"] == "the map is zero"


def test_ksgns_identity_channel():
    dil = ksgns(identity_channel())
    assert dil.rank == 2
    # the algebra representation is (equivalent to) the identity representation
    r, v = factor_rep_tensor(dil.pi_units, M2)
    assert r == (1,)
    assert np.allclose(dil.j @ dil.j.conj().T, np.eye(2), atol=1e-9)


def test_ksgns_trace_form():
    spec = trace_form()
    dil = ksgns(spec)
    # grand kernel is the 4x4 Hilbert-Schmidt Gram of the matrix units
    assert dil.rank == 4
    r, _ = factor_rep_tensor(dil.pi_units, M2)
    assert r == (2,)
    assert abs(np.linalg.norm(dil.j) ** 2 - 2.0) < 1e-9  # j^+ j = tr(I) = 2
    ops = kraus_extract(spec, dil)
    assert len(ops) == 2


def test_ksgns_depolarizing():
    spec = depolarizing()
    dil = ksgns(spec)
    assert dil.rank == 8
    ops = kraus_extract(spec, dil)
    assert len(ops) == 4
    total = sum(a.conj().T @ a for a in ops)
    assert np.allclose(total, np.eye(2), atol=1e-9)


def test_choi_rank_equals_kraus_count():
    rng = np.random.default_rng(21)
    for _ in range(5):
        k = int(rng.integers(1, 4))
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(k)]
        spec = channel_spec(ops)
        dil = ksgns(spec)
        extracted = kraus_extract(spec, dil)
        assert len(extracted) == num_rank(spec.choi())


def test_kraus_extract_reads_the_choi_factors_off_j():
    rng = np.random.default_rng(23)
    specs = [trace_form(), depolarizing(), identity_channel()]
    specs += [rand_covariant_cpmap(rng, (n,), FiniteGroup.cyclic(3), n_v=2) for n in (2, 3)]
    for spec in specs:
        n, nv = spec.algebra.blocks[0], spec.n_v
        ops = kraus_extract(spec, ksgns(spec))
        want = kraus_from_choi(spec.choi(), n, nv)
        assert len(ops) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(ops, want))


def test_kraus_extract_checks_the_dilation_against_the_map():
    # the dilation of the identity channel does not reconstruct the depolarizing map
    spec, foreign = depolarizing(), ksgns(identity_channel())
    before = dict(foreign.checks)
    with pytest.raises(DilationResidualError, match="reconstruction"):
        kraus_extract(spec, foreign)
    assert foreign.checks == before  # the certifier fills a fresh certificate
    assert len(kraus_extract(spec, ksgns(spec))) == 4


def test_kraus_reproduces_on_random_elements():
    rng = np.random.default_rng(22)
    spec = depolarizing()
    dil = ksgns(spec)
    ops = kraus_extract(spec, dil)
    for _ in range(20):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        direct = spec.value_of(b)
        via_kraus = sum(a.conj().T @ b @ a for a in ops)
        assert np.linalg.norm(direct - via_kraus) <= 1e-8 * max(1.0, np.linalg.norm(direct))


def test_identity_channel_extreme():
    spec = identity_channel()
    cert = cp_extremal(spec)
    assert cert.extreme
    assert choi_extreme(spec)


def test_unitary_mixture_not_extreme():
    rng = np.random.default_rng(23)
    u, v = rand_unitary(rng, 2), rand_unitary(rng, 2)
    for w in (0.25, 0.5, 0.75):
        spec = channel_spec([np.sqrt(w) * u, np.sqrt(1 - w) * v])
        cert = cp_extremal(spec)
        assert not cert.extreme
        assert not choi_extreme(spec)
        for neighbour in cert.perturbed:
            rep = cp_validate(neighbour)
            assert rep["completely_positive"].ok
            assert np.allclose(neighbour.unit_value(), spec.unit_value(), atol=1e-8)
    for w in (0.0, 1.0):
        spec = channel_spec([np.sqrt(w) * u + 0.0j] if w else [v])
        assert cp_extremal(spec).extreme


def test_depolarizing_not_extreme_matches_oracle():
    spec = depolarizing()
    cert = cp_extremal(spec)
    assert cert.extreme == choi_extreme(spec)
    assert not cert.extreme


def _document(spec):
    """``spec`` as the cpmap document ``covkit`` reads, read back."""
    return specfile.load(specfile.document("cpmap", specfile.cpmap_out(spec)))[1]


def test_choi_criterion_decides_extremality_without_a_symmetry():
    # random Kraus families on M_n: k <= n_V operators are generically
    # independent in the V_i^+ V_j sense, k = n_V + 1 never; unitary mixtures
    # repeat the identity among the products at every k
    rng = np.random.default_rng(41)
    specs = []
    for n in (1, 2, 3):
        for nv in (1, 2, 3):
            for k in range(1, min(n * nv, nv + 1) + 1):
                ops = [rng.normal(size=(n, nv)) + 1j * rng.normal(size=(n, nv)) for _ in range(k)]
                specs.append(_document(channel_spec(ops, n)))
    for n, weights in ((2, (0.5, 0.5)), (3, (0.2, 0.8)), (3, (0.1, 0.3, 0.6))):
        specs.append(_document(channel_spec([np.sqrt(w) * rand_unitary(rng, n) for w in weights], n)))
    found = [(choi_extreme(spec), cp_extremal(spec).extreme) for spec in specs]
    assert all(oracle == engine for oracle, engine in found), found
    assert {oracle for oracle, _ in found} == {True, False}


def test_choi_extreme_covariant_maps_are_covariantly_extreme():
    # an extreme point of a convex set is extreme in every convex subset that
    # holds it, such as the covariant maps with the same unit value
    rng = np.random.default_rng(42)
    found = []
    for blocks, group in (((2,), FiniteGroup.cyclic(2)), ((3,), FiniteGroup.cyclic(3)), ((2,), FiniteGroup.symmetric(3)), ((3,), FiniteGroup.dihedral(4))):
        for _ in range(6):
            spec = _document(rand_covariant_cpmap(rng, blocks, group, n_v=2))
            found.append((choi_extreme(spec), cp_extremal(spec).extreme))
    assert all(engine for oracle, engine in found if oracle), found
    # both verdicts of the oracle occur, and the converse fails somewhere
    assert {oracle for oracle, _ in found} == {True, False}
    assert (False, True) in found


@pytest.mark.parametrize(
    "blocks,group",
    [((2,), FiniteGroup.cyclic(2)), ((3,), FiniteGroup.cyclic(3)), ((2, 1), FiniteGroup.symmetric(3))],
)
def test_random_covariant_cpmaps_certify(blocks, group):
    rng = np.random.default_rng(sum(blocks) * 100 + group.order)
    for _ in range(3):
        spec = rand_covariant_cpmap(rng, blocks, group, n_v=2)
        report = cp_validate(spec)
        assert report.ok, report
        dil = ksgns(spec)
        assert dil.checks["reconstruction"].residual <= 1e-8
        assert multiplicativity_loop(spec.algebra, dil.pi_units) == 0.0
        assert dil.checks["sym_j"].residual <= 1e-8
        assert twist_loop(dil) <= 1e-12
        if has_bar(dil):
            assert commutation_loop(dil) <= 1e-12


def product_tensor_spec(state=(0.25, 0.75)):
    split = TensorSplit(M2, FiniteCStarAlgebra.commutative(2))
    values = []
    for k, (i, a, b) in enumerate(split.algebra.unit_index()):
        # block i of the product corresponds to the point omega = i
        unit = np.zeros((2, 2), dtype=complex)
        unit[a, b] = 1.0
        values.append(state[i] * unit)
    return CPMapSpec(
        split.algebra, ModuleSpace(k=1, n_v=2), np.stack(values), tensor=split
    )


def test_marginals_of_product_map():
    spec = product_tensor_spec()
    first, second = marginals(spec)
    assert cp_validate(first).ok and cp_validate(second).ok
    assert np.allclose(first.unit_value(), spec.unit_value(), atol=1e-10)
    assert np.allclose(second.unit_value(), spec.unit_value(), atol=1e-10)
    # first marginal is the identity channel, second the state times identity
    assert np.allclose(first.values, np.stack(list(M2.units())), atol=1e-10)


def test_subminimal_product_map_gives_state_times_identity():
    spec = product_tensor_spec()
    first, _ = marginals(spec)
    dil = ksgns(first)
    sub = subminimal(spec, dil)
    assert np.allclose(sub.e_units[0], 0.25 * np.eye(dil.rank), atol=1e-9)
    assert np.allclose(sub.e_units[1], 0.75 * np.eye(dil.rank), atol=1e-9)


def lueders_tensor_spec():
    split = TensorSplit(M2, FiniteCStarAlgebra.commutative(2))
    projs = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    values = []
    for k, (i, a, b) in enumerate(split.algebra.unit_index()):
        unit = np.zeros((2, 2), dtype=complex)
        unit[a, b] = 1.0
        values.append(projs[i] @ unit @ projs[i])
    return CPMapSpec(
        split.algebra, ModuleSpace(k=1, n_v=2), np.stack(values), tensor=split
    )


def test_subminimal_lueders_is_projection_valued():
    spec = lueders_tensor_spec()
    first, second = marginals(spec)
    dil = ksgns(first)
    sub = subminimal(spec, dil)
    total = sub.e_units.sum(axis=0)
    assert np.allclose(total, np.eye(dil.rank), atol=1e-9)
    for e in sub.e_units:
        assert np.allclose(e @ e, e, atol=1e-8)


def test_joint_map_unique_when_first_marginal_extreme():
    # the first marginal here is the identity channel, an extreme point, so
    # a joint map is pinned down by its marginals: the subminimal values are
    # forced to the scalars determined by the second marginal
    spec = product_tensor_spec(state=(0.3, 0.7))
    first, second = marginals(spec)
    assert cp_extremal(first).extreme
    dil = ksgns(first)
    sub = subminimal(spec, dil)
    for w, p in enumerate((0.3, 0.7)):
        assert np.allclose(sub.e_units[w], p * np.eye(dil.rank), atol=1e-9)
        # and the scalar is exactly the second marginal's value
        assert abs(second.values[w][0, 0] / second.unit_value()[0, 0] - p) < 1e-9


def test_subminimal_unital_always():
    spec = product_tensor_spec(state=(0.5, 0.5))
    first, _ = marginals(spec)
    dil = ksgns(first)
    sub = subminimal(spec, dil)
    one = sub.e_units.sum(axis=0)
    assert np.allclose(one, np.eye(dil.rank), atol=1e-9)


# ---------------------------------------------------------------------------
# the dilation layout, and the re-validated split
# ---------------------------------------------------------------------------


def test_cp_extremal_rejects_a_dilation_off_the_block_layout():
    spec = rand_covariant_cpmap(np.random.default_rng(29), (2, 1), FiniteGroup.symmetric(3), n_v=2)
    dil = ksgns(spec)
    # multiplicities that do not fill the space cannot be built at all
    with pytest.raises(DilationResidualError, match="multiplicities"):
        replace(dil, mult=(dil.mult[0] + 1, dil.mult[1]))


def _split_case():
    spec = as_cpmap(phase_space(2, [np.diag([0.5, 0.0]).astype(complex), np.diag([0.0, 0.5]).astype(complex)]))
    cert = cp_extremal(spec)
    assert not cert.extreme and cert.freedom == 3
    return spec, cert


def test_cp_extremal_split_revalidates():
    spec, cert = _split_case()
    plus, minus = cert.perturbed
    assert cp_validate(plus).ok and cp_validate(minus).ok
    assert np.allclose(plus.unit_value(), spec.unit_value(), atol=1e-10)
    assert np.allclose(0.5 * (plus.values + minus.values), spec.values, atol=1e-10)


def test_split_that_moves_the_unit_value_raises(monkeypatch):
    # W = I / 2 commutes with everything and keeps both neighbours CP, but j^+ W j != 0
    monkeypatch.setattr(kernels, "_hermitian_witness", lambda basis, tol: 0.5 * np.eye(len(basis[0])))
    with pytest.raises(DilationResidualError, match="unit_value"):
        _split_case()

