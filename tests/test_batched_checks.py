"""The row-batched group, action, subgroup, cocycle and representation checks
against their element-by-element loop forms in ``oracles``.

The subgroup check must report the same first violation in lexicographic
order, or raise the same message, as its loop over every element, on valid
inputs, on one corruption and on two corruptions at once.  The group table,
action, cocycle and representation checks run on the group's generators:
they must report the first violation of the loop restricted to the
generators, and reach the same verdict as the loop over every element.  The
coset space, the dihedral table and the clock-and-shift system must equal
their loop forms bit for bit.
The kernel, CP-map, observable and instrument covariance residuals must
equal their loop forms over the generators on valid and perturbed inputs,
and bound the loop over every element through ``max_word_length``; the
stacked solve and certificate of the Kolmogorov decomposition must equal
their loop forms.
"""

from dataclasses import replace

import numpy as np
import pytest

from covkit.constructions import marginal_observable
from covkit.fingroup import (
    FiniteGroup,
    GroupAction,
    GroupStructureError,
    MultiplierRep,
    SubgroupData,
    TwoCocycle,
    cocycle_violation,
    heisenberg_rep,
    rep_violation,
)
from covkit.cpmaps import cp_validate
from covkit.instruments import as_cpmap, phase_space, validate_instrument, validate_observable
from covkit.kernels import DilationResidualError, _certify_kolmogorov, kolmogorov_decompose, validate_kernel
from covkit.numlin import Tolerances
from covkit.random import (
    all_subgroups,
    rand_covariant_cpmap,
    rand_covariant_instrument,
    rand_covariant_kernel,
    rand_covariant_observable,
)
from oracles import (
    action_violation,
    alpha_cocycle_loop,
    choi_covariance_loop,
    cocycle_loop,
    cocycle_violation_loop,
    dihedral_loop,
    group_table_violation,
    heisenberg_loop,
    instrument_covariance_loop,
    kernel_covariance_loop,
    kolmogorov_loop,
    observable_covariance_loop,
    rep_violation_loop,
    subgroup_loop,
    subgroup_violation,
)

GROUPS = {
    "trivial": FiniteGroup.trivial(),
    "Z2": FiniteGroup.cyclic(2),
    "Z5": FiniteGroup.cyclic(5),
    "Z6": FiniteGroup.cyclic(6),
    "D4": FiniteGroup.dihedral(4),
    "S3": FiniteGroup.symmetric(3),
    "S4": FiniteGroup.symmetric(4),
    "Z5xZ5": FiniteGroup.direct_product(FiniteGroup.cyclic(5), FiniteGroup.cyclic(5)),
    "Z3xZ3": FiniteGroup.direct_product(FiniteGroup.cyclic(3), FiniteGroup.cyclic(3)),
}
NAMES = sorted(GROUPS)


def _rng(name, salt=0):
    return np.random.default_rng([sum(map(ord, name)), salt])


def _swap_in_row(rng, table):
    """Swap two entries of one row; returns False if no row has two."""
    if table.shape[1] < 2:
        return False
    row = int(rng.integers(table.shape[0]))
    i, j = rng.choice(table.shape[1], size=2, replace=False)
    table[row, [i, j]] = table[row, [j, i]]
    return True


def _group_outcome(mul):
    try:
        FiniteGroup(mul)
    except GroupStructureError as exc:
        return str(exc)
    return None


def _action_outcome(group, table):
    try:
        GroupAction(group, table)
    except GroupStructureError as exc:
        return str(exc)
    return None


def _phases(rng, group):
    p = np.exp(2j * np.pi * rng.uniform(size=group.order))
    p[group.identity] = 1.0
    return p


def _twisted_regular(rng, group):
    """The regular representation times random phases: a projective
    representation with a coboundary cocycle."""
    return MultiplierRep.regular(group).twist(_phases(rng, group))


def _non_identity(rng, group, size):
    others = [g for g in group.elements() if g != group.identity]
    return [int(g) for g in rng.choice(others, size=size, replace=False)]


# ---------------------------------------------------------------------------
# group tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_group_table_matches_loop(name):
    mul = GROUPS[name].mul
    assert group_table_violation(mul) is None
    assert group_table_violation(mul, on_generators=True) is None
    assert _group_outcome(mul) is None
    rng = _rng(name)
    seen = set()
    for trial in range(12):
        bad = mul.copy()
        # one swapped pair, then two at once
        for _ in range(1 + trial % 2):
            if not _swap_in_row(rng, bad):
                return
        expected = group_table_violation(bad, on_generators=True)
        assert _group_outcome(bad) == expected
        # Light's test is exact: the same verdict as every middle element
        assert (expected is None) == (group_table_violation(bad) is None)
        seen.add(expected.split(" ")[0] if expected else None)
    # the corruptions reach more than one of the axioms
    assert len(seen) >= 2


def test_group_table_reports_first_associativity_failure():
    # a table whose first failure is an associativity failure, not a missing
    # inverse: swap whole columns, which keeps every row and column a permutation
    mul = GROUPS["S3"].mul.copy()
    mul[3:, [1, 2]] = mul[3:, [2, 1]]
    expected = group_table_violation(mul, on_generators=True)
    assert expected.startswith("associativity fails at")
    assert group_table_violation(mul).startswith("associativity fails at")
    assert _group_outcome(mul) == expected


# ---------------------------------------------------------------------------
# actions and subgroups
# ---------------------------------------------------------------------------


def _actions(group):
    out = [GroupAction.left_translation(group).table, GroupAction.trivial(group, 3).table]
    for sub in all_subgroups(group)[:3]:
        out.append(sub.coset_action().table)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_action_matches_loop(name):
    group = GROUPS[name]
    rng = _rng(name, 1)
    for table in _actions(group):
        assert action_violation(group, table) is None
        assert _action_outcome(group, table) is None
        for trial in range(6):
            bad = table.copy()
            for _ in range(1 + trial % 2):
                _swap_in_row(rng, bad)
            expected = action_violation(group, bad, on_generators=True)
            assert _action_outcome(group, bad) == expected
            # Light's test is exact: the same verdict as every element
            assert (expected is None) == (action_violation(group, bad) is None)


def test_action_and_subgroup_reject_out_of_range_entries():
    group = GROUPS["Z2"]
    with pytest.raises(GroupStructureError, match="out of range"):
        GroupAction(group, np.array([[0, 1], [1, 2]]))
    with pytest.raises(GroupStructureError, match="out of range"):
        GroupAction(group, np.array([[0, 1], [-1, 0]]))
    with pytest.raises(GroupStructureError, match="out of range"):
        SubgroupData(group, (0, 7))
    with pytest.raises(GroupStructureError, match="out of range"):
        SubgroupData(group, (-1, 0))


@pytest.mark.parametrize("name", ["D4", "S3", "S4", "Z6"])
def test_subgroup_closure_matches_loop(name):
    group = GROUPS[name]
    rng = _rng(name, 2)
    for sub in all_subgroups(group):
        assert subgroup_violation(group, sub.members) is None
    for _ in range(20):
        size = int(rng.integers(1, group.order))
        members = tuple(int(m) for m in rng.choice(group.order, size=size, replace=False))
        expected = subgroup_violation(group, members)
        try:
            SubgroupData(group, members)
            outcome = None
        except GroupStructureError as exc:
            outcome = str(exc)
        assert outcome == expected


@pytest.mark.parametrize("name", ["Z6", "D4", "S3", "S4", "Z3xZ3"])
def test_coset_space_matches_loop(name):
    group = GROUPS[name]
    for sub in all_subgroups(group):
        section, projection, action, sub_mul = subgroup_loop(group, sub.members)
        assert sub.section == section and sub.n_cosets == len(section)
        assert sub.projection.dtype == projection.dtype and sub.projection.tobytes() == projection.tobytes()
        assert sub.coset_action().table.tobytes() == action.tobytes()
        assert sub.subgroup_group().mul.tobytes() == sub_mul.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_dihedral_matches_loop(n):
    mul = FiniteGroup.dihedral(n).mul
    assert mul.dtype == np.int64 and np.array_equal(mul, dihedral_loop(n))


@pytest.mark.parametrize("d", range(1, 9))
def test_heisenberg_matches_loop(d):
    _, cocycle, rep = heisenberg_rep(d)
    mats, vals = heisenberg_loop(d)
    # bit for bit, the signs of zeros included: they reach the documents as -0.0
    assert rep.matrices.tobytes() == mats.tobytes()
    assert cocycle.values.tobytes() == vals.tobytes()


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------


def _cocycles(name):
    group = GROUPS[name]
    rng = _rng(name, 3)
    out = [TwoCocycle.trivial(group), TwoCocycle.coboundary(group, _phases(rng, group))]
    if name == "Z5xZ5":
        out.append(heisenberg_rep(5)[1])
    return out


@pytest.mark.parametrize("name", NAMES)
def test_cocycle_matches_loop(name):
    group = GROUPS[name]
    rng = _rng(name, 4)
    for c in _cocycles(name):
        assert cocycle_violation(c) is None
        assert cocycle_violation_loop(c) is None
        for count in (1, 2):
            if group.order < 2:
                break
            vals = c.values.copy()
            for _ in range(count):
                a, b = (int(x) for x in rng.integers(group.order, size=2))
                vals[a, b] *= np.exp(1e-3j)
            bad = TwoCocycle(group, vals)
            expected = cocycle_violation_loop(bad, on_generators=True)
            # on Z_2 every normalized table is a cocycle
            assert expected is not None or group.order == 2
            assert cocycle_violation(bad) == expected
            assert (cocycle_violation_loop(bad) is None) == (expected is None)
    # a perturbed modulus and a perturbed value at the identity
    vals = _cocycles(name)[-1].values.copy()
    vals[-1, -1] *= 1.01
    assert cocycle_violation(TwoCocycle(group, vals)) == cocycle_violation_loop(
        TwoCocycle(group, vals)
    )
    vals = _cocycles(name)[-1].values.copy()
    vals[group.identity, -1] = np.exp(0.1j)
    assert cocycle_violation(TwoCocycle(group, vals)) == ("normalization", group.order - 1)


def test_cocycle_two_corruptions_report_the_first():
    group = GROUPS["S4"]
    c = TwoCocycle.coboundary(group, _phases(np.random.default_rng(8), group))
    early, late = c.values.copy(), c.values.copy()
    early[5, 7] *= np.exp(1e-3j)
    late[17, 20] *= np.exp(1e-3j)
    both = early.copy()
    both[17, 20] *= np.exp(1e-3j)
    results = [cocycle_violation(TwoCocycle(group, v)) for v in (early, late, both)]
    assert results[2] == cocycle_violation_loop(TwoCocycle(group, both), on_generators=True)
    assert results[2] == min(results[0], results[1])


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


def _reps(name):
    group = GROUPS[name]
    rng = _rng(name, 5)
    out = [MultiplierRep.trivial(group, 2), _twisted_regular(rng, group)]
    if name == "Z5xZ5":
        out.append(heisenberg_rep(5)[2])
    return out


def _with(rep, mats, unitary_flag=None):
    flag = rep.unitary_flag if unitary_flag is None else unitary_flag
    return MultiplierRep(rep.group, rep.cocycle, mats, flag)


@pytest.mark.parametrize("name", NAMES)
def test_rep_matches_loop(name):
    group = GROUPS[name]
    rng = _rng(name, 6)
    for rep in _reps(name):
        assert rep_violation(rep) is None
        assert rep_violation_loop(rep) is None
        if group.order < 3:
            continue
        g1, g2 = sorted(_non_identity(rng, group, 2))
        rephased, scaled = rep.matrices.copy(), rep.matrices.copy()
        rephased[g2] *= np.exp(1e-3j)  # still unitary, breaks products
        scaled[g2] *= 1.01  # not unitary
        both = rephased.copy()
        both[g1] = rep.matrices[g1] @ rep.matrices[g1]  # unitary, wrong products
        for mats in (rephased, scaled, both):
            for flag in (True, False):
                bad = _with(rep, mats, flag)
                expected = rep_violation_loop(bad, on_generators=True)
                assert expected is not None and rep_violation_loop(bad) is not None
                assert rep_violation(bad) == expected
        # a non-unitary generator is reported as such
        s = group.generators()[-1]
        scaled = rep.matrices.copy()
        scaled[s] *= 1.01
        assert rep_violation(_with(rep, scaled)) == ("unitary", s)


def test_rep_identity_and_tolerances_match_loop():
    rep = _reps("S3")[1]
    ell = rep.group.max_word_length
    mats = rep.matrices.copy()
    mats[rep.group.identity] *= np.exp(1e-6j)
    assert rep_violation(_with(rep, mats)) == rep_violation_loop(_with(rep, mats)) == ("identity",)
    # a product error of 1e-7 relative: rejected at the default bound, not at 1e-6
    mats = rep.matrices.copy()
    mats[4] *= np.exp(1e-7j)
    loose = Tolerances(recon_fro=1e-6)
    assert rep_violation(_with(rep, mats)) == rep_violation_loop(_with(rep, mats), on_generators=True) is not None
    assert rep_violation_loop(_with(rep, mats)) is not None
    assert rep_violation(_with(rep, mats), loose) is None
    assert rep_violation_loop(_with(rep, mats), loose) is None
    # the bound scales with max(1, |rhs|) over the word length: |U(g)| =
    # sqrt(6) in the regular representation of S_3, and a phase of 0.4e-8 /
    # max_word_length on one U(g) moves no product by more than 0.8e-8 |rhs| / max_word_length
    mats = rep.matrices.copy()
    mats[4] *= np.exp(0.4e-8j / ell)
    assert rep_violation(_with(rep, mats)) is None
    assert rep_violation_loop(_with(rep, mats)) is None


def test_rep_non_finite_raises_like_loop():
    rep = _reps("S3")[1]
    mats = rep.matrices.copy()
    mats[2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        rep_violation_loop(_with(rep, mats))
    with pytest.raises(ValueError, match="NaN or Inf"):
        rep_violation(_with(rep, mats))
    # an earlier non-unitary matrix is reported before the non-finite one
    mats[1] *= 2.0
    assert rep_violation(_with(rep, mats)) == rep_violation_loop(_with(rep, mats)) == ("unitary", 1)


KERNEL_GROUPS = {"Z4": FiniteGroup.cyclic(4), "D4": GROUPS["D4"], "S3": GROUPS["S3"], "S4": GROUPS["S4"]}


def _kernels(name):
    """A random covariant kernel, and copies with one alpha entry, one block
    pair or one sigma entry perturbed."""
    rng = _rng(name, 3)
    group = KERNEL_GROUPS[name]
    spec = rand_covariant_kernel(rng, group, max_x=4, n_v=2)
    g = int(rng.integers(1, group.order))
    x, y = (int(i) for i in rng.integers(spec.x_size, size=2))
    alpha = spec.alpha.copy()
    alpha[g, x] *= np.exp(0.3j)
    blocks = spec.blocks.copy()
    blocks[x, y] += 1e-3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    sigma = spec.sigma.values.copy()
    sigma[g, g] *= np.exp(0.2j)
    return [
        (True, spec),
        (False, replace(spec, alpha=alpha)),
        (False, replace(spec, blocks=blocks)),
        (False, replace(spec, sigma=TwoCocycle(group, sigma))),
    ]


def _bounds_every_element(group, generator_residual, full_residual):
    """The loop over every element stays within max_word_length times the
    generator residual, up to roundoff."""
    return full_residual <= group.max_word_length * generator_residual + 1e-14


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_kernel_checks_match_loop(name):
    for valid, spec in _kernels(name):
        report = validate_kernel(spec)
        assert report.ok == valid
        want_alpha, want_cov = alpha_cocycle_loop(spec), kernel_covariance_loop(spec, on_generators=True)
        assert report["alpha_cocycle"].residual == pytest.approx(want_alpha, rel=1e-12, abs=1e-14)
        assert report["covariant"].residual == pytest.approx(want_cov, rel=1e-12, abs=1e-14)
        full = kernel_covariance_loop(spec)
        if report["alpha_cocycle"].ok:
            assert _bounds_every_element(spec.action.group, report["covariant"].residual, full)
        if not valid:
            assert max(want_alpha, full) > 1e-4


def test_kernel_alpha_residual_when_sigma_is_not_a_cocycle():
    group = GROUPS["Z2"]
    spec = rand_covariant_kernel(_rng("Z2", 4), group, max_x=2, n_v=1, nontrivial_alpha=False)
    spec = replace(spec, sigma=TwoCocycle(group, np.array([[1, 1], [1, 2]])))
    assert cocycle_violation(spec.sigma) is not None
    check = validate_kernel(spec)["alpha_cocycle"]
    assert not check.ok
    assert check.residual == 1.0


def _kolmogorov_cases(name):
    """Random covariant kernels over the group, and the zero kernel on the
    first one's index set."""
    group = KERNEL_GROUPS[name]
    rng = _rng(name, 5)
    specs = [rand_covariant_kernel(rng, group, max_x=4, n_v=2) for _ in range(4)]
    return rng, specs + [replace(specs[0], blocks=np.zeros_like(specs[0].blocks))]


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_kolmogorov_certificate_matches_loop(name):
    rng, specs = _kolmogorov_cases(name)
    assert any(np.abs(np.abs(spec.alpha) - 1.0).max() > 0.1 for spec in specs)
    assert all(np.abs(spec.rep.cocycle.values - 1.0).max() > 0.1 for spec in specs)
    assert min(kolmogorov_decompose(spec).rank for spec in specs) == 0
    loose = Tolerances(recon_fro=1e6, unitary_fro=1e6)
    group = specs[0].action.group
    for spec in specs:
        dec = kolmogorov_decompose(spec)
        sym, want = kolmogorov_loop(spec, dec.factors)
        assert list(dec.checks) == ["reconstruction", "unitarity", "cocycle", "intertwining"]
        # the stacked intertwining residual is the loop's solve residual, and the cocycle rows are the generators
        on_gens = cocycle_loop(dec.sym.matrices, spec.dilation_cocycle(), group, on_generators=True)
        loops = {key: check.residual for key, check in want.items()}
        loops.update(intertwining=want["dilation_solve"].residual, cocycle=on_gens)
        for key, check in dec.checks.items():
            assert check.ok and check.residual == pytest.approx(loops[key], rel=1e-12, abs=1e-12)
        # the loop over every pair (a, b) stays within max_word_length times the generator rows
        assert _bounds_every_element(group, on_gens, want["cocycle"].residual)
        assert np.abs(dec.sym.matrices - sym.matrices).max(initial=0.0) <= 1e-12
        if not dec.rank:
            continue
        # a given sym with one matrix scaled and turned, and moved factors: every residual is O(1)
        turned = dec.sym.matrices.copy()
        turned[1] *= 1.2 * np.exp(0.4j)
        factors = dec.factors + 0.1 * (rng.normal(size=dec.factors.shape) + 1j * rng.normal(size=dec.factors.shape))
        got = _certify_kolmogorov(spec, factors, loose, turned)[1]
        want = kolmogorov_loop(spec, factors, loose, replace(dec.sym, matrices=turned))[1]
        for key in ("reconstruction", "unitarity"):
            assert got[key].residual == pytest.approx(want[key].residual, rel=1e-12)
        on_gens = cocycle_loop(turned, spec.dilation_cocycle(), group, on_generators=True)
        assert got["cocycle"].residual == pytest.approx(on_gens, rel=1e-12)
        # per group element over all x, against the loop's largest single block
        inter, block = got["intertwining"].residual, want["intertwining"].residual
        assert block * (1 - 1e-12) <= inter <= np.sqrt(spec.x_size) * block * (1 + 1e-12)
        assert min(check.residual for check in got.values()) > 1e-3


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_kolmogorov_cocycle_bound_carries_max_word_length(name):
    _, specs = _kolmogorov_cases(name)
    spec, dec = next((s, d) for s in specs if (d := kolmogorov_decompose(s)).rank)
    group = spec.action.group
    # one generator's unitary turned by a phase: still unitary, off the cocycle by about 1e-6
    turned = dec.sym.matrices.copy()
    turned[group.generators()[0]] *= np.exp(1e-6j)
    residual = cocycle_loop(turned, spec.dilation_cocycle(), group, on_generators=True)
    assert residual > 1e-7
    # a bound above the generator residual but below max_word_length times it fails
    tol = Tolerances(recon_fro=2 * residual / max(1.0, np.sqrt(dec.rank)))
    assert group.max_word_length > 2
    with pytest.raises(DilationResidualError, match="cocycle residual") as exc:
        _certify_kolmogorov(spec, dec.factors, tol, turned)
    assert exc.value.checks["cocycle"].residual == pytest.approx(residual, rel=1e-12)


def test_covariance_bound_carries_max_word_length():
    # a broken Choi block: a bound above the generator residual but below
    # max_word_length times it fails the instrument and its CP form alike
    rng = _rng("word length")
    spec = rand_covariant_instrument(rng, all_subgroups(GROUPS["S3"])[0], k_dim=2, v_dim=2)
    choi = spec.choi.copy()
    choi[0] += _hermitian_bump(rng, choi.shape[1:])
    broken = replace(spec, choi=choi)
    residual, ell = validate_instrument(broken)["covariance"].residual, spec.symmetry.group.max_word_length
    assert ell >= 2 and residual > 1e-6
    tol = Tolerances(recon_fro=0.5 * (1 + ell) * residual / max(1.0, float(np.abs(choi).max())))
    assert not validate_instrument(broken, tol)["covariance"].ok
    assert not cp_validate(as_cpmap(broken), tol)["covariant"].ok
    assert cp_validate(as_cpmap(broken), tol)["covariant"].residual == pytest.approx(residual, rel=1e-12)


def test_instrument_covariance_matches_loop():
    rng = _rng("instrument")
    specs = [phase_space(3, [np.eye(3) / 3.0])]
    specs += [rand_covariant_instrument(rng, sub, k_dim=2, v_dim=2) for sub in all_subgroups(GROUPS["S3"])[:3]]
    for spec in specs:
        check = validate_instrument(spec)["covariance"]
        assert check.ok
        assert check.residual == pytest.approx(instrument_covariance_loop(spec, on_generators=True), rel=1e-12, abs=1e-14)
        assert _bounds_every_element(spec.symmetry.group, check.residual, instrument_covariance_loop(spec))
        choi = spec.choi.copy()
        w = int(rng.integers(spec.n_outcomes))
        x = rng.normal(size=choi.shape[1:]) + 1j * rng.normal(size=choi.shape[1:])
        choi[w] += 1e-4 * (x + x.conj().T)
        broken = replace(spec, choi=choi)
        check = validate_instrument(broken)["covariance"]
        assert not check.ok
        assert check.residual == pytest.approx(instrument_covariance_loop(broken, on_generators=True), rel=1e-12)
        assert instrument_covariance_loop(broken) > 1e-6


def _hermitian_bump(rng, shape):
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 1e-4 * (x + x.conj().T)


def test_observable_covariance_matches_loop():
    rng = _rng("observable")
    specs = [marginal_observable(phase_space(3, [np.diag([1.0, 1.0, 0.0]) / np.sqrt(6.0)]))]
    specs += [rand_covariant_observable(rng, sub, v_dim=2) for sub in all_subgroups(GROUPS["S3"])[:3]]
    for spec in specs:
        check = validate_observable(spec)["covariance"]
        assert check.ok
        assert check.residual == pytest.approx(observable_covariance_loop(spec, on_generators=True), rel=1e-12, abs=1e-14)
        assert _bounds_every_element(spec.symmetry.group, check.residual, observable_covariance_loop(spec))
        effects = spec.effects.copy()
        effects[int(rng.integers(spec.n_outcomes))] += _hermitian_bump(rng, effects.shape[1:])
        broken = replace(spec, effects=effects)
        check = validate_observable(broken)["covariance"]
        assert not check.ok
        assert check.residual == pytest.approx(observable_covariance_loop(broken, on_generators=True), rel=1e-12)
        assert observable_covariance_loop(broken) > 1e-6


def test_cpmap_covariance_matches_loop():
    # u(g) permutes the blocks of the instrument's CP form and lies in the
    # algebra of the random maps
    rng = _rng("cpmap")
    specs = [as_cpmap(phase_space(3, [np.diag([1.0, 1.0, 0.0]) / np.sqrt(6.0)]))]
    specs += [rand_covariant_cpmap(rng, blocks, GROUPS[name], n_v=2) for blocks, name in (((2, 1), "S3"), ((3,), "D4"))]
    for spec in specs:
        check = cp_validate(spec)["covariant"]
        assert check.ok
        # both at roundoff, reached by different arithmetic: a block norm sums n^2 unit defects
        roundoff = 1e-14 * max(spec.algebra.blocks)
        assert check.residual == pytest.approx(choi_covariance_loop(spec, on_generators=True), rel=1e-12, abs=roundoff)
        assert _bounds_every_element(spec.symmetry.group, check.residual, choi_covariance_loop(spec))
        values = spec.values.copy()
        values[0] += _hermitian_bump(rng, values.shape[1:])  # E_00 of the first block, which u moves
        broken = replace(spec, values=values)
        check = cp_validate(broken)["covariant"]
        assert not check.ok
        assert check.residual == pytest.approx(choi_covariance_loop(broken, on_generators=True), rel=1e-12)
        assert choi_covariance_loop(broken) > 1e-6
