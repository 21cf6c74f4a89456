"""The row-batched group, action, subgroup, cocycle and representation checks
against their element-by-element loop forms in ``oracles``.

Each check must report the same first violation in lexicographic order, or
raise the same message, on valid inputs, on one corruption and on two
corruptions at once.
"""

import numpy as np
import pytest

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
from covkit.numlin import Tolerances
from covkit.random import all_subgroups
from oracles import (
    action_violation,
    cocycle_violation_loop,
    group_table_violation,
    rep_violation_loop,
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
    assert _group_outcome(mul) is None
    rng = _rng(name)
    seen = set()
    for trial in range(12):
        bad = mul.copy()
        # one swapped pair, then two at once
        for _ in range(1 + trial % 2):
            if not _swap_in_row(rng, bad):
                return
        expected = group_table_violation(bad)
        assert _group_outcome(bad) == expected
        seen.add(expected.split(" ")[0] if expected else None)
    # the corruptions reach more than one of the axioms
    assert len(seen) >= 2


def test_group_table_reports_first_associativity_failure():
    # a table whose first failure is an associativity failure, not a missing
    # inverse: swap whole columns, which keeps every row and column a permutation
    mul = GROUPS["S3"].mul.copy()
    mul[3:, [1, 2]] = mul[3:, [2, 1]]
    expected = group_table_violation(mul)
    assert expected.startswith("associativity fails at")
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
            assert _action_outcome(group, bad) == action_violation(group, bad)


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
            expected = cocycle_violation_loop(bad)
            # on Z_2 every normalized table is a cocycle
            assert expected is not None or group.order == 2
            assert cocycle_violation(bad) == expected
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
    assert results[2] == cocycle_violation_loop(TwoCocycle(group, both))
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
                expected = rep_violation_loop(bad)
                assert expected is not None
                assert rep_violation(bad) == expected
        assert rep_violation(_with(rep, scaled)) == ("unitary", g2)


def test_rep_identity_and_tolerances_match_loop():
    rep = _reps("S3")[1]
    mats = rep.matrices.copy()
    mats[rep.group.identity] *= np.exp(1e-6j)
    assert rep_violation(_with(rep, mats)) == rep_violation_loop(_with(rep, mats)) == ("identity",)
    # a product error of 1e-7 relative: rejected at the default bound, not at 1e-6
    mats = rep.matrices.copy()
    mats[4] *= np.exp(1e-7j)
    loose = Tolerances(recon_fro=1e-6)
    assert rep_violation(_with(rep, mats)) == rep_violation_loop(_with(rep, mats)) is not None
    assert rep_violation(_with(rep, mats), loose) is None
    assert rep_violation_loop(_with(rep, mats), loose) is None
    # the bound scales with max(1, |rhs|): |U(g)| = sqrt(6) in the regular
    # representation of S_3, and a phase of 0.4e-8 on one U(g) moves no
    # product by more than 0.8e-8 |rhs|
    mats = rep.matrices.copy()
    mats[4] *= np.exp(0.4e-8j)
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
