"""The imprimitivity and square-integrability layer as array expressions.

The stacked Wigner cocycle, the canonical system's translation and
projections, the per-outcome intertwining residuals of decomposable
operators and the character-norm certificate of ``sq_constant`` are each
compared with their element-by-element loop forms in ``oracles``, on every
subgroup of Z_6, D_4, S_3 and S_4 and on the clock-and-shift groups.  The
seeded ``rand_covariant_instrument`` fixture, which reads the stacked Wigner
cocycle, is compared with a recorded output, and a guard keeps loops over
``.elements()`` out of ``fingroup.py`` and ``instruments.py``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from covkit import constructions
from covkit import instruments as ins
from covkit.constructions import canonical_system, decomposable_extract, wigner_rotation
from covkit.fingroup import FiniteGroup, MultiplierRep, SubgroupData, TwoCocycle, heisenberg_rep
from covkit.instruments import sq_constant
from covkit.kernels import DilationResidualError
from covkit.numlin import DimensionError, Tolerances
from covkit.random import all_subgroups, rand_covariant_instrument, rand_ordinary_rep
from oracles import canonical_system_loop, decomposable_intertwining_loop, sq_twirl_loop, wigner_rotation_loop

SUBGROUPS = {
    name: all_subgroups(group)
    for name, group in {
        "Z6": FiniteGroup.cyclic(6),
        "D4": FiniteGroup.dihedral(4),
        "S3": FiniteGroup.symmetric(3),
        "S4": FiniteGroup.symmetric(4),
    }.items()
}
for d in (2, 3):
    group = heisenberg_rep(d)[0]
    SUBGROUPS[f"H{d}"] = [SubgroupData(group, (group.identity,))]

CASES = [
    pytest.param(name, i, kind, id=f"{name}-{i}-{kind}")
    for name, subs in SUBGROUPS.items()
    for i in range(len(subs))
    for kind in ("regular", "random")
]


def _system(name, index, kind):
    """The subgroup and an ordinary representation of it: its regular
    representation, or a random two-dimensional one."""
    sub = SUBGROUPS[name][index]
    hgrp = sub.subgroup_group()
    if kind == "regular":
        return sub, MultiplierRep.regular(hgrp)
    return sub, rand_ordinary_rep(np.random.default_rng(index), hgrp, 2)


@pytest.mark.parametrize("name, index, kind", CASES)
def test_wigner_stack_and_canonical_system_match_the_loops(name, index, kind):
    sub, rho = _system(name, index, kind)
    g, n, m = sub.parent, sub.n_cosets, rho.dim
    stack = wigner_rotation(rho, sub)
    assert stack.shape == (g.order, n, m, m)
    loop = wigner_rotation_loop(rho, sub)
    reference = np.array([[loop[(a, w)] for w in range(n)] for a in range(g.order)])
    assert np.abs(stack - reference).max() <= 1e-12
    # strict cocycle identity W[ab, w] = W[a, w] W[b, a^{-1} w], every a, b, w
    back = sub.coset_action().table[g.inverse]
    rhs = stack[:, None] @ stack[np.arange(g.order)[None, :, None], back[:, None, :]]
    assert np.abs(stack[g.mul] - rhs).max() <= 1e-12

    system = canonical_system(rho, sub)
    theta, projections = canonical_system_loop(rho, sub)
    assert system.dim == n * m
    assert np.abs(system.theta - theta).max() <= 1e-12
    assert np.abs(system.projections - projections).max() <= 1e-12


@pytest.mark.parametrize("name, index, kind", [c for c in CASES if SUBGROUPS[c.values[0]][c.values[1]].n_cosets > 1])
def test_decomposable_residuals_match_the_loop(name, index, kind):
    sub, rho = _system(name, index, kind)
    rng = np.random.default_rng(7 + index)
    a = int(rng.integers(1, sub.parent.order))
    theta = canonical_system(rho, sub).theta[a]
    perm, dims = sub.coset_action().table[a], (rho.dim,) * sub.n_cosets
    # theta(a) moves fiber a^{-1} w to fiber w by the Wigner cocycle
    dec = decomposable_extract(theta, perm, dims)
    assert np.array_equal(dec.assemble(), theta)
    assert np.abs(np.stack(dec.blocks) - wigner_rotation(rho, sub)[a]).max() <= 1e-12

    noisy = theta + 1e-3 * (rng.normal(size=theta.shape) + 1j * rng.normal(size=theta.shape))
    res, reference = constructions._intertwining_residuals(noisy, perm, dims), decomposable_intertwining_loop(noisy, perm, dims)
    assert np.abs(res - reference).max() <= 1e-12
    # the worst outcome named is one of the loop's (n = 2 ties by symmetry)
    assert reference[np.argmax(res)] >= max(reference) - 1e-12

    # one off-pattern entry of 1e-6 is rejected, naming the loop's worst outcome
    _, mask = constructions._fiber_pattern(perm, dims)
    cells = np.argwhere(~mask)
    i, j = cells[rng.integers(len(cells))]
    broken = theta.copy()
    broken[i, j] += 1e-6
    worst = int(np.argmax(decomposable_intertwining_loop(broken, perm, dims)))
    with pytest.raises(DilationResidualError, match=f"worst outcome {worst} with"):
        decomposable_extract(broken, perm, dims)


@pytest.mark.parametrize("perm, dims", [([0, 0], [2, 2]), ([1, 0], [2, 2, 1]), ([1, 0, 2], [2, 2])])
def test_decomposable_layout_needs_a_permutation_of_the_fibers(perm, dims):
    with pytest.raises(DimensionError, match="permutation"):
        decomposable_extract(np.zeros((4, 4)), perm, dims)
    with pytest.raises(DimensionError, match="permutation"):
        constructions.DecomposableOp(tuple(perm), tuple(dims), ()).assemble()


def test_canonical_system_reads_the_callers_tolerance_for_the_cocycle():
    sub = SUBGROUPS["S3"][1]
    rho = MultiplierRep.regular(sub.subgroup_group())
    nearly = MultiplierRep(rho.group, TwoCocycle(rho.group, rho.cocycle.values * (1 + 1e-7)), rho.matrices)
    with pytest.raises(ValueError, match="ordinary"):
        canonical_system(nearly, sub)
    assert canonical_system(nearly, sub, Tolerances(recon_fro=1e-6)).dim == sub.n_cosets * 2


def _sq_cases():
    """Each case with whether it is irreducible."""
    for d in range(2, 7):
        yield pytest.param(heisenberg_rep(d)[2], True, id=f"heisenberg{d}")
    w3 = heisenberg_rep(3)[2]
    yield pytest.param(w3.direct_sum(w3), False, id="heisenberg3+heisenberg3")
    yield pytest.param(MultiplierRep.regular(FiniteGroup.symmetric(4)), False, id="regular_S4")


@pytest.mark.parametrize("h_order", [1, 2])
@pytest.mark.parametrize("rep, irreducible", list(_sq_cases()))
def test_sq_constant_matches_the_twirl(rep, irreducible, h_order):
    result, reference = sq_constant(rep, h_order=h_order), sq_twirl_loop(rep, h_order=h_order)
    assert result.ok == reference.ok == irreducible
    if reference.ok:
        assert result.value == pytest.approx(reference.value, rel=1e-12, abs=0.0)
    else:
        assert result.value is None
    # spread: the Hilbert-Schmidt norm of X -> sum_g U X U^+ / h - d tr(X) I
    n = rep.dim
    twirl = np.einsum("gab,gcd->acbd", rep.matrices, rep.matrices.conj()).reshape(n * n, n * n) / h_order
    vec_eye = np.eye(n).ravel()
    defect = twirl - rep.group.order / (n * h_order) * np.outer(vec_eye, vec_eye)
    assert result.spread == pytest.approx(np.linalg.norm(defect), rel=1e-9, abs=1e-6)


def test_sq_constant_needs_a_unitary_representation():
    rep = heisenberg_rep(2)[2]
    with pytest.raises(ValueError, match="unitary"):
        sq_constant(MultiplierRep(rep.group, rep.cocycle, rep.matrices, unitary_flag=False))


FIXTURE_SUBGROUPS = {
    "A3_S3": next(s for s in SUBGROUPS["S3"] if len(s.members) == 3),
    "Z2_Z4": next(s for s in all_subgroups(FiniteGroup.cyclic(4)) if len(s.members) == 2),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_SUBGROUPS))
@pytest.mark.parametrize("seed", [0, 1])
def test_rand_covariant_instrument_matches_its_recorded_output(name, seed):
    recorded = np.load(Path(__file__).parent / "data" / "rand_covariant_instrument.npz")
    spec = rand_covariant_instrument(np.random.default_rng(seed), FIXTURE_SUBGROUPS[name])
    assert np.array_equal(spec.choi, recorded[f"{name}_{seed}_choi"])
    assert np.array_equal(spec.symmetry.rep.matrices, recorded[f"{name}_{seed}_rep"])
    assert np.array_equal(spec.symmetry.out_rep.matrices, recorded[f"{name}_{seed}_out_rep"])


@pytest.mark.parametrize("module", ["constructions.py", "cpmaps.py", "fingroup.py", "instruments.py"])
def test_no_loop_over_group_elements(module):
    tree = ast.parse((Path(ins.__file__).parent / module).read_text())
    loops = [node.iter for node in ast.walk(tree) if isinstance(node, (ast.For, ast.comprehension))]
    hits = [
        it.lineno
        for it in loops
        for call in ast.walk(it)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "elements"
    ]
    assert not hits, f"{module} loops over .elements() at lines {hits}"
