import numpy as np
import pytest

from covkit import fingroup as fg
from covkit.constructions import (
    CocycleExtensionError,
    IncompleteIrrepsError,
    central_extension,
    complete_irreps,
    cosets,
    fourier,
    plancherel_inverse,
)
from covkit.fingroup import (
    FiniteGroup,
    GroupAction,
    GroupStructureError,
    MultiplierRep,
    TwoCocycle,
    heisenberg_rep,
    irrep_decompose,
    validate_cocycle,
    validate_rep,
)
from covkit.numlin import constrained_commutant, is_unitary
from oracles import extend_rep


def test_cyclic_group_axioms():
    g = FiniteGroup.cyclic(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.inv(1) == 3


def test_symmetric_group_order():
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6
    # S_3 is nonabelian
    assert any(s3.prod(a, b) != s3.prod(b, a) for a in range(6) for b in range(6))


def test_dihedral_group():
    d4 = FiniteGroup.dihedral(4)
    assert d4.order == 8
    orders = sorted(_element_order(d4, g) for g in d4.elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def _element_order(g, a):
    x, n = a, 1
    while x != g.identity:
        x = g.prod(x, a)
        n += 1
    return n


def test_bad_table_rejected():
    with pytest.raises(GroupStructureError):
        FiniteGroup(np.array([[0, 0], [0, 0]]))


def test_action_validation():
    g = FiniteGroup.cyclic(2)
    GroupAction(g, np.array([[0, 1], [1, 0]]))
    with pytest.raises(GroupStructureError):
        GroupAction(g, np.array([[1, 0], [0, 1]]))  # identity must act trivially


def test_trivial_cocycle_valid():
    assert validate_cocycle(TwoCocycle.trivial(FiniteGroup.cyclic(2)))


def test_sign_cocycle_on_z2():
    # c(a, a) = -1, otherwise 1
    g = FiniteGroup.cyclic(2)
    vals = np.ones((2, 2), dtype=complex)
    vals[1, 1] = -1.0
    assert validate_cocycle(TwoCocycle(g, vals))


def test_weyl_heisenberg_cocycle_d2():
    _, cocycle, rep = heisenberg_rep(2)
    assert validate_cocycle(cocycle)
    assert set(np.round(cocycle.values.reshape(-1).real)) <= {1.0, -1.0}
    assert validate_rep(rep)


def test_broken_cocycle_detected():
    g = FiniteGroup.cyclic(3)
    vals = np.ones((3, 3), dtype=complex)
    vals[1, 1] = 1j
    assert fg.cocycle_violation(TwoCocycle(g, vals)) is not None


def test_cosets_z4():
    g = FiniteGroup.cyclic(4)
    sub = cosets(g, [0, 2])
    assert sub.n_cosets == 2
    assert sub.section[0] == g.identity


def test_cosets_s3_transposition():
    s3 = FiniteGroup.symmetric(3)
    transposition = next(
        a for a in s3.elements() if a != s3.identity and s3.prod(a, a) == s3.identity
    )
    sub = cosets(s3, [s3.identity, transposition])
    assert sub.n_cosets == 3


def test_cosets_whole_group():
    g = FiniteGroup.cyclic(3)
    sub = cosets(g, list(g.elements()))
    assert sub.n_cosets == 1
    assert sub.section == (g.identity,)


def test_cosets_rejects_non_subgroup():
    g = FiniteGroup.cyclic(4)
    with pytest.raises(GroupStructureError):
        cosets(g, [0, 1])


def test_regular_rep_z2():
    r = MultiplierRep.regular(FiniteGroup.cyclic(2))
    assert np.allclose(r(0), np.eye(2))
    assert np.allclose(r(1), np.array([[0, 1], [1, 0]]))


def test_regular_rep_s3_faithful():
    r = MultiplierRep.regular(FiniteGroup.symmetric(3))
    assert validate_rep(r)
    mats = [tuple(np.round(r(g).real.reshape(-1)).astype(int)) for g in range(6)]
    assert len(set(mats)) == 6


def test_regular_rep_trivial_group():
    r = MultiplierRep.regular(FiniteGroup.trivial())
    assert r.dim == 1 and np.allclose(r(0), 1.0)


def test_irrep_decompose_trivial_rep():
    g = FiniteGroup.cyclic(2)
    u = MultiplierRep.trivial(g, 3)
    dec = irrep_decompose(u, seed=1)
    assert len(dec.blocks) == 1
    assert dec.blocks[0].dim == 1 and dec.blocks[0].multiplicity == 3


def test_irrep_decompose_regular_z3():
    g = FiniteGroup.cyclic(3)
    dec = irrep_decompose(MultiplierRep.regular(g), seed=0)
    assert sorted((b.dim, b.multiplicity) for b in dec.blocks) == [(1, 1)] * 3
    chars = sorted((complex(b.rep(1)[0, 0]) for b in dec.blocks), key=np.angle)
    expected = sorted([1, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)], key=np.angle)
    assert np.allclose(chars, expected, atol=1e-8)


def test_irrep_decompose_regular_s3():
    dec = irrep_decompose(MultiplierRep.regular(FiniteGroup.symmetric(3)), seed=0)
    assert sorted((b.dim, b.multiplicity) for b in dec.blocks) == [(1, 1), (1, 1), (2, 2)]
    assert is_unitary(dec.basis)


def test_irrep_decompose_deterministic():
    u = MultiplierRep.regular(FiniteGroup.symmetric(3))
    d1 = irrep_decompose(u, seed=7)
    d2 = irrep_decompose(u, seed=7)
    assert np.allclose(d1.basis, d2.basis)


def test_irrep_projector_completeness():
    u = MultiplierRep.regular(FiniteGroup.dihedral(4))
    dec = irrep_decompose(u, seed=0)
    assert sum(b.dim * b.multiplicity for b in dec.blocks) == u.dim


def test_fourier_delta_at_identity():
    g = FiniteGroup.symmetric(3)
    irreps = complete_irreps(g, seed=0)
    phi = np.zeros(g.order)
    phi[g.identity] = 1.0
    for coeff, tau in zip(fourier(phi, irreps), irreps):
        assert np.allclose(coeff, np.eye(tau.dim))


def test_fourier_constant_on_z2():
    g = FiniteGroup.cyclic(2)
    irreps = complete_irreps(g, seed=0)
    coeffs = fourier(np.ones(2), irreps)
    vals = sorted(abs(complex(c[0, 0])) for c in coeffs)
    assert np.allclose(vals, [0.0, 2.0], atol=1e-10)


def test_fourier_roundtrip_random_s3():
    g = FiniteGroup.symmetric(3)
    irreps = complete_irreps(g, seed=0)
    rng = np.random.default_rng(5)
    phi = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
    back = plancherel_inverse(fourier(phi, irreps), irreps)
    assert np.abs(back - phi).max() < 1e-10


def test_parseval():
    g = FiniteGroup.dihedral(4)
    irreps = complete_irreps(g, seed=0)
    rng = np.random.default_rng(6)
    phi = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
    coeffs = fourier(phi, irreps)
    rhs = sum(t.dim * np.linalg.norm(c) ** 2 for t, c in zip(irreps, coeffs)) / g.order
    assert abs(np.linalg.norm(phi) ** 2 - rhs) < 1e-10


def test_fourier_rejects_incomplete():
    g = FiniteGroup.cyclic(3)
    irreps = complete_irreps(g, seed=0)
    with pytest.raises(IncompleteIrrepsError):
        fourier(np.ones(3), irreps[:2])


def test_heisenberg_d1_trivial():
    group, _, rep = heisenberg_rep(1)
    assert group.order == 1 and rep.dim == 1


def test_heisenberg_d2_matrices():
    _, cocycle, rep = heisenberg_rep(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    assert np.allclose(rep(1 * 2 + 0), x)  # (q, p) = (1, 0)
    assert np.allclose(rep(0 * 2 + 1), z)  # (q, p) = (0, 1)
    assert np.allclose(rep(3), x @ z)


def test_heisenberg_d3_irreducible():
    _, _, rep = heisenberg_rep(3)
    assert validate_rep(rep)
    basis = constrained_commutant([rep(g) for g in range(9)])
    assert len(basis) == 1


def test_heisenberg_square_integrability_constant():
    # sum over the group of |<phi|W(g)psi>|^2 = d for unit vectors
    rng = np.random.default_rng(8)
    for d in (2, 3):
        _, _, rep = heisenberg_rep(d)
        for _ in range(5):
            phi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            phi /= np.linalg.norm(phi)
            psi /= np.linalg.norm(psi)
            total = sum(abs(phi.conj() @ rep(g) @ psi) ** 2 for g in range(d * d))
            assert abs(total - d) < 1e-10


def test_rep_inverse_phase_identity():
    # U(g) U(g^-1) = c(g, g^-1) I for every produced representation
    _, cocycle, rep = heisenberg_rep(3)
    g = rep.group
    for a in g.elements():
        lhs = rep(a) @ rep(g.inv(a))
        assert np.allclose(lhs, cocycle(a, g.inv(a)) * np.eye(3), atol=1e-10)


def test_central_extension_of_heisenberg_cocycle():
    group, cocycle, rep = heisenberg_rep(2)
    ext, lift, zeta, _ = central_extension(cocycle)
    assert ext.order == 8  # Z_2 x Z_2 extended by the +-1 phases
    ordinary, _, _ = extend_rep(rep)
    assert validate_rep(ordinary)
    assert ordinary.cocycle.is_trivial()


def test_central_extension_rejects_irrational_phase():
    g = FiniteGroup.cyclic(2)
    vals = np.ones((2, 2), dtype=complex)
    vals[1, 1] = np.exp(1j * 1.0)  # not a root of unity of small order
    with pytest.raises(CocycleExtensionError):
        central_extension(TwoCocycle(g, vals))


def test_twist_produces_coboundary_cocycle():
    g = FiniteGroup.cyclic(4)
    u = MultiplierRep.regular(g)
    phases = np.exp(1j * np.array([0.0, 0.3, 1.1, -0.4]))
    tw = u.twist(phases)
    assert validate_rep(tw)
    assert not tw.cocycle.is_trivial()


def test_coset_action_consistency():
    s3 = FiniteGroup.symmetric(3)
    transposition = next(
        a for a in s3.elements() if a != s3.identity and s3.prod(a, a) == s3.identity
    )
    sub = cosets(s3, [s3.identity, transposition])
    act = sub.coset_action()
    assert act.set_size == 3
    # stabilizer of the identity coset is the subgroup itself
    assert act.stabilizer(0) == list(sub.members)


@pytest.mark.parametrize(
    "action",
    [
        cosets(FiniteGroup.symmetric(4), [0, 1]).coset_action(),
        GroupAction.trivial(FiniteGroup.cyclic(3), 4),
        GroupAction.trivial(FiniteGroup.cyclic(3), 0),
        # Z_2 swapping the points 1 and 3 of four
        GroupAction(FiniteGroup.cyclic(2), np.array([[0, 1, 2, 3], [0, 3, 2, 1]])),
    ],
)
def test_orbits_and_stabilizers_match_their_definitions(action):
    g = action.group
    seen, orbits = set(), []
    for x in range(action.set_size):
        if x not in seen:
            orbits.append(sorted({action.apply(a, x) for a in g.elements()}))
            seen.update(orbits[-1])
    assert action.orbits() == orbits
    for x in range(action.set_size):
        assert action.orbit(x) == next(orb for orb in orbits if x in orb)
        assert action.stabilizer(x) == [a for a in g.elements() if action.apply(a, x) == x]
