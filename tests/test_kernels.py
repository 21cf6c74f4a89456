from dataclasses import replace

import numpy as np
import pytest

from covkit import kernels
from covkit.constructions import EquivalenceError, equivalence_unitary
from covkit.cstar import ModuleSpace
from covkit.fingroup import FiniteGroup, GroupAction, MultiplierRep, TwoCocycle
from covkit.kernels import (
    CovariantKernelSpec,
    DilationResidualError,
    KernelValidationError,
    kernel_extremal,
    kolmogorov_decompose,
    validate_kernel,
)
from covkit.random import rand_covariant_kernel, rand_unitary
from oracles import permuted_decomposition, transform_decomposition


def point_kernel():
    g = FiniteGroup.trivial()
    return CovariantKernelSpec(
        action=GroupAction.trivial(g, 1),
        alpha=np.ones((1, 1), dtype=complex),
        sigma=TwoCocycle.trivial(g),
        rep=MultiplierRep.trivial(g, 1),
        module=ModuleSpace(k=1, n_v=1),
        blocks=np.ones((1, 1, 1, 1), dtype=complex),
    )


def flip_all_ones_kernel(off_diag=1.0):
    g = FiniteGroup.cyclic(2)
    blocks = np.ones((2, 2, 1, 1), dtype=complex)
    blocks[0, 1, 0, 0] = off_diag
    blocks[1, 0, 0, 0] = np.conj(off_diag)
    return CovariantKernelSpec(
        action=GroupAction(g, np.array([[0, 1], [1, 0]])),
        alpha=np.ones((2, 2), dtype=complex),
        sigma=TwoCocycle.trivial(g),
        rep=MultiplierRep.trivial(g, 1),
        module=ModuleSpace(k=1, n_v=1),
        blocks=blocks,
    )


def diagonal_kernel(x_size=2, n_v=2):
    g = FiniteGroup.trivial()
    blocks = np.zeros((x_size, x_size, n_v, n_v), dtype=complex)
    for x in range(x_size):
        blocks[x, x] = np.eye(n_v)
    return CovariantKernelSpec(
        action=GroupAction.trivial(g, x_size),
        alpha=np.ones((1, x_size), dtype=complex),
        sigma=TwoCocycle.trivial(g),
        rep=MultiplierRep.trivial(g, n_v),
        module=ModuleSpace(k=1, n_v=n_v),
        blocks=blocks,
    )


def test_validate_point_kernel():
    report = validate_kernel(point_kernel())
    assert report.ok


def test_validate_flip_kernel():
    assert validate_kernel(flip_all_ones_kernel()).ok


def test_validate_detects_nonpositive():
    report = validate_kernel(flip_all_ones_kernel(off_diag=2.0))
    assert not report["positive"].ok
    assert report["covariant"].ok  # covariance still holds for this block pattern


@pytest.mark.parametrize("weight", [0.0, 1e-13])
def test_vanishing_alpha_fails_the_composition_rule_only(weight):
    # alpha(1, 0) alpha(1, 1) must equal alpha(0, 0) = 1; positivity is computed
    spec = flip_all_ones_kernel()
    alpha = spec.alpha.copy()
    alpha[1, 0] = weight
    spec = replace(spec, alpha=alpha)
    report = validate_kernel(spec)
    assert report["positive"].ok and report["positive"].residual <= 1e-12
    assert not report["alpha_cocycle"].ok
    assert report["alpha_cocycle"].residual == pytest.approx(1.0 - weight, abs=1e-15)
    with pytest.raises(KernelValidationError, match="alpha_cocycle"):
        kolmogorov_decompose(spec)


def test_kolmogorov_all_ones_rank_one():
    dec = kolmogorov_decompose(flip_all_ones_kernel())
    assert dec.rank == 1
    assert abs(abs(dec.factors[0][0, 0]) - 1.0) < 1e-10
    assert np.allclose(dec.factors[0], dec.factors[1])
    assert abs(dec.sym(1)[0, 0] - 1.0) < 1e-10


def test_kolmogorov_diagonal_kernel():
    dec = kolmogorov_decompose(diagonal_kernel(2, 2))
    assert dec.rank == 4


def test_kolmogorov_invalid_kernel_rejected():
    with pytest.raises(KernelValidationError):
        kolmogorov_decompose(flip_all_ones_kernel(off_diag=2.0))


@pytest.mark.parametrize("maker", ["z2", "z3", "z4", "s3"])
def test_random_covariant_kernels_validate_and_decompose(maker):
    groups = {
        "z2": FiniteGroup.cyclic(2),
        "z3": FiniteGroup.cyclic(3),
        "z4": FiniteGroup.cyclic(4),
        "s3": FiniteGroup.symmetric(3),
    }
    rng = np.random.default_rng(hash(maker) % (1 << 31))
    for trial in range(5):
        spec = rand_covariant_kernel(rng, groups[maker], max_x=4, n_v=2, k=1)
        report = validate_kernel(spec)
        assert report.ok, report
        dec = kolmogorov_decompose(spec)
        assert dec.checks["reconstruction"].residual <= 1e-8
        assert dec.checks["unitarity"].residual <= 1e-8
        assert dec.checks["cocycle"].residual <= 1e-8
        assert dec.checks["intertwining"].residual <= 1e-8


def test_covariant_transport_consistency():
    # moving the blocks by the covariance transform and re-decomposing gives
    # a unitarily equivalent decomposition
    rng = np.random.default_rng(11)
    spec = rand_covariant_kernel(rng, FiniteGroup.cyclic(3), max_x=3, n_v=2)
    dec = kolmogorov_decompose(spec)
    dec2 = permuted_decomposition(spec, rng.permutation(spec.x_size * spec.n_v))
    w = equivalence_unitary(dec, dec2)
    assert np.allclose(w @ dec.stacked(), dec2.stacked(), atol=1e-8)


def test_covariance_transform_is_the_dilation_unitary():
    # transporting all factors by the dilation representation is exactly the
    # covariance transform of the blocks, and the connecting unitary
    # recovered from the transported decomposition is that representation
    rng = np.random.default_rng(15)
    spec = rand_covariant_kernel(rng, FiniteGroup.cyclic(3), max_x=3, n_v=2)
    dec = kolmogorov_decompose(spec)
    g = 1
    moved = transform_decomposition(dec, dec.sym(g))
    for x in range(spec.x_size):
        expected = (
            dec.factors[spec.action.apply(g, x)] @ spec.rep(g) / spec.alpha[g, x]
        )
        assert np.allclose(moved.factors[x], expected, atol=1e-9)
    w = equivalence_unitary(dec, moved)
    assert np.allclose(w, dec.sym(g), atol=1e-8)


def test_equivalence_identity():
    dec = kolmogorov_decompose(flip_all_ones_kernel())
    w = equivalence_unitary(dec, dec)
    assert np.allclose(w, np.eye(1))


def test_equivalence_after_unitary_remix():
    rng = np.random.default_rng(12)
    spec = rand_covariant_kernel(rng, FiniteGroup.cyclic(2), max_x=3, n_v=2)
    dec = kolmogorov_decompose(spec)
    q = rand_unitary(rng, dec.rank)
    dec2 = transform_decomposition(dec, q)
    w = equivalence_unitary(dec, dec2)
    assert np.linalg.norm(w - q) < 1e-8


def test_equivalence_of_rank_zero_decompositions():
    spec = diagonal_kernel(2, 1)
    dec = kolmogorov_decompose(replace(spec, blocks=np.zeros_like(spec.blocks)))
    assert dec.rank == 0
    assert equivalence_unitary(dec, dec).shape == (0, 0)


def test_equivalence_rejects_different_kernels():
    d1 = kolmogorov_decompose(diagonal_kernel(2, 1))
    spec = diagonal_kernel(2, 1)
    blocks = spec.blocks.copy()
    blocks[1, 1] *= 4.0
    import dataclasses

    other = dataclasses.replace(spec, blocks=blocks)
    d2 = kolmogorov_decompose(other)
    with pytest.raises(EquivalenceError):
        equivalence_unitary(d1, d2)


def test_extremal_rank_one_diagonal_z():
    spec = flip_all_ones_kernel()
    cert = kernel_extremal(spec, [(0, 0), (1, 1)])
    assert cert.extreme


def test_extremal_diagonal_kernel_not_extreme():
    spec = diagonal_kernel(2, 1)
    cert = kernel_extremal(spec, [(0, 0), (1, 1)])
    assert not cert.extreme
    w = np.linalg.eigvalsh(cert.witness)
    assert np.allclose(sorted(w), [-1.0, 1.0], atol=1e-8)
    for neighbour in cert.perturbed:
        report = validate_kernel(neighbour)
        assert report.ok
        # agreement on Z
        assert np.allclose(neighbour.blocks[0, 0], spec.blocks[0, 0], atol=1e-9)
        assert np.allclose(neighbour.blocks[1, 1], spec.blocks[1, 1], atol=1e-9)
    mid = 0.5 * (cert.perturbed[0].blocks + cert.perturbed[1].blocks)
    assert np.allclose(mid, spec.blocks, atol=1e-9)


def test_extremal_norm_split_neighbours_differ():
    spec = diagonal_kernel(3, 1)
    cert = kernel_extremal(spec, [(x, x) for x in range(3)])
    assert not cert.extreme
    assert np.linalg.norm(cert.perturbed[0].blocks - cert.perturbed[1].blocks) > 1e-6


def test_extremal_asymmetric_z_uses_hermitian_directions():
    spec = diagonal_kernel(2, 1)
    cert = kernel_extremal(spec, [(0, 1)])
    # fixing only the off-diagonal entry leaves plenty of freedom
    assert not cert.extreme
    assert np.linalg.norm(cert.witness - cert.witness.conj().T) < 1e-10


def test_extremal_verdicts_match_split_oracle_on_small_instances():
    # independent primal oracle agreement on small dilation ranks
    from oracles import split_oracle_kernel

    rng = np.random.default_rng(14)
    groups = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.trivial()]
    checked = 0
    for trial in range(30):
        group = groups[trial % 3]
        spec = rand_covariant_kernel(
            rng, group, max_x=3, n_v=int(rng.integers(1, 3)), dil_rank=int(rng.integers(1, 4))
        )
        dec = kolmogorov_decompose(spec)
        if dec.rank > 3:
            continue
        z = [(x, x) for x in range(spec.x_size)]
        cert = kernel_extremal(spec, z)
        oracle_extreme, split = split_oracle_kernel(spec, z)
        assert cert.extreme == oracle_extreme, (trial, dec.rank)
        if not oracle_extreme:
            for side in split:
                assert validate_kernel(side).ok
        checked += 1
    assert checked >= 15


def test_perturbed_kernels_of_random_instance_revalidate():
    rng = np.random.default_rng(13)
    spec = rand_covariant_kernel(rng, FiniteGroup.cyclic(2), max_x=2, n_v=2, dil_rank=4)
    z = [(x, x) for x in range(spec.x_size)]
    cert = kernel_extremal(spec, z)
    if not cert.extreme:
        for neighbour in cert.perturbed:
            assert validate_kernel(neighbour).ok
            for x, y in z:
                assert np.allclose(neighbour.blocks[x, y], spec.blocks[x, y], atol=1e-8)


def test_split_with_a_non_positive_kernel_neighbour_raises(monkeypatch):
    # 3 W has spectral norm 3, so I - 3 W is not positive: one neighbour is not a positive kernel
    witness = kernels._hermitian_witness
    monkeypatch.setattr(kernels, "_hermitian_witness", lambda basis, tol: 3.0 * witness(basis, tol))
    with pytest.raises(DilationResidualError, match="positive"):
        kernel_extremal(diagonal_kernel(2, 1), [(0, 0), (1, 1)])


def test_split_that_moves_the_blocks_on_z_raises(monkeypatch):
    # W = I / 2 commutes with everything and keeps both neighbours valid, but scales T[x, x]
    monkeypatch.setattr(kernels, "_hermitian_witness", lambda basis, tol: 0.5 * np.eye(len(basis[0])))
    with pytest.raises(DilationResidualError, match="z_blocks"):
        kernel_extremal(diagonal_kernel(2, 1), [(0, 0), (1, 1)])
