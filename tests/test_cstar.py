import numpy as np
import pytest

from covkit.constructions import alg_positive, form_eval, form_positive
from covkit.cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from covkit.numlin import DimensionError


def test_matrix_unit_adjoints_and_products():
    alg = FiniteCStarAlgebra.full(2)
    e01 = alg.unit(0, 0, 1)
    e10 = alg.unit(0, 1, 0)
    assert np.allclose(e01.conj().T, e10)
    assert np.allclose(e01 @ e10, alg.unit(0, 0, 0))
    table = alg.unit_product_table()
    idx = {tuple(t): k for k, t in enumerate(alg.unit_index().tolist())}
    assert table[idx[(0, 0, 1)], idx[(0, 1, 0)]] == idx[(0, 0, 0)]
    assert table[idx[(0, 0, 1)], idx[(0, 0, 1)]] == -1


def test_unit_sum_is_identity():
    alg = FiniteCStarAlgebra((2, 1))
    diag = sum(alg.unit(i, a, a) for i, a, b in alg.unit_index() if a == b)
    assert np.allclose(diag, alg.one())


def test_coefficients_roundtrip():
    alg = FiniteCStarAlgebra((2, 3))
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=alg.n_units) + 1j * rng.normal(size=alg.n_units)
    assert np.allclose(alg.coefficients(alg.element(coeffs)), coeffs)


def test_contains_rejects_off_block():
    alg = FiniteCStarAlgebra((1, 1))
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not alg.contains(m)
    assert alg.contains(np.diag([1.0, 2.0]))


def test_form_eval_matrix_unit():
    mod = ModuleSpace(k=2, n_v=2)
    v = np.zeros((2, 2), dtype=complex)
    v[0, 0] = 1.0  # matrix unit e_11 as a module element
    out = form_eval(np.eye(2), v, v)
    expect = np.zeros((2, 2))
    expect[0, 0] = 1.0
    assert np.allclose(out, expect)


def test_form_eval_zero():
    v = np.ones((2, 1))
    assert np.allclose(form_eval(np.zeros((2, 2)), v, v), 0.0)


def test_form_module_compatibility():
    # s(v a, w) = a^+ s(v, w) for the right module action v a = v @ a
    rng = np.random.default_rng(1)
    mod = ModuleSpace(k=2, n_v=3)
    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v, w = mod.random_element(rng), mod.random_element(rng)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(form_eval(t, v @ a, w), a.conj().T @ form_eval(t, v, w))
    assert np.allclose(form_eval(t, v, w @ a), form_eval(t, v, w) @ a)


def test_form_positive_examples():
    assert form_positive(np.eye(2))
    assert not form_positive(np.diag([1.0, -1.0]))
    assert form_positive(np.ones((2, 2)))


def test_form_positive_matches_pointwise():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    t = b.conj().T @ b
    mod = ModuleSpace(k=2, n_v=3)
    for _ in range(10):
        v = mod.random_element(rng)
        w = np.linalg.eigvalsh(form_eval(t, v, v))
        assert w.min() > -1e-10 * max(1.0, w.max())


def test_inner_product_adjoint_symmetry():
    rng = np.random.default_rng(3)
    mod = ModuleSpace(k=2, n_v=4)
    v, w = mod.random_element(rng), mod.random_element(rng)
    assert np.allclose(mod.inner(v, w).conj().T, mod.inner(w, v))


def test_module_norm_is_operator_norm():
    rng = np.random.default_rng(4)
    mod = ModuleSpace(k=3, n_v=4)
    v = mod.random_element(rng)
    norm_sq = np.linalg.norm(mod.inner(v, v), 2)
    assert abs(np.sqrt(norm_sq) - np.linalg.norm(v, 2)) < 1e-10


def test_inner_preserving_surjective_map_is_unitary():
    rng = np.random.default_rng(5)
    mod = ModuleSpace(k=2, n_v=3)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    # left multiplication by q preserves <v, w> = v^+ w and is onto
    v, w = mod.random_element(rng), mod.random_element(rng)
    assert np.allclose(mod.inner(q @ v, q @ w), mod.inner(v, w))
    assert np.allclose(q.conj().T @ q, np.eye(3))


def test_alg_positive():
    alg = FiniteCStarAlgebra((1, 1))
    assert alg_positive(alg, np.diag([1.0, 2.0]))
    m2 = FiniteCStarAlgebra.full(2)
    assert alg_positive(m2, m2.one())
    flip = m2.unit(0, 0, 1) + m2.unit(0, 1, 0)
    assert not alg_positive(m2, flip)


def test_alg_positive_rejects_foreign_matrix():
    alg = FiniteCStarAlgebra((1, 1))
    with pytest.raises(DimensionError):
        alg_positive(alg, np.array([[0, 1], [1, 0]], dtype=complex))


def test_tensor_split_embed():
    split = TensorSplit(FiniteCStarAlgebra.full(2), FiniteCStarAlgebra.commutative(2))
    assert split.algebra.blocks == (2, 2)
    b = np.array([[1, 2], [3, 4]], dtype=complex)
    c = np.diag([1.0, 0.0]).astype(complex)
    embedded = split.embed(b, c)
    assert np.allclose(embedded[:2, :2], b)
    assert np.allclose(embedded[2:, 2:], 0.0)
    # multiplicativity of the embedding
    b2 = np.array([[0, 1], [1, 0]], dtype=complex)
    c2 = np.diag([0.5, 2.0]).astype(complex)
    assert np.allclose(
        split.embed(b, c) @ split.embed(b2, c2), split.embed(b @ b2, c @ c2)
    )
