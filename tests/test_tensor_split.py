"""Tensor-split maps read the algebra's unit tables.

``TensorSplit.unit_pairs`` indexes the product unit E_k (x) E_l, and
``embed``, ``marginals`` and ``subminimal`` gather through it and the left
factor's product and adjoint tables.  These tests hold the table to the
block-by-block kron (``oracles.embed_loop``) and the marginal values, the
subminimal unit values and every subminimal residual to the per-unit loops
(``oracles.marginals_loop``, ``oracles.subminimal_loop``) on the product and
Lueders maps, the CP forms of random instruments over every subgroup of S_3
and D_4, whose covariance check runs, phase-space CP forms at d = 2 and 3,
and a Kraus map on a split whose factors both have a block of size 2.
"""

import numpy as np
import pytest

from covkit.constructions import marginals, subminimal
from covkit.cpmaps import CPMapSpec, ksgns
from covkit.cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from covkit.fingroup import FiniteGroup
from covkit.instruments import as_cpmap, phase_space
from covkit.random import all_subgroups, rand_covariant_instrument

from oracles import embed_loop, marginals_loop, subminimal_loop
from test_cpmaps import lueders_tensor_spec, product_tensor_spec


def _close(new, old, rel=1e-12):
    return np.abs(new - old).max(initial=0.0) <= rel * max(1.0, np.abs(old).max(initial=0.0))


def _instrument_forms():
    rng = np.random.default_rng(53)
    for group in (FiniteGroup.symmetric(3), FiniteGroup.dihedral(4)):
        for sub in all_subgroups(group):
            yield as_cpmap(rand_covariant_instrument(rng, sub, k_dim=2, v_dim=2))


def _phase_space_forms():
    for d in (2, 3):
        rng = np.random.default_rng(d)
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        norm = d * sum(np.vdot(b, b).real for b in ops)
        yield as_cpmap(phase_space(d, [b / np.sqrt(norm) for b in ops]))


def _kraus_map_on_blocks():
    """b -> sum_l A_l^+ b A_l on (M_2 + C) (x) (C + M_2), whose right factor is
    not commutative."""
    rng = np.random.default_rng(59)
    split = TensorSplit(FiniteCStarAlgebra((2, 1)), FiniteCStarAlgebra((1, 2)))
    d = split.algebra.defining_dim
    ops = rng.normal(size=(2, d, 2)) + 1j * rng.normal(size=(2, d, 2))
    values = np.stack([sum(a.conj().T @ u @ a for a in ops) for u in split.algebra.units()])
    return CPMapSpec(split.algebra, ModuleSpace(k=1, n_v=2), values, tensor=split)


CASES = [product_tensor_spec(), lueders_tensor_spec(), *_instrument_forms(), *_phase_space_forms(), _kraus_map_on_blocks()]


def test_the_cases_cover_every_subgroup():
    assert len(CASES) == 2 + 6 + 10 + 2 + 1


def test_unit_pairs_index_the_kron_of_the_units():
    split = TensorSplit(FiniteCStarAlgebra((2, 1)), FiniteCStarAlgebra((1, 3)))
    left, right, alg = split.left, split.right, split.algebra
    for k, b in enumerate(left.units()):
        for l, c in enumerate(right.units()):
            assert np.array_equal(embed_loop(split, b, c), alg.element(np.eye(alg.n_units)[split.unit_pairs[k, l]]))
    assert sorted(split.unit_pairs.ravel()) == list(range(alg.n_units))


def test_embed_matches_the_block_kron():
    rng = np.random.default_rng(5)
    split = TensorSplit(FiniteCStarAlgebra((2, 1)), FiniteCStarAlgebra((1, 3)))
    for _ in range(3):
        b, c = (a.element(rng.normal(size=a.n_units) + 1j * rng.normal(size=a.n_units)) for a in (split.left, split.right))
        assert np.allclose(split.embed(b, c), embed_loop(split, b, c), rtol=0, atol=1e-15)


@pytest.mark.parametrize("spec", CASES)
def test_marginals_match_the_per_unit_loop(spec):
    for new, old in zip(marginals(spec), marginals_loop(spec)):
        assert _close(new.values, old)


@pytest.mark.parametrize("spec", CASES)
def test_subminimal_matches_the_per_unit_loop(spec):
    sub = subminimal(spec)
    e_units, residuals = subminimal_loop(spec, ksgns(marginals(spec)[0]))
    assert _close(sub.e_units, e_units)
    assert residuals.pop("completely_positive")
    assert list(sub.checks) == list(residuals)
    for name, residual in residuals.items():
        assert sub.checks[name].ok
        assert abs(sub.checks[name].residual - residual) <= 1e-12, name
    # Sigma_c E(E_cc) is the identity on the dilation space
    diagonal = [k for k, (_, a, b) in enumerate(spec.tensor.right.unit_index()) if a == b]
    assert np.abs(sub.e_units[diagonal].sum(0) - np.eye(sub.dilation.rank)).max() < 1e-9


def test_the_covariance_check_runs_on_every_instrument_form():
    for spec in CASES[2:-1]:
        assert "covariance" in subminimal(spec).checks


def test_subminimal_returns_the_dilation_of_the_first_marginal():
    spec = CASES[2]
    dil, first = subminimal(spec).dilation, ksgns(marginals(spec)[0])
    assert dil.mult == first.mult and np.array_equal(dil.j, first.j)
    assert dil.checks.ok
