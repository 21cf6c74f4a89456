"""Consistency checks that tie the engines together: the same object pushed
through different code paths must land on the same answer."""

import numpy as np

from covkit.cpmaps import ksgns
from covkit.cstar import ModuleSpace
from covkit.fingroup import FiniteGroup, GroupAction, MultiplierRep, TwoCocycle
from covkit.instruments import (
    lambda_from_observable,
    marginal_observable,
    observable_extremal,
    observable_from_lambda,
    phase_space,
    validate_observable,
)
from covkit.kernels import CovariantKernelSpec, kolmogorov_decompose
from covkit.numlin import frob, lstsq_define
from covkit.random import rand_covariant_cpmap


def test_cp_map_kernel_decomposition_agrees_with_dilation():
    # the kernel of a CP map over its matrix-unit basis factorizes to the
    # same minimal object the dilation produces, up to a connecting unitary
    rng = np.random.default_rng(0)
    spec = rand_covariant_cpmap(rng, (2,), FiniteGroup.cyclic(2), n_v=2)
    dil = ksgns(spec)

    m, nv = spec.algebra.n_units, spec.n_v
    g = FiniteGroup.trivial()
    blocks = np.zeros((m, m, nv, nv), dtype=complex)
    adj = spec.algebra.adjoint_table()
    prod = spec.algebra.unit_product_table()
    for i in range(m):
        for j in range(m):
            k = prod[adj[i], j]
            if k >= 0:
                blocks[i, j] = spec.values[k]
    kernel = CovariantKernelSpec(
        action=GroupAction.trivial(g, m),
        alpha=np.ones((1, m), dtype=complex),
        sigma=TwoCocycle.trivial(g),
        rep=MultiplierRep.trivial(g, nv),
        module=ModuleSpace(k=1, n_v=nv),
        blocks=blocks,
    )
    dec = kolmogorov_decompose(kernel)
    assert dec.rank == dil.rank
    stacked_kernel = np.hstack(list(dec.factors))
    stacked_dilation = np.hstack(list(dil.r_blocks))
    w, res = lstsq_define([(stacked_kernel, stacked_dilation)])
    assert res <= 1e-8 * max(1.0, frob(stacked_kernel))
    assert np.allclose(w.conj().T @ w, np.eye(dil.rank), atol=1e-8)


def test_phase_space_observable_through_block_operator_machinery():
    # the clock-and-shift observable round-trips through the block-operator
    # extraction, exercising the multiplier-representation branch
    spec = marginal_observable(phase_space(2, [_seed(2)]))
    assert validate_observable(spec).ok
    data = lambda_from_observable(spec, seed=3)
    assert data.base_dim == 1  # rank-one base effect
    rebuilt = observable_from_lambda(data)
    assert np.allclose(rebuilt.effects, spec.effects, atol=1e-8)
    assert observable_extremal(data).extreme


def test_phase_space_mixed_observable_not_extreme_via_lambda():
    b1 = np.diag([0.5, 0.0]).astype(complex)
    b2 = np.diag([0.0, 0.5]).astype(complex)
    spec = marginal_observable(phase_space(2, [b1, b2]))
    data = lambda_from_observable(spec, seed=4)
    cert = observable_extremal(data)
    assert not cert.extreme
    for side in cert.perturbed:
        assert validate_observable(side).ok


def _seed(d):
    b = np.zeros((d, d), dtype=complex)
    b[0, 0] = 1.0 / np.sqrt(d)
    return b
