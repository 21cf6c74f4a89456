"""Consistency checks that tie the engines together: the same object pushed
through different code paths must land on the same answer."""

import numpy as np
import pytest

from covkit import cpmaps, kernels
from covkit import instruments as ins
from covkit.constructions import marginal_observable
from covkit.cpmaps import cp_extremal, ksgns
from covkit.cstar import ModuleSpace
from covkit.fingroup import FiniteGroup, GroupAction, MultiplierRep, TwoCocycle
from covkit.instruments import (
    as_cpmap,
    instrument_extremal,
    lambda_from_observable,
    observable_extremal,
    observable_from_lambda,
    phase_space,
    validate_observable,
)
from covkit.kernels import CovariantKernelSpec, DilationResidualError, kernel_extremal, kolmogorov_decompose
from covkit.numlin import frob, lstsq_define
from covkit.random import all_subgroups, rand_covariant_cpmap, rand_covariant_instrument
from test_instruments import flip_observable
from test_kernels import diagonal_kernel


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


_PS = [np.diag([0.5, 0.0]).astype(complex), np.diag([0.0, 0.5]).astype(complex)]
_A3 = next(sub for sub in all_subgroups(FiniteGroup.symmetric(3)) if len(sub.members) == 3)

# each extremality route on a non-extreme input: the module that calls the
# split, the decision, and the verdict a non-positive neighbour fails
_ROUTES = {
    "kernel": (kernels, lambda: kernel_extremal(diagonal_kernel(2, 1), [(0, 0), (1, 1)]), "positive"),
    "cpmap": (cpmaps, lambda: cp_extremal(as_cpmap(phase_space(2, _PS))), "completely_positive"),
    "lambda_observable": (
        ins,
        lambda: observable_extremal(lambda_from_observable(flip_observable(0.5), seed=5)),
        "effects_psd",
    ),
    "instrument": (ins, lambda: instrument_extremal(phase_space(2, _PS)), "outcomes_cp"),
    "instrument_A3": (
        ins,
        lambda: instrument_extremal(rand_covariant_instrument(np.random.default_rng(2), _A3)),
        "outcomes_cp",
    ),
}


def _missing_midpoint(module, monkeypatch, verdict):
    # plus = compress(I + W) and minus = compress(I - W / 2): both valid and
    # kept on every pinned value, but their midpoint is compress(I + W / 4)
    split = kernels._split

    def lopsided(original, basis, compress, *args, **kept):
        sides = iter((compress, lambda d: compress(0.5 * (d + np.eye(len(d))))))
        return split(original, basis, lambda d: next(sides)(d), *args, **kept)

    monkeypatch.setattr(module, "_split", lopsided)
    return "midpoint"


def _scaled_witness(module, monkeypatch, verdict):
    # 3 W has spectral norm 3, so compress(I - 3 W) is not positive
    witness = kernels._hermitian_witness
    monkeypatch.setattr(kernels, "_hermitian_witness", lambda basis, tol: 3.0 * witness(basis, tol))
    return verdict


@pytest.mark.parametrize("fault", [_scaled_witness, _missing_midpoint], ids=["scaled_witness", "missing_midpoint"])
@pytest.mark.parametrize("route", list(_ROUTES))
def test_every_route_rechecks_its_split(route, fault, monkeypatch):
    module, decide, verdict = _ROUTES[route]
    cert = decide()
    assert not cert.extreme and cert.freedom >= 1
    with pytest.raises(DilationResidualError, match=fault(module, monkeypatch, verdict)):
        decide()
