"""``outcomes_cp`` on the orbit representative: once covariance holds,
``validate_instrument`` decomposes outcome 0 alone and carries
``max_word_length`` x the covariance residual to every other block (Weyl's
inequality).  Cross-checked against every block decomposed
(``oracles.outcomes_cp_all_blocks``) on valid instruments and on broken
ones."""

import numpy as np
import pytest

from covkit.fingroup import FiniteGroup
from covkit.instruments import InstrumentSpec, phase_space, validate_instrument
from covkit.random import all_subgroups, rand_covariant_instrument, rand_covariant_observable
from oracles import outcomes_cp_all_blocks
from test_instruments import flip_observable

_S3 = FiniteGroup.symmetric(3)


def _phase_space(d):
    rng = np.random.default_rng(d)
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    norm = d * sum(np.vdot(b, b).real for b in ops)
    return phase_space(d, [b / np.sqrt(norm) for b in ops])


def _a3_instrument():
    a3 = next(sub for sub in all_subgroups(_S3) if len(sub.members) == 3)
    return rand_covariant_instrument(np.random.default_rng(2), a3)


def _s3_observable():
    z2 = next(sub for sub in all_subgroups(_S3) if len(sub.members) == 2)
    return rand_covariant_observable(np.random.default_rng(3), z2, v_dim=2).as_instrument()


_CASES = {
    "phase_space_d2": lambda: _phase_space(2),
    "phase_space_d3": lambda: _phase_space(3),
    "phase_space_d4": lambda: _phase_space(4),
    "instrument_A3_in_S3": _a3_instrument,
    "observable_S3_cosets": _s3_observable,
    "observable_flip": lambda: flip_observable(0.3).as_instrument(),
}


@pytest.fixture(params=sorted(_CASES))
def spec(request):
    return _CASES[request.param]()


def _carried(spec, checks):
    return spec.symmetry.group.max_word_length * checks["covariance"].residual


def _shifted(spec, x, by):
    choi = spec.choi.copy()
    choi[x] -= by * np.eye(choi.shape[1])
    return InstrumentSpec(choi, spec.symmetry)


def test_the_representative_verdict_matches_every_block(spec):
    checks = validate_instrument(spec)
    ok, residual = outcomes_cp_all_blocks(spec)
    assert checks.ok and checks["outcomes_cp"].ok == ok
    # the printed residual bounds every block's, and exceeds it by at most
    # the carried bound (up to the roundoff of the eigenvalues themselves)
    slack = 1e-14 * max(1.0, np.abs(spec.choi).max())
    assert residual - slack <= checks["outcomes_cp"].residual <= residual + _carried(spec, checks) + slack


def test_an_indefinite_block_off_the_representative_is_decided_on_every_block(spec):
    # C_x - t I with t above C_x's least eigenvalue: no longer transported from C_0
    x = spec.n_outcomes - 1
    broken = _shifted(spec, x, np.linalg.eigvalsh(spec.choi[x]).min() + 1e-3)
    checks = validate_instrument(broken)
    assert not checks["covariance"].ok
    assert tuple(checks["outcomes_cp"]) == outcomes_cp_all_blocks(broken)
    assert not checks["outcomes_cp"].ok


def test_a_slightly_indefinite_representative_fails_on_every_block(spec):
    # every block shifted by the same t I stays covariant, so C_0 alone is
    # decomposed, and it is indefinite by 1e-6
    t = np.linalg.eigvalsh(spec.choi[0]).min() + 1e-6
    broken = InstrumentSpec(spec.choi - t * np.eye(spec.choi.shape[1]), spec.symmetry)
    checks = validate_instrument(broken)
    assert checks["covariance"].ok
    ok, residual = outcomes_cp_all_blocks(broken)
    assert not ok and not checks["outcomes_cp"].ok
    assert residual == pytest.approx(1e-6, rel=1e-6)
    assert residual <= checks["outcomes_cp"].residual <= residual + _carried(broken, checks) + 1e-14


@pytest.mark.parametrize("name", ["phase_space_d2", "phase_space_d3", "phase_space_d4", "instrument_A3_in_S3"])
def test_a_defect_under_the_covariance_bound_is_carried(name):
    # block x pushed 1e-11 below zero along its null vector: covariance still
    # passes, C_0 is still positive, and only the carried bound covers block x
    spec = _CASES[name]()
    x = spec.n_outcomes - 1
    low, vectors = np.linalg.eigh(spec.choi[x])
    choi = spec.choi.copy()
    choi[x] -= (low[0] + 1e-11) * np.outer(vectors[:, 0], vectors[:, 0].conj())
    broken = InstrumentSpec(choi, spec.symmetry)
    checks = validate_instrument(broken)
    ok, residual = outcomes_cp_all_blocks(broken)
    assert checks["covariance"].ok and ok and checks["outcomes_cp"].ok
    assert residual == pytest.approx(1e-11, rel=1e-3)
    assert residual <= checks["outcomes_cp"].residual <= residual + _carried(broken, checks) + 1e-14
