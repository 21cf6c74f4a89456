"""Observable extremality on the base fiber: the observable as the instrument
with a one-dimensional output, cross-checked against the lambda picture
(:func:`lambda_from_observable` and :func:`observable_extremal`), and the
command line that decides it without importing ``numpy.random``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covkit import specfile
from covkit.cli import main
from covkit.fingroup import FiniteGroup, MultiplierRep, SubgroupData, TwoCocycle, heisenberg_rep
from covkit.instruments import (
    ObservableSpec,
    Symmetry,
    instrument_extremal,
    lambda_from_observable,
    observable_extremal,
    validate_instrument,
    validate_observable,
)
from covkit.numlin import frob
from covkit.random import all_subgroups, rand_covariant_observable

SRC = str(Path(__file__).resolve().parents[1] / "src")


def heisenberg_observable(rng, d, rank):
    """The covariant observable E_g = W_g S W_g^+ / d over the trivial
    subgroup of Z_d x Z_d, S a random trace-one seed of the given rank."""
    group, _, rep = heisenberg_rep(d)
    f = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
    seed = f.conj().T @ f
    seed /= np.trace(seed).real
    effects = rep.matrices @ seed @ rep.matrices.conj().transpose(0, 2, 1) / d
    return ObservableSpec(effects, Symmetry(SubgroupData(group, (group.identity,)), rep))


def _cases():
    rng = np.random.default_rng(1807)
    for name, group in (("Z4", FiniteGroup.cyclic(4)), ("S3", FiniteGroup.symmetric(3)), ("D4", FiniteGroup.dihedral(4))):
        for sub in all_subgroups(group):
            for v_dim in (1, 2, 3):
                yield f"{name}/{sub.members}/v{v_dim}", rand_covariant_observable(rng, sub, v_dim=v_dim)
    for d in (2, 3):
        for rank in range(1, d + 1):
            yield f"heisenberg{d}/rank{rank}", heisenberg_observable(rng, d, rank)


CASES = dict(_cases())


def _neighbours(spec, cert):
    """The instrument neighbours read back as observables, as the command line does."""
    return [ObservableSpec(nb.choi, spec.symmetry) for nb in cert.perturbed]


def test_as_instrument_has_one_dimensional_trivial_output():
    spec = CASES["heisenberg3/rank2"]
    inst = spec.as_instrument()
    assert inst.k_dim == 1 and inst.v_dim == spec.v_dim
    assert np.array_equal(inst.choi, spec.effects)
    assert np.array_equal(inst.symmetry.out_rep.matrices, np.ones((spec.symmetry.group.order, 1, 1)))
    assert inst.symmetry.sub is spec.symmetry.sub and inst.symmetry.rep is spec.symmetry.rep


@pytest.mark.parametrize("name", sorted(CASES))
def test_base_fiber_agrees_with_the_lambda_picture(name):
    spec = CASES[name]
    assert validate_observable(spec).ok
    cert = instrument_extremal(spec.as_instrument())
    ref = observable_extremal(lambda_from_observable(spec))
    assert (cert.extreme, cert.freedom) == (ref.extreme, ref.freedom)
    if cert.perturbed is None:
        assert cert.extreme
        return
    plus, minus = _neighbours(spec, cert)
    for nb in (plus, minus):
        assert validate_observable(nb).ok
    assert np.allclose(0.5 * (plus.effects + minus.effects), spec.effects, atol=1e-10)
    assert frob(plus.effects - minus.effects) > 1e-6
    # the witness I_K (x) X has K = 1: X acts on C^r, r the rank of the base effect
    r = np.linalg.matrix_rank(spec.effects[0], tol=1e-9)
    assert cert.witness.shape == (r, r)
    assert np.linalg.norm(cert.witness, 2) == pytest.approx(1.0)


def test_the_cases_cover_both_verdicts_and_every_heisenberg_freedom():
    verdicts = {name: instrument_extremal(spec.as_instrument()) for name, spec in CASES.items()}
    assert {c.extreme for c in verdicts.values()} == {True, False}
    # a rank-r seed leaves the r x r directions with tr(D S) = 0: r^2 - 1 of them
    for d in (2, 3):
        for rank in range(1, d + 1):
            assert verdicts[f"heisenberg{d}/rank{rank}"].freedom == rank**2 - 1


def test_cli_observable_report_is_the_base_fiber_certificate(tmp_path, capsys):
    spec = CASES["D4/(0,)/v3"]
    path = tmp_path / "obs.json"
    path.write_text(specfile.document("observable", specfile.observable_out(spec)))
    assert main(["extremal", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    cert = instrument_extremal(spec.as_instrument())
    assert report["artifacts"]["decision"]["freedom"] == cert.freedom
    assert np.array_equal(specfile.matrix_in(report["artifacts"]["witness"]["matrix"], "witness"), cert.witness)
    assert "K = 1" in report["artifacts"]["witness"]["provenance"]
    for side, nb in zip(("plus", "minus"), _neighbours(spec, cert)):
        doc = specfile.document("observable", report["artifacts"]["split"][side])
        kind, got = specfile.load(doc)
        assert kind == "observable"
        assert np.allclose(got.effects, nb.effects, atol=1e-15)


def test_cli_extremal_has_no_seed_flag(tmp_path, capsys):
    path = tmp_path / "obs.json"
    path.write_text(specfile.document("observable", specfile.observable_out(CASES["S3/(0,)/v2"])))
    assert main(["extremal", str(path), "--seed", "3"]) == 2
    assert capsys.readouterr().err == "usage error: extremal: --seed is an option of sample, not of extremal\n"


GUARD = """
import sys
from covkit.cli import main
code = main(sys.argv[1:])
print("numpy.random loaded:", "numpy.random" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_cli_observable_extremal_never_imports_numpy_random(tmp_path):
    path = tmp_path / "obs.json"
    path.write_text(specfile.document("observable", specfile.observable_out(CASES["D4/(0, 5)/v3"])))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    runs = [
        subprocess.run([sys.executable, "-c", GUARD, "extremal", str(path)], capture_output=True, text=True, env=env, timeout=120)
        for _ in range(2)
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr
        assert "numpy.random loaded: False" in run.stderr
    assert json.loads(runs[0].stdout)["artifacts"]["decision"]["extreme"] is False
    assert runs[0].stdout == runs[1].stdout


def test_cli_extremal_holds_an_observable_to_the_validate_bounds(tmp_path, capsys):
    # a flip observable whose effects break covariance by 1.4e-8, over the bound
    # 1e-8 max(1, max|E_w|): the observable and its one-output instrument give one
    # verdict, so `validate` and `extremal` both exit 1
    group = FiniteGroup.cyclic(2)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = MultiplierRep(group, TwoCocycle.trivial(group), np.stack([np.eye(2, dtype=complex), flip]))
    effects = np.stack([np.diag([0.9, 0.1]), np.diag([0.1, 0.9])]).astype(complex)
    effects[:, 0, 0] += [1e-8, -1e-8]
    spec = ObservableSpec(effects, Symmetry(SubgroupData(group, (0,)), rep))
    covariance = validate_observable(spec)["covariance"]
    assert not covariance.ok
    assert covariance == validate_instrument(spec.as_instrument())["covariance"]
    path = tmp_path / "obs.json"
    path.write_text(specfile.document("observable", specfile.observable_out(spec)))
    assert main(["validate", str(path)]) == 1
    assert main(["extremal", str(path)]) == 1
    assert "instrument invalid: covariance" in capsys.readouterr().err
