import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covkit import specfile
from covkit.cli import Report, main
from covkit.cpmaps import cp_validate
from covkit.fingroup import FiniteGroup, MultiplierRep, SubgroupData, TwoCocycle
from covkit.instruments import (
    CovariantInstrumentData,
    InstrumentSpec,
    ObservableSpec,
    Symmetry,
    as_cpmap,
    instrument_from_B,
    phase_space,
    validate_instrument,
    validate_observable,
)
from covkit.numlin import Tolerances
from covkit.random import (
    all_subgroups,
    rand_covariant_cpmap,
    rand_covariant_instrument,
    rand_covariant_kernel,
    rand_covariant_observable,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def flip_observable_doc(p=0.5):
    g = FiniteGroup.cyclic(2)
    sub = SubgroupData(g, (0,))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = MultiplierRep(g, TwoCocycle.trivial(g), np.stack([np.eye(2, dtype=complex), x]))
    spec = ObservableSpec(
        np.stack([np.diag([p, 1 - p]), np.diag([1 - p, p])]).astype(complex),
        Symmetry(sub, rep),
    )
    return specfile.document("observable", specfile.observable_out(spec))


def ones_kernel_doc():
    g = FiniteGroup.cyclic(2)
    payload = {
        "group": {"name": "cyclic", "n": 2},
        "action": [[0, 1], [1, 0]],
        "alpha": specfile.matrix_out(np.ones((2, 2))),
        "sigma": specfile.matrix_out(np.ones((2, 2))),
        "rep": {"matrices": [specfile.matrix_out(np.eye(1))] * 2},
        "module": {"k": 1, "n_v": 1},
        "blocks": [
            [specfile.matrix_out(np.ones((1, 1))) for _ in range(2)] for _ in range(2)
        ],
    }
    return specfile.document("kernel", payload)


def phase_space_doc(d=2):
    b = np.zeros((d, d), dtype=complex)
    b[0, 0] = 1.0 / np.sqrt(d)
    payload = {"d": d, "seed_ops": [specfile.matrix_out(b)]}
    return specfile.document("phase_space", payload)


def state_doc(mat):
    return specfile.document("state", {"matrix": specfile.matrix_out(mat)})


def test_roundtrip_reparse_observable():
    doc = flip_observable_doc()
    kind, spec = specfile.load(doc)
    doc2 = specfile.document("observable", specfile.observable_out(spec))
    assert json.loads(doc) == json.loads(doc2)


def test_roundtrip_reparse_phase_space_instrument():
    d, ops = specfile.load(phase_space_doc())[1]
    spec = phase_space(d, ops)
    doc = specfile.document("instrument", specfile.instrument_out(spec))
    kind, spec2 = specfile.load(doc)
    assert kind == "instrument"
    assert np.allclose(spec2.choi, spec.choi)


def _arrays_of(payload):
    """Every array in a payload tree."""
    if isinstance(payload, np.ndarray):
        return [payload]
    values = payload.values() if isinstance(payload, dict) else payload if isinstance(payload, list) else ()
    return [arr for v in values for arr in _arrays_of(v)]


def _spec_arrays(kind, spec):
    if kind == "kernel":
        return [spec.action.table, spec.alpha, spec.sigma.values, spec.rep.matrices, spec.rep.cocycle.values, spec.blocks]
    if kind == "cpmap":
        u, rep = spec.symmetry.u, spec.symmetry.rep
        return [spec.values, u.matrices, u.cocycle.values, rep.matrices, rep.cocycle.values]
    sym = spec.symmetry
    reps = [sym.rep] + ([sym.out_rep] if kind == "instrument" else [])
    return [spec.effects if kind == "observable" else spec.choi] + [a for r in reps for a in (r.matrices, r.cocycle.values)]


S3 = FiniteGroup.symmetric(3)
ROUND_TRIP_SPECS = {
    "kernel": lambda rng: rand_covariant_kernel(rng, S3, max_x=3, n_v=2),
    "cpmap": lambda rng: rand_covariant_cpmap(rng, (2, 1), S3, n_v=2),
    "observable": lambda rng: rand_covariant_observable(rng, all_subgroups(S3)[1], v_dim=2),
    "instrument": lambda rng: rand_covariant_instrument(rng, all_subgroups(S3)[1], k_dim=2, v_dim=2),
    "phase_space_instrument": lambda rng: phase_space(3, specfile.load(phase_space_doc(3))[1][1]),
}


@pytest.mark.parametrize("name", ROUND_TRIP_SPECS)
def test_in_memory_round_trip_and_fresh_payload_arrays(name):
    # the payload builders hand arrays, which the readers take without a JSON pass
    spec = ROUND_TRIP_SPECS[name](np.random.default_rng(12))
    kind = name.split("_")[-1]
    out, read = getattr(specfile, f"{kind}_out"), getattr(specfile, f"{kind}_in")
    payload = out(spec)
    loaded = read(payload)
    if kind == "kernel":
        loaded = loaded[0]
    for want, got in zip(_spec_arrays(kind, spec), _spec_arrays(kind, loaded), strict=True):
        assert np.array_equal(want, got)
    # no payload array is a view of the spec's own, so editing one leaves the spec alone
    before = [a.copy() for a in _spec_arrays(kind, spec)]
    assert _arrays_of(payload)
    for arr in _arrays_of(payload):
        arr[...] = 7
    for want, got in zip(before, _spec_arrays(kind, spec)):
        assert np.array_equal(want, got)
    # and the text of the payload is what json writes for its lists
    text = specfile.document(kind, out(spec))
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1)
    assert specfile.load(text)[0] == kind


def test_unknown_field_rejected():
    doc = json.loads(flip_observable_doc())
    doc["payload"]["extra"] = 1
    with pytest.raises(specfile.SpecFileError):
        specfile.load(json.dumps(doc))


def test_version_checked():
    doc = json.loads(flip_observable_doc())
    doc["version"] = "2"
    with pytest.raises(specfile.SpecFileError):
        specfile.load(json.dumps(doc))


def test_cli_validate_phase_space(tmp_path, capsys, monkeypatch):
    # the instrument is validated once, on the Kraus rows it is built from, and that
    # certificate is printed: no dense certificate runs, and its verdicts agree
    import covkit.cli
    import covkit.instruments

    calls, dense = [], []
    validate_rows = covkit.instruments._validate_rows

    def counted(specs, rows, middles, tol):
        found = validate_rows(specs, rows, middles, tol)
        calls.extend(zip(specs, found))
        return found

    def dense_counted(spec, tol):
        dense.append(spec)
        return validate_instrument(spec, tol)

    monkeypatch.setattr(covkit.instruments, "_validate_rows", counted)
    monkeypatch.setattr(covkit.instruments, "validate_instrument", dense_counted)
    monkeypatch.setattr(covkit.cli, "validate_instrument", dense_counted)
    path = write(tmp_path, "ps.json", phase_space_doc())
    assert main(["validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1 and dense == []
    spec, got = calls[0]
    assert report["verdicts"] == {name: {"ok": c.ok, "residual": c.residual} for name, c in got.items()}
    want = validate_instrument(spec)
    assert {name: c.ok for name, c in got.items()} == {name: c.ok for name, c in want.items()}
    # the row residual bounds the exact blocks' defect; the dense one adds its own rounding
    rounding = 64 * np.finfo(float).eps * max(1.0, float(np.abs(spec.choi).max()))
    assert want["covariance"].residual <= got["covariance"].residual + rounding


def test_cli_validate_failure_exit_code(tmp_path, capsys):
    doc = json.loads(flip_observable_doc())
    # scale the effects so they no longer sum to the identity
    for eff in doc["payload"]["effects"]:
        for row in eff:
            for entry in row:
                entry[0] *= 2.0
    path = write(tmp_path, "bad.json", json.dumps(doc))
    assert main(["validate", path]) == 1


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "broken.json", "{not json")
    assert main(["validate", path]) == 2


def test_cli_validate_kernel_reports_positivity_residual(tmp_path, capsys):
    path = write(tmp_path, "kernel.json", ones_kernel_doc())
    assert main(["validate", path]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["positive"]["ok"] and verdicts["positive"]["residual"] <= 1e-12

    # blocks [[1, 2], [2, 1]] are covariant but have eigenvalue -1
    doc = json.loads(ones_kernel_doc())
    doc["payload"]["blocks"][0][1] = specfile.matrix_out(2.0 * np.ones((1, 1)))
    doc["payload"]["blocks"][1][0] = specfile.matrix_out(2.0 * np.ones((1, 1)))
    path = write(tmp_path, "negative.json", json.dumps(doc))
    assert main(["validate", path]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["covariant"]["ok"]
    assert not verdicts["positive"]["ok"]
    assert verdicts["positive"]["residual"] == pytest.approx(1.0)


def _refuse_constant(name):
    raise AssertionError(f"the report holds {name}, which is not JSON")


@pytest.mark.parametrize("command", ["validate", "dilate", "extremal"])
def test_cli_huge_alpha_is_a_failed_verdict_not_a_traceback(tmp_path, capsys, command):
    # |alpha|^2 = 1e320 overflows a float: the bound is inf, which certifies nothing
    spec = rand_covariant_kernel(np.random.default_rng(16), FiniteGroup.symmetric(4), max_x=4, n_v=2)
    doc = json.loads(specfile.document("kernel", specfile.kernel_out(spec, [(0, 0)])))
    doc["payload"]["alpha"][1][0] = [1e160, 0.0]
    assert main([command, write(tmp_path, "kernel.json", json.dumps(doc))]) == 1
    captured = capsys.readouterr()
    failures = [line for line in captured.err.splitlines() if not line.startswith("wall time")]
    if command == "validate":
        # strict JSON: the non-finite residual is written as null, never as Infinity or NaN
        verdicts = json.loads(captured.out, parse_constant=_refuse_constant)["verdicts"]
        assert not verdicts["alpha_cocycle"]["ok"] and not verdicts["covariant"]["ok"]
        assert verdicts["covariant"]["residual"] is None
        assert failures == []
    else:
        assert failures == ["validation failure: kernel invalid: alpha_cocycle, covariant"]


def test_cli_dilate_kernel(tmp_path, capsys):
    path = write(tmp_path, "kernel.json", ones_kernel_doc())
    assert main(["dilate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["decomposition"]["rank"] == 1


def test_cli_extremal_flip_half_emits_revalidating_split(tmp_path, capsys):
    path = write(tmp_path, "obs.json", flip_observable_doc(0.5))
    assert main(["extremal", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["decision"]["extreme"] is False
    split = report["artifacts"]["split"]
    for side in ("plus", "minus"):
        doc = specfile.document("observable", split[side])
        path2 = write(tmp_path, f"{side}.json", doc)
        assert main(["validate", path2]) == 0


def test_cli_extremal_projective_flip(tmp_path, capsys):
    path = write(tmp_path, "obs.json", flip_observable_doc(1.0))
    assert main(["extremal", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["decision"]["extreme"] is True


def test_cli_kraus_instrument(tmp_path, capsys):
    ps = write(tmp_path, "ps.json", phase_space_doc())
    assert main(["phase-space", ps, "--out", str(tmp_path / "inst.json")]) == 0
    assert main(["kraus", str(tmp_path / "inst.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["kraus"]["count"] == 1


def test_cli_kraus_instrument_prints_the_roundtrip_residual(tmp_path, capsys):
    rng = np.random.default_rng(12)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b /= np.sqrt(3 * np.trace(b.conj().T @ b).real)
    payload = {"d": 3, "seed_ops": [specfile.matrix_out(b)]}
    ps = write(tmp_path, "ps.json", specfile.document("phase_space", payload))
    inst = str(tmp_path / "inst.json")
    assert main(["phase-space", ps, "--out", inst]) == 0
    capsys.readouterr()
    assert main(["kraus", inst]) == 0
    report = json.loads(capsys.readouterr().out)
    _, spec = specfile.load((tmp_path / "inst.json").read_text())
    ops = [specfile.matrix_in(m, "op") for m in report["artifacts"]["kraus"]["operators"]]
    rebuilt = instrument_from_B(CovariantInstrumentData(tuple(ops)), spec.symmetry)
    want = max(np.linalg.norm(a - c) for a, c in zip(rebuilt.choi, spec.choi))
    assert 0.0 < want < 1e-12
    # the residual B_from_instrument computed, not a placeholder 0.0
    assert report["verdicts"]["roundtrip"] == {"ok": True, "residual": pytest.approx(want, rel=1e-12)}


def test_cli_dilate_artifact_revalidates(tmp_path, capsys):
    # artifacts from dilate feed back: the isometry compresses to the effects
    path = write(tmp_path, "obs.json", flip_observable_doc(0.3))
    assert main(["dilate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    naim = report["artifacts"]["naimark"]
    iso = specfile.matrix_in(naim["isometry"], "isometry")
    assert np.allclose(iso.conj().T @ iso, np.eye(2), atol=1e-8)


def test_cli_dilate_cocycle_blocks_carry_fiber_g_inverse_w_into_w(tmp_path, capsys):
    # Z_4 acting on its own points, where g^{-1} differs from g: F_w rep(g) = blk F_{g^{-1} w}
    group = FiniteGroup.cyclic(4)
    spec = rand_covariant_observable(np.random.default_rng(2), SubgroupData(group, (0,)), v_dim=2)
    path = write(tmp_path, "obs.json", specfile.document("observable", specfile.observable_out(spec)))
    assert main(["dilate", path]) == 0
    naim = json.loads(capsys.readouterr().out)["artifacts"]["naimark"]
    iso = specfile.matrix_in(naim["isometry"], "isometry")
    start = np.cumsum([0] + naim["fiber_dims"])
    fibers = [iso[a:b] for a, b in zip(start, start[1:])]
    assert sorted(naim["cocycle_blocks"]) == [str(g) for g in group.elements()]
    for g in group.elements():
        for w, blk in enumerate(naim["cocycle_blocks"][str(g)]):
            src = spec.symmetry.action.apply(group.inv(g), w)
            blk = specfile.matrix_in(blk, "block")
            assert np.allclose(fibers[w] @ spec.symmetry.rep(g), blk @ fibers[src], atol=1e-10)


def test_cli_sample_stream(tmp_path, capsys):
    ps = write(tmp_path, "ps.json", phase_space_doc())
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    st = write(tmp_path, "state.json", state_doc(rho))
    assert main(["sample", ps, st, "-n", "50", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 50
    first = json.loads(lines[0])
    assert isinstance(first[0], int) and 0 <= first[0] < 4
    assert 0.0 <= first[1] <= 1.0


def test_cli_sample_refuses_an_invalid_instrument(tmp_path, capsys):
    # every Choi block of a d = 3 phase-space instrument doubled: the effects
    # sum to 2 I, which validate fails, so sample must exit 1 with one
    # diagnostic line and draw nothing
    seed = np.diag([3 ** -0.5, 0, 0]).astype(complex)
    spec = phase_space(3, [seed])
    doubled = InstrumentSpec(2 * spec.choi, spec.symmetry)
    inst = write(tmp_path, "inst.json", specfile.document("instrument", specfile.instrument_out(doubled)))
    st = write(tmp_path, "state.json", state_doc(np.diag([0.5, 0.3, 0.2]).astype(complex)))
    assert main(["validate", inst]) == 1
    capsys.readouterr()
    assert main(["sample", inst, st, "-n", "5", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostics = [line for line in captured.err.splitlines() if not line.startswith("wall time: ")]
    assert diagnostics == ["validation failure: instrument invalid: normalization"]
    # the valid instrument still samples
    valid = write(tmp_path, "valid.json", specfile.document("instrument", specfile.instrument_out(spec)))
    assert main(["sample", valid, st, "-n", "5", "--seed", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_cli_sample_names_both_sizes_of_a_state_of_the_wrong_size(tmp_path, capsys):
    # a 3 x 3 state for a d = 2 phase_space document: exit 1, one line naming
    # both sizes, not numpy's broadcast error
    ps = write(tmp_path, "ps.json", phase_space_doc())
    st = write(tmp_path, "state.json", state_doc(np.eye(3, dtype=complex) / 3))
    assert main(["sample", ps, st, "-n", "5", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostics = [line for line in captured.err.splitlines() if not line.startswith("wall time: ")]
    assert diagnostics == ["validation failure: state has shape (3, 3), but the instrument acts on 2 x 2 states"]


@pytest.mark.parametrize("enabled", [True, False])
def test_load_restores_the_collector_state(enabled):
    # the loader pauses the cyclic collector while it parses; the state the
    # caller had comes back after a good document and after a malformed one
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert specfile.load(flip_observable_doc())[0] == "observable"
        assert gc.isenabled() is enabled
        with pytest.raises(specfile.SpecFileError):
            specfile.load(flip_observable_doc().replace('"version": "1"', '"version": "2"'))
        assert gc.isenabled() is enabled
        with pytest.raises(json.JSONDecodeError):
            specfile.load("{")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_cli_reports_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "obs.json", flip_observable_doc(0.5))
    main(["extremal", path])
    out1 = capsys.readouterr().out
    main(["extremal", path])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_cli_validate_group_document(tmp_path, capsys):
    vals = np.ones((2, 2), dtype=complex)
    vals[1, 1] = -1.0
    payload = {
        "group": {"name": "cyclic", "n": 2},
        "cocycle": specfile.matrix_out(vals),
        "rep": {"matrices": [specfile.matrix_out(np.eye(2))] * 2},
    }
    path = write(tmp_path, "group.json", specfile.document("group", payload))
    assert main(["validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["cocycle"]["ok"]
    assert report["verdicts"]["rep"]["ok"]


def test_cli_validate_and_kraus_cpmap(tmp_path, capsys):
    # the completely mixing map on a qubit
    alg_units = 4
    values = []
    for a in range(2):
        for b in range(2):
            values.append((np.eye(2) / 2.0 if a == b else np.zeros((2, 2))).astype(complex))
    payload = {
        "blocks": [2],
        "module": {"k": 1, "n_v": 2},
        "values": [specfile.matrix_out(v) for v in values],
    }
    path = write(tmp_path, "cp.json", specfile.document("cpmap", payload))
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["kraus", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["kraus"]["count"] == 4


def test_cli_validate_state(tmp_path, capsys):
    good = write(tmp_path, "rho.json", state_doc(np.diag([0.25, 0.75]).astype(complex)))
    assert main(["validate", good]) == 0
    capsys.readouterr()
    bad = write(tmp_path, "bad.json", state_doc(np.diag([1.0, 1.0]).astype(complex)))
    assert main(["validate", bad]) == 1


def test_cli_validate_state_reports_the_positivity_residual(tmp_path, capsys):
    good = write(tmp_path, "rho.json", state_doc(np.diag([0.25, 0.75]).astype(complex)))
    assert main(["validate", good]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["positive"] == {"ok": True, "residual": 0.0}
    bad = write(tmp_path, "bad.json", state_doc(np.diag([1.25, -0.25]).astype(complex)))
    assert main(["validate", bad]) == 1
    positive = json.loads(capsys.readouterr().out)["verdicts"]["positive"]
    assert not positive["ok"] and positive["residual"] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("command", ["validate", "sample"])
def test_cli_state_trace_bound_is_tol_recon_fro(command, tmp_path, capsys):
    # trace 1 + 5e-8 is outside the default 1e-8 and inside 1e-6
    state = write(tmp_path, "rho.json", state_doc(np.diag([0.5 + 5e-8, 0.5]).astype(complex)))
    argv = [command, state]
    if command == "sample":
        argv = [command, write(tmp_path, "ps.json", phase_space_doc()), state, "-n", "3"]
    assert main(argv) == 1
    capsys.readouterr()
    assert main(argv + ["--tol-recon-fro", "1e-6"]) == 0


def test_cli_kernel_extremal_uses_z_pairs_from_file(tmp_path, capsys):
    doc = json.loads(ones_kernel_doc())
    doc["payload"]["z_pairs"] = [[0, 0], [1, 1]]
    path = write(tmp_path, "kernel.json", json.dumps(doc))
    assert main(["extremal", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifacts"]["decision"]["extreme"] is True


def test_cli_json_out(tmp_path, capsys):
    path = write(tmp_path, "ps.json", phase_space_doc())
    target = tmp_path / "report.json"
    assert main(["validate", path, "--json-out", str(target)]) == 0
    stdout_report = capsys.readouterr().out
    assert json.loads(target.read_text()) == json.loads(stdout_report)


@pytest.mark.parametrize(
    "entry,message",
    [
        ("[true, 0]", "pairs of real numbers"),
        ("[0, false]", "pairs of real numbers"),
        ("[NaN, 0]", "must be finite"),
        ("[0, -Infinity]", "must be finite"),
        ("[1e400, 0]", "must be finite"),
    ],
)
def test_cli_validate_rejects_non_numeric_entries(tmp_path, capsys, entry, message):
    text = state_doc(np.diag([0.25, 0.75]).astype(complex))
    doc = json.loads(text)
    doc["payload"]["matrix"][1][0] = "ENTRY"
    text = json.dumps(doc).replace('"ENTRY"', entry)
    path = write(tmp_path, "rho.json", text)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "payload.matrix[1][0]" in err and message in err


def _matrix_out_by_entry(mat):
    # the per-entry form matrix_out replaced
    mat = np.asarray(mat, dtype=np.complex128)
    return [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in mat]


def test_matrix_out_matches_per_entry_form():
    rng = np.random.default_rng(12)
    for shape in [(1, 1), (3, 3), (2, 5), (7, 4)]:
        mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mat[rng.random(shape) < 0.3] *= 1e-310  # subnormal entries
        mat.flat[-1] = complex(5e-324, -0.0)
        mat[0, 0] = complex(-0.0, -0.0)
        out = specfile.matrix_out(mat)
        assert json.dumps(out) == json.dumps(_matrix_out_by_entry(mat))
        assert "-0.0" in json.dumps(out)
    real = np.arange(6.0).reshape(2, 3) - 2.0
    assert json.dumps(specfile.matrix_out(real)) == json.dumps(_matrix_out_by_entry(real))


def _matrix_in_by_entry(obj):
    # the entry-by-entry form matrix_in falls back to
    return np.array([[complex(re, im) for re, im in row] for row in obj], dtype=np.complex128)


def test_matrix_in_matches_per_entry_form():
    rng = np.random.default_rng(13)
    for shape in [(1, 1), (3, 3), (2, 5)]:
        mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mat[rng.random(shape) < 0.3] *= 1e-310
        mat[0, 0] = complex(-0.0, -0.0)
        obj = json.loads(json.dumps(specfile.matrix_out(mat)))
        obj[-1][-1] = [3, -4]  # JSON integers
        got, want = specfile.matrix_in(obj, "m"), _matrix_in_by_entry(obj)
        assert got.dtype == np.complex128 and got.shape == shape
        assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes()


@pytest.mark.parametrize(
    "obj,message",
    [
        ([[[0, 1], [True, 0]]], "m[0][1]: complex numbers are [re, im] pairs of real numbers"),
        ([[[0, 1], [0, float("nan")]]], "m[0][1]: complex entries must be finite"),
        ([[[float("-inf"), 1]]], "m[0][0]: complex entries must be finite"),
        ([[[0, 0]], [[10**400, 0]]], "m[1][0]: complex entries must be finite"),
        ([[[0, 0], [1, 0]], [[2, 0]]], "m: ragged matrix"),
        ([[[0, 0, 0]]], "m[0][0]: complex numbers are [re, im] pairs of real numbers"),
        ([[[0, 0], 5]], "m[0][1]: complex numbers are [re, im] pairs of real numbers"),
        ([[[0, 0], ["1", 0]]], "m[0][1]: complex numbers are [re, im] pairs of real numbers"),
        ([[[0, 0], [None, 0]]], "m[0][1]: complex numbers are [re, im] pairs of real numbers"),
        ([[[[0, 0], [0, 0]]]], "m[0][0]: complex numbers are [re, im] pairs of real numbers"),
        ([[0, 0]], "m[0][0]: complex numbers are [re, im] pairs of real numbers"),
        ([], "m: matrices are nested row-major arrays"),
    ],
)
def test_matrix_in_names_the_first_bad_entry(obj, message):
    with pytest.raises(specfile.SpecFileError) as info:
        specfile.matrix_in(obj, "m")
    assert str(info.value) == message


def _observable_doc_with(edit):
    doc = json.loads(flip_observable_doc())
    edit(doc["payload"])
    return json.dumps(doc)


def _set(obj, key, value):
    obj[key] = value


INTEGER_FIELD_CASES = [
    (specfile.document("group", {"group": {"mul": [[0, 1], [1, 0.7]]}}), "group.mul[1][1]"),
    (specfile.document("group", {"group": {"mul": [[0, True], [1, 0]]}}), "group.mul[0][1]"),
    (specfile.document("group", {"group": {"name": "cyclic", "n": "3"}}), "group.n"),
    (specfile.document("group", {"group": {"name": "dihedral", "n": 4.0}}), "group.n"),
    (
        specfile.document("group", {"group": {"name": "cyclic", "n": 2}, "action": [[0, 1], [1, "0"]]}),
        "payload.action[1][1]",
    ),
    (_observable_doc_with(lambda p: _set(p, "subgroup", [True])), "payload.subgroup[0]"),
    (phase_space_doc().replace('"d": 2', '"d": 2.0'), "payload.d"),
    (
        ones_kernel_doc().replace('"n_v": 1', '"n_v": true'),
        "payload.module.n_v",
    ),
    (
        specfile.document("cpmap", {"blocks": [2.5], "module": {"k": 1, "n_v": 1}, "values": []}),
        "payload.blocks[0]",
    ),
]


@pytest.mark.parametrize("text,path", INTEGER_FIELD_CASES, ids=[c[1] for c in INTEGER_FIELD_CASES])
def test_cli_rejects_non_integer_integer_fields(tmp_path, capsys, text, path):
    file = write(tmp_path, "doc.json", text)
    assert main(["validate", file]) == 2
    err = capsys.readouterr().err
    assert f"{path}: expected an integer" in err


def test_cli_rejects_bad_z_pairs(tmp_path, capsys):
    doc = json.loads(ones_kernel_doc())
    doc["payload"]["z_pairs"] = [[0, 0], [1, 0.5]]
    assert main(["extremal", write(tmp_path, "k.json", json.dumps(doc))]) == 2
    assert "payload.z_pairs[1][1]: expected an integer" in capsys.readouterr().err
    doc["payload"]["z_pairs"] = [[0, 0, 1]]
    assert main(["extremal", write(tmp_path, "k.json", json.dumps(doc))]) == 2
    assert "payload.z_pairs" in capsys.readouterr().err


def _edited(text, edit):
    doc = json.loads(text)
    edit(doc["payload"])
    return json.dumps(doc)


def _group_doc(**group):
    return lambda: specfile.document("group", {"group": group})


MALFORMED = {
    "kernel row one block short": (
        "validate", lambda: _edited(ones_kernel_doc(), lambda p: _set(p["blocks"], 0, p["blocks"][0][:1])),
        "payload.blocks[0]: need one block per point, all of one shape",
    ),
    "kernel row a number": (
        "validate", lambda: _edited(ones_kernel_doc(), lambda p: _set(p["blocks"], 1, 3)),
        "payload.blocks[1]: expected a non-empty array of matrices",
    ),
    "cpmap values a number": (
        "validate", lambda: _edited(_cpmap_doc(), lambda p: _set(p, "values", 7)),
        "payload.values: expected a non-empty array of matrices",
    ),
    "cpmap values empty": (
        "validate", lambda: _edited(_cpmap_doc(), lambda p: _set(p, "values", [])),
        "payload.values: expected a non-empty array of matrices",
    ),
    "rep matrices an object": (
        "validate", lambda: _edited(flip_observable_doc(), lambda p: _set(p["rep"], "matrices", {})),
        "payload.rep.matrices: expected a non-empty array of matrices",
    ),
    "effects of two shapes": (
        "validate",
        lambda: _edited(flip_observable_doc(), lambda p: _set(p["effects"], 1, specfile.matrix_out(np.eye(1)))),
        "payload.effects: matrices of different shapes",
    ),
    "z_pairs point past the set": (
        "extremal", lambda: _edited(ones_kernel_doc(), lambda p: _set(p, "z_pairs", [[0, 99]])),
        "payload.z_pairs: entries are [x, y] pairs of points 0 .. 1",
    ),
    "z_pairs negative point": (
        "extremal", lambda: _edited(ones_kernel_doc(), lambda p: _set(p, "z_pairs", [[-1, 0]])),
        "payload.z_pairs: entries are [x, y] pairs of points 0 .. 1",
    ),
    "rep unitary a string": (
        "validate", lambda: _edited(flip_observable_doc(), lambda p: _set(p["rep"], "unitary", "false")),
        "payload.rep.unitary: expected true or false",
    ),
    "cyclic n 0": ("validate", _group_doc(name="cyclic", n=0), "group.n: expected an integer >= 1, got 0"),
    "dihedral n 0": ("validate", _group_doc(name="dihedral", n=0), "group.n: expected an integer >= 1, got 0"),
    "symmetric n 0": ("validate", _group_doc(name="symmetric", n=0), "group.n: expected an integer >= 1, got 0"),
    "symmetric n -1": ("validate", _group_doc(name="symmetric", n=-1), "group.n: expected an integer >= 1, got -1"),
    "heisenberg d 0": ("validate", _group_doc(name="heisenberg", d=0), "group.d: expected an integer >= 1, got 0"),
    "symmetric above the size guard": ("validate", _group_doc(name="symmetric", n=7), "symmetric(n) supported only for n <= 6"),
    # a shape that disagrees with another field
    "group rep one matrix short": (
        "validate",
        lambda: specfile.document("group", {"group": {"name": "cyclic", "n": 2}, "rep": {"matrices": [specfile.matrix_out(np.eye(1))]}}),
        "payload.rep.matrices: need one square matrix per group element (2 x 1 x 1), got 1 x 1 x 1",
    ),
    "group rep cocycle 1 x 1": (
        "validate",
        lambda: specfile.document("group", {
            "group": {"name": "cyclic", "n": 2},
            "rep": {"matrices": [specfile.matrix_out(np.eye(1))] * 2, "cocycle": specfile.matrix_out(np.ones((1, 1)))},
        }),
        "payload.rep.cocycle: need one value per pair of group elements (2 x 2), got 1 x 1",
    ),
    "observable two effects on one coset": (
        "validate", lambda: _edited(flip_observable_doc(), lambda p: _set(p, "subgroup", [0, 1])),
        "payload.effects: need one V x V effect per coset (1 x 2 x 2), got 2 x 2 x 2",
    ),
    "instrument one Choi block short": (
        "validate", lambda: _edited(_instrument_doc(), lambda p: _set(p, "choi", p["choi"][:3])),
        "payload.choi: need one KV x KV Choi block per coset (4 x 4 x 4), got 3 x 4 x 4",
    ),
    "kernel alpha 1 x 1": (
        "validate", lambda: _edited(ones_kernel_doc(), lambda p: _set(p, "alpha", specfile.matrix_out(np.ones((1, 1))))),
        "payload.alpha: need one value per group element and point (2 x 2), got 1 x 1",
    ),
    "kernel module n_v off the rep": (
        "validate", lambda: _edited(ones_kernel_doc(), lambda p: _set(p["module"], "n_v", 2)),
        "payload.module.n_v: need the dimension of payload.rep (1), got 2",
    ),
    "kernel blocks off n_v": (
        "validate", lambda: _edited(ones_kernel_doc(), lambda p: _set(p, "blocks", [[specfile.matrix_out(np.eye(2))] * 2] * 2)),
        "payload.blocks: need one n_V x n_V block per pair of points (2 x 2 x 1 x 1), got 2 x 2 x 2 x 2",
    ),
    "cpmap values one short": (
        "validate", lambda: _edited(_cpmap_doc(), lambda p: _set(p, "values", p["values"][:3])),
        "payload.values: need one n_V x n_V matrix per matrix unit (4 x 2 x 2), got 3 x 2 x 2",
    ),
    "cpmap u off the algebra": (
        "validate", lambda: _edited(_cpmap_doc(), lambda p: _set(p["symmetry"], "u", {"matrices": [specfile.matrix_out(np.eye(1))] * 3})),
        "payload.symmetry.u.matrices: need matrices on the defining space of the algebra (3 x 2 x 2), got 3 x 1 x 1",
    ),
    "cpmap rep off n_v": (
        "validate", lambda: _edited(_cpmap_doc(), lambda p: _set(p["symmetry"], "rep", {"matrices": [specfile.matrix_out(np.eye(1))] * 3})),
        "payload.symmetry.rep.matrices: need n_V x n_V matrices (3 x 2 x 2), got 3 x 1 x 1",
    ),
    "cpmap tensor off the blocks": (
        "validate", lambda: _edited(_cpmap_doc(), lambda p: _set(p, "tensor", {"left_blocks": [1], "right_blocks": [1]})),
        "payload.tensor: the products of left_blocks and right_blocks, left-major, must be payload.blocks",
    ),
    "phase_space seed 1 x 1 at d 2": (
        "validate", lambda: _edited(phase_space_doc(2), lambda p: _set(p, "seed_ops", [specfile.matrix_out(np.eye(1))])),
        "payload.seed_ops: need d x d seed operators (1 x 2 x 2), got 1 x 1 x 1",
    ),
    "phase_space d 0": (
        "validate", lambda: _edited(phase_space_doc(2), lambda p: _set(p, "d", 0)),
        "payload.d: expected an integer >= 1, got 0",
    ),
    "state 1 x 2": (
        "validate", lambda: state_doc(np.array([[1.0, 0.0]])),
        "payload.matrix: need a square matrix (1 x 1), got 1 x 2",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_names_a_malformed_field(tmp_path, capsys, case):
    command, text, message = MALFORMED[case]
    assert main([command, write(tmp_path, "doc.json", text())]) == 2
    err = capsys.readouterr().err
    assert f"parse error: {message}" in err
    assert "Traceback" not in err


def test_phase_space_seed_normalization_follows_tol_recon_fro(tmp_path, capsys):
    b = np.zeros((3, 3), dtype=complex)
    b[0, 0] = np.sqrt((1 + 1e-6) / 3)
    path = write(tmp_path, "ps.json", specfile.document("phase_space", {"d": 3, "seed_ops": [specfile.matrix_out(b)]}))
    assert main(["phase-space", path]) == 1
    assert "seed normalization is 1.000001, expected 1" in capsys.readouterr().err
    assert main(["phase-space", path, "--tol-recon-fro", "1e-4"]) == 0
    choi = specfile.load(capsys.readouterr().out)[1].choi
    assert np.trace(choi.sum(0)).real == pytest.approx(3 * (1 + 1e-6), rel=1e-12)


def _validate_verdicts(tmp_path, capsys, text):
    assert main(["validate", write(tmp_path, "doc.json", text)]) == 1
    return json.loads(capsys.readouterr().out)["verdicts"]


def test_cli_effects_psd_reports_most_negative_eigenvalue(tmp_path, capsys):
    # effects diag(1.5, -0.5) and diag(-0.5, 1.5): covariant, normalized
    verdicts = _validate_verdicts(tmp_path, capsys, flip_observable_doc(p=1.5))
    assert verdicts["normalization"]["ok"] and verdicts["covariance"]["ok"]
    assert not verdicts["effects_psd"]["ok"]
    assert verdicts["effects_psd"]["residual"] == pytest.approx(0.5)


def test_cli_outcomes_cp_reports_most_negative_eigenvalue(tmp_path, capsys):
    d = 2
    b = np.zeros((d, d), dtype=complex)
    b[0, 0] = 1.0 / np.sqrt(d)
    spec = phase_space(d, [b])
    payload = specfile.instrument_out(spec)
    choi = spec.choi - 0.1 * np.eye(spec.choi.shape[1])
    payload["choi"] = [specfile.matrix_out(c) for c in choi]
    verdicts = _validate_verdicts(tmp_path, capsys, specfile.document("instrument", payload))
    assert not verdicts["outcomes_cp"]["ok"]
    low = np.linalg.eigvalsh(choi).min()
    assert verdicts["outcomes_cp"]["residual"] == pytest.approx(-low)


def test_cli_cpmap_covariance_reports_the_part_outside_the_algebra(tmp_path, capsys):
    # Z_2 acting on C + C by the Hadamard: H E_00 H^+ has off-diagonal mass 1/2
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    payload = {
        "blocks": [1, 1],
        "module": {"k": 1, "n_v": 1},
        "values": [specfile.matrix_out(np.ones((1, 1)))] * 2,
        "symmetry": {
            "group": {"name": "cyclic", "n": 2},
            "u": {"matrices": [specfile.matrix_out(np.eye(2)), specfile.matrix_out(h)]},
            "rep": {"matrices": [specfile.matrix_out(np.eye(1))] * 2},
        },
    }
    verdicts = _validate_verdicts(tmp_path, capsys, specfile.document("cpmap", payload))
    assert verdicts["completely_positive"]["ok"]
    assert not verdicts["covariant"]["ok"]
    assert verdicts["covariant"]["residual"] == pytest.approx(np.sqrt(0.5))


def test_cli_completely_positive_reports_most_negative_eigenvalue(tmp_path, capsys):
    # the transpose map on M_2: its Choi matrix is the swap, eigenvalue -1
    values = []
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            values.append(unit.T)
    payload = {
        "blocks": [2],
        "module": {"k": 1, "n_v": 2},
        "values": [specfile.matrix_out(v) for v in values],
    }
    verdicts = _validate_verdicts(tmp_path, capsys, specfile.document("cpmap", payload))
    assert not verdicts["completely_positive"]["ok"]
    assert verdicts["completely_positive"]["residual"] == pytest.approx(1.0)

    capsys.readouterr()
    valid = [np.trace(v) / 2.0 * np.eye(2) for v in values]
    payload["values"] = [specfile.matrix_out(v) for v in valid]
    assert main(["validate", write(tmp_path, "ok.json", specfile.document("cpmap", payload))]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["completely_positive"]["ok"]
    assert verdicts["completely_positive"]["residual"] <= 1e-12


def _cpmap_doc():
    spec = rand_covariant_cpmap(np.random.default_rng(3), (2,), FiniteGroup.cyclic(3), n_v=2)
    return specfile.document("cpmap", specfile.cpmap_out(spec))


def _instrument_doc():
    d, ops = specfile.load(phase_space_doc())[1]
    return specfile.document("instrument", specfile.instrument_out(phase_space(d, ops)))


KSGNS_VERDICTS = {"reconstruction", "sym_unitary", "sym_j", "sym_cocycle"}
VERDICT_NAMES = {
    ("validate", "kernel"): {"positive", "covariant", "alpha_cocycle"},
    ("validate", "cpmap"): {"completely_positive", "covariant"},
    ("validate", "observable"): {"effects_psd", "normalization", "covariance"},
    ("validate", "instrument"): {"outcomes_cp", "normalization", "covariance"},
    ("dilate", "kernel"): {"reconstruction", "unitarity", "cocycle", "intertwining"},
    ("dilate", "cpmap"): KSGNS_VERDICTS,
    # the KSGNS dilation of the observable's CP form, and its normalization
    ("dilate", "observable"): KSGNS_VERDICTS | {"isometry"},
    # the phase-space translations permute the outcome blocks
    ("dilate", "instrument"): KSGNS_VERDICTS,
}
DOCUMENTS = {
    "kernel": ones_kernel_doc,
    "cpmap": _cpmap_doc,
    "observable": lambda: flip_observable_doc(0.3),
    "instrument": _instrument_doc,
}


@pytest.mark.parametrize("command,kind", sorted(VERDICT_NAMES))
def test_cli_verdict_names_per_kind(tmp_path, capsys, command, kind):
    path = write(tmp_path, f"{kind}.json", DOCUMENTS[kind]())
    assert main([command, path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == kind
    assert set(report["verdicts"]) == VERDICT_NAMES[command, kind]
    assert all(v["ok"] for v in report["verdicts"].values())


def test_memory_error_is_a_resource_failure_with_exit_code_4(tmp_path, capsys, monkeypatch):
    from covkit import cli

    def exhausted(spec, tol):
        raise MemoryError("Unable to allocate 3.62 GiB for an array with shape (1296, 432, 432) and data type complex128")

    monkeypatch.setattr(cli, "instrument_extremal", exhausted)
    seed = write(tmp_path, "seed.json", phase_space_doc(2))
    out = str(tmp_path / "instrument.json")
    assert main(["phase-space", seed, "--out", out]) == 0
    capsys.readouterr()
    assert main(["extremal", out]) == cli.EXIT_RESOURCE == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    failures = [line for line in captured.err.splitlines() if not line.startswith("wall time")]
    assert failures == [
        "resource failure: Unable to allocate 3.62 GiB for an array with shape (1296, 432, 432) and data type complex128"
    ]


def broken_flip(kind):
    """The Z_2 flip observable, or an instrument with K = 2 built the same
    way (C_1 = W C_0 W^+, W = conj(flip) (x) flip), with covariance broken by
    sqrt(2) 1e-8: just over the bound 1e-8 max(1, max|entry|).  Returns the
    document and the instrument the engines check."""
    group = FiniteGroup.cyclic(2)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = MultiplierRep(group, TwoCocycle.trivial(group), np.stack([np.eye(2, dtype=complex), flip]))
    sub = SubgroupData(group, (0,))
    if kind == "observable":
        effects = np.stack([np.diag([0.9, 0.1]), np.diag([0.1, 0.9])]).astype(complex)
        effects[:, 0, 0] += [1e-8, -1e-8]
        spec = ObservableSpec(effects, Symmetry(sub, rep))
        return specfile.document(kind, specfile.observable_out(spec)), spec.as_instrument()
    choi = np.stack([np.diag([0.45, 0.05, 0.45, 0.05]), np.diag([0.05, 0.45, 0.05, 0.45])]).astype(complex)
    choi[:, 0, 0] += [1e-8, -1e-8]
    spec = InstrumentSpec(choi, Symmetry(sub, rep, rep))
    return specfile.document(kind, specfile.instrument_out(spec)), spec


@pytest.mark.parametrize("kind,commands", [("observable", "validate dilate extremal"), ("instrument", "validate dilate extremal kraus")])
def test_cli_commands_agree_on_a_broken_covariance(tmp_path, capsys, kind, commands):
    text, instrument = broken_flip(kind)
    path = write(tmp_path, f"{kind}.json", text)
    checks = [validate_instrument(instrument)["covariance"], cp_validate(as_cpmap(instrument))["covariant"]]
    if kind == "observable":
        checks.append(validate_observable(specfile.load(text)[1])["covariance"])
    assert not any(check.ok for check in checks)
    assert [check.residual for check in checks] == pytest.approx([np.sqrt(2) * 1e-8] * len(checks), rel=1e-6)
    assert max(c.residual for c in checks) - min(c.residual for c in checks) <= 1e-12 * checks[0].residual
    for command in commands.split():
        capsys.readouterr()
        assert main([command, path]) == 1, command
        if command == "validate":
            verdict = json.loads(capsys.readouterr().out)["verdicts"]["covariance"]
            assert verdict == {"ok": False, "residual": checks[0].residual}



def test_cli_extremal_names_an_observable_by_the_instrument_verdicts(tmp_path, capsys):
    # diag(1.2, -0.2): covariant and normalized, one negative eigenvalue per effect
    path = write(tmp_path, "observable.json", flip_observable_doc(1.2))
    assert main(["validate", path]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [name for name, v in verdicts.items() if not v["ok"]] == ["effects_psd"]
    assert main(["extremal", path]) == 1
    assert "validation failure: instrument invalid: outcomes_cp\n" in capsys.readouterr().err

@pytest.mark.parametrize(
    "kind,field,commands",
    [
        ("observable", "rep", "validate dilate extremal"),
        ("instrument", "rep", "validate dilate extremal kraus"),
        ("instrument", "out_rep", "validate dilate extremal kraus"),
    ],
)
def test_cli_rejects_an_outcome_rep_flagged_not_unitary(tmp_path, capsys, kind, field, commands):
    # covariance of an observable or instrument moves by rep(g) and rep(g)^+,
    # so every command refuses a representation flagged not unitary at load
    obj = json.loads(DOCUMENTS[kind]())
    obj["payload"][field]["unitary"] = False
    path = write(tmp_path, f"{kind}.json", json.dumps(obj))
    for command in commands.split():
        capsys.readouterr()
        assert main([command, path]) == 2, command
        assert f"payload.{field}.unitary: an observable or instrument representation must be unitary" in capsys.readouterr().err


# -- the front door: the command table, its help text and its usage errors -----

TOL_FLAGS = ["--tol-psd-eig", "--tol-rank-rel", "--tol-unitary-fro", "--tol-recon-fro"]
FLAGS = {
    "validate": TOL_FLAGS + ["--json-out"],
    "dilate": TOL_FLAGS + ["--json-out"],
    "extremal": TOL_FLAGS + ["--json-out"],
    "kraus": TOL_FLAGS + ["--json-out"],
    "phase-space": TOL_FLAGS + ["--out"],
    "sample": TOL_FLAGS + ["-n", "--seed"],
}


@pytest.fixture
def docs(tmp_path):
    d, ops = specfile.load(phase_space_doc(2))[1]
    return {
        "ps": write(tmp_path, "ps.json", phase_space_doc(2)),
        "inst": write(tmp_path, "inst.json", specfile.document("instrument", specfile.instrument_out(phase_space(d, ops)))),
        "state": write(tmp_path, "state.json", state_doc(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))),
        "tmp": str(tmp_path),
    }


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_cli_help_lists_the_six_commands(flag, capsys):
    assert main([flag]) == 0
    captured = capsys.readouterr()
    section = captured.out.split("commands:\n")[1].split("\n\n")[0]
    assert [line.split()[0] for line in section.splitlines()] == list(FLAGS)
    assert captured.err == ""


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", FLAGS)
def test_cli_command_help_lists_exactly_its_flags(command, flag, capsys):
    # help wins over a missing positional, and may follow one
    for argv in ([command, flag], [command, "doc.json", flag]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: covkit {command} ") and captured.err == ""
        rows = captured.out.split("options:\n")[1].splitlines()
        listed = [tok.rstrip(",") for row in rows for tok in re.split(r"\s{2,}", row.strip())[0].split() if tok.startswith("-")]
        assert sorted(listed) == sorted(FLAGS[command] + ["-h", "--help"])


@pytest.mark.parametrize("command", ["validate", "dilate", "extremal", "kraus"])
def test_cli_flag_equals_value_reads_as_flag_value(command, docs, capsys):
    spaced = [command, docs["inst"], "--tol-recon-fro", "1e-7", "--tol-psd-eig", "2e-9"]
    joined = [command, "--tol-recon-fro=1e-7", docs["inst"], "--tol-psd-eig=2e-9"]
    outs = []
    for argv in (spaced, joined):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["tolerances"] == {"psd_eig": 2e-9, "rank_rel": 1e-9, "unitary_fro": 1e-8, "recon_fro": 1e-7}


def test_cli_stream_commands_read_flag_equals_value(docs, capsys):
    outs = []
    for argv in (
        ["sample", docs["ps"], docs["state"], "-n", "7", "--seed", "3"],
        ["sample", "-n=7", "--seed=3", docs["ps"], "--", docs["state"]],
    ):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 7
    assert main(["sample", docs["ps"], docs["state"], "-n", "0"]) == 0
    assert capsys.readouterr().out == ""
    spaced, joined = (os.path.join(docs["tmp"], name) for name in ("spaced.json", "joined.json"))
    assert main(["phase-space", docs["ps"], "--out", spaced]) == 0
    assert main(["phase-space", f"--out={joined}", docs["ps"]]) == 0
    assert Path(spaced).read_text() == Path(joined).read_text()


USAGE_ERRORS = [
    ([], "missing command (one of validate, dilate, extremal, kraus, phase-space, sample)"),
    (["frobnicate", "{inst}"], "unknown command 'frobnicate'"),
    (["--tol-psd-eig", "1e-9", "validate", "{inst}"], "unknown command '--tol-psd-eig'"),
    (["validate", "{inst}", "--frobnicate", "1"], "validate: unknown option --frobnicate"),
    # options are spelled in full: no prefix abbreviations
    (["validate", "{inst}", "--tol-psd", "1e-3"], "validate: unknown option --tol-psd"),
    (["validate", "{inst}", "--out", "{tmp}/x"], "validate: --out is an option of phase-space, not of validate"),
    (["extremal", "{inst}", "--seed", "3"], "extremal: --seed is an option of sample, not of extremal"),
    (["sample", "{ps}", "{state}", "--json-out", "{tmp}/x"], "sample: --json-out is an option of validate, dilate, extremal, kraus"),
    (["phase-space", "{ps}", "--json-out={tmp}/x"], "phase-space: --json-out is an option of validate"),
    (["validate"], "validate: missing FILE"),
    (["sample", "{ps}"], "sample: missing STATE"),
    (["validate", "{inst}", "{inst}"], "validate: unexpected argument"),
    (["validate", "{inst}", "--json-out"], "validate: --json-out needs a value"),
    (["phase-space", "{ps}", "--out="], "phase-space: --out: expected a path, got an empty string"),
    (["sample", "{ps}", "{state}", "-n", "-1"], "sample: -n: expected a non-negative integer, got '-1'"),
    (["sample", "{ps}", "{state}", "-n", "2.5"], "sample: -n: expected a non-negative integer, got '2.5'"),
    (["sample", "{ps}", "{state}", "--seed=-1"], "sample: --seed: expected a non-negative integer, got '-1'"),
    (["sample", "{ps}", "{state}", "--seed", "x"], "sample: --seed: expected a non-negative integer, got 'x'"),
] + [
    ([command, "{inst}", flag, value], f"{command}: {flag}: expected a positive finite number, got {value!r}")
    for command, flag in (("validate", "--tol-psd-eig"), ("dilate", "--tol-rank-rel"), ("kraus", "--tol-unitary-fro"), ("extremal", "--tol-recon-fro"))
    for value in ("nan", "inf", "-inf", "0", "-1e-9", "1e-9x")
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_usage_error_is_exit_2_with_one_line(argv, message, docs, capsys):
    assert main([a.format(**docs) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("usage error: ")
    assert message in captured.err
    assert not os.path.exists(os.path.join(docs["tmp"], "x"))


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{inst}", "--json-out", "{tmp}/missing/x"],
        ["extremal", "{inst}", "--json-out", "{tmp}"],
        ["phase-space", "{ps}", "--out", "{tmp}/missing/x"],
    ],
    ids=lambda v: " ".join(v),
)
def test_cli_unwritable_output_path_is_exit_2_with_one_line(argv, docs, capsys):
    argv = [a.format(**docs) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if not line.startswith("wall time: ")]
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith(f"parse error: cannot write {argv[-1]}: ")


def test_cli_symmetric_groups_load_up_to_n_6(tmp_path):
    for n in (5, 6):
        assert main(["validate", write(tmp_path, "group.json", _group_doc(name="symmetric", n=n)())]) == 0


def test_report_writes_a_non_finite_residual_as_a_failed_null():
    report = Report("validate", "state", Tolerances())
    for name, residual in (("nan", float("nan")), ("inf", float("inf")), ("huge", 1e300)):
        report.verdict(name, True, residual)
    assert report.body["verdicts"] == {
        "nan": {"ok": False, "residual": None},
        "inf": {"ok": False, "residual": None},
        "huge": {"ok": True, "residual": 1e300},
    }
    assert json.loads(specfile.dumps(report.body), parse_constant=_refuse_constant)["verdicts"]["inf"]["residual"] is None


ARGPARSE_GUARD = """
import sys
from covkit.cli import main
code = main(sys.argv[1:])
print("argparse loaded:", "argparse" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_cli_never_imports_argparse(docs):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv, code in ((["validate", docs["inst"]], 0), (["extremal", docs["inst"]], 0), (["sample", "-h"], 0), (["validate"], 2)):
        run = subprocess.run([sys.executable, "-c", ARGPARSE_GUARD, *argv], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == code, run.stderr
        assert "argparse loaded: False" in run.stderr and "Traceback" not in run.stderr


def test_cli_sample_into_a_closed_pipe_exits_0_without_a_traceback(tmp_path):
    # the reader takes one line and closes the pipe, as `covkit sample ... | head -1` does;
    # 200 000 lines are far more than a pipe buffers, so a write meets the closed end
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    ps = write(tmp_path, "ps.json", phase_space_doc())
    state = write(tmp_path, "state.json", state_doc(np.eye(2) / 2))
    argv = [sys.executable, "-m", "covkit.cli", "sample", ps, state, "-n", "200000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert first[0] in range(4)
    assert "Traceback" not in err and [line.split(":")[0] for line in err.splitlines()] == ["wall time"]
