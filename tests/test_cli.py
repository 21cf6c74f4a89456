import json

import numpy as np
import pytest

from covkit import specfile
from covkit.cli import main
from covkit.fingroup import FiniteGroup, MultiplierRep, SubgroupData, TwoCocycle
from covkit.instruments import ObservableSpec, Symmetry, phase_space
from covkit.random import rand_covariant_cpmap


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


def test_cli_validate_phase_space(tmp_path, capsys):
    path = write(tmp_path, "ps.json", phase_space_doc())
    assert main(["validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(v["ok"] for v in report["verdicts"].values())


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


def test_cli_dilate_artifact_revalidates(tmp_path, capsys):
    # artifacts from dilate feed back: the isometry compresses to the effects
    path = write(tmp_path, "obs.json", flip_observable_doc(0.3))
    assert main(["dilate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    naim = report["artifacts"]["naimark"]
    iso = specfile.matrix_in(naim["isometry"], "isometry")
    assert np.allclose(iso.conj().T @ iso, np.eye(2), atol=1e-8)


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


KSGNS_VERDICTS = {
    "reconstruction", "pi_multiplicative", "pi_adjoint", "pi_unital",
    "sym_solve", "sym_unitary", "sym_j", "sym_twist",
}
VERDICT_NAMES = {
    ("validate", "kernel"): {"positive", "covariant", "alpha_cocycle"},
    ("validate", "cpmap"): {"completely_positive", "covariant", "normal"},
    ("validate", "observable"): {"effects_psd", "normalization", "covariance"},
    ("validate", "instrument"): {"outcomes_cp", "normalization", "covariance"},
    ("dilate", "kernel"): {"dilation_solve", "reconstruction", "unitarity", "cocycle", "intertwining"},
    # u lies in M_2, so the commuting twist is certified too
    ("dilate", "cpmap"): KSGNS_VERDICTS | {"bar_commutes", "bar_cocycle"},
    ("dilate", "observable"): {"cocycle_solve", "isometry", "compression", "intertwining", "block_cocycle"},
    # the phase-space translations permute the outcome blocks: no commuting twist
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
