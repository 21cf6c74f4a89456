"""The output text: ``specfile.dumps`` against ``json.dumps(..., sort_keys=True,
indent=1, allow_nan=False)``, the reports and sample lines of every command, and ``--json-out``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import sample_lines_loop
from test_cli import flip_observable_doc, phase_space_doc, state_doc, write

from covkit import specfile
from covkit.cli import Report, main
from covkit.instruments import phase_space


def listed(obj):
    """The tree with every ndarray replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [listed(v) for v in obj]
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    return obj


def reference(obj):
    return json.dumps(listed(obj), sort_keys=True, indent=1, allow_nan=False)


def assert_agrees(obj):
    """``specfile.dumps`` gives json's text, or refuses a NaN or an infinity as json does."""
    try:
        expected = reference(obj)
    except ValueError as exc:
        assert "not JSON compliant" in str(exc)
        with pytest.raises(ValueError, match="not JSON compliant"):
            specfile.dumps(obj)
    else:
        assert_same_text(specfile.dumps(obj), expected)


def assert_same_text(got, want):
    """Fail at the first character where ``got`` leaves ``want``, showing about
    60 characters of each around it: pytest's assertion rewriting would diff
    the two whole texts, which takes minutes for a text of some kilobytes."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(0, at - 30)
    pytest.fail(f"texts differ at offset {at} of {len(got)} and {len(want)}: {got[lo : at + 30]!r} != {want[lo : at + 30]!r}")


EDGE_CASES = [
    0.1,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    1e300,
    float("nan"),
    float("inf"),
    -float("inf"),
    10**30,
    -(10**30),
    0,
    True,
    False,
    None,
    "",
    "plain",
    "quote \" backslash \\ tab \t newline \n",
    "non-ASCII é 𝔼  ",
    [],
    {},
    [[]],
    [[], []],
    [{}],
    {"": []},
    [0.5],
    [[0.5, -0.0], [5e-324, 1e300]],
    [[[0.1, 0.2]], [[0.3, 0.4]], [[0.5, 0.6]]],
    [[1, 2, 3], [4, 5, 6]],
    [1, 2.0],
    [[1.0, 2.0], [3, 4.0]],
    [[1.0, True], [0.0, False]],
    [[True, False], [False, True]],
    [1.0, float("nan")],
    [[0.0, float("inf")], [-float("inf"), 1.0]],
    [[1.0, 2.0], [3.0]],
    [[1.0, 2.0], []],
    [[1.0, [2.0]], [3.0, 4.0]],
    [10**30, 1.0],
    (0.25, (0.5, 0.75)),
    ((1.0, 2.0), [3.0, 4.0]),
    [np.float64(0.1), 0.2],
    [[np.float64(1 / 3), np.float64(-0.0)]],
    {"b": 1, "a": [0.1, 0.2], "é": {"z": None, "y": [[0.5, 1.5]]}},
    {"outer": [{"k": [[1.0, 2.0], [3.0, 4.0]]}, {"k": []}]},
    [None, "x", {"a": 1}],
]


@pytest.mark.parametrize("obj", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_dumps_edge_cases(obj):
    assert_agrees(obj)


def _arrays():
    rng = np.random.default_rng(5)
    out = {}
    for ndim in range(1, 5):
        shape = (3, 2, 4, 2)[:ndim]
        out[f"float64_{ndim}d"] = rng.normal(size=shape)
        out[f"int64_{ndim}d"] = rng.integers(-(2**40), 2**40, size=shape)
    for shape in [(0,), (3, 0), (2, 0, 2), (0, 3, 2)]:
        out[f"empty_{shape}"] = np.zeros(shape)
    out["empty_int64"] = np.zeros((2, 0), dtype=np.int64)
    out["nan_inf"] = np.array([[0.5, np.nan], [np.inf, -np.inf]])
    # signed zeros and subnormals, below and past _DEDUPE_FROM leaves
    signed = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0])
    for copies in (1, 200):
        assert (signed.size * copies >= specfile._DEDUPE_FROM) == (copies > 1)
        out[f"signed_{copies}"] = np.tile(signed, (copies, 1)).reshape(copies, 3, 2)
    big = rng.normal(size=(40, 30, 2))
    out["transposed"] = big.transpose(1, 0, 2)
    out["T"] = rng.normal(size=(3, 5)).T
    out["sliced"] = big[::3, 1::2]
    out["last_axis"] = big[..., 1]
    out["reversed_repeats"] = np.tile(signed, 300)[::-1].reshape(30, 60)
    out["scalar"] = np.array(0.25)
    return out


ARRAYS = _arrays()


@pytest.mark.parametrize("name", ARRAYS)
def test_dumps_renders_arrays_as_their_lists(name):
    arr = ARRAYS[name]
    for obj in (arr, [arr, {"a": arr, "b": [1.5, arr]}], {"x": {"y": arr}}):
        assert_agrees(obj)


def _signed_arrays():
    """Arrays past _DEDUPE_FROM leaves whose magnitudes recur with either sign."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=600)
    mags = np.abs(rng.normal(size=40))
    out = {
        # every magnitude with both signs, and only with a minus sign
        "x_and_minus_x": np.stack([x, -x], -1),
        "minus_only": -np.abs(rng.normal(size=(40, 30))),
        # some magnitudes with both signs, some negative only, some positive only
        "mixed": np.concatenate([mags[:10], -mags[:10], -mags[10:25], mags[25:]] * 30),
        # a negative magnitude above every positive one, and below
        "beyond_the_positives": np.tile([1.0, -2.0, 0.5, -0.25], 300).reshape(20, 60),
        "zeros": np.tile([0.0, -0.0, -5e-324, 5e-324, -0.0], (250, 1)),
        "negative_zeros_only": np.full((32, 33), -0.0),
        "negative_subnormal_only": np.tile([-5e-324, -2.2250738585072014e-308], 520),
        # where repr switches between positional and exponent form
        "exponent_switch": np.tile(
            [1e16, -1e16, 1e-5, -1e-5, 1e15, -1e15, 1e-4, -1e-4, 9999999999999998.0, -9.999999999999999e-06], (120, 1)
        ),
    }
    out["transposed"] = out["x_and_minus_x"].T
    return out


SIGNED = _signed_arrays()


@pytest.mark.parametrize("name", SIGNED)
def test_dumps_shares_a_magnitude_text_between_signs(name):
    arr = SIGNED[name]
    assert arr.size >= specfile._DEDUPE_FROM
    for obj in (arr, {"a": [arr, 1.5], "b": arr[::-1]}):
        assert_agrees(obj)


def _magnitude_bits(arr):
    return set(np.abs(arr).ravel().view(np.int64).tolist())


@pytest.mark.parametrize("name", ["phase_space_d6", *SIGNED])
def test_dumps_renders_each_distinct_magnitude_once(name, monkeypatch):
    # past _DEDUPE_FROM leaves every distinct magnitude is rendered exactly once,
    # as itself when it occurs positive and negated otherwise: the other sign's
    # leaves take "-" before that text
    if name == "phase_space_d6":
        rng = np.random.default_rng(6)
        ops = [rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in range(2)]
        norm = 6 * sum(np.vdot(b, b).real for b in ops)
        arr = specfile._pairs(phase_space(6, [b / np.sqrt(norm) for b in ops]).choi)
    else:
        arr = SIGNED[name]
    rendered = []
    monkeypatch.setattr(specfile, "_float_text", lambda x: rendered.append(x) or float.__repr__(x))
    assert_same_text(specfile.dumps(arr), json.dumps(arr.tolist(), indent=1))
    assert len(rendered) == len(_magnitude_bits(arr)) == len(_magnitude_bits(np.array(rendered)))
    positive = set(arr[~np.signbit(arr)].view(np.int64).tolist())
    for x in rendered:
        assert math.copysign(1.0, x) == (1.0 if np.float64(abs(x)).view(np.int64) in positive else -1.0)
    if name == "phase_space_d6":
        # the Weyl translates repeat magnitudes with both signs
        assert len(rendered) < len(set(arr.ravel().view(np.int64).tolist()))


# values whose repr is positional, exponent form, subnormal or zero
SIGN_POOL = [0.0, 5e-324, 1e-300, 1e-5, 1e-4, 1 / 3, 0.1, 1.0, 2.5, 1e15, 1e16, 1.7976931348623157e308]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(SIGN_POOL), min_size=1, max_size=6, unique=True),
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    st.sampled_from([(1024,), (32, 33), (4, 16, 17), (33, 32)]),
    st.integers(0, 2**32 - 1),
)
def test_dumps_matches_json_on_arrays_of_signed_repeats(pool, negative, shape, seed):
    # a small pool of magnitudes, each leaf negative with the given probability
    rng = np.random.default_rng(seed)
    arr = rng.choice(pool, size=shape) * np.where(rng.random(shape) < negative, -1.0, 1.0)
    for obj in (arr, arr.T):
        assert_same_text(specfile.dumps(obj), json.dumps(obj.tolist(), indent=1))


def test_dumps_rejects_a_complex_array_as_json_rejects_its_list():
    arr = np.array([[1 + 2j, 0.5]])
    with pytest.raises(TypeError):
        json.dumps(arr.tolist())
    with pytest.raises(TypeError):
        specfile.dumps({"m": arr})


def test_dumps_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        specfile.dumps({1: 2})
    with pytest.raises(TypeError):
        specfile.dumps([object()])
    with pytest.raises(TypeError):
        specfile.dumps({"a": np.int64(1)})


LEAVES = (
    st.floats()
    | st.floats().map(np.float64)
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
    | st.text(max_size=5)
)

# float64 and int64 arrays, views among them, with empty axes, NaN, infinities and signed zeros
NDARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.int64]),
    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
) | hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=4)).map(lambda a: a.T)


def nest(flat, shape):
    """The flat leaves as a nested list of the given shape."""
    if len(shape) == 1:
        return list(flat)
    step = len(flat) // shape[0]
    return [nest(flat[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0])]


@st.composite
def regular_arrays(draw):
    # regular nested lists, mostly of plain finite floats: the shape of a
    # matrix payload written as lists, which the recursive branch renders
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    size = math.prod(shape)
    leaf = draw(st.sampled_from([st.floats(allow_nan=False, allow_infinity=False), st.integers(), LEAVES]))
    return nest(draw(st.lists(leaf, min_size=size, max_size=size)), shape)


TREES = st.recursive(
    LEAVES | regular_arrays() | NDARRAYS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=5), children, max_size=4)
    ),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TREES)
def test_dumps_matches_json_on_random_trees(obj):
    assert_agrees(obj)


def round_trips(out):
    return out == reference(json.loads(out)) + "\n"


@pytest.fixture
def files(tmp_path):
    ps = write(tmp_path, "ps.json", phase_space_doc(2))
    obs = write(tmp_path, "obs.json", flip_observable_doc(0.3))
    d, ops = specfile.load(phase_space_doc(2))[1]
    inst_doc = specfile.document("instrument", specfile.instrument_out(phase_space(d, ops)))
    inst = write(tmp_path, "inst.json", inst_doc)
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    state = write(tmp_path, "state.json", state_doc(rho))
    return {"ps": ps, "obs": obs, "inst": inst, "state": state}


REPORTS = [
    ["validate", "ps"],
    ["validate", "state"],
    ["dilate", "obs"],
    ["dilate", "inst"],
    ["extremal", "obs"],
    ["kraus", "inst"],
]


@pytest.mark.parametrize("argv", REPORTS, ids=lambda a: "-".join(a))
def test_report_round_trips_and_json_out_equals_stdout(argv, files, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main([argv[0], files[argv[1]], "--json-out", str(target)]) == 0
    out = capsys.readouterr().out
    assert round_trips(out)
    assert target.read_text(encoding="utf-8") == out


def test_phase_space_document_round_trips(files, tmp_path, capsys):
    assert main(["phase-space", files["ps"]]) == 0
    out = capsys.readouterr().out
    assert round_trips(out)
    # --out writes the same bytes, its newline included, and nothing to stdout
    target = tmp_path / "instrument.json"
    assert main(["phase-space", files["ps"], "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_sample_lines_round_trip(files, capsys):
    assert main(["sample", files["ps"], files["state"], "-n", "20", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20
    assert all(line == json.dumps(json.loads(line)) for line in lines)


def test_a_report_that_json_refuses_writes_nothing(files, tmp_path, capsys, monkeypatch):
    # a NaN outside the verdicts reaches dumps, which raises before a byte is written
    artifact = Report.artifact
    monkeypatch.setattr(Report, "artifact", lambda self, *args, **payload: artifact(self, *args, stray=math.nan, **payload))
    target = tmp_path / "report.json"
    assert main(["dilate", files["obs"], "--json-out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation failure: Out of range float values are not JSON compliant")
    assert not target.exists()


def test_a_phase_space_document_that_json_refuses_writes_nothing(files, tmp_path, capsys, monkeypatch):
    instrument_out = specfile.instrument_out
    monkeypatch.setattr(specfile, "instrument_out", lambda spec: {**instrument_out(spec), "stray": [math.inf]})
    target = tmp_path / "instrument.json"
    for out in ([], ["--out", str(target)]):
        assert main(["phase-space", files["ps"]] + out) == 1
        assert capsys.readouterr().out == ""
    assert not target.exists()


@pytest.mark.parametrize("command", ["phase-space", "sample"])
def test_json_out_is_not_an_option_of_stream_commands(command, files, tmp_path, capsys):
    argv = [command, files["ps"]] + ([files["state"]] if command == "sample" else [])
    assert main(argv + ["--json-out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("d", [2, 3])
def test_sample_line_cache_matches_per_draw_encoding(d, tmp_path, capsys):
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    ps = write(tmp_path, "ps.json", phase_space_doc(d))
    st_path = write(tmp_path, "state.json", state_doc(rho))
    assert main(["sample", ps, st_path, "-n", "200", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    spec = phase_space(*specfile.load(phase_space_doc(d))[1])
    state = specfile.load(state_doc(rho))[1]
    assert out == sample_lines_loop(spec, state, 200, 11)
    # the stream repeats outcomes, so the cache is exercised
    assert len(set(out.splitlines())) < 200
