"""The toolkit's file format: one self-describing JSON document per object.

Every file carries a kind tag (group | kernel | cpmap | observable |
instrument | phase_space | state), a version tag equal to "1", and the
kind's payload.  Complex numbers are [re, im] pairs and matrices row-major
nested arrays of them; groups are multiplication tables or named
constructors.  Unknown fields are rejected.
"""

from __future__ import annotations

import cmath
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .cpmaps import CPMapSpec, CPSymmetry
from .cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from .fingroup import (
    FiniteGroup,
    GroupAction,
    MultiplierRep,
    SubgroupData,
    TwoCocycle,
    cocycle_violation,
    heisenberg_rep,
    rep_violation,
)
from .instruments import InstrumentSpec, ObservableSpec, Symmetry
from .kernels import CovariantKernelSpec
from .numlin import DEFAULT_TOL, Tolerances

KINDS = ("group", "kernel", "cpmap", "observable", "instrument", "phase_space", "state")


class SpecFileError(ValueError):
    """The document does not conform to the format."""


class RepresentationError(ValueError):
    """A representation in a kernel, cpmap, observable or instrument document
    does not satisfy its declared cocycle.  The document parses, so this is
    a validation failure (exit code 1), not a format error."""


def matrix_out(mat) -> list:
    mat = np.asarray(mat, dtype=np.complex128)
    return np.stack([mat.real, mat.imag], -1).tolist()


# -- output text ---------------------------------------------------------------


def dumps(obj) -> str:
    """The toolkit's output text: exactly the text ``json.dumps`` gives for
    ``obj`` with sorted keys and an indent of one space.

    ``json`` writes an indented document with its pure-Python encoder, one
    generator step per value.  Here a regular nested list of finite plain
    floats has its leaves rendered in one pass and joined with precomputed
    separators; every other value takes the recursive branch, which mirrors
    the encoder rule for rule.  Dict keys must be strings.
    """
    return _dumps(obj, 0)


def _dumps(obj, level) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        text = _bulk(obj, level)
        if text is not None:
            return text
        pad = "\n" + " " * (level + 1)
        items = (_dumps(v, level + 1) for v in obj)
        return "[" + pad + ("," + pad).join(items) + "\n" + " " * level + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("dumps: dict keys must be strings")
        pad = "\n" + " " * (level + 1)
        items = (
            encode_basestring_ascii(k) + ": " + _dumps(v, level + 1)
            for k, v in sorted(obj.items())
        )
        return "{" + pad + ("," + pad).join(items) + "\n" + " " * level + "}"
    raise TypeError(f"dumps: {type(obj).__name__} is not JSON serializable")


# below this many leaves the sort that finds repeated values costs more than
# rendering every leaf: about 20 us per list, and small reports hold dozens of lists
_DEDUPE_FROM = 1024


def _bulk(obj, level):
    """The text of a regular, non-empty nested list whose leaves are all
    finite plain floats; None for anything else.

    Two neighbouring leaves whose last differing index is on axis m are
    separated by the closing brackets of the deeper axes, ``",\\n"`` and the
    indent of axis m's items, and the opening brackets of the deeper axes;
    those separators repeat with the shape and are built once.
    """
    shape, items = [], [obj]
    while True:
        kinds = set(map(type, items))
        if not kinds <= {list, tuple}:
            break
        sizes = set(map(len, items))
        if len(sizes) != 1 or 0 in sizes:
            return None
        shape.append(sizes.pop())
        items = list(chain.from_iterable(items))
    if kinds != {float} or not all(map(math.isfinite, items)):
        return None
    opens = ["[\n" + " " * (level + m + 1) for m in range(len(shape))]
    closes = ["\n" + " " * (level + m) + "]" for m in range(len(shape))]
    seps = []  # after axis m: the separators between the leaves of one axis-m list
    for m in range(len(shape) - 1, -1, -1):
        sep = "".join(closes[:m:-1]) + ",\n" + " " * (level + m + 1) + "".join(opens[m + 1 :])
        seps = (seps + [sep]) * (shape[m] - 1) + seps
    parts = [None] * (2 * len(items) + 1)
    parts[0] = "".join(opens)
    if len(items) < _DEDUPE_FROM:
        parts[1::2] = map(float.__repr__, items)
    else:
        # each distinct value is rendered once, keyed on its bits so that 0.0 and -0.0 stay apart
        bits, where = np.unique(np.array(items).view(np.int64), return_inverse=True)
        texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
        parts[1::2] = texts[where].tolist()
    parts[2:-1:2] = seps
    parts[-1] = "".join(closes[::-1])
    return "".join(parts)


def _is_real(v) -> bool:
    # bool is an int subclass, so isinstance alone would admit true and false
    return isinstance(v, (int, float)) and v is not True and v is not False


def _complex_in(obj, path):
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not _is_real(obj[0])
        or not _is_real(obj[1])
    ):
        raise SpecFileError(f"{path}: complex numbers are [re, im] pairs of real numbers")
    try:
        z = complex(obj[0], obj[1])
    except OverflowError:  # an integer beyond the float range
        z = None
    # json parses NaN, Infinity and overlong floats to non-finite values
    if z is None or not cmath.isfinite(z):
        raise SpecFileError(f"{path}: complex entries must be finite")
    return z


def matrix_in(obj, path) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SpecFileError(f"{path}: matrices are nested row-major arrays")
    # the whole matrix at once: a rectangular array of [re, im] pairs whose
    # entries are all JSON numbers (not booleans) and finite
    try:
        pairs = np.array(obj, dtype=np.float64)
        kinds = set(map(type, chain.from_iterable(chain.from_iterable(obj))))
    except (TypeError, ValueError, OverflowError):
        pairs = kinds = None
    if (
        pairs is not None
        and pairs.ndim == 3
        and pairs.shape[2] == 2
        and kinds <= {int, float}
        and np.isfinite(pairs).all()
    ):
        return pairs.view(np.complex128)[..., 0]
    # entry by entry, to name the first bad one
    rows = [[_complex_in(z, f"{path}[{i}][{j}]") for j, z in enumerate(r)] for i, r in enumerate(obj)]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise SpecFileError(f"{path}: ragged matrix")
    return np.array(rows, dtype=np.complex128)


def _int_in(obj, path) -> int:
    # bool is an int subclass; JSON floats and strings are not integers
    if type(obj) is not int:
        raise SpecFileError(f"{path}: expected an integer")
    return obj


def _int_list_in(obj, path) -> list:
    if not isinstance(obj, list):
        raise SpecFileError(f"{path}: expected an array of integers")
    if set(map(type, obj)) - {int}:
        for i, v in enumerate(obj):
            _int_in(v, f"{path}[{i}]")
    return obj


def _int_table_in(obj, path) -> np.ndarray:
    """A rectangular table of JSON integers as an int64 array."""
    if not isinstance(obj, list):
        raise SpecFileError(f"{path}: expected an array of arrays of integers")
    rows = [_int_list_in(r, f"{path}[{i}]") for i, r in enumerate(obj)]
    if len({len(r) for r in rows}) > 1:
        raise SpecFileError(f"{path}: ragged table")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise SpecFileError(f"{path}: integer out of range") from None


def _check_fields(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SpecFileError(f"{path}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SpecFileError(f"{path}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise SpecFileError(f"{path}: missing fields {sorted(missing)}")


def _module_in(obj) -> ModuleSpace:
    _check_fields(obj, "payload.module", ["k", "n_v"])
    return ModuleSpace(_int_in(obj["k"], "payload.module.k"), _int_in(obj["n_v"], "payload.module.n_v"))


# -- groups ------------------------------------------------------------------


def group_in(obj, path="group") -> FiniteGroup:
    if not isinstance(obj, dict):
        raise SpecFileError(f"{path}: expected an object")
    if "mul" in obj:
        _check_fields(obj, path, ["mul"])
        return FiniteGroup(_int_table_in(obj["mul"], f"{path}.mul"))
    _check_fields(obj, path, ["name"], ["n", "d"])
    name = obj.get("name")
    if name == "cyclic":
        return FiniteGroup.cyclic(_int_in(obj.get("n"), f"{path}.n"))
    if name == "dihedral":
        return FiniteGroup.dihedral(_int_in(obj.get("n"), f"{path}.n"))
    if name == "symmetric":
        n = _int_in(obj.get("n"), f"{path}.n")
        if n > 4:
            raise SpecFileError(f"{path}: symmetric groups supported up to n = 4")
        return FiniteGroup.symmetric(n)
    if name == "heisenberg":
        return heisenberg_rep(_int_in(obj.get("d"), f"{path}.d"))[0]
    raise SpecFileError(f"{path}: unknown group constructor {name!r}")


def group_out(group: FiniteGroup) -> dict:
    return {"mul": [[int(v) for v in row] for row in group.mul]}


def rep_in(obj, group, path="rep") -> MultiplierRep:
    _check_fields(obj, path, ["matrices"], ["cocycle", "unitary"])
    mats = np.stack([matrix_in(m, f"{path}.matrices[{i}]") for i, m in enumerate(obj["matrices"])])
    if "cocycle" in obj:
        cocycle = TwoCocycle(group, matrix_in(obj["cocycle"], f"{path}.cocycle"))
    else:
        cocycle = TwoCocycle.trivial(group)
    return MultiplierRep(group, cocycle, mats, bool(obj.get("unitary", True)))


# the first violation that cocycle_violation or rep_violation reports, in words
_BROKEN = {
    "modulus": "c{} is not of unit modulus",
    "normalization": "c(e, g) or c(g, e) is not 1 at g = {}",
    "cocycle": "c(x, a) c(xa, y) != c(a, y) c(x, ay) at (x, a, y) = {}",
    "identity": "U(e) is not the identity",
    "unitary": "U(g) is not unitary at g = {}",
    "product": "U(s) U(h) != c(s, h) U(sh) at (s, h) = {}",
}


def _broken(bad) -> str:
    name, *where = bad
    return _BROKEN[name].format(where[0] if len(where) == 1 else tuple(where))


def _valid_rep_in(obj, group, path, tol: Tolerances) -> MultiplierRep:
    """:func:`rep_in`, once its cocycle is a 2-cocycle and the matrices are
    a representation for it, both checked on the group's generators;
    otherwise a :class:`RepresentationError` naming the field and the first
    violation.  Every covariance check on the generators rests on this."""
    rep = rep_in(obj, group, path)
    bad = cocycle_violation(rep.cocycle)
    if bad is not None:
        raise RepresentationError(f"{path}.cocycle: {_broken(bad)}")
    bad = rep_violation(rep, tol)
    if bad is not None:
        trivial = ", with the trivial cocycle" if rep.cocycle.is_trivial() else ""
        raise RepresentationError(f"{path}: {_broken(bad)}{trivial}")
    return rep


def rep_out(rep: MultiplierRep) -> dict:
    out = {"matrices": [matrix_out(rep(g)) for g in rep.group.elements()]}
    if not rep.cocycle.is_trivial():
        out["cocycle"] = matrix_out(rep.cocycle.values)
    return out


# -- payloads per kind ---------------------------------------------------------


def kernel_in(payload, tol: Tolerances = DEFAULT_TOL) -> tuple[CovariantKernelSpec, list]:
    _check_fields(
        payload,
        "payload",
        ["group", "action", "alpha", "sigma", "rep", "module", "blocks"],
        ["z_pairs"],
    )
    group = group_in(payload["group"])
    action = GroupAction(group, _int_table_in(payload["action"], "payload.action"))
    alpha = matrix_in(payload["alpha"], "payload.alpha")
    sigma = TwoCocycle(group, matrix_in(payload["sigma"], "payload.sigma"))
    rep = _valid_rep_in(payload["rep"], group, "payload.rep", tol)
    module = _module_in(payload["module"])
    rows = payload["blocks"]
    x = action.set_size
    if not isinstance(rows, list) or len(rows) != x:
        raise SpecFileError("payload.blocks: need one row of blocks per point")
    blocks = np.stack(
        [
            np.stack([matrix_in(rows[i][j], f"payload.blocks[{i}][{j}]") for j in range(x)])
            for i in range(x)
        ]
    )
    spec = CovariantKernelSpec(action, alpha, sigma, rep, module, blocks)
    z = _int_table_in(payload.get("z_pairs", [[i, i] for i in range(x)]), "payload.z_pairs")
    if len(z) and z.shape[1:] != (2,):
        raise SpecFileError("payload.z_pairs: entries are [x, y] pairs of points")
    z_pairs = [(int(a), int(b)) for a, b in z]
    return spec, z_pairs


def kernel_out(spec: CovariantKernelSpec, z_pairs=None) -> dict:
    payload = {
        "group": group_out(spec.action.group),
        "action": [[int(v) for v in row] for row in spec.action.table],
        "alpha": matrix_out(spec.alpha),
        "sigma": matrix_out(spec.sigma.values),
        "rep": rep_out(spec.rep),
        "module": {"k": spec.module.k, "n_v": spec.module.n_v},
        "blocks": [
            [matrix_out(spec.blocks[i, j]) for j in range(spec.x_size)]
            for i in range(spec.x_size)
        ],
    }
    if z_pairs is not None:
        payload["z_pairs"] = [[int(a), int(b)] for a, b in z_pairs]
    return payload


def cpmap_in(payload, tol: Tolerances = DEFAULT_TOL) -> CPMapSpec:
    _check_fields(payload, "payload", ["blocks", "module", "values"], ["symmetry", "tensor"])
    algebra = FiniteCStarAlgebra(tuple(_int_list_in(payload["blocks"], "payload.blocks")))
    module = _module_in(payload["module"])
    values = np.stack(
        [matrix_in(v, f"payload.values[{i}]") for i, v in enumerate(payload["values"])]
    )
    symmetry = None
    if "symmetry" in payload:
        sym = payload["symmetry"]
        _check_fields(sym, "payload.symmetry", ["group", "u", "rep"])
        group = group_in(sym["group"], "payload.symmetry.group")
        symmetry = CPSymmetry(
            u=_valid_rep_in(sym["u"], group, "payload.symmetry.u", tol),
            rep=_valid_rep_in(sym["rep"], group, "payload.symmetry.rep", tol),
        )
    tensor = None
    if "tensor" in payload:
        t = payload["tensor"]
        _check_fields(t, "payload.tensor", ["left_blocks", "right_blocks"])
        tensor = TensorSplit(
            FiniteCStarAlgebra(tuple(_int_list_in(t["left_blocks"], "payload.tensor.left_blocks"))),
            FiniteCStarAlgebra(tuple(_int_list_in(t["right_blocks"], "payload.tensor.right_blocks"))),
        )
    return CPMapSpec(algebra, module, values, symmetry, tensor)


def cpmap_out(spec: CPMapSpec) -> dict:
    payload = {
        "blocks": list(spec.algebra.blocks),
        "module": {"k": spec.module.k, "n_v": spec.module.n_v},
        "values": [matrix_out(v) for v in spec.values],
    }
    if spec.symmetry is not None:
        if not isinstance(spec.symmetry.u, MultiplierRep):
            raise SpecFileError("a cpmap document needs a dense u; this symmetry is a block action")
        payload["symmetry"] = {
            "group": group_out(spec.symmetry.group),
            "u": rep_out(spec.symmetry.u),
            "rep": rep_out(spec.symmetry.rep),
        }
    if spec.tensor is not None:
        payload["tensor"] = {
            "left_blocks": list(spec.tensor.left.blocks),
            "right_blocks": list(spec.tensor.right.blocks),
        }
    return payload


def _symmetry_in(payload, need_out_rep, tol):
    group = group_in(payload["group"])
    sub = SubgroupData(group, tuple(_int_list_in(payload["subgroup"], "payload.subgroup")))
    rep = _valid_rep_in(payload["rep"], group, "payload.rep", tol)
    out_rep = None
    if need_out_rep:
        out_rep = _valid_rep_in(payload["out_rep"], group, "payload.out_rep", tol)
    return Symmetry(sub, rep, out_rep)


def observable_in(payload, tol: Tolerances = DEFAULT_TOL) -> ObservableSpec:
    _check_fields(payload, "payload", ["group", "subgroup", "rep", "effects"])
    symmetry = _symmetry_in(payload, False, tol)
    effects = np.stack(
        [matrix_in(e, f"payload.effects[{i}]") for i, e in enumerate(payload["effects"])]
    )
    return ObservableSpec(effects, symmetry)


def observable_out(spec: ObservableSpec) -> dict:
    return {
        "group": group_out(spec.symmetry.group),
        "subgroup": [int(m) for m in spec.symmetry.sub.members],
        "rep": rep_out(spec.symmetry.rep),
        "effects": [matrix_out(e) for e in spec.effects],
    }


def instrument_in(payload, tol: Tolerances = DEFAULT_TOL) -> InstrumentSpec:
    _check_fields(payload, "payload", ["group", "subgroup", "rep", "out_rep", "choi"])
    symmetry = _symmetry_in(payload, True, tol)
    choi = np.stack(
        [matrix_in(c, f"payload.choi[{i}]") for i, c in enumerate(payload["choi"])]
    )
    return InstrumentSpec(choi, symmetry)


def instrument_out(spec: InstrumentSpec) -> dict:
    return {
        "group": group_out(spec.symmetry.group),
        "subgroup": [int(m) for m in spec.symmetry.sub.members],
        "rep": rep_out(spec.symmetry.rep),
        "out_rep": rep_out(spec.symmetry.out_rep),
        "choi": [matrix_out(c) for c in spec.choi],
    }


def phase_space_in(payload):
    _check_fields(payload, "payload", ["d", "seed_ops"])
    d = _int_in(payload["d"], "payload.d")
    ops = [matrix_in(b, f"payload.seed_ops[{i}]") for i, b in enumerate(payload["seed_ops"])]
    return d, ops


def state_in(payload) -> np.ndarray:
    _check_fields(payload, "payload", ["matrix"])
    return matrix_in(payload["matrix"], "payload.matrix")


def group_payload_in(payload):
    _check_fields(payload, "payload", ["group"], ["action", "cocycle", "rep"])
    group = group_in(payload["group"])
    out = {"group": group}
    if "action" in payload:
        out["action"] = GroupAction(group, _int_table_in(payload["action"], "payload.action"))
    if "cocycle" in payload:
        out["cocycle"] = TwoCocycle(group, matrix_in(payload["cocycle"], "payload.cocycle"))
    if "rep" in payload:
        out["rep"] = rep_in(payload["rep"], group, "payload.rep")
    return out


# -- documents ----------------------------------------------------------------


def parse_document(text: str) -> tuple[str, dict]:
    """Parse and structurally validate a document; returns (kind, payload)."""
    obj = json.loads(text)
    _check_fields(obj, "document", ["kind", "version", "payload"])
    if obj["version"] != "1":
        raise SpecFileError(f'unsupported version {obj["version"]!r}, expected "1"')
    if obj["kind"] not in KINDS:
        raise SpecFileError(f'unknown kind {obj["kind"]!r}')
    return obj["kind"], obj["payload"]


def load(text: str, tol: Tolerances = DEFAULT_TOL):
    """Parse a document into its toolkit object.  The representations of a
    kernel, cpmap, observable or instrument must satisfy their cocycles
    (:class:`RepresentationError` otherwise); a group document's are
    reported by ``covkit validate``."""
    kind, payload = parse_document(text)
    if kind == "group":
        return kind, group_payload_in(payload)
    if kind == "kernel":
        return kind, kernel_in(payload, tol)
    if kind == "cpmap":
        return kind, cpmap_in(payload, tol)
    if kind == "observable":
        return kind, observable_in(payload, tol)
    if kind == "instrument":
        return kind, instrument_in(payload, tol)
    if kind == "phase_space":
        return kind, phase_space_in(payload)
    if kind == "state":
        return kind, state_in(payload)
    raise SpecFileError(f"unhandled kind {kind!r}")


def document(kind: str, payload: dict) -> str:
    if kind not in KINDS:
        raise SpecFileError(f"unknown kind {kind!r}")
    return dumps({"kind": kind, "version": "1", "payload": payload})
