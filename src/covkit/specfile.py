"""The toolkit's file format: one self-describing JSON document per object.

Every file carries a kind tag (group | kernel | cpmap | observable |
instrument | phase_space | state), a version tag equal to "1", and the
kind's payload.  Complex numbers are [re, im] pairs and matrices row-major
nested arrays of them; groups are multiplication tables or named
constructors.  Unknown fields are rejected.
"""

from __future__ import annotations

import cmath
import gc
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


def _pairs(mat) -> np.ndarray:
    """A complex matrix or stack as a fresh float64 (..., 2) array of [re, im]
    pairs: never a view of ``mat``, so editing a payload leaves the object alone."""
    mat = np.asarray(mat, dtype=np.complex128)
    return np.stack([mat.real, mat.imag], -1)


def matrix_out(mat) -> list:
    """:func:`_pairs` as nested lists, for text that ``json`` writes itself."""
    return _pairs(mat).tolist()


# -- output text ---------------------------------------------------------------

# the text json writes for a finite float; a module name, so that a test can count the renders
_float_text = float.__repr__


def dumps(obj) -> str:
    """The toolkit's output text: exactly the text ``json.dumps`` gives for
    ``obj``, each ndarray as its ``tolist()``, with sorted keys, indent 1 and
    ``allow_nan=False``: a NaN or an infinity raises ValueError, as there.

    Every value appends its pieces to one list, joined once, so no subtree's
    text is copied into its parent's.  A non-empty finite float64 array, such
    as a payload's matrix stack, is written from its shape: its leaves in one
    pass, between precomputed separators.  Any other array goes through
    ``tolist()``; every other value follows the ``json`` encoder rule for
    rule.  Dict keys must be strings."""
    out = []
    _write(obj, 0, out)
    return "".join(out)


def _write(obj, level, out):
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        out.append(_float_text(obj))
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.size and obj.ndim and np.isfinite(obj).all():
        _array(obj, level, out)
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), level, out)
    elif isinstance(obj, (list, tuple, dict)):
        if isinstance(obj, dict):
            if not all(isinstance(k, str) for k in obj):
                raise TypeError("dumps: dict keys must be strings")
            brackets, items = "{}", ((encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items()))
        else:
            brackets, items = "[]", (("", v) for v in obj)
        pad = "\n" + " " * (level + 1)
        sep = brackets[0] + pad
        for key, v in items:
            out.append(sep + key)
            _write(v, level + 1, out)
            sep = "," + pad
        out.append("\n" + " " * level + brackets[1] if obj else brackets)
    else:
        raise TypeError(f"dumps: {type(obj).__name__} is not JSON serializable")


# below this many leaves the sort that finds repeated values costs more than
# rendering every leaf: about 20 us per array, and small reports hold dozens of arrays
_DEDUPE_FROM = 1024


def _array(arr, level, out):
    """Append the text of a non-empty float64 array of finite values to ``out``.

    Two neighbouring leaves whose last differing index is on axis m are
    separated by the closing brackets of the deeper axes, ``",\\n"`` and the
    indent of axis m's items, and the opening brackets of the deeper axes;
    those separators repeat with the shape and are built once.
    """
    shape, flat = arr.shape, arr.ravel()
    opens = ["[\n" + " " * (level + m + 1) for m in range(len(shape))]
    closes = ["\n" + " " * (level + m) + "]" for m in range(len(shape))]
    seps = []  # after axis m: the separators between the leaves of one axis-m list
    for m in range(len(shape) - 1, -1, -1):
        sep = "".join(closes[:m:-1]) + ",\n" + " " * (level + m + 1) + "".join(opens[m + 1 :])
        seps = (seps + [sep]) * (shape[m] - 1) + seps
    if flat.size < _DEDUPE_FROM:
        texts = map(_float_text, flat.tolist())
    else:
        # each distinct magnitude is rendered once: a negative value (sign bit set, -0.0 too) whose
        # magnitude also occurs positive is "-" and that text, as float.__repr__ writes it
        bits, where = np.unique(flat.view(np.int64), return_inverse=True)
        cut = np.searchsorted(bits, 0)  # as int64 the negatives sort first
        mags, pos = bits[:cut] & np.int64(2**63 - 1), bits[cut:]
        at = np.searchsorted(pos, mags)
        shared = np.append(pos, -1)[at] == mags
        rendered = np.append(~shared, np.ones(pos.size, bool))
        table = np.empty(bits.size, dtype=object)
        table[rendered] = list(map(_float_text, bits[rendered].view(np.float64).tolist()))
        table[:cut][shared] = list(map("-".__add__, table[cut + at[shared]].tolist()))
        texts = table[where].tolist()
    start = len(out)
    out += [None] * (2 * flat.size + 1)
    out[start], out[-1] = "".join(opens), "".join(closes[::-1])
    out[start + 1 :: 2], out[start + 2 : -1 : 2] = texts, seps


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
    if isinstance(obj, np.ndarray):  # as the payload builders return it
        obj = obj.tolist()
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


def _stack_in(obj, path) -> np.ndarray:
    """A ``[ matrix+ ]`` field: a non-empty array of matrices of one shape,
    as a (count, rows, cols) complex stack."""
    if not isinstance(obj, (list, np.ndarray)) or len(obj) == 0:
        raise SpecFileError(f"{path}: expected a non-empty array of matrices")
    mats = [matrix_in(m, f"{path}[{i}]") for i, m in enumerate(obj)]
    if len({m.shape for m in mats}) > 1:
        raise SpecFileError(f"{path}: matrices of different shapes")
    return np.stack(mats)


def _shaped(arr, shape, path, what) -> np.ndarray:
    """``arr``, once its shape is ``shape``: a shape that disagrees with
    another field is a format error naming the field."""
    if arr.shape != shape:
        want, got = (" x ".join(map(str, dims)) for dims in (shape, arr.shape))
        raise SpecFileError(f"{path}: need {what} ({want}), got {got}")
    return arr


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


# a named group's constructor and the field holding its size
_NAMED_GROUPS = {
    "cyclic": ("n", FiniteGroup.cyclic),
    "dihedral": ("n", FiniteGroup.dihedral),
    "symmetric": ("n", FiniteGroup.symmetric),
    "heisenberg": ("d", lambda d: FiniteGroup.direct_product(FiniteGroup.cyclic(d), FiniteGroup.cyclic(d))),
}


def group_in(obj, path="group") -> FiniteGroup:
    if not isinstance(obj, dict):
        raise SpecFileError(f"{path}: expected an object")
    if "mul" in obj:
        _check_fields(obj, path, ["mul"])
        return FiniteGroup(_int_table_in(obj["mul"], f"{path}.mul"))
    _check_fields(obj, path, ["name"], ["n", "d"])
    name = obj.get("name")
    if not isinstance(name, str) or name not in _NAMED_GROUPS:
        raise SpecFileError(f"{path}: unknown group constructor {name!r}")
    key, build = _NAMED_GROUPS[name]
    size = _int_in(obj.get(key), f"{path}.{key}")
    if size < 1:
        raise SpecFileError(f"{path}.{key}: expected an integer >= 1, got {size}")
    return build(size)


def group_out(group: FiniteGroup) -> dict:
    return {"mul": [[int(v) for v in row] for row in group.mul]}


def _cocycle_in(obj, group, path) -> TwoCocycle:
    values = matrix_in(obj, path)
    return TwoCocycle(group, _shaped(values, (group.order,) * 2, path, "one value per pair of group elements"))


def rep_in(obj, group, path="rep") -> MultiplierRep:
    _check_fields(obj, path, ["matrices"], ["cocycle", "unitary"])
    mats = _stack_in(obj["matrices"], f"{path}.matrices")
    dim = mats.shape[1]
    _shaped(mats, (group.order, dim, dim), f"{path}.matrices", "one square matrix per group element")
    if "cocycle" in obj:
        cocycle = _cocycle_in(obj["cocycle"], group, f"{path}.cocycle")
    else:
        cocycle = TwoCocycle.trivial(group)
    if not isinstance(obj.get("unitary", True), bool):
        raise SpecFileError(f"{path}.unitary: expected true or false")
    return MultiplierRep(group, cocycle, mats, obj.get("unitary", True))


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
    bad = cocycle_violation(rep.cocycle, tol)
    if bad is not None:
        raise RepresentationError(f"{path}.cocycle: {_broken(bad)}")
    bad = rep_violation(rep, tol)
    if bad is not None:
        trivial = ", with the trivial cocycle" if rep.cocycle.is_trivial() else ""
        raise RepresentationError(f"{path}: {_broken(bad)}{trivial}")
    return rep


def rep_out(rep: MultiplierRep) -> dict:
    out = {"matrices": _pairs(rep.matrices)}
    if not rep.cocycle.is_trivial():
        out["cocycle"] = _pairs(rep.cocycle.values)
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
    x = action.set_size
    alpha = _shaped(matrix_in(payload["alpha"], "payload.alpha"), (group.order, x), "payload.alpha", "one value per group element and point")
    sigma = _cocycle_in(payload["sigma"], group, "payload.sigma")
    rep = _valid_rep_in(payload["rep"], group, "payload.rep", tol)
    module = _module_in(payload["module"])
    if module.n_v != rep.dim:
        raise SpecFileError(f"payload.module.n_v: need the dimension of payload.rep ({rep.dim}), got {module.n_v}")
    rows = payload["blocks"]
    if not isinstance(rows, (list, np.ndarray)) or len(rows) != x:
        raise SpecFileError("payload.blocks: need one row of blocks per point")
    blocks = [_stack_in(row, f"payload.blocks[{i}]") for i, row in enumerate(rows)]
    for i, row in enumerate(blocks):
        if row.shape != (x,) + blocks[0].shape[1:]:
            raise SpecFileError(f"payload.blocks[{i}]: need one block per point, all of one shape")
    blocks = _shaped(np.stack(blocks), (x, x, rep.dim, rep.dim), "payload.blocks", "one n_V x n_V block per pair of points")
    spec = CovariantKernelSpec(action, alpha, sigma, rep, module, blocks)
    z = _int_table_in(payload.get("z_pairs", [[i, i] for i in range(x)]), "payload.z_pairs")
    if len(z) and (z.shape[1:] != (2,) or z.min() < 0 or z.max() >= x):
        raise SpecFileError(f"payload.z_pairs: entries are [x, y] pairs of points 0 .. {x - 1}")
    z_pairs = [(int(a), int(b)) for a, b in z]
    return spec, z_pairs


def kernel_out(spec: CovariantKernelSpec, z_pairs=None) -> dict:
    payload = {
        "group": group_out(spec.action.group),
        "action": [[int(v) for v in row] for row in spec.action.table],
        "alpha": _pairs(spec.alpha),
        "sigma": _pairs(spec.sigma.values),
        "rep": rep_out(spec.rep),
        "module": {"k": spec.module.k, "n_v": spec.module.n_v},
        "blocks": _pairs(spec.blocks),
    }
    if z_pairs is not None:
        payload["z_pairs"] = [[int(a), int(b)] for a, b in z_pairs]
    return payload


def cpmap_in(payload, tol: Tolerances = DEFAULT_TOL) -> CPMapSpec:
    _check_fields(payload, "payload", ["blocks", "module", "values"], ["symmetry", "tensor"])
    algebra = FiniteCStarAlgebra(tuple(_int_list_in(payload["blocks"], "payload.blocks")))
    module = _module_in(payload["module"])
    values = _stack_in(payload["values"], "payload.values")
    _shaped(values, (algebra.n_units, module.n_v, module.n_v), "payload.values", "one n_V x n_V matrix per matrix unit")
    symmetry = None
    if "symmetry" in payload:
        sym = payload["symmetry"]
        _check_fields(sym, "payload.symmetry", ["group", "u", "rep"])
        group = group_in(sym["group"], "payload.symmetry.group")
        symmetry = CPSymmetry(
            u=_valid_rep_in(sym["u"], group, "payload.symmetry.u", tol),
            rep=_valid_rep_in(sym["rep"], group, "payload.symmetry.rep", tol),
        )
        n_a = algebra.defining_dim
        _shaped(symmetry.u.matrices, (group.order, n_a, n_a), "payload.symmetry.u.matrices", "matrices on the defining space of the algebra")
        _shaped(symmetry.rep.matrices, (group.order,) + values.shape[1:], "payload.symmetry.rep.matrices", "n_V x n_V matrices")
    tensor = None
    if "tensor" in payload:
        t = payload["tensor"]
        _check_fields(t, "payload.tensor", ["left_blocks", "right_blocks"])
        tensor = TensorSplit(
            FiniteCStarAlgebra(tuple(_int_list_in(t["left_blocks"], "payload.tensor.left_blocks"))),
            FiniteCStarAlgebra(tuple(_int_list_in(t["right_blocks"], "payload.tensor.right_blocks"))),
        )
        if tensor.algebra.blocks != algebra.blocks:
            raise SpecFileError("payload.tensor: the products of left_blocks and right_blocks, left-major, must be payload.blocks")
    return CPMapSpec(algebra, module, values, symmetry, tensor)


def cpmap_out(spec: CPMapSpec) -> dict:
    payload = {
        "blocks": list(spec.algebra.blocks),
        "module": {"k": spec.module.k, "n_v": spec.module.n_v},
        "values": _pairs(spec.values),
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
    names = ("rep", "out_rep") if need_out_rep else ("rep",)
    for name in names:
        # covariance of an observable or instrument moves by rep(g) and rep(g)^+
        if isinstance(payload[name], dict) and payload[name].get("unitary") is False:
            raise SpecFileError(f"payload.{name}.unitary: an observable or instrument representation must be unitary")
    return Symmetry(sub, *(_valid_rep_in(payload[name], group, f"payload.{name}", tol) for name in names))


def observable_in(payload, tol: Tolerances = DEFAULT_TOL) -> ObservableSpec:
    _check_fields(payload, "payload", ["group", "subgroup", "rep", "effects"])
    symmetry = _symmetry_in(payload, False, tol)
    v = symmetry.rep.dim
    effects = _stack_in(payload["effects"], "payload.effects")
    _shaped(effects, (symmetry.n_outcomes, v, v), "payload.effects", "one V x V effect per coset")
    return ObservableSpec(effects, symmetry)


def observable_out(spec: ObservableSpec) -> dict:
    return {
        "group": group_out(spec.symmetry.group),
        "subgroup": [int(m) for m in spec.symmetry.sub.members],
        "rep": rep_out(spec.symmetry.rep),
        "effects": _pairs(spec.effects),
    }


def instrument_in(payload, tol: Tolerances = DEFAULT_TOL) -> InstrumentSpec:
    _check_fields(payload, "payload", ["group", "subgroup", "rep", "out_rep", "choi"])
    symmetry = _symmetry_in(payload, True, tol)
    kv = symmetry.out_rep.dim * symmetry.rep.dim
    choi = _stack_in(payload["choi"], "payload.choi")
    _shaped(choi, (symmetry.n_outcomes, kv, kv), "payload.choi", "one KV x KV Choi block per coset")
    return InstrumentSpec(choi, symmetry)


def instrument_out(spec: InstrumentSpec) -> dict:
    return {
        "group": group_out(spec.symmetry.group),
        "subgroup": [int(m) for m in spec.symmetry.sub.members],
        "rep": rep_out(spec.symmetry.rep),
        "out_rep": rep_out(spec.symmetry.out_rep),
        "choi": _pairs(spec.choi),
    }


def phase_space_in(payload):
    _check_fields(payload, "payload", ["d", "seed_ops"])
    d = _int_in(payload["d"], "payload.d")
    if d < 1:
        raise SpecFileError(f"payload.d: expected an integer >= 1, got {d}")
    ops = _stack_in(payload["seed_ops"], "payload.seed_ops")
    return d, _shaped(ops, (len(ops), d, d), "payload.seed_ops", "d x d seed operators")


def state_in(payload) -> np.ndarray:
    _check_fields(payload, "payload", ["matrix"])
    mat = matrix_in(payload["matrix"], "payload.matrix")
    return _shaped(mat, (len(mat),) * 2, "payload.matrix", "a square matrix")


def group_payload_in(payload):
    _check_fields(payload, "payload", ["group"], ["action", "cocycle", "rep"])
    group = group_in(payload["group"])
    out = {"group": group}
    if "action" in payload:
        out["action"] = GroupAction(group, _int_table_in(payload["action"], "payload.action"))
    if "cocycle" in payload:
        out["cocycle"] = _cocycle_in(payload["cocycle"], group, "payload.cocycle")
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
    reported by ``covkit validate``.

    The cyclic garbage collector is paused while the document is parsed and
    converted: a JSON tree holds no cycles, and its many small containers
    would otherwise trigger collection passes that find nothing.  Its prior
    state is restored on the way out, also when the load raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kind, payload = parse_document(text)
        read = {"kernel": kernel_in, "cpmap": cpmap_in, "observable": observable_in, "instrument": instrument_in}.get(kind)
        if read is not None:  # these check their representations at tol
            return kind, read(payload, tol)
        return kind, {"group": group_payload_in, "phase_space": phase_space_in, "state": state_in}[kind](payload)
    finally:
        if was_enabled:
            gc.enable()


def document(kind: str, payload: dict) -> str:
    if kind not in KINDS:
        raise SpecFileError(f"unknown kind {kind!r}")
    return dumps({"kind": kind, "version": "1", "payload": payload})
