"""covkit's frozen records (``numlin.record``) behave as frozen dataclasses.

Every record class a covkit module defines is found with
``dataclasses.is_dataclass`` and checked on one real instance: construction
by position and by keyword, argument errors, frozenness, the repr text and
the field layout.  A probe class decorated both ways checks the shared
methods against ``@dataclass(frozen=True)`` itself.
"""

import dataclasses
import functools
import importlib
import inspect
import pkgutil
from dataclasses import FrozenInstanceError, dataclass, field, replace

import numpy as np
import pytest

import covkit
from covkit import numlin
from covkit.constructions import DecomposableOp, canonical_system, marginal_observable, sample, sq_structure, subminimal
from covkit.cpmaps import CPMapSpec, KSGNSDilation, ksgns
from covkit.cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from covkit.fingroup import FiniteGroup, GroupStructureError, MultiplierRep, SubgroupData, TwoCocycle, irrep_decompose
from covkit.instruments import (
    B_from_instrument,
    as_cpmap,
    instrument_extremal,
    lambda_from_observable,
    phase_space,
    sq_constant,
)
from covkit.kernels import kolmogorov_decompose
from covkit.numlin import Tolerances, psd_spectrum, record
from covkit.random import rand_covariant_kernel

# the fields of every record at the commit before ``numlin.record``, in order
FIELDS = {
    "constructions.SubminimalMap": ("e_units", "dilation", "checks"),
    "constructions.DecomposableOp": ("perm", "fiber_dims", "blocks"),
    "constructions.CanonicalSystem": ("sub", "rho", "dim", "theta", "projections"),
    "constructions.SqStructure": ("seed_matrix", "b_ops", "constant", "checks"),
    "cpmaps.BlockAction": ("sigma", "w", "cocycle"),
    "cpmaps.CPSymmetry": ("u", "rep", "u_factors"),
    "cpmaps.CPMapSpec": ("algebra", "module", "values", "symmetry", "tensor"),
    "cpmaps.KSGNSDilation": ("spec", "rank", "mult", "j", "mult_rep", "checks"),
    "cstar.FiniteCStarAlgebra": ("blocks",),
    "cstar.TensorSplit": ("left", "right", "algebra"),
    "cstar.ModuleSpace": ("k", "n_v"),
    "fingroup.FiniteGroup": ("mul", "identity", "inverse", "_generators", "max_word_length"),
    "fingroup.GroupAction": ("group", "table"),
    "fingroup.SubgroupData": ("parent", "members", "section", "projection", "_action"),
    "fingroup.TwoCocycle": ("group", "values"),
    "fingroup.MultiplierRep": ("group", "cocycle", "matrices", "unitary_flag"),
    "fingroup.IrrepBlock": ("label", "dim", "multiplicity", "rep"),
    "fingroup.IrrepDecomposition": ("rep", "blocks", "basis"),
    "instruments.Symmetry": ("sub", "rep", "out_rep", "action"),
    "instruments.ObservableSpec": ("effects", "symmetry"),
    "instruments.InstrumentSpec": ("choi", "symmetry"),
    "instruments.CovariantObservableData": ("sub", "rho", "decomposition", "lambda_blocks"),
    "instruments.CovariantInstrumentData": ("b_ops", "checks"),
    "instruments.SqConstantResult": ("ok", "value", "spread"),
    "instruments.SampleResult": ("outcome", "probability", "post_state"),
    "kernels.CovariantKernelSpec": ("action", "alpha", "sigma", "rep", "module", "blocks"),
    "kernels.KolmogorovDecomposition": ("spec", "rank", "factors", "sym", "checks"),
    "kernels.ExtremalityCertificate": ("extreme", "witness", "perturbed", "freedom"),
    "numlin.Tolerances": ("psd_eig", "rank_rel", "unitary_fro", "recon_fro"),
    "numlin.Spectrum": ("values", "vectors", "scale", "skew"),
}


def _records():
    found = {}
    for info in pkgutil.iter_modules(covkit.__path__):
        module = importlib.import_module(f"covkit.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found[f"{info.name}.{obj.__qualname__}"] = obj
    return dict(sorted(found.items()))


RECORDS = _records()


def _collect(obj, into):
    """The first instance of each record class met walking ``obj``'s fields."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            _collect(item, into)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type) and type(obj) not in into:
        into[type(obj)] = obj
        for f in dataclasses.fields(obj):
            _collect(getattr(obj, f.name), into)


@functools.lru_cache(maxsize=None)
def _examples():
    found = {}
    spec = phase_space(2, [np.diag([0.5, 0.5]).astype(complex)])
    state = np.diag([0.75, 0.25]).astype(complex)
    observable = marginal_observable(spec)
    sub = spec.symmetry.sub
    one = FiniteGroup(np.zeros((1, 1), dtype=int))
    trivial = MultiplierRep(one, TwoCocycle(one, np.ones((1, 1))), np.ones((1, 1, 1)))
    split = TensorSplit(FiniteCStarAlgebra.full(2), FiniteCStarAlgebra.commutative(2))
    joint = CPMapSpec(split.algebra, ModuleSpace(k=1, n_v=1), np.stack([[[np.trace(u) / 4]] for u in split.algebra.units()]), tensor=split)
    kernel = rand_covariant_kernel(np.random.default_rng(3), FiniteGroup.cyclic(2), max_x=2, n_v=1)
    for obj in (
        spec,
        observable,
        ksgns(as_cpmap(spec)),
        instrument_extremal(spec),
        B_from_instrument(spec),
        lambda_from_observable(observable),
        irrep_decompose(spec.symmetry.rep),
        sq_constant(spec.symmetry.rep),
        sample(spec, state, 0),
        sq_structure(spec),
        kolmogorov_decompose(kernel),
        subminimal(joint),
        DecomposableOp((1, 0), (1, 1), (np.eye(1), np.eye(1))),
        canonical_system(trivial, SubgroupData(FiniteGroup.cyclic(2), (0,))),
        psd_spectrum(np.eye(2)),
        Tolerances(),
        split,
        sub,
    ):
        _collect(obj, found)
    return found


def _example(cls):
    assert cls in _examples(), f"no example instance of {cls.__qualname__}"
    return _examples()[cls]


def _init_values(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


def _same(a, b):
    if a is b:
        return True
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def test_every_record_is_found_and_has_an_example():
    assert list(RECORDS) == sorted(FIELDS)
    assert [name for name, cls in RECORDS.items() if cls not in _examples()] == []


@pytest.mark.parametrize("name", list(RECORDS))
def test_fields_keep_their_names_and_order(name):
    assert tuple(f.name for f in dataclasses.fields(RECORDS[name])) == FIELDS[name]


@pytest.mark.parametrize("name", list(RECORDS))
def test_every_record_shares_the_numlin_methods(name):
    cls = RECORDS[name]
    assert cls.__init__ is numlin._record_init
    assert {key: vars(cls).get(key) for key in numlin._RECORD_METHODS} == numlin._RECORD_METHODS
    assert list(inspect.signature(cls).parameters) == [f.name for f in dataclasses.fields(cls) if f.init]
    # a docstring of its own: dataclasses would derive one from the shared
    # __init__, reading "(*args, **kwargs)"
    assert isinstance(cls.__doc__, str) and not cls.__doc__.startswith(cls.__name__ + "(")


@pytest.mark.parametrize("name", list(RECORDS))
def test_construction_by_position_and_by_keyword(name):
    cls = RECORDS[name]
    obj = _example(cls)
    values = _init_values(obj)
    for built in (cls(*values.values()), cls(**values)):
        assert type(built) is cls
        assert all(_same(getattr(built, key), value) for key, value in values.items())


@pytest.mark.parametrize("name", list(RECORDS))
def test_bad_arguments_are_type_errors(name):
    cls = RECORDS[name]
    values = _init_values(_example(cls))
    args = list(values.values())
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*args, None)
    if values:
        first = next(iter(values))
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*args, **{first: values[first]})
    required = [f.name for f in dataclasses.fields(cls) if f.init and f.default is f.default_factory is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError, match=f"missing {len(required)} required"):
            cls()


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_are_frozen(name):
    obj = _example(RECORDS[name])
    first = dataclasses.fields(obj)[0].name
    before = getattr(obj, first)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{first}'"):
        setattr(obj, first, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{first}'"):
        delattr(obj, first)
    with pytest.raises(FrozenInstanceError):
        obj.not_a_field = 1
    assert getattr(obj, first) is before


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_is_the_dataclass_text(name):
    obj = _example(RECORDS[name])
    shown = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in dataclasses.fields(obj) if f.repr)
    assert repr(obj) == f"{type(obj).__qualname__}({shown})"


def test_the_hidden_action_stays_out_of_the_subgroup_repr():
    assert "_action" not in repr(_example(SubgroupData)) and "section=" in repr(_example(SubgroupData))


def test_two_dilations_do_not_share_their_checks():
    dil = _example(KSGNSDilation)
    a = KSGNSDilation(dil.spec, dil.rank, dil.mult, dil.j)
    b = KSGNSDilation(dil.spec, dil.rank, dil.mult, dil.j)
    assert a.checks == {} and b.checks == {} and a.checks is not b.checks
    assert type(a.checks) is type(dil.checks)


def test_tolerances_equality_and_hash():
    default = Tolerances()
    same = Tolerances(1e-9, 1e-9, 1e-8, 1e-8)
    assert default == same and not default != same
    assert hash(default) == hash(same) == hash((1e-9, 1e-9, 1e-8, 1e-8))
    assert {default: "x"}[same] == "x"
    assert Tolerances(psd_eig=1e-7) != default
    assert default != (1e-9, 1e-9, 1e-8, 1e-8)
    assert default.__eq__((1e-9, 1e-9, 1e-8, 1e-8)) is NotImplemented


def test_replace_runs_post_init_again():
    group = FiniteGroup.cyclic(3)
    moved = replace(group, mul=FiniteGroup.cyclic(3).mul)
    assert moved.max_word_length == group.max_word_length and moved.identity == 0
    with pytest.raises(GroupStructureError, match="no two-sided inverse"):
        replace(group, mul=[[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="init=False"):
        replace(group, identity=1)


# -- the shared methods against @dataclass(frozen=True) itself -----------------


def _probe(decorate):
    @decorate
    class Probe:
        """Every kind of field the shared methods handle."""

        a: int
        b: list = field(default_factory=list, hash=False)
        c: int = field(init=False, default=7)
        d: list = field(init=False, default_factory=list, compare=False)
        hidden: int = field(default=0, repr=False)
        loose: int = field(default=0, compare=False)

        def __post_init__(self):
            object.__setattr__(self, "seen", (self.c, list(self.d), self.b))

    return Probe


OURS, STDLIB = _probe(record), _probe(dataclass(frozen=True))


def _outcome(call):
    try:
        return "ok", call()
    except Exception as error:  # the exception type and text are compared
        return type(error).__name__, str(error).split("() ")[-1]


def test_init_false_defaults_are_set_before_post_init():
    for cls in (OURS, STDLIB):
        probe = cls(1)
        assert probe.seen == (7, [], []) and probe.c == 7
        assert cls(1).b is not cls(1).b and cls(1).d is not cls(1).d


@pytest.mark.parametrize(
    "args, kwargs",
    [((1,), {}), ((1, [2]), {"hidden": 3}), ((), {"a": 1, "loose": 4}), ((1, [2], 3, 4), {})],
)
def test_the_probe_matches_a_frozen_dataclass(args, kwargs):
    ours, stdlib = OURS(*args, **kwargs), STDLIB(*args, **kwargs)
    assert repr(ours) == repr(stdlib)
    assert dataclasses.astuple(ours) == dataclasses.astuple(stdlib)
    assert dataclasses.asdict(ours) == dataclasses.asdict(stdlib)
    assert _outcome(lambda: hash(ours)) == _outcome(lambda: hash(stdlib))
    assert ours == OURS(*args, **kwargs) and (ours == replace(ours, loose=99)) == (stdlib == replace(stdlib, loose=99))
    assert (ours == replace(ours, hidden=99)) == (stdlib == replace(stdlib, hidden=99)) is False
    assert ours.__eq__(stdlib) is NotImplemented
    assert repr(replace(ours, a=5)) == repr(replace(stdlib, a=5))
    assert OURS.__match_args__ == STDLIB.__match_args__
    assert str(inspect.signature(OURS)) == str(inspect.signature(STDLIB))
    for name in ("a", "c", "seen"):
        assert _outcome(lambda: setattr(ours, name, 0)) == _outcome(lambda: setattr(stdlib, name, 0))
        assert _outcome(lambda: delattr(ours, name)) == _outcome(lambda: delattr(stdlib, name))


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1,), {"a": 2}), ((1,), {"bogus": 2}), ((1, [], 0, 0, 5), {}), ((), {"b": []})],
)
def test_the_probe_rejects_what_a_frozen_dataclass_rejects(args, kwargs):
    ours, stdlib = _outcome(lambda: OURS(*args, **kwargs)), _outcome(lambda: STDLIB(*args, **kwargs))
    assert ours[0] == stdlib[0] == "TypeError"
    # the same complaint, up to the wording of the counts
    assert ours[1].split(" ")[0] == stdlib[1].split(" ")[0]


def test_a_record_may_not_define_a_shared_method():
    with pytest.raises(TypeError, match="defines a dataclass method"):

        @record
        class Bad:
            """Defines its own repr."""

            a: int

            def __repr__(self):
                return "bad"
