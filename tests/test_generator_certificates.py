"""Certification on generators: every homomorphism identity (the group
table, the 2-cocycle law, the representation product rule and each
covariance) is checked on ``group.generators()`` and propagated along words
of length at most ``max_word_length``.

These tests pin down the generating set and its word length, breaks that
only pairs outside the generating set carry, the load-time representation
check of kernel, cpmap, observable and instrument documents, the residuals a
group document prints, invariance under a relabelling of the group elements,
and the two output paths that moved with it: the predual of an outcome map
and the array rendering of ``specfile.dumps``.
"""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from covkit import cli, specfile
from covkit.cli import main
from covkit.cpmaps import CPSymmetry, cp_extremal, cp_validate, kraus_from_choi
from covkit.fingroup import (
    FiniteGroup,
    GroupAction,
    GroupStructureError,
    MultiplierRep,
    SubgroupData,
    TwoCocycle,
    closure,
    cocycle_status,
    cocycle_violation,
    heisenberg_rep,
    rep_status,
)
from covkit.instruments import (
    InstrumentSpec,
    ObservableSpec,
    Symmetry,
    instrument_extremal,
    lambda_from_observable,
    observable_extremal,
    phase_space,
    validate_instrument,
    validate_observable,
)
from covkit.kernels import CovariantKernelSpec, kernel_extremal, validate_kernel
from covkit.numlin import Tolerances
from covkit.random import (
    all_subgroups,
    rand_covariant_cpmap,
    rand_covariant_instrument,
    rand_covariant_kernel,
    rand_covariant_observable,
    rand_density,
    rand_phases,
)

from oracles import cocycle_violation_loop, greedy_generators_loop, group_table_violation, sample_lines_loop


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# generating sets and word lengths
# ---------------------------------------------------------------------------


def _word_lengths_loop(group):
    """Length of the shortest positive word in the generators, per element."""
    length, frontier = {group.identity: 0}, [group.identity]
    while frontier:
        new = []
        for a in frontier:
            for s in group.generators():
                b = group.prod(a, s)
                if b not in length:
                    length[b] = length[a] + 1
                    new.append(b)
        frontier = new
    return length


@pytest.mark.parametrize(
    "group",
    [FiniteGroup.trivial(), FiniteGroup.cyclic(7), FiniteGroup.dihedral(5), FiniteGroup.symmetric(4), heisenberg_rep(4)[0]],
    ids=["trivial", "Z7", "D5", "S4", "WH4"],
)
def test_max_word_length_is_the_depth_of_the_cayley_graph(group):
    lengths = _word_lengths_loop(group)
    assert len(lengths) == group.order
    assert group.max_word_length == max(lengths.values())
    assert closure(group, group.generators()) == tuple(range(group.order))


def test_symmetric_table_is_the_composition_of_permutations():
    for n in (1, 2, 3, 4):
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        want = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
        assert FiniteGroup.symmetric(n).mul.tolist() == want
    s6 = FiniteGroup.symmetric(6)
    assert s6.order == 720 and closure(s6, s6.generators()) == tuple(range(720))


def test_direct_product_table():
    a, b = FiniteGroup.dihedral(3), FiniteGroup.cyclic(4)
    prod = FiniteGroup.direct_product(a, b)
    for x, y, u, v in itertools.product(range(6), range(4), range(6), range(4)):
        assert prod.prod(x * 4 + y, u * 4 + v) == a.prod(x, u) * 4 + b.prod(y, v)


# ---------------------------------------------------------------------------
# breaks carried by pairs outside the generating set
# ---------------------------------------------------------------------------


def _outside(group):
    """Two non-identity elements outside the generating set."""
    gens = set(group.generators())
    return [g for g in group.elements() if g != group.identity and g not in gens][:2]


def test_associativity_break_off_the_generators_is_caught():
    # swap two entries x*y of one row, x and y outside the generators and
    # neither product the identity: the identity and the inverses stay intact
    group = FiniteGroup.symmetric(4)
    gens = set(group.generators())
    x = next(g for g in group.elements() if g != group.identity and g not in gens)
    cols = [y for y in group.elements() if y not in gens and y != group.identity and group.prod(x, y) != group.identity][:2]
    mul = group.mul.copy()
    mul[x, cols] = mul[x, cols[::-1]]
    with pytest.raises(GroupStructureError, match="associativity fails") as exc:
        FiniteGroup(mul)
    assert str(exc.value) == group_table_violation(mul, on_generators=True)
    assert group_table_violation(mul) is not None
    # the reported middle element is a generator of the broken table
    middle = int(str(exc.value).split(", ")[1])
    assert middle in greedy_generators_loop(mul, group.identity)


@pytest.mark.parametrize("make", [lambda: FiniteGroup.symmetric(4), lambda: heisenberg_rep(4)[0]], ids=["S4", "WH4"])
def test_cocycle_break_off_the_generators_is_caught(make):
    group = make()
    a, b = _outside(group)
    c = TwoCocycle.coboundary(group, rand_phases(np.random.default_rng(3), group))
    assert cocycle_violation(c) is None
    vals = c.values.copy()
    vals[a, b] *= np.exp(1e-3j)
    bad = TwoCocycle(group, vals)
    found, residual = cocycle_status(bad)
    assert found is not None and found[0] == "cocycle" and found[2] in group.generators()
    assert found == cocycle_violation_loop(bad, on_generators=True)
    assert cocycle_violation_loop(bad) is not None
    assert residual == pytest.approx(abs(np.exp(1e-3j) - 1), rel=1e-6)


# ---------------------------------------------------------------------------
# residuals printed for group documents
# ---------------------------------------------------------------------------


def _group_doc(group, cocycle, rep):
    payload = {"group": specfile.group_out(group), "cocycle": specfile.matrix_out(cocycle.values), "rep": specfile.rep_out(rep)}
    return specfile.document("group", payload)


def _validate(tmp_path, doc, capsys):
    code = main(["validate", _write(tmp_path, "doc.json", doc)])
    return code, json.loads(capsys.readouterr().out)["verdicts"]


def test_group_document_prints_computed_residuals(tmp_path, capsys):
    group, cocycle, rep = heisenberg_rep(4)
    code, verdicts = _validate(tmp_path, _group_doc(group, cocycle, rep), capsys)
    assert code == 0 and all(v["ok"] for v in verdicts.values())
    assert verdicts["cocycle"]["residual"] == cocycle_status(cocycle)[1] < 1e-12
    assert verdicts["rep"]["residual"] == rep_status(rep)[1] < 1e-12
    # a perturbation at a pair outside the generators fails both, with its size as residual
    a, b = _outside(group)
    vals = cocycle.values.copy()
    vals[a, b] *= np.exp(1e-3j)
    broken = TwoCocycle(group, vals)
    code, verdicts = _validate(tmp_path, _group_doc(group, broken, MultiplierRep(group, broken, rep.matrices)), capsys)
    assert code == 1
    for name in ("cocycle", "rep"):
        assert not verdicts[name]["ok"]
        assert verdicts[name]["residual"] == pytest.approx(abs(np.exp(1e-3j) - 1), rel=1e-6)


def test_group_document_checks_a_shared_cocycle_once(tmp_path, capsys, monkeypatch):
    # payload.cocycle and payload.rep.cocycle usually hold the same values: the
    # second check is the first's result, and the verdicts are those of two checks
    group, cocycle, rep = heisenberg_rep(3)
    a, b = _outside(group)
    vals = cocycle.values.copy()
    vals[a, b] *= np.exp(1e-3j)
    broken = TwoCocycle(group, vals)
    cases = [(cocycle, rep, 1), (broken, MultiplierRep(group, broken, rep.matrices), 1), (broken, rep, 2)]
    calls = []
    monkeypatch.setattr(cli, "cocycle_status", lambda c, tol: calls.append(c) or cocycle_status(c, tol))
    for c, u, count in cases:
        calls.clear()
        code, verdicts = _validate(tmp_path, _group_doc(group, c, u), capsys)
        assert len(calls) == count
        (bad_c, res_c), (bad_u, res_u), (bad_uc, res_uc) = cocycle_status(c), rep_status(u), cocycle_status(u.cocycle)
        assert verdicts["cocycle"] == {"ok": bad_c is None, "residual": res_c}
        assert verdicts["rep"] == {"ok": bad_u is None and bad_uc is None, "residual": max(res_u, res_uc)}
        assert code == (0 if bad_c is None and bad_u is None and bad_uc is None else 1)


def test_group_document_cocycle_and_rep_follow_tol_recon_fro(tmp_path, capsys):
    # a cocycle phase of 1e-10 at a pair off the generators: max_word_length times it
    # passes recon_fro = 1e-8 (the default) and fails 1e-12, for the cocycle identity
    # and for the product rule of the representation that carries the same cocycle
    group, cocycle, rep = heisenberg_rep(4)
    a, b = _outside(group)
    vals = cocycle.values.copy()
    vals[a, b] *= np.exp(1e-10j)
    broken = TwoCocycle(group, vals)
    doc = _group_doc(group, broken, MultiplierRep(group, broken, rep.matrices))
    assert 1e-10 < group.max_word_length * cocycle_status(broken)[1] < 1e-8
    path = _write(tmp_path, "doc.json", doc)
    for flags, ok in (([], True), (["--tol-recon-fro", "1e-6"], True), (["--tol-recon-fro", "1e-12"], False)):
        code = main(["validate", path] + flags)
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert code == (0 if ok else 1)
        assert verdicts["cocycle"]["ok"] is ok and verdicts["rep"]["ok"] is ok
        assert verdicts["cocycle"]["residual"] == pytest.approx(abs(np.exp(1e-10j) - 1), rel=1e-3)
    # the library defaults are the same recon_fro
    assert cocycle_status(broken)[0] is None
    assert cocycle_status(broken, Tolerances(recon_fro=1e-12))[0][0] == "cocycle"


def test_group_document_rep_residual_is_the_product_residual(tmp_path, capsys):
    group, cocycle, rep = heisenberg_rep(3)
    a, _ = _outside(group)
    mats = rep.matrices.copy()
    mats[a] *= np.exp(1e-4j)
    code, verdicts = _validate(tmp_path, _group_doc(group, cocycle, MultiplierRep(group, cocycle, mats)), capsys)
    assert code == 1 and verdicts["cocycle"]["ok"] and not verdicts["rep"]["ok"]
    # U(s) U(h) against c(s, h) U(sh) with sh = a: a phase of 1e-4 on a 3 x 3 unitary
    assert verdicts["rep"]["residual"] == pytest.approx(abs(np.exp(1e-4j) - 1) * np.sqrt(3), rel=1e-6)


# ---------------------------------------------------------------------------
# load-time representation check
# ---------------------------------------------------------------------------


def _instrument_doc(drop=()):
    rng = np.random.default_rng(3)
    ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    norm = 3 * sum(np.vdot(b, b).real for b in ops)
    payload = specfile.instrument_out(phase_space(3, [b / np.sqrt(norm) for b in ops]))
    for field in drop:
        del payload[field]["cocycle"]
    return specfile.document("instrument", payload)


@pytest.mark.parametrize("command", ["validate", "extremal", "kraus", "dilate"])
def test_missing_cocycle_fails_at_load(tmp_path, command, capsys):
    assert main([command, _write(tmp_path, "ok.json", _instrument_doc())]) == 0
    for drop in (["rep"], ["rep", "out_rep"]):
        capsys.readouterr()
        assert main([command, _write(tmp_path, "bad.json", _instrument_doc(drop))]) == 1
        err = capsys.readouterr().err
        assert "payload.rep: U(s) U(h) != c(s, h) U(sh) at (s, h) = (" in err
        assert "with the trivial cocycle" in err


def test_rep_broken_off_the_generators_fails_at_load(tmp_path, capsys):
    spec = rand_covariant_observable(np.random.default_rng(4), all_subgroups(FiniteGroup.symmetric(3))[1], v_dim=2)
    group = spec.symmetry.group
    a, _ = _outside(group)
    assert a not in group.generators()
    payload = specfile.observable_out(spec)
    mats = spec.symmetry.rep.matrices.copy()
    mats[a] *= np.exp(1e-3j)
    payload["rep"]["matrices"][a] = specfile.matrix_out(mats[a])
    assert main(["validate", _write(tmp_path, "bad.json", specfile.document("observable", payload))]) == 1
    err = capsys.readouterr().err
    assert "validation failure: payload.rep: U(s) U(h) != c(s, h) U(sh) at (s, h)" in err
    # a cocycle entry off the generators: the cocycle itself is named
    group_h, cocycle, rep = heisenberg_rep(3)
    a, b = _outside(group_h)
    vals = cocycle.values.copy()
    vals[a, b] *= np.exp(1e-3j)
    payload = json.loads(_instrument_doc())["payload"]
    payload["rep"]["cocycle"] = specfile.matrix_out(vals)
    with pytest.raises(specfile.RepresentationError, match=r"payload\.rep\.cocycle: c\(x, a\) c\(xa, y\)"):
        specfile.load(specfile.document("instrument", payload))
    assert main(["dilate", _write(tmp_path, "bad2.json", specfile.document("instrument", payload))]) == 1


def test_kernel_and_cpmap_reps_are_checked_at_load():
    rng = np.random.default_rng(6)
    kernel = rand_covariant_kernel(rng, FiniteGroup.symmetric(3), max_x=3, n_v=2)
    cpmap = rand_covariant_cpmap(rng, (2, 1), FiniteGroup.symmetric(3), n_v=2)
    a, _ = _outside(kernel.action.group)
    payload = specfile.kernel_out(kernel)
    payload["rep"]["matrices"][a] = specfile.matrix_out(np.exp(1e-3j) * kernel.rep.matrices[a])
    with pytest.raises(specfile.RepresentationError, match=r"^payload\.rep: "):
        specfile.load(specfile.document("kernel", payload))
    for field in ("u", "rep"):
        payload = specfile.cpmap_out(cpmap)
        payload["symmetry"][field]["matrices"][a] = specfile.matrix_out(np.exp(1e-3j) * getattr(cpmap.symmetry, field).matrices[a])
        with pytest.raises(specfile.RepresentationError, match=rf"^payload\.symmetry\.{field}: "):
            specfile.load(specfile.document("cpmap", payload))


# ---------------------------------------------------------------------------
# relabelling the group elements
# ---------------------------------------------------------------------------


def _relabelled(group, perm):
    """The group with element g renamed perm[g], and the map old -> new of
    representations and cocycle tables."""
    inv = np.argsort(perm)
    new = FiniteGroup(perm[group.mul[np.ix_(inv, inv)]])

    def rep(r):
        return MultiplierRep(new, TwoCocycle(new, r.cocycle.values[np.ix_(inv, inv)]), r.matrices[inv], r.unitary_flag)

    return new, inv, rep


def _relabel_symmetry(sym, perm):
    """The relabelled symmetry, and the new index of every old outcome."""
    new, _, rep = _relabelled(sym.group, perm)
    sub = SubgroupData(new, tuple(int(perm[m]) for m in sym.sub.members))
    moved = [sub.project(int(perm[s])) for s in sym.sub.section]
    return Symmetry(sub, rep(sym.rep), None if sym.out_rep is None else rep(sym.out_rep)), moved


def _relabel(obj, perm):
    if isinstance(obj, CovariantKernelSpec):
        new, inv, rep = _relabelled(obj.action.group, perm)
        return replace(
            obj,
            action=GroupAction(new, obj.action.table[inv]),
            alpha=obj.alpha[inv],
            sigma=TwoCocycle(new, obj.sigma.values[np.ix_(inv, inv)]),
            rep=rep(obj.rep),
        )
    if isinstance(obj, (ObservableSpec, InstrumentSpec)):
        sym, moved = _relabel_symmetry(obj.symmetry, perm)
        stack = obj.effects if isinstance(obj, ObservableSpec) else obj.choi
        out = np.empty_like(stack)
        out[moved] = stack
        return type(obj)(out, sym)
    _, _, rep = _relabelled(obj.symmetry.group, perm)
    factors = None if obj.symmetry.u_factors is None else tuple(map(rep, obj.symmetry.u_factors))
    return replace(obj, symmetry=CPSymmetry(rep(obj.symmetry.u), rep(obj.symmetry.rep), factors))


def _group_of(obj):
    return obj.action.group if isinstance(obj, CovariantKernelSpec) else obj.symmetry.group


def _verdict_and_freedom(obj):
    if isinstance(obj, CovariantKernelSpec):
        checks = validate_kernel(obj)
        return {k: c.ok for k, c in checks.items()}, checks.ok and kernel_extremal(obj, [(0, 0)]).freedom
    if isinstance(obj, ObservableSpec):
        checks = validate_observable(obj)
        return {k: c.ok for k, c in checks.items()}, checks.ok and observable_extremal(lambda_from_observable(obj)).freedom
    if isinstance(obj, InstrumentSpec):
        checks = validate_instrument(obj)
        return {k: c.ok for k, c in checks.items()}, checks.ok and instrument_extremal(obj).freedom
    checks = cp_validate(obj)
    return {k: c.ok for k, c in checks.items()}, checks.ok and cp_extremal(obj).freedom


def _objects():
    rng = np.random.default_rng(21)
    s3 = FiniteGroup.symmetric(3)
    sub = all_subgroups(s3)[1]
    instrument = rand_covariant_instrument(rng, sub, k_dim=2, v_dim=2)
    observable = rand_covariant_observable(rng, sub, v_dim=2)
    b = np.diag([1.0, 1.0, 0.0]) / np.sqrt(6.0)
    out = [
        rand_covariant_kernel(rng, s3, max_x=3, n_v=2),
        rand_covariant_cpmap(rng, (2, 1), s3, n_v=2),
        observable,
        instrument,
        phase_space(3, [b]),
    ]
    # and broken copies: one outcome moved, which breaks covariance
    effects = observable.effects.copy()
    effects[0] = effects[0] + 0.05 * np.diag([1.0, -1.0])
    out.append(replace(observable, effects=effects))
    choi = instrument.choi.copy()
    choi[-1] = 0.9 * choi[-1]
    out.append(replace(instrument, choi=choi))
    return out


@pytest.mark.parametrize("index", range(7))
def test_relabelled_group_keeps_verdicts_and_freedoms(index):
    obj = _objects()[index]
    group = _group_of(obj)
    # the first seeded permutation that changes the generating set
    for seed in range(100, 120):
        perm = np.random.default_rng([seed, index]).permutation(group.order)
        moved = _relabel(obj, perm)
        if tuple(sorted(int(perm[s]) for s in group.generators())) != _group_of(moved).generators():
            break
    else:
        pytest.fail("no permutation changed the generating set")
    assert _verdict_and_freedom(moved) == _verdict_and_freedom(obj)


# ---------------------------------------------------------------------------
# predual and float rendering
# ---------------------------------------------------------------------------


def test_predual_is_the_kraus_sum():
    rng = np.random.default_rng(8)
    specs = [phase_space(3, [np.diag([1.0, 1.0, 0.0]) / np.sqrt(6.0)])]
    specs += [rand_covariant_instrument(rng, sub, k_dim=3, v_dim=2) for sub in all_subgroups(FiniteGroup.symmetric(3))[:3]]
    for spec in specs:
        rho = rand_density(rng, spec.v_dim)
        for w in range(spec.n_outcomes):
            ops = kraus_from_choi(spec.choi[w], spec.k_dim, spec.v_dim)
            want = sum((b @ rho @ b.conj().T for b in ops), np.zeros((spec.k_dim, spec.k_dim), dtype=complex))
            assert np.abs(spec.predual(w, rho) - want).max() <= 1e-12


def test_sample_command_matches_the_per_draw_loop(tmp_path, capsys):
    rng = np.random.default_rng(9)
    ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2)]
    norm = 4 * sum(np.vdot(b, b).real for b in ops)
    ops = [b / np.sqrt(norm) for b in ops]
    rho = rand_density(rng, 4)
    doc = specfile.document("phase_space", {"d": 4, "seed_ops": [specfile.matrix_out(b) for b in ops]})
    state = specfile.document("state", {"matrix": specfile.matrix_out(rho)})
    assert main(["sample", _write(tmp_path, "ps.json", doc), _write(tmp_path, "st.json", state), "-n", "50", "--seed", "4"]) == 0
    assert capsys.readouterr().out == sample_lines_loop(phase_space(4, ops), rho, 50, 4)


@pytest.mark.parametrize(
    "leaves",
    [
        [1.5, 1.5, 1.5, 1.5, 2.25, 1.5],
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, 0.0],
        [5e-324, 1e16, 1e16, 5e-324, -5e-324, -1e16, 0.1, 0.1],
        [0.1, 0.2, 0.1, 0.30000000000000004, 0.3, 0.1],
    ],
)
@pytest.mark.parametrize("copies", [1, 600])
def test_dumps_renders_each_distinct_value_once_and_exactly(leaves, copies):
    # 600 copies take the array past specfile._DEDUPE_FROM leaves, onto the
    # path that renders each distinct bit pattern once; the list is rendered
    # value by value
    rows = [list(leaves) for _ in range(copies)]
    assert (len(leaves) * copies >= specfile._DEDUPE_FROM) == (copies > 1)
    for obj in (rows, {"a": rows, "b": [rows, rows]}):
        assert specfile.dumps(obj) == json.dumps(obj, indent=1, sort_keys=True)
    arr = np.array(rows)
    assert specfile.dumps(arr) == json.dumps(rows, indent=1, sort_keys=True)
    tree = {"a": rows, "b": [rows, rows]}
    assert specfile.dumps({"a": arr, "b": [arr, rows]}) == json.dumps(tree, indent=1, sort_keys=True)
