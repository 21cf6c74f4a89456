"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Extremality verdicts are cross-checked against the
independent primal split oracles in ``oracles.py``."""

import time

import numpy as np

from covkit.constructions import (
    DecomposableOp,
    complete_irreps,
    decomposable_extract,
    equivalence_unitary,
    fourier,
    marginal_observable,
    plancherel_inverse,
    sq_structure,
)
from covkit.cpmaps import CPMapSpec, cp_extremal, kraus_extract, ksgns
from covkit.cstar import FiniteCStarAlgebra, ModuleSpace
from covkit.fingroup import FiniteGroup, MultiplierRep, SubgroupData, TwoCocycle, heisenberg_rep
from covkit.instruments import (
    B_from_instrument,
    ObservableSpec,
    Symmetry,
    check_b_family,
    instrument_extremal,
    instrument_from_B,
    lambda_from_observable,
    observable_extremal,
    phase_space,
    sample_stream,
    sq_constant,
    validate_instrument,
    validate_observable,
)
from covkit.kernels import kernel_extremal, kolmogorov_decompose
from covkit.numlin import frob, rank
from covkit.random import (
    all_subgroups,
    rand_covariant_cpmap,
    rand_covariant_instrument,
    rand_covariant_kernel,
)

from oracles import (
    cpmap_kernel_form,
    observable_as_cpmap,
    observable_kernel_form,
    permuted_decomposition,
    split_oracle_cpmap,
    split_oracle_instrument,
    split_oracle_observable,
)

GROUPS = {
    "Z2": FiniteGroup.cyclic(2),
    "Z3": FiniteGroup.cyclic(3),
    "Z4": FiniteGroup.cyclic(4),
    "S3": FiniteGroup.symmetric(3),
}


def announce(number, message):
    print(f"[acceptance] criterion {number}: PASS - {message}")


def test_criterion_1_kolmogorov_reconstruction():
    rng = np.random.default_rng(101)
    names = list(GROUPS)
    start = time.perf_counter()
    worst = {"reconstruction": 0.0, "unitarity": 0.0, "cocycle": 0.0, "intertwining": 0.0}
    for i in range(100):
        group = GROUPS[names[i % 4]]
        spec = rand_covariant_kernel(
            rng,
            group,
            max_x=4,
            n_v=int(rng.integers(1, 4)),
            k=int(rng.integers(1, 3)),
        )
        dec = kolmogorov_decompose(spec)
        for key in worst:
            worst[key] = max(worst[key], dec.checks[key].residual)
    elapsed = time.perf_counter() - start
    assert all(v <= 1e-8 for v in worst.values()), worst
    assert elapsed < 60.0
    announce(1, f"100 kernels, worst residuals {max(worst.values()):.2e}, {elapsed:.1f} s")


def test_criterion_2_uniqueness_up_to_unitary():
    rng = np.random.default_rng(102)
    names = list(GROUPS)
    worst = 0.0
    for i in range(20):
        group = GROUPS[names[i % 4]]
        spec = rand_covariant_kernel(rng, group, max_x=3, n_v=2)
        d1 = kolmogorov_decompose(spec)
        d2 = permuted_decomposition(spec, rng.permutation(spec.x_size * spec.n_v))
        w = equivalence_unitary(d1, d2)
        res = frob(w @ d1.stacked() - d2.stacked())
        for g in group.elements():
            res = max(res, frob(w @ d1.sym(g) - d2.sym(g) @ w))
        worst = max(worst, res)
    assert worst <= 1e-8
    announce(2, f"20 instances connected by a unitary, worst residual {worst:.2e}")


def test_criterion_3_ksgns_certification():
    rng = np.random.default_rng(103)
    blocks_cycle = [(2,), (3,), (2, 1)]
    groups_cycle = [GROUPS["Z2"], GROUPS["Z3"], GROUPS["S3"]]
    keys = ("reconstruction", "sym_unitary", "sym_j", "sym_cocycle")
    worst = 0.0
    for i in range(50):
        spec = rand_covariant_cpmap(
            rng, blocks_cycle[i % 3], groups_cycle[i % 3], n_v=int(rng.integers(1, 4))
        )
        dil = ksgns(spec)
        for key in keys:
            worst = max(worst, dil.checks[key].residual)
    assert worst <= 1e-8
    announce(3, f"50 covariant dilations certified, worst residual {worst:.2e}")


def test_criterion_4_kraus_equivalence():
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(20):
        blocks = (2,) if i % 2 == 0 else (3,)
        group = GROUPS["Z2"] if i % 2 == 0 else GROUPS["Z3"]
        spec = rand_covariant_cpmap(rng, blocks, group, n_v=2)
        dil = ksgns(spec)
        ops = kraus_extract(spec, dil)
        assert len(ops) == rank(spec.choi())
        n = spec.algebra.defining_dim
        for _ in range(20):
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            direct = spec.value_of(b)
            via = sum(a.conj().T @ b @ a for a in ops)
            scale = max(1.0, frob(direct))
            worst = max(worst, frob(direct - via) / scale)
    assert worst <= 1e-8
    announce(4, f"kraus families match the maps and the Choi ranks, worst {worst:.2e}")


def _flip_observable(p):
    g = FiniteGroup.cyclic(2)
    sub = SubgroupData(g, (0,))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = MultiplierRep(g, TwoCocycle.trivial(g), np.stack([np.eye(2, dtype=complex), x]))
    effects = np.stack(
        [np.diag([p, 1 - p]).astype(complex), np.diag([1 - p, p]).astype(complex)]
    )
    return ObservableSpec(effects, Symmetry(sub, rep))


def _unitary_mixture(w, u, v):
    ops = []
    if w > 0:
        ops.append(np.sqrt(w) * u)
    if w < 1:
        ops.append(np.sqrt(1 - w) * v)
    alg = FiniteCStarAlgebra.full(2)
    values = np.stack([sum(a.conj().T @ unit @ a for a in ops) for unit in alg.units()])
    return CPMapSpec(alg, ModuleSpace(k=1, n_v=2), values)


def _ps_rank1():
    b = np.zeros((2, 2), dtype=complex)
    b[0, 0] = 1.0 / np.sqrt(2.0)
    return phase_space(2, [b])


def _ps_rank2():
    b1 = np.diag([0.5, 0.0]).astype(complex)
    b2 = np.diag([0.0, 0.5]).astype(complex)
    return phase_space(2, [b1, b2])


def test_criterion_5_extremality_oracle_agreement():
    # flip observables: block-operator level, kernel level, CP level, oracle
    for p in np.round(np.arange(0.0, 1.01, 0.1), 2):
        spec = _flip_observable(float(p))
        truth = p in (0.0, 1.0)
        lam_cert = observable_extremal(lambda_from_observable(spec, seed=11))
        kernel, z = observable_kernel_form(spec)
        ker_cert = kernel_extremal(kernel, z)
        cp_cert = cp_extremal(observable_as_cpmap(spec))
        oracle_extreme, split = split_oracle_observable(spec)
        assert lam_cert.extreme == ker_cert.extreme == cp_cert.extreme == oracle_extreme == truth, p
        if not truth:
            assert split is not None
            for side in split:
                assert validate_observable(side).ok
    # explicit split at p = 1/2 towards the projective pair
    _, split = split_oracle_observable(_flip_observable(0.5))
    gap = np.linalg.norm(split[0].effects - split[1].effects)
    assert gap > 1e-3

    # mixtures of two unitary conjugations: CP level, kernel level, oracle
    rng = np.random.default_rng(105)
    from covkit.random import rand_unitary

    u, v = rand_unitary(rng, 2), rand_unitary(rng, 2)
    for w in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = _unitary_mixture(w, u, v)
        truth = w in (0.0, 1.0)
        cp_cert = cp_extremal(spec)
        kernel, z = cpmap_kernel_form(spec)
        ker_cert = kernel_extremal(kernel, z)
        oracle_extreme, _ = split_oracle_cpmap(spec)
        assert cp_cert.extreme == ker_cert.extreme == oracle_extreme == truth, w

    # phase-space instruments at d = 2: CP level and oracle
    rank1, rank2 = _ps_rank1(), _ps_rank2()
    for spec, truth in ((rank1, True), (rank2, False)):
        cert = instrument_extremal(spec)
        oracle_extreme, split = split_oracle_instrument(spec)
        assert cert.extreme == oracle_extreme == truth
        if not truth:
            for side in split:
                assert validate_instrument(side).ok
    announce(5, "three code paths and the split oracle agree on all families")


def test_criterion_6_instrument_structure_roundtrip():
    rng = np.random.default_rng(106)
    groups = [GROUPS["Z2"], GROUPS["Z4"], GROUPS["S3"]]
    cases = []
    for group in groups:
        for sub in all_subgroups(group):
            cases.append(sub)
    worst_round, worst_inv, worst_norm = 0.0, 0.0, 0.0
    dims = [(1, 2), (2, 2), (2, 3), (3, 2), (2, 1), (3, 3)]
    for i in range(30):
        sub = cases[i % len(cases)]
        k_dim, v_dim = dims[i % len(dims)]
        spec = rand_covariant_instrument(rng, sub, k_dim=k_dim, v_dim=v_dim)
        data = B_from_instrument(spec)
        rebuilt = instrument_from_B(data, spec.symmetry)
        worst_round = max(worst_round, max(frob(a - b) for a, b in zip(rebuilt.choi, spec.choi)))
        inv, norm = check_b_family(data, spec.symmetry)
        worst_inv, worst_norm = max(worst_inv, inv), max(worst_norm, norm)
    assert worst_round <= 1e-8
    assert worst_inv <= 1e-8 and worst_norm <= 1e-8
    announce(
        6,
        f"30 instruments round-trip at {worst_round:.2e}; invariance/normalization "
        f"{max(worst_inv, worst_norm):.2e}",
    )


def test_criterion_7_square_integrability_and_phase_space():
    rng = np.random.default_rng(107)
    for d in (2, 3, 5):
        _, _, rep = heisenberg_rep(d)
        result = sq_constant(rep)
        assert result.ok
        assert abs(result.value - d) <= 1e-10
        # direct-sum oracle: explicit double sum over random unit pairs
        for _ in range(5):
            phi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            phi /= np.linalg.norm(phi)
            psi /= np.linalg.norm(psi)
            total = sum(abs(phi.conj() @ rep(g) @ psi) ** 2 for g in range(d * d))
            assert abs(total - d) <= 1e-10

    spec = _ps_rank1()
    effects_total = marginal_observable(spec).effects.sum(axis=0)
    assert frob(effects_total - np.eye(2)) <= 1e-10

    st = sq_structure(spec)
    assert abs(np.trace(st.seed_matrix).real - 1.0) <= 1e-10
    total = sum(b.conj().T @ b for b in st.b_ops)
    assert frob(st.seed_matrix / st.constant - total) <= 1e-10
    announce(7, "square-integrability constants, normalization, and seed recovery exact")


def test_criterion_8_fourier_plancherel():
    groups = [FiniteGroup.cyclic(n) for n in range(1, 7)]
    groups += [FiniteGroup.symmetric(3), FiniteGroup.dihedral(4)]
    worst = 0.0
    for group in groups:
        irreps = complete_irreps(group, seed=0)
        assert sum(t.dim ** 2 for t in irreps) == group.order
        for g in group.elements():
            delta = np.zeros(group.order, dtype=complex)
            delta[g] = 1.0
            back = plancherel_inverse(fourier(delta, irreps), irreps)
            worst = max(worst, float(np.abs(back - delta).max()))
        rng = np.random.default_rng(group.order)
        phi = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
        coeffs = fourier(phi, irreps)
        parseval = sum(t.dim * frob(c) ** 2 for t, c in zip(irreps, coeffs)) / group.order
        worst = max(worst, abs(np.linalg.norm(phi) ** 2 - parseval))
    assert worst <= 1e-10
    announce(8, f"round-trip and Parseval exact on full bases, worst {worst:.2e}")


def test_criterion_9_decomposable_operators():
    rng = np.random.default_rng(109)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        dims = [int(d) for d in rng.integers(0, 4, size=n)]
        # choose a permutation preserving fiber dimensions
        perm = list(range(n))
        rng.shuffle(perm)
        if any(dims[perm[w]] != dims[w] for w in range(n)):
            # transport dimensions along the permutation orbits to make the
            # layout consistent
            for orbit_start in range(n):
                w = orbit_start
                while True:
                    dims[perm[w]] = dims[w]
                    w = perm[w]
                    if w == orbit_start:
                        break
        blocks = tuple(
            rng.normal(size=(dims[w], dims[w])) + 1j * rng.normal(size=(dims[w], dims[w]))
            for w in range(n)
        )
        op = DecomposableOp(tuple(perm), tuple(dims), blocks)
        extracted = decomposable_extract(op.assemble(), perm, dims)
        assert np.allclose(extracted.assemble(), op.assemble())
        for b1, b2 in zip(extracted.blocks, blocks):
            assert np.allclose(b1, b2)

    # unitarity criterion, both directions
    g = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    unitary_op = DecomposableOp((1, 0), (3, 3), (g, g.conj().T))
    assembled = unitary_op.assemble()
    assert np.allclose(assembled.conj().T @ assembled, np.eye(6), atol=1e-10)
    assert decomposable_extract(assembled, (1, 0), (3, 3)).is_unitary_op()
    lossy = DecomposableOp((1, 0), (3, 3), (0.5 * g, g.conj().T))
    assembled = lossy.assemble()
    assert not np.allclose(assembled.conj().T @ assembled, np.eye(6), atol=1e-6)
    assert not decomposable_extract(assembled, (1, 0), (3, 3)).is_unitary_op()
    announce(9, "block round-trips exact; unitarity criterion verified both ways")


def test_criterion_10_sampler_statistics():
    spec = _ps_rank1()
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    from covkit.instruments import outcome_distribution

    born = outcome_distribution(spec, rho)[0]
    n = 100_000
    hits = sum(1 for s in sample_stream(spec, rho, n, rng_seed=2026) if s.outcome == 0)
    sigma = np.sqrt(born * (1 - born) / n)
    deviation = abs(hits / n - born)
    assert deviation <= 3 * sigma
    announce(10, f"empirical frequency within {deviation / sigma:.2f} sigma of the Born value")
