"""Seeded, numpy-only generator of the benchmark corpus.

Every document is written in the format of ``docs/FORMAT.md`` with groups as
explicit ``mul`` tables.  Nothing here imports ``covkit``: the program under
test receives only these bytes, so two commits always see identical inputs.
The seed changes matrix entries only; shapes, group tables and command lines
are fixed per workload, and :func:`corpus` checks that.

Constructions work forward from dilation data so every document is valid by
construction (except the deliberately invalid ones, which say so):

- covariant kernels: a stabilizer-twirled factor at a base point, transported
  along the orbit;
- covariant CP maps: a random Kraus family twirled over the group;
- covariant observables: a stabilizer-twirled seed effect transported along
  the cosets and renormalized by the invariant total;
- phase-space instruments: the clock-and-shift translates of a seed family.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("extremal", "dilate", "validate-sample")


# -- numeric helpers -----------------------------------------------------------


def cmat(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def haar(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the vectors in R^n with zero sum."""
    a = np.eye(n)[:, 1:] - np.eye(n)[:, :1]
    q, _ = np.linalg.qr(a)
    return q


def document(kind: str, payload: dict) -> str:
    return json.dumps({"kind": kind, "version": "1", "payload": payload}, sort_keys=True)


# -- groups --------------------------------------------------------------------


class PermGroup:
    """A permutation group on {0..n-1}, elements sorted lexicographically so
    the identity has index 0; ``mul[i, j]`` is the index of p_i o p_j."""

    def __init__(self, generators, n: int):
        ident = tuple(range(n))
        members, frontier = {ident}, {tuple(g) for g in generators}
        while frontier:
            members |= frontier
            frontier = {
                tuple(p[q[k]] for k in range(n)) for p in members for q in members
            } - members
        self.perms = sorted(members)
        self.n = n
        index = {p: i for i, p in enumerate(self.perms)}
        self.mul = np.array(
            [[index[tuple(p[q[k]] for k in range(n))] for q in self.perms] for p in self.perms],
            dtype=np.int64,
        )
        self.P = np.zeros((len(self.perms), n, n))
        for g, p in enumerate(self.perms):
            self.P[g, list(p), range(n)] = 1.0
        self.sign = np.round(np.linalg.det(self.P)).astype(float)

    @property
    def order(self) -> int:
        return len(self.perms)

    def mul_json(self) -> dict:
        return {"mul": self.mul.tolist()}

    def action(self) -> np.ndarray:
        """The natural action on the n letters, table[g, x] = p_g(x)."""
        return np.array(self.perms, dtype=np.int64)

    def cosets(self, members):
        """Left cosets g H in covkit's order: identity coset first, then by
        smallest member.  Returns (cosets, section, projection)."""
        seen, cosets = set(), []
        for x in range(self.order):
            if x not in seen:
                c = tuple(sorted(int(self.mul[x, h]) for h in members))
                seen.update(c)
                cosets.append(c)
        cosets.sort(key=lambda c: (0 not in c, c[0]))
        section = [0] + [c[0] for c in cosets[1:]]
        proj = np.zeros(self.order, dtype=np.int64)
        for w, c in enumerate(cosets):
            proj[list(c)] = w
        return cosets, section, proj


def cyclic(n: int) -> PermGroup:
    return PermGroup([[(k + 1) % n for k in range(n)]], n)


def dihedral(n: int) -> PermGroup:
    return PermGroup([[(k + 1) % n for k in range(n)], [(-k) % n for k in range(n)]], n)


def symmetric(n: int) -> PermGroup:
    return PermGroup([list(p) for p in itertools.permutations(range(n))], n)


def char_rep(rng, grp: PermGroup) -> np.ndarray:
    """Two-dimensional unitary rep: trivial plus sign character, rotated."""
    q = haar(rng, 2)
    diag = np.zeros((grp.order, 2, 2))
    diag[:, 0, 0] = 1.0
    diag[:, 1, 1] = grp.sign
    return np.einsum("ij,gjk,lk->gil", q, diag, q.conj())


def std_rep(rng, grp: PermGroup) -> np.ndarray:
    """The permutation representation on the zero-sum subspace, rotated."""
    b = sum_zero_basis(grp.n)
    q = haar(rng, grp.n - 1)
    return np.einsum("ij,ja,gab,bk,lk->gil", q, b.T, grp.P, b, q.conj())


def rep_json(mats, cocycle=None) -> dict:
    out = {"matrices": [cmat(m) for m in mats]}
    if cocycle is not None:
        out["cocycle"] = cmat(cocycle)
    return out


def heisenberg(d: int):
    """Z_d x Z_d with (q, p) at index q*d + p, the clock-and-shift matrices
    W(q, p) = X^q Z^p and their cocycle W(v) W(v') = c(v, v') W(v + v')."""
    idx = np.arange(d * d)
    q, p = idx // d, idx % d
    mul = ((q[:, None] + q[None, :]) % d) * d + (p[:, None] + p[None, :]) % d
    omega = np.exp(2j * np.pi / d)
    x = np.roll(np.eye(d), -1, axis=0)  # X e_j = e_{j-1}
    z = np.diag(omega ** np.arange(d))
    w = np.stack(
        [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b) for a, b in zip(q, p)]
    )
    cocycle = omega ** ((-q[None, :] * p[:, None]) % d)
    return mul, w, cocycle


# -- objects -------------------------------------------------------------------


def phase_space_seed(rng, d: int, rank: int):
    """Seed family B_j with d * sum_j tr(B_j^+ B_j) = 1."""
    ops = [ginibre(rng, d, d) for _ in range(rank)]
    norm = d * sum(np.vdot(b, b).real for b in ops)
    return [b / np.sqrt(norm) for b in ops]


def phase_space_choi(d: int, ops) -> np.ndarray:
    """Choi blocks of the phase-space instrument: outcome w uses the Kraus
    family W(w) B_j W(w)^+, and choi = sum_j z z^+ with z = conj(vec(K_j))."""
    _, w, _ = heisenberg(d)
    choi = np.zeros((d * d, d * d, d * d), dtype=np.complex128)
    for out in range(d * d):
        for b in ops:
            k = w[out] @ b @ w[out].conj().T
            zv = k.conj().reshape(-1)
            choi[out] += np.outer(zv, zv.conj())
    return choi


def instrument_payload(d: int, choi) -> dict:
    mul, w, cocycle = heisenberg(d)
    rep = rep_json(w, cocycle)
    return {
        "group": {"mul": mul.tolist()},
        "subgroup": [0],
        "rep": rep,
        "out_rep": rep,
        "choi": [cmat(c) for c in choi],
    }


def covariant_kernel(rng, grp: PermGroup, n_dil_copies: int = 1):
    """Kernel over the natural action with trivial alpha: factors
    F(g x0) = D(g) F0 U(g)^+, F0 twirled over the stabilizer of x0 = 0."""
    u = char_rep(rng, grp)
    perm = grp.P.astype(np.complex128)
    parts = [perm, grp.sign[:, None, None] * perm] * n_dil_copies
    n = grp.n
    dil = np.zeros((grp.order, n * len(parts), n * len(parts)), dtype=np.complex128)
    for i, part in enumerate(parts):
        dil[:, n * i : n * i + n, n * i : n * i + n] = part
    q = haar(rng, dil.shape[1])
    dil = np.einsum("ij,gjk,lk->gil", q, dil, q.conj())
    seed = ginibre(rng, dil.shape[1], 2)
    stab = [g for g in range(grp.order) if grp.perms[g][0] == 0]
    f0 = sum(dil[h] @ seed @ u[h].conj().T for h in stab) / len(stab)
    x_size = grp.n
    factors = np.zeros((x_size, dil.shape[1], 2), dtype=np.complex128)
    for g in range(grp.order):
        factors[grp.perms[g][0]] = dil[g] @ f0 @ u[g].conj().T
    blocks = np.einsum("xiv,yiw->xyvw", factors.conj(), factors)
    return u, blocks


def kernel_payload(grp: PermGroup, u, blocks) -> dict:
    x = blocks.shape[0]
    return {
        "group": grp.mul_json(),
        "action": grp.action().tolist(),
        "alpha": cmat(np.ones((grp.order, x))),
        "sigma": cmat(np.ones((grp.order, grp.order))),
        "rep": rep_json(u),
        "module": {"k": 1, "n_v": 2},
        "blocks": [[cmat(blocks[i, j]) for j in range(x)] for i in range(x)],
    }


def covariant_cpmap(rng, grp: PermGroup, alg_rep, mod_rep, n_kraus: int = 1):
    """CP map on M_n (n = alg_rep dim) twirled over the group: Kraus family
    u(g)^+ A_l rep(g) / sqrt|G|; values[k] = sum B^+ E_k B on row-major units."""
    n, nv = alg_rep.shape[1], mod_rep.shape[1]
    kraus = [ginibre(rng, n, nv) / np.sqrt(n * nv) for _ in range(n_kraus)]
    ops = [
        alg_rep[g].conj().T @ a @ mod_rep[g] / np.sqrt(grp.order)
        for g in range(grp.order)
        for a in kraus
    ]
    values = np.zeros((n * n, nv, nv), dtype=np.complex128)
    for b in ops:
        values += np.einsum("av,bw->abvw", b.conj(), b).reshape(n * n, nv, nv)
    return values


def cpmap_payload(grp: PermGroup, alg_rep, mod_rep, values) -> dict:
    return {
        "blocks": [alg_rep.shape[1]],
        "module": {"k": 1, "n_v": mod_rep.shape[1]},
        "values": [cmat(v) for v in values],
        "symmetry": {"group": grp.mul_json(), "u": rep_json(alg_rep), "rep": rep_json(mod_rep)},
    }


def covariant_observable(rng, grp: PermGroup, members, rep, seed_rank=None):
    """Effects U(s_w) E0 U(s_w)^+ with E0 twirled over H, renormalized by
    the inverse square root of their G-invariant total."""
    v = rep.shape[1]
    f = ginibre(rng, seed_rank or v, v)
    seed = f.conj().T @ f
    e0 = sum(rep[h] @ seed @ rep[h].conj().T for h in members) / len(members)
    _, section, _ = grp.cosets(members)
    effects = np.stack([rep[s] @ e0 @ rep[s].conj().T for s in section])
    w, vec = np.linalg.eigh(effects.sum(axis=0))
    inv_sqrt = vec @ np.diag(w ** -0.5) @ vec.conj().T
    return np.einsum("ab,wbc,cd->wad", inv_sqrt, effects, inv_sqrt)


def observable_payload(grp: PermGroup, members, rep, effects) -> dict:
    return {
        "group": grp.mul_json(),
        "subgroup": sorted(int(m) for m in members),
        "rep": rep_json(rep),
        "effects": [cmat(e) for e in effects],
    }


def density(rng, d: int) -> np.ndarray:
    f = ginibre(rng, d, d)
    rho = f @ f.conj().T + 1e-3 * np.eye(d)
    return rho / np.trace(rho).real


# -- corpus --------------------------------------------------------------------


@dataclass
class Doc:
    """One CLI invocation: ``argv`` names files by key; ``files`` maps each
    key to its text; ``expect`` holds what the output checks need.  ``top``
    marks the workload's largest document; ``repeats`` is how many times a
    timed pass runs it, spread over the pass, so that the median time of a
    short top document rests on more samples."""

    id: str
    argv: list
    files: dict
    expect: dict = field(default_factory=dict)
    top: bool = False
    repeats: int = 1


def _extremal(rng):
    docs = []
    for rank, expect in ((1, {"extreme": True}), (2, {"extreme": False, "freedom": 3})):
        ops = phase_space_seed(rng, 2, rank)
        choi = phase_space_choi(2, ops)
        docs.append(
            Doc(
                f"extremal/phase_space_d2_rank{rank}",
                ["extremal", "in"],
                {"in": document("instrument", instrument_payload(2, choi))},
                {"kind": "instrument", "d": 2, "choi": choi, **expect},
                top=rank == 2,
            )
        )
    s3, d4 = symmetric(3), dihedral(4)
    for name, grp, members, rep in (
        ("observable_S3", s3, [0, 1], std_rep(rng, s3)),
        ("observable_D4", d4, [0, 1], std_rep(rng, d4)),
    ):
        for seed_rank in (1, None):
            effects = covariant_observable(rng, grp, members, rep, seed_rank)
            docs.append(
                Doc(
                    f"extremal/{name}_seedrank{seed_rank or 'full'}",
                    ["extremal", "in"],
                    {"in": document("observable", observable_payload(grp, members, rep, effects))},
                    {"kind": "observable", "grp": grp, "members": members, "rep": rep, "effects": effects},
                )
            )
    z3 = cyclic(3)
    # (name, group, algebra M_n, module dim); S_3 on M_3 with a 2-dim module
    # has a 18-dim dilation whose commutant solve alone takes ~18 s at the seed
    for name, grp, n, nv in (
        ("cpmap_Z3_M2", z3, 2, 2),
        ("cpmap_Z3_M3", z3, 3, 2),
        ("cpmap_S3_M2", s3, 2, 2),
        ("cpmap_S3_M3", s3, 3, 1),
    ):
        alg = std_rep(rng, grp) if n == grp.n - 1 else _embed_rep(rng, grp, n)
        mod = char_rep(rng, grp) if nv == 2 else grp.sign[:, None, None].astype(np.complex128)
        values = covariant_cpmap(rng, grp, alg, mod)
        docs.append(
            Doc(
                f"extremal/{name}",
                ["extremal", "in"],
                {"in": document("cpmap", cpmap_payload(grp, alg, mod, values))},
                {"kind": "cpmap", "grp": grp, "u": alg, "rep": mod, "values": values},
            )
        )
    for name, grp in (("kernel_Z4", cyclic(4)), ("kernel_S4", symmetric(4))):
        u, blocks = covariant_kernel(rng, grp)
        docs.append(
            Doc(
                f"extremal/{name}",
                ["extremal", "in"],
                {"in": document("kernel", kernel_payload(grp, u, blocks))},
                {"kind": "kernel", "grp": grp, "u": u, "blocks": blocks},
            )
        )
    return docs


def _embed_rep(rng, grp: PermGroup, n: int) -> np.ndarray:
    """An n-dimensional unitary rep of a group on n letters: the rotated
    permutation representation."""
    q = haar(rng, n)
    return np.einsum("ij,gjk,lk->gil", q, grp.P.astype(np.complex128), q.conj())


def _dilate(rng):
    docs = []
    for d, rank in ((2, 2), (3, 1), (3, 3)):
        choi = phase_space_choi(d, phase_space_seed(rng, d, rank))
        top = (d, rank) == (3, 3)
        docs.append(
            Doc(
                f"dilate/phase_space_d{d}_rank{rank}",
                ["dilate", "in"],
                {"in": document("instrument", instrument_payload(d, choi))},
                {"kind": "instrument", "d": d, "choi": choi},
                top=top,
                repeats=2 if top else 1,
            )
        )
    groups = (("Z4", cyclic(4), [0, 2]), ("D4", dihedral(4), [0, 1]), ("S4", symmetric(4), None))
    for name, grp, members in groups:
        if members is None:  # the stabilizer of letter 0, a copy of S_3
            members = [g for g in range(grp.order) if grp.perms[g][0] == 0]
        alg, mod = std_rep(rng, grp), char_rep(rng, grp)
        values = covariant_cpmap(rng, grp, alg, mod)
        cp_text = document("cpmap", cpmap_payload(grp, alg, mod, values))
        cp_expect = {"kind": "cpmap", "grp": grp, "u": alg, "rep": mod, "values": values}
        docs.append(Doc(f"dilate/cpmap_{name}_M3", ["dilate", "in"], {"in": cp_text}, cp_expect))
        docs.append(Doc(f"kraus/cpmap_{name}_M3", ["kraus", "in"], {"in": cp_text}, cp_expect))
        rep = std_rep(rng, grp)
        effects = covariant_observable(rng, grp, members, rep)
        docs.append(
            Doc(
                f"dilate/observable_{name}",
                ["dilate", "in"],
                {"in": document("observable", observable_payload(grp, members, rep, effects))},
                {"kind": "observable", "effects": effects},
            )
        )
        u, blocks = covariant_kernel(rng, grp)
        docs.append(
            Doc(
                f"dilate/kernel_{name}",
                ["dilate", "in"],
                {"in": document("kernel", kernel_payload(grp, u, blocks))},
                {"kind": "kernel", "blocks": blocks},
            )
        )
    for d in range(2, 7):
        ops = phase_space_seed(rng, d, 2)
        choi = phase_space_choi(d, ops)
        docs.append(
            Doc(
                f"kraus/phase_space_d{d}_rank2",
                ["kraus", "in"],
                {"in": document("instrument", instrument_payload(d, choi))},
                {"kind": "instrument", "d": d, "choi": choi},
            )
        )
    return docs


SAMPLE_DRAWS = 2000


def _validate_sample(rng):
    docs = []
    for d in range(2, 9):
        mul, w, cocycle = heisenberg(d)
        payload = {"group": {"mul": mul.tolist()}, "cocycle": cmat(cocycle), "rep": rep_json(w, cocycle)}
        docs.append(
            Doc(
                f"validate/group_Z{d}xZ{d}",
                ["validate", "in"],
                {"in": document("group", payload)},
                {"kind": "group", "valid": True},
            )
        )
    for n in (3, 4, 5):
        grp = symmetric(n)
        rep = _embed_rep(rng, grp, n)
        # a coboundary twist: rep'(g) = p(g) rep(g), c(g, h) = p(g) p(h) / p(gh)
        p = np.exp(2j * np.pi * rng.uniform(size=grp.order))
        p[0] = 1.0
        cocycle = p[:, None] * p[None, :] / p[grp.mul]
        payload = {
            "group": grp.mul_json(),
            "action": grp.action().tolist(),
            "cocycle": cmat(cocycle),
            "rep": rep_json(p[:, None, None] * rep, cocycle),
        }
        docs.append(
            Doc(
                f"validate/group_S{n}",
                ["validate", "in"],
                {"in": document("group", payload)},
                {"kind": "group", "valid": True},
                top=n == 5,
                repeats=2 if n == 5 else 1,
            )
        )
    s4, d4 = symmetric(4), dihedral(4)
    u, blocks = covariant_kernel(rng, s4, n_dil_copies=2)
    bad = blocks.copy()
    bad[0, 1] += 0.1
    bad[1, 0] += 0.1
    for tag, blk, valid in (("valid", blocks, True), ("invalid", bad, False)):
        docs.append(
            Doc(
                f"validate/kernel_S4_{tag}",
                ["validate", "in"],
                {"in": document("kernel", kernel_payload(s4, u, blk))},
                {"kind": "kernel", "valid": valid},
            )
        )
    rep = std_rep(rng, d4)
    effects = covariant_observable(rng, d4, [0, 1], rep)
    for tag, eff, valid in (("valid", effects, True), ("invalid", 1.1 * effects, False)):
        docs.append(
            Doc(
                f"validate/observable_D4_{tag}",
                ["validate", "in"],
                {"in": document("observable", observable_payload(d4, [0, 1], rep, eff))},
                {"kind": "observable", "valid": valid},
            )
        )
    choi = phase_space_choi(3, phase_space_seed(rng, 3, 2))
    bad = choi.copy()
    bad[1] = choi[2]
    bad[2] = choi[1]
    for tag, c, valid in (("valid", choi, True), ("invalid", bad, False)):
        docs.append(
            Doc(
                f"validate/instrument_d3_{tag}",
                ["validate", "in"],
                {"in": document("instrument", instrument_payload(3, c))},
                {"kind": "instrument", "valid": valid},
            )
        )
    for d in range(2, 7):
        ops = phase_space_seed(rng, d, 2)
        ps_text = document("phase_space", {"d": d, "seed_ops": [cmat(b) for b in ops]})
        docs.append(
            Doc(
                f"phase-space/d{d}",
                ["phase-space", "in"],
                {"in": ps_text},
                {"kind": "phase_space", "d": d, "choi": phase_space_choi(d, ops)},
            )
        )
        rho = density(rng, d)
        n = SAMPLE_DRAWS
        seed = int(rng.integers(1 << 31))
        docs.append(
            Doc(
                f"sample/d{d}",
                ["sample", "in", "state", "-n", str(n), "--seed", str(seed)],
                {"in": ps_text, "state": document("state", {"matrix": cmat(rho)})},
                {"kind": "sample", "d": d, "ops": ops, "rho": rho, "n": n},
            )
        )
    return docs


_BUILDERS = {"extremal": _extremal, "dilate": _dilate, "validate-sample": _validate_sample}


def _shape_signature(docs) -> str:
    """Hash of everything in the corpus except the numbers' values."""

    def skeleton(obj):
        if isinstance(obj, dict):
            return {k: skeleton(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [skeleton(v) for v in obj]
        return type(obj).__name__

    digest = hashlib.sha256()
    for doc in docs:
        argv = [a if not a.isdigit() else "int" for a in doc.argv]
        files = {k: skeleton(json.loads(t)) for k, t in doc.files.items()}
        digest.update(json.dumps([doc.id, argv, files, doc.top, doc.repeats], sort_keys=True).encode())
    return digest.hexdigest()


def corpus(workload: str, seed: int) -> list:
    """The workload's documents for ``seed``; raises if their shapes differ
    from those of seed 0."""
    docs = _BUILDERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))
    ref = _BUILDERS[workload](np.random.default_rng([0, WORKLOADS.index(workload)]))
    if _shape_signature(docs) != _shape_signature(ref):
        raise RuntimeError(f"{workload}: document shapes depend on the seed")
    if sum(doc.top for doc in docs) != 1:
        raise RuntimeError(f"{workload}: expected exactly one top document")
    return docs
