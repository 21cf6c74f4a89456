"""Seeded random generators for covariant objects.

Everything takes a ``numpy.random.Generator`` so callers control
reproducibility.  The covariant constructions work backwards from dilation
data, which makes validity automatic by construction; it is still certified
in tests.
"""

from __future__ import annotations

import numpy as np

from .cpmaps import CPMapSpec, CPSymmetry
from .cstar import FiniteCStarAlgebra, ModuleSpace
from .fingroup import (
    FiniteGroup,
    GroupAction,
    MultiplierRep,
    SubgroupData,
    TwoCocycle,
    closure,
    complete_irreps,
    irrep_decompose,
)
from .kernels import CovariantKernelSpec
from .numlin import frob


def rand_unitary(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_psd(rng, n: int, rank: int | None = None) -> np.ndarray:
    r = n if rank is None else rank
    b = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
    return b.conj().T @ b


def rand_density(rng, n: int) -> np.ndarray:
    rho = rand_psd(rng, n) + 1e-3 * np.eye(n)
    return rho / np.trace(rho).real


def rand_phases(rng, group: FiniteGroup) -> np.ndarray:
    p = np.exp(2j * np.pi * rng.uniform(size=group.order))
    p[group.identity] = 1.0
    return p


def rand_ordinary_rep(rng, group: FiniteGroup, dim: int, seed_irreps=None) -> MultiplierRep:
    """Random ordinary unitary representation of the given dimension,
    assembled from irreducibles and conjugated by a random unitary."""
    irreps = seed_irreps if seed_irreps is not None else complete_irreps(group, seed=int(rng.integers(1 << 30)))
    pieces = []
    remaining = dim
    while remaining > 0:
        options = [t for t in irreps if t.dim <= remaining]
        t = options[int(rng.integers(len(options)))]
        pieces.append(t)
        remaining -= t.dim
    rep = pieces[0]
    for t in pieces[1:]:
        rep = rep.direct_sum(t)
    return rep.conjugate(rand_unitary(rng, dim))


def conj_rep(rep: MultiplierRep) -> MultiplierRep:
    """Entrywise conjugate representation (cocycle conjugates as well)."""
    return MultiplierRep(
        rep.group, rep.cocycle.conj(), rep.matrices.conj(), rep.unitary_flag
    )


def subrep_of_dim(rng, rep: MultiplierRep, dim: int, seed: int = 0) -> MultiplierRep | None:
    """A random subrepresentation of exact dimension ``dim`` assembled from
    the irreducible content of an ordinary ``rep``; None if impossible."""
    dec = irrep_decompose(rep, seed=seed)
    pool = []
    for blk in dec.blocks:
        pool.extend([blk.rep] * blk.multiplicity)
    order = rng.permutation(len(pool))
    pieces, remaining = [], dim
    for idx in order:
        t = pool[idx]
        if t.dim <= remaining:
            pieces.append(t)
            remaining -= t.dim
        if remaining == 0:
            break
    if remaining != 0:
        # fall back: greedy over 1-dim pieces
        ones = [t for t in pool if t.dim == 1]
        pieces, remaining = [], dim
        for t in ones:
            if remaining == 0:
                break
            pieces.append(t)
            remaining -= 1
        if remaining != 0:
            return None
    out = pieces[0]
    for t in pieces[1:]:
        out = out.direct_sum(t)
    return out.conjugate(rand_unitary(rng, dim))


# ---------------------------------------------------------------------------
# covariant kernels
# ---------------------------------------------------------------------------


def rand_action(rng, group: FiniteGroup, max_size: int) -> GroupAction:
    """Random action with at most ``max_size`` points: a disjoint union of
    coset actions for random subgroups."""
    subs = all_subgroups(group)
    tables = []
    total = 0
    while True:
        options = [s for s in subs if group.order // len(s.members) <= max_size - total]
        if not options or (total > 0 and rng.uniform() < 0.4):
            break
        sub = options[int(rng.integers(len(options)))]
        act = sub.coset_action()
        tables.append(act.table + total)
        total += act.set_size
    if not tables:
        sub = SubgroupData(group, tuple(group.elements()))
        tables.append(sub.coset_action().table)
        total = 1
    return GroupAction(group, np.hstack(tables))


def all_subgroups(group: FiniteGroup) -> list[SubgroupData]:
    """All subgroups generated by at most two elements, plus the whole group.

    Exhaustive for the small groups used here (every subgroup of a group of
    order <= 8, and of S_3 and S_4's relevant cases, is 2-generated).
    """
    found = {}
    elems = list(group.elements())
    gens_list = [(group.identity,)]
    gens_list += [(a,) for a in elems]
    gens_list += [(a, b) for a in elems for b in elems if a < b]
    for gens in gens_list:
        members = closure(group, gens)
        found[members] = SubgroupData(group, members)
    found[tuple(sorted(elems))] = SubgroupData(group, tuple(elems))
    return sorted(found.values(), key=lambda s: (len(s.members), s.members))


def rand_covariant_kernel(
    rng,
    group: FiniteGroup,
    *,
    max_x: int = 4,
    n_v: int = 2,
    k: int = 1,
    dil_rank: int | None = None,
    nontrivial_alpha: bool = True,
) -> CovariantKernelSpec:
    """Random positive covariant kernel, built from dilation data.

    The weight family is alpha(g, x) = d(gx) / (c(g) d(x)) for random unit
    phases c and random nonzero scalars d, whose 2-cocycle is the coboundary
    of c.  Factor blocks are seeded on orbit representatives, averaged over
    stabilizers, and transported along the orbit; the resulting Gram blocks
    form a covariant kernel by construction.
    """
    action = rand_action(rng, group, max_x)
    x_size = action.set_size

    if nontrivial_alpha:
        c = rand_phases(rng, group)
        d = (0.5 + 1.5 * rng.uniform(size=x_size)) * np.exp(2j * np.pi * rng.uniform(size=x_size))
    else:
        c = np.ones(group.order, dtype=np.complex128)
        d = np.ones(x_size, dtype=np.complex128)
    sigma = TwoCocycle.coboundary(group, c)
    alpha = np.empty((group.order, x_size), dtype=np.complex128)
    for g in group.elements():
        for x in range(x_size):
            alpha[g, x] = d[action.apply(g, x)] / (c[g] * d[x])

    irreps = complete_irreps(group, seed=int(rng.integers(1 << 30)))
    c_u = rand_phases(rng, group)
    rep = rand_ordinary_rep(rng, group, n_v, irreps).twist(c_u)

    n_dil = dil_rank if dil_rank is not None else int(rng.integers(1, 2 * n_v + 2))
    # dilation rep cocycle must be sigma * rep.cocycle = coboundary(c * c_u)
    dil = rand_ordinary_rep(rng, group, n_dil, irreps).twist(c * c_u)

    factors = np.zeros((x_size, n_dil, n_v), dtype=np.complex128)
    for orbit in action.orbits():
        x0 = orbit[0]
        stab = action.stabilizer(x0)
        seed = rng.normal(size=(n_dil, n_v)) + 1j * rng.normal(size=(n_dil, n_v))
        f0 = np.zeros_like(seed)
        for h in stab:
            f0 += alpha[h, x0] * dil(h) @ seed @ np.linalg.inv(rep(h))
        f0 /= len(stab)
        for x in orbit:
            gx = next(g for g in group.elements() if action.apply(g, x0) == x)
            factors[x] = alpha[gx, x0] * dil(gx) @ f0 @ np.linalg.inv(rep(gx))

    blocks = np.einsum("xiv,yiw->xyvw", factors.conj(), factors)
    return CovariantKernelSpec(
        action=action,
        alpha=alpha,
        sigma=sigma,
        rep=rep,
        module=ModuleSpace(k=k, n_v=n_v),
        blocks=blocks,
    )


# ---------------------------------------------------------------------------
# covariant CP maps
# ---------------------------------------------------------------------------


def _intertwiner(rng, big: MultiplierRep, small: MultiplierRep, attempts: int = 6):
    """Random J with big(g) J = J small(g), an isometry if possible."""
    group = big.group
    best = None
    for _ in range(attempts):
        j0 = rng.normal(size=(big.dim, small.dim)) + 1j * rng.normal(size=(big.dim, small.dim))
        j = np.zeros_like(j0)
        for g in group.elements():
            j += big(g) @ j0 @ small(g).conj().T
        j /= group.order
        if best is None or frob(j) > frob(best):
            best = j
        if frob(j) > 0.1:
            break
    return best


def isometrize_intertwiner(j: np.ndarray) -> np.ndarray | None:
    """Polar-correct an injective intertwiner to an isometry (the Gram
    commutes with the small representation, so intertwining survives)."""
    gram = j.conj().T @ j
    w, v = np.linalg.eigh(gram)
    if w.min() < 1e-10 * max(1.0, w.max()):
        return None
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return j @ inv_sqrt


def rand_covariant_cpmap(
    rng,
    blocks: tuple[int, ...],
    group: FiniteGroup,
    *,
    n_v: int = 2,
    k: int = 1,
    extra_mult: int = 1,
) -> CPMapSpec:
    """Random covariant CP map on the algebra with the given block sizes.

    Built from dilation data: a representation of the algebra with random
    block multiplicities, a commuting multiplier representation assembled so
    the total dilation representation has the same cocycle as the module
    representation, and a random intertwiner defining the map values.
    """
    alg = FiniteCStarAlgebra(blocks)
    irreps = complete_irreps(group, seed=int(rng.integers(1 << 30)))
    c_u = rand_phases(rng, group)
    c_big = rand_phases(rng, group)

    # inner symmetry on the algebra: block-diagonal multiplier rep
    u_parts = [rand_ordinary_rep(rng, group, n, irreps) for n in blocks]
    u_mats = np.stack(
        [_block_diag([p(g) for p in u_parts]) for g in group.elements()]
    )
    u_rep = MultiplierRep(group, TwoCocycle.trivial(group), u_mats).twist(c_u)

    # multiplicity representations; the first contains the conjugate of the
    # first block so the dilation surely shares irreducible content with
    # representations on the module side
    mult_reps = []
    for i, n in enumerate(blocks):
        r = n + int(rng.integers(0, extra_mult + 1)) if i == 0 else int(rng.integers(1, n + 2))
        if i == 0:
            base = conj_rep(u_parts[0])
            while base.dim < r:
                base = base.direct_sum(rand_ordinary_rep(rng, group, 1, irreps))
            mult_reps.append(base.conjugate(rand_unitary(rng, base.dim)))
        else:
            mult_reps.append(rand_ordinary_rep(rng, group, r, irreps))

    dims = [n * m.dim for n, m in zip(blocks, mult_reps)]
    big_dim = sum(dims)
    q = rand_unitary(rng, big_dim)

    def rep_of(bmat):
        parts = [np.kron(alg.block_of(bmat, i), np.eye(mult_reps[i].dim)) for i in range(len(blocks))]
        return q @ _block_diag(parts) @ q.conj().T

    # ordinary part of the dilation representation
    theta_mats = np.stack(
        [
            q @ _block_diag(
                [np.kron(u_parts[i](g), mult_reps[i](g)) for i in range(len(blocks))]
            ) @ q.conj().T
            for g in group.elements()
        ]
    )
    theta = MultiplierRep(group, TwoCocycle.trivial(group), theta_mats)
    big = theta.twist(c_big)

    small = subrep_of_dim(rng, theta, n_v, seed=int(rng.integers(1 << 30)))
    if small is None:
        small = rand_ordinary_rep(rng, group, n_v, irreps)
    rep = small.twist(c_big)

    j = _intertwiner(rng, theta, small)
    values = np.stack([j.conj().T @ rep_of(u) @ j for u in alg.units()])
    symmetry = CPSymmetry(u=u_rep, rep=rep)
    return CPMapSpec(algebra=alg, module=ModuleSpace(k=k, n_v=n_v), values=values, symmetry=symmetry)


def _block_diag(mats) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for m in mats:
        out[pos : pos + m.shape[0], pos : pos + m.shape[1]] = m
        pos += m.shape[0]
    return out


# ---------------------------------------------------------------------------
# covariant observables and instruments
# ---------------------------------------------------------------------------


def rand_covariant_observable(rng, sub: SubgroupData, v_dim: int = 2):
    """Random covariant observable over the coset space of ``sub``: a twirled
    positive seed transported along the section and renormalized by the
    (invariant) total."""
    from .instruments import ObservableSpec, Symmetry

    group = sub.parent
    c_u = rand_phases(rng, group)
    rep = rand_ordinary_rep(rng, group, v_dim).twist(c_u)
    seed = rand_psd(rng, v_dim) + 0.05 * np.eye(v_dim)
    base = np.zeros_like(seed)
    for mem in sub.members:
        base += rep(mem) @ seed @ rep(mem).conj().T
    base /= len(sub.members)
    effects = np.stack(
        [
            rep(sub.section[w]) @ base @ rep(sub.section[w]).conj().T
            for w in range(sub.n_cosets)
        ]
    )
    total = effects.sum(axis=0)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    effects = np.einsum("ab,wbc,cd->wad", inv_sqrt, effects, inv_sqrt)
    return ObservableSpec(effects, Symmetry(sub, rep))


def rand_covariant_instrument(rng, sub: SubgroupData, k_dim: int = 2, v_dim: int = 2):
    """Random covariant instrument over the coset space of ``sub``.

    Built from dilation data: per-outcome fibers carrying the output
    representation tensored with a strict subgroup cocycle, an algebra
    representation on the fiber sum, a module representation drawn from the
    irreducible content of the dilation, and a random intertwining isometry.
    """
    from .instruments import InstrumentSpec, Symmetry, wigner_rotation

    group = sub.parent
    n_out = sub.n_cosets
    act = sub.coset_action()
    irreps = complete_irreps(group, seed=int(rng.integers(1 << 30)))
    c_u = rand_phases(rng, group)
    c_big = rand_phases(rng, group)
    u_out = rand_ordinary_rep(rng, group, k_dim, irreps)

    for copies in (1, 2, v_dim + 1):
        rho = conj_rep(u_out.restrict(sub))
        for _ in range(copies - 1):
            rho = rho.direct_sum(conj_rep(u_out.restrict(sub)))
        r = rho.dim
        wig = wigner_rotation(rho, sub)

        theta_mats = np.zeros(
            (group.order, n_out * k_dim * r, n_out * k_dim * r), dtype=np.complex128
        )
        for g in group.elements():
            for w in range(n_out):
                src = act.apply(group.inv(g), w)
                blk = np.kron(u_out(g), wig[(g, w)])
                theta_mats[g][
                    w * k_dim * r : (w + 1) * k_dim * r,
                    src * k_dim * r : (src + 1) * k_dim * r,
                ] = blk
        theta = MultiplierRep(group, TwoCocycle.trivial(group), theta_mats)

        small = subrep_of_dim(rng, theta, v_dim, seed=int(rng.integers(1 << 30)))
        if small is None:
            continue
        j = _intertwiner(rng, theta, small)
        iso = isometrize_intertwiner(j)
        if iso is None:
            continue

        rep = small.twist(c_big)
        out_rep = u_out.twist(c_u)
        choi = np.zeros((n_out, k_dim * v_dim, k_dim * v_dim), dtype=np.complex128)
        for w in range(n_out):
            for a in range(k_dim):
                for b in range(k_dim):
                    unit = np.zeros(theta_mats.shape[1:], dtype=np.complex128)
                    off = w * k_dim * r
                    unit[off + a * r : off + (a + 1) * r, off + b * r : off + (b + 1) * r] = np.eye(r)
                    choi[w][
                        a * v_dim : (a + 1) * v_dim, b * v_dim : (b + 1) * v_dim
                    ] = iso.conj().T @ unit @ iso
        return InstrumentSpec(choi, Symmetry(sub, rep=rep, out_rep=out_rep))
    raise RuntimeError("failed to build a random covariant instrument")
