"""Independent brute-force convex-split oracles for extremality.

These decide extremality directly on the primal convex sets: a point fails
to be extreme exactly when some nonzero Hermitian perturbation direction
satisfies the class's linear constraints (covariance, normalization,
pinned entries) together with range containment in every positive
component.  No dilations or commutants are involved, so the verdicts are an
independent check of the engine's decision procedures; every non-extreme
verdict is backed by an explicit validated split.

The file also keeps the element-by-element loop forms of the group, action,
subgroup, cocycle and representation checks, as references for the batched
checks in ``covkit.fingroup``, and the loop forms of the matrix-unit
coordinates, tables and transport and of the all-pairs multiplicativity
residual, as references for ``covkit.cstar`` and the dilation certificate in
``covkit.cpmaps``; the grand kernel over the matrix units, as the reference
for the Choi blocks; and the loop forms of the kernel and instrument
covariance residuals, as references for ``covkit.kernels`` and
``covkit.instruments``.
"""

import dataclasses

import numpy as np

from covkit.cpmaps import CPMapSpec, cp_validate
from covkit.cstar import ModuleSpace
from covkit.fingroup import GroupAction, TwoCocycle
from covkit.instruments import (
    InstrumentSpec,
    ObservableSpec,
    validate_instrument,
    validate_observable,
)
from covkit.kernels import CovariantKernelSpec, validate_kernel
from covkit.numlin import DEFAULT_TOL, frob, hermitian_basis, is_unitary, null_space, vec


def _range_projector(mat, tol=1e-9):
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    keep = w > tol * max(1.0, w.max(initial=0.0))
    cols = v[:, keep]
    return cols @ cols.conj().T


def _solve_real(system_rows, basis):
    """Nonzero real combination of Hermitian basis elements annihilated by
    all the complex-linear constraint rows, or None."""
    if not system_rows:
        mat = np.zeros((0, len(basis)))
    else:
        cols = np.stack(
            [np.concatenate([row(h) for row in system_rows]) for h in basis], axis=1
        )
        mat = np.vstack([cols.real, cols.imag])
    coeffs = null_space(mat)
    if coeffs.shape[1] == 0:
        return None
    c = coeffs[:, 0].real
    if isinstance(basis[0], tuple):
        direction = tuple(
            sum(float(ci) * h[j] for ci, h in zip(c, basis))
            for j in range(len(basis[0]))
        )
        norm = max((np.linalg.norm(p, 2) for p in direction if p.size), default=0.0)
        if norm < 1e-10:
            return None
        return tuple(p / norm for p in direction)
    direction = sum(float(ci) * hi for ci, hi in zip(c, basis))
    if np.linalg.norm(direction) < 1e-10:
        return None
    return direction / np.linalg.norm(direction, 2)


def _shrink_until(valid, make, start=0.5, tries=40):
    eps = start
    for _ in range(tries):
        candidate = make(eps)
        if valid(candidate):
            return candidate, eps
        eps *= 0.5
    raise AssertionError("split direction admitted no feasible step")


def split_oracle_observable(spec: ObservableSpec):
    """(extreme, split) for a covariant observable."""
    sym = spec.symmetry
    v = spec.v_dim
    u = sym.rep
    base = spec.effects[0]
    q = _range_projector(base)
    eye = np.eye(v)

    def transported(delta0):
        return np.stack(
            [
                u(sym.sub.section[w]) @ delta0 @ u(sym.sub.section[w]).conj().T
                for w in range(spec.n_outcomes)
            ]
        )

    rows = []
    for mem in sym.sub.members:
        rows.append(lambda d, m=mem: vec(u(m) @ d @ u(m).conj().T - d))
    rows.append(lambda d: vec(transported(d).sum(axis=0)))
    rows.append(lambda d: vec((eye - q) @ d))
    rows.append(lambda d: vec(d @ (eye - q)))

    direction = _solve_real(rows, hermitian_basis(v))
    if direction is None:
        return True, None
    deltas = transported(direction)

    def make(eps):
        return (
            ObservableSpec(spec.effects + eps * deltas, sym),
            ObservableSpec(spec.effects - eps * deltas, sym),
        )

    def valid(pair):
        return all(validate_observable(s).ok for s in pair)

    split, _ = _shrink_until(valid, make)
    assert np.linalg.norm(split[0].effects - split[1].effects) > 1e-10
    return False, split


def split_oracle_cpmap(spec: CPMapSpec):
    """(extreme, split) for a CP map at fixed unit value; supports both the
    symmetric and the plain case."""
    alg, nv = spec.algebra, spec.n_v
    m = alg.n_units

    # perturbation directions live on the Choi-type block of each algebra
    # block and must be Hermitian there; parametrize by one Hermitian matrix
    # per block of size (n_i * n_V)
    basis = []
    for bi, size in enumerate(alg.blocks):
        for h in hermitian_basis(size * nv):
            entry = [np.zeros((s * nv, s * nv), dtype=complex) for s in alg.blocks]
            entry[bi] = h
            basis.append(tuple(entry))

    unit_index = alg.unit_index()

    def values_of(delta_blocks):
        vals = np.zeros((m, nv, nv), dtype=complex)
        for k, (i, a, b) in enumerate(unit_index):
            vals[k] = delta_blocks[i][a * nv : (a + 1) * nv, b * nv : (b + 1) * nv]
        return vals

    choi_blocks = []
    for bi, size in enumerate(alg.blocks):
        c = np.zeros((size * nv, size * nv), dtype=complex)
        for k, (i, a, b) in enumerate(unit_index):
            if i == bi:
                c[a * nv : (a + 1) * nv, b * nv : (b + 1) * nv] = spec.values[k]
        choi_blocks.append(c)
    projs = [_range_projector(c) for c in choi_blocks]

    rows = []
    # unit value fixed: sum over diagonal units of the perturbation vanishes
    rows.append(
        lambda d: vec(
            sum(
                d[i][a * nv : (a + 1) * nv, a * nv : (a + 1) * nv]
                for (i, a, b) in unit_index
                if a == b
            )
        )
    )
    # range containment per block
    for bi, size in enumerate(alg.blocks):
        eye = np.eye(size * nv)
        rows.append(lambda d, b=bi, e=eye, q=projs[bi]: vec((e - q) @ d[b]))
        rows.append(lambda d, b=bi, e=eye, q=projs[bi]: vec(d[b] @ (e - q)))
    # covariance when a symmetry is declared
    if spec.symmetry is not None:
        group = spec.symmetry.group
        for g in group.elements():
            if g == group.identity:
                continue

            def cov_row(d, g=g):
                moved = values_of(d)
                out = []
                uinv = spec.symmetry.rep.inv_mat(g)
                for k, unit in enumerate(alg.units()):
                    coeffs = alg.coefficients(spec.beta(g, unit))
                    lhs = np.tensordot(coeffs, moved, axes=(0, 0))
                    rhs = uinv.conj().T @ moved[k] @ uinv
                    out.append(vec(lhs - rhs))
                return np.concatenate(out)

            rows.append(cov_row)

    direction = _solve_real(rows, basis)
    if direction is None:
        return True, None
    delta_vals = values_of(direction)

    def make(eps):
        return (
            dataclasses.replace(spec, values=spec.values + eps * delta_vals),
            dataclasses.replace(spec, values=spec.values - eps * delta_vals),
        )

    def valid(pair):
        return all(cp_validate(s).ok for s in pair)

    split, _ = _shrink_until(valid, make)
    assert np.linalg.norm(split[0].values - split[1].values) > 1e-12
    return False, split


def split_oracle_instrument(spec: InstrumentSpec):
    """(extreme, split) for a covariant instrument."""
    sym = spec.symmetry
    k, v = spec.k_dim, spec.v_dim
    base = spec.choi[0]
    q = _range_projector(base)
    eye = np.eye(k * v)

    def w_of(g):
        return np.kron(sym.out_rep(g).conj(), sym.rep(g))

    def transported(delta0):
        return np.stack(
            [
                w_of(sym.sub.section[w]) @ delta0 @ w_of(sym.sub.section[w]).conj().T
                for w in range(spec.n_outcomes)
            ]
        )

    def ptrace_out(mat):
        m4 = mat.reshape(k, v, k, v)
        return np.einsum("avaw->vw", m4)

    rows = []
    for mem in sym.sub.members:
        rows.append(lambda d, m=mem: vec(w_of(m) @ d @ w_of(m).conj().T - d))
    rows.append(lambda d: vec(sum(ptrace_out(x) for x in transported(d))))
    rows.append(lambda d: vec((eye - q) @ d))
    rows.append(lambda d: vec(d @ (eye - q)))

    direction = _solve_real(rows, hermitian_basis(k * v))
    if direction is None:
        return True, None
    deltas = transported(direction)

    def make(eps):
        return (
            InstrumentSpec(spec.choi + eps * deltas, sym),
            InstrumentSpec(spec.choi - eps * deltas, sym),
        )

    def valid(pair):
        return all(validate_instrument(s).ok for s in pair)

    split, _ = _shrink_until(valid, make)
    assert np.linalg.norm(split[0].choi - split[1].choi) > 1e-12
    return False, split


def split_oracle_kernel(spec: CovariantKernelSpec, z_pairs):
    """(extreme, split) for a covariant kernel with entries pinned on Z."""
    x, nv = spec.x_size, spec.n_v
    dim = x * nv
    grand = spec.grand_matrix()
    q = _range_projector(grand)
    eye = np.eye(dim)
    group = spec.action.group

    def block(mat, a, b):
        return mat[a * nv : (a + 1) * nv, b * nv : (b + 1) * nv]

    rows = []
    for xx, yy in z_pairs:
        rows.append(lambda d, a=xx, b=yy: vec(block(d, a, b)))
    rows.append(lambda d: vec((eye - q) @ d))
    rows.append(lambda d: vec(d @ (eye - q)))
    for g in group.elements():
        if g == group.identity:
            continue

        def cov_row(d, g=g):
            uinv = spec.rep.inv_mat(g)
            out = []
            for a in range(x):
                for b in range(x):
                    lhs = block(d, spec.action.apply(g, a), spec.action.apply(g, b))
                    rhs = (
                        np.conj(spec.alpha[g, a])
                        * spec.alpha[g, b]
                        * (uinv.conj().T @ block(d, a, b) @ uinv)
                    )
                    out.append(vec(lhs - rhs))
            return np.concatenate(out)

        rows.append(cov_row)

    direction = _solve_real(rows, hermitian_basis(dim))
    if direction is None:
        return True, None

    def to_blocks(mat):
        out = np.zeros((x, x, nv, nv), dtype=complex)
        for a in range(x):
            for b in range(x):
                out[a, b] = block(mat, a, b)
        return out

    delta_blocks = to_blocks(direction)

    def make(eps):
        return (
            dataclasses.replace(spec, blocks=spec.blocks + eps * delta_blocks),
            dataclasses.replace(spec, blocks=spec.blocks - eps * delta_blocks),
        )

    def valid(pair):
        return all(validate_kernel(s).ok for s in pair)

    split, _ = _shrink_until(valid, make)
    return False, split


def observable_as_cpmap(spec: ObservableSpec) -> CPMapSpec:
    """The observable as a CP map on functions over the outcomes, with the
    permutation implementation of the symmetry (the CP-level route)."""
    from covkit.cpmaps import CPSymmetry
    from covkit.cstar import FiniteCStarAlgebra
    from covkit.fingroup import MultiplierRep

    sym = spec.symmetry
    alg = FiniteCStarAlgebra.commutative(spec.n_outcomes)
    values = np.stack([spec.effects[w] for w in range(spec.n_outcomes)])
    perm = MultiplierRep.from_action(sym.action)
    return CPMapSpec(
        alg,
        ModuleSpace(k=1, n_v=spec.v_dim),
        values,
        CPSymmetry(u=perm, rep=sym.rep),
    )


def cpmap_kernel_form(spec: CPMapSpec):
    """A plain CP map (no symmetry) as a kernel over its matrix units plus a
    pinned unit point; the kernel-level route to extremality at fixed unit
    value."""
    assert spec.symmetry is None
    alg, nv = spec.algebra, spec.n_v
    m = alg.n_units
    adj = alg.adjoint_table()
    prod = alg.unit_product_table()
    blocks = np.zeros((m + 1, m + 1, nv, nv), dtype=complex)
    for i in range(m):
        for j in range(m):
            kk = prod[adj[i], j]
            if kk >= 0:
                blocks[i, j] = spec.values[kk]
    for i in range(m):
        blocks[m, i] = spec.values[i]
        blocks[i, m] = spec.values[adj[i]]
    blocks[m, m] = spec.unit_value()
    from covkit.fingroup import FiniteGroup, MultiplierRep

    g = FiniteGroup.trivial()
    kernel = CovariantKernelSpec(
        action=GroupAction.trivial(g, m + 1),
        alpha=np.ones((1, m + 1), dtype=complex),
        sigma=TwoCocycle.trivial(g),
        rep=MultiplierRep.trivial(g, nv),
        module=ModuleSpace(k=1, n_v=nv),
        blocks=blocks,
    )
    return kernel, [(m, m)]


# ---------------------------------------------------------------------------
# loop forms of the group, action, cocycle and representation checks
# ---------------------------------------------------------------------------
#
# Element by element, exactly as the checks in covkit.fingroup were first
# written; the batched checks must report the same first violation.


def group_table_violation(mul):
    """Message of the first group axiom a square in-range table breaks, or
    None."""
    mul = np.asarray(mul, dtype=np.int64)
    n = mul.shape[0]
    ident = None
    for e in range(n):
        if all(mul[e, g] == g and mul[g, e] == g for g in range(n)):
            ident = e
            break
    if ident is None:
        return "no identity element"
    for g in range(n):
        hits = np.where(mul[g] == ident)[0]
        if len(hits) != 1 or mul[hits[0], g] != ident:
            return f"element {g} has no two-sided inverse"
    for g in range(n):
        for h in range(n):
            if not np.array_equal(mul[mul[g, h]], mul[g][mul[h]]):
                return f"associativity fails at ({g}, {h})"
    return None


def action_violation(group, table):
    """Message of the first action axiom an in-range table breaks, or None."""
    table = np.asarray(table, dtype=np.int64)
    if not np.array_equal(table[group.identity], np.arange(table.shape[1])):
        return "identity must act trivially"
    for a in group.elements():
        for b in group.elements():
            if not np.array_equal(table[group.prod(a, b)], table[a][table[b]]):
                return f"action not compatible at ({a}, {b})"
    return None


def subgroup_violation(group, members):
    """Message of the first subgroup axiom ``members`` breaks, or None."""
    mem = set(members)
    if group.identity not in mem:
        return "subgroup must contain the identity"
    for a in sorted(mem):
        if group.inv(a) not in mem:
            return "subgroup not closed under inverse"
        for b in sorted(mem):
            if group.prod(a, b) not in mem:
                return "subgroup not closed under multiplication"
    return None


def cocycle_violation_loop(c, tol=1e-10):
    """First violated cocycle identity in lexicographic order, or None."""
    g = c.group
    v = c.values
    if np.any(np.abs(np.abs(v) - 1.0) > tol):
        bad = np.argwhere(np.abs(np.abs(v) - 1.0) > tol)[0]
        return ("modulus", int(bad[0]), int(bad[1]))
    e = g.identity
    for a in g.elements():
        if abs(v[e, a] - 1.0) > tol or abs(v[a, e] - 1.0) > tol:
            return ("normalization", a)
    for a in g.elements():
        for b in g.elements():
            for k in g.elements():
                lhs = v[a, g.prod(b, k)] * v[b, k]
                rhs = v[g.prod(a, b), k] * v[a, b]
                if abs(lhs - rhs) > tol:
                    return ("cocycle", a, b, k)
    return None


def rep_violation_loop(u, tol=DEFAULT_TOL):
    """First violated representation identity in lexicographic order, or
    None; a non-finite matrix raises where ``is_unitary`` does."""
    g = u.group
    if frob(u(g.identity) - np.eye(u.dim)) > tol.recon_fro:
        return ("identity",)
    if u.unitary_flag:
        for a in g.elements():
            if not is_unitary(u(a), tol):
                return ("unitary", a)
    for a in g.elements():
        for b in g.elements():
            lhs = u(a) @ u(b)
            rhs = u.cocycle(a, b) * u(g.prod(a, b))
            if frob(lhs - rhs) > tol.recon_fro * max(1.0, frob(rhs)):
                return ("product", a, b)
    return None


# -- matrix units and the dilation certificate, element by element -------------


def _units_loop(alg):
    """(block, row, col, offset) of every matrix unit, in basis order."""
    out = []
    for i, n in enumerate(alg.blocks):
        off = sum(alg.blocks[:i])
        for a in range(n):
            for b in range(n):
                out.append((i, a, b, off))
    return out


def coefficients_loop(alg, mat):
    mat = np.asarray(mat, dtype=complex)
    return np.array([mat[off + a, off + b] for (_, a, b, off) in _units_loop(alg)], dtype=complex)


def element_loop(alg, coeffs):
    m = np.zeros((alg.defining_dim, alg.defining_dim), dtype=complex)
    for k, (_, a, b, off) in enumerate(_units_loop(alg)):
        m[off + a, off + b] = coeffs[k]
    return m


def unit_tables_loop(alg):
    """Product table as a dict (k1, k2) -> index of the product, or None
    when it vanishes, and the adjoint table as a list."""
    units = [(i, a, b) for (i, a, b, _) in _units_loop(alg)]
    idx = {t: k for k, t in enumerate(units)}
    prod = {}
    for k1, (i, a, b) in enumerate(units):
        for k2, (j, c, d) in enumerate(units):
            prod[(k1, k2)] = idx[(i, a, d)] if (i == j and b == c) else None
    adj = [idx[(i, b, a)] for (i, a, b) in units]
    return prod, adj


def transport_loop(alg, u, stack):
    """stack evaluated at u E_k u^+ for every unit k, through the loop-form
    coefficients."""
    out = []
    for i, a, b, off in _units_loop(alg):
        moved = np.outer(u[:, off + a], u[:, off + b].conj())
        out.append(np.tensordot(coefficients_loop(alg, moved), stack, axes=(0, 0)))
    return np.stack(out)


def multiplicativity_loop(alg, pi_units):
    """max over all pairs of units of ||pi(E_k) pi(E_l) - pi(E_k E_l)||."""
    prod, _ = unit_tables_loop(alg)
    n = pi_units.shape[1]
    worst = 0.0
    for (k1, k2), kk in prod.items():
        target = pi_units[kk] if kk is not None else np.zeros((n, n))
        worst = max(worst, frob(pi_units[k1] @ pi_units[k2] - target))
    return worst


def unit_kernel_loop(spec: CPMapSpec):
    """The grand kernel: block (k1, k2) is S(E_k1^+ E_k2) over the matrix
    units, zero where that product vanishes; PSD iff the map is CP."""
    m, nv = spec.algebra.n_units, spec.n_v
    prod, adj = unit_tables_loop(spec.algebra)
    out = np.zeros((m * nv, m * nv), dtype=complex)
    for k1 in range(m):
        for k2 in range(m):
            kk = prod[(adj[k1], k2)]
            if kk is not None:
                out[k1 * nv : (k1 + 1) * nv, k2 * nv : (k2 + 1) * nv] = spec.values[kk]
    return out


def alpha_cocycle_loop(spec: CovariantKernelSpec):
    """max |alpha(e, x) - 1| and max |alpha(ab, x) - sigma(a, b) alpha(b, x)
    alpha(a, bx)| over all (a, b, x)."""
    g = spec.action.group
    worst = float(np.abs(spec.alpha[g.identity] - 1.0).max())
    for a in g.elements():
        for b in g.elements():
            for x in range(spec.x_size):
                lhs = spec.alpha[g.prod(a, b), x]
                rhs = spec.sigma(a, b) * spec.alpha[b, x] * spec.alpha[a, spec.action.apply(b, x)]
                worst = max(worst, abs(lhs - rhs))
    return worst


def kernel_covariance_loop(spec: CovariantKernelSpec):
    """max ||T[ax, ay] - conj(alpha(a, x)) alpha(a, y) U(a)^-+ T[x, y] U(a)^-1||
    over all (a, x, y)."""
    worst = 0.0
    for a in spec.action.group.elements():
        ua_inv = spec.rep.inv_mat(a)
        for x in range(spec.x_size):
            for y in range(spec.x_size):
                lhs = spec.blocks[spec.action.apply(a, x), spec.action.apply(a, y)]
                rhs = np.conj(spec.alpha[a, x]) * spec.alpha[a, y] * (ua_inv.conj().T @ spec.blocks[x, y] @ ua_inv)
                worst = max(worst, frob(lhs - rhs))
    return worst


def instrument_covariance_loop(spec: InstrumentSpec):
    """max ||W_g C_w W_g^+ - C_{gw}|| over all (g, w), with W_g =
    conj(out_rep(g)) (x) rep(g)."""
    sym = spec.symmetry
    worst = 0.0
    for g in sym.group.elements():
        wg = np.kron(sym.out_rep(g).conj(), sym.rep(g))
        for w in range(spec.n_outcomes):
            worst = max(worst, frob(wg @ spec.choi[w] @ wg.conj().T - spec.choi[sym.action.apply(g, w)]))
    return worst
