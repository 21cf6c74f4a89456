"""Independent brute-force convex-split oracles for extremality.

These decide extremality directly on the primal convex sets: a point fails
to be extreme exactly when some nonzero Hermitian perturbation direction
satisfies the class's linear constraints (covariance, normalization,
pinned entries) together with range containment in every positive
component.  No dilations or commutants are involved, so the verdicts are an
independent check of the engine's decision procedures; every non-extreme
verdict is backed by an explicit validated split.

The file also keeps the element-by-element loop forms of the group, action,
subgroup, cocycle and representation checks, over every element and
restricted to the generators, as references for the batched checks in
``covkit.fingroup``, and the loop forms of the matrix-unit
coordinates, tables and transport, of the all-pairs multiplicativity
residual, of the dense twist, commutation and cocycle residuals and of the
pseudo-inverse solve of the dilation symmetry, as references for
``covkit.cstar`` and the dilation certificate in ``covkit.cpmaps``; the
block factorization of a dense representation of the algebra; the
grand kernel over the matrix units, as the reference for the Choi blocks;
and the loop forms of the kernel and instrument covariance residuals, as
references for ``covkit.kernels`` and ``covkit.instruments``, of the
Kolmogorov decomposition's per-element solve and certificate, as the
reference for the stacked one in ``covkit.kernels``, and of the
CP-map and observable covariance residuals; the commuting twist
I (*) W(g) of a dilation whose u(g) lie in the algebra; the Naimark
dilation by one least-squares solve per (g, w), as the reference for
``covkit.instruments.naimark``, the KSGNS dilation of the observable's CP
form; and the per-draw encoding of a sample stream, as the reference for
the line cache of ``covkit sample``; and a dense commutant over the
eigenspaces of pi, as the reference for the block-coordinate commutant
solve of ``cp_extremal`` where the N^2-column kron system is too large;
and the N^2-column kron system itself, with its real Hermitian branch, as the reference for
``covkit.numlin.constrained_commutant``; the CP-form extremality route for
instruments (KSGNS dilation of the instrument as a CP map over all outcome
blocks), as the reference for the base-fiber solve of
``covkit.instruments.instrument_extremal``; and the Kraus-family extraction
through the full dilation chain, as a second route to
``covkit.instruments.B_from_instrument``; the dense u(g) = perm(g) (x)
out_rep(g) of an instrument's CP form, which ``as_cpmap`` keeps as a block
action; and the per-block loop forms of the KSGNS stages (the Choi verdict
with the SVD scale, one factorization per Choi block, one least-squares
solve and certificate per block), as references for the stacked ones in
``covkit.cpmaps``.
"""

import dataclasses
import json

import numpy as np

from covkit.cpmaps import CPMapSpec, NotSingleBlockError, cp_extremal, cp_validate, kraus_from_choi, ksgns
from covkit.cstar import ModuleSpace
from covkit.fingroup import GroupAction, MultiplierRep, TwoCocycle
from covkit.instruments import (
    CovariantInstrumentData,
    InstrumentSpec,
    ObservableSpec,
    Symmetry,
    as_cpmap,
    marginal_observable,
    sample_stream,
    validate_instrument,
    validate_observable,
)
from covkit.kernels import (
    Check,
    Checks,
    CovariantKernelSpec,
    DilationResidualError,
    ExtremalityCertificate,
    KolmogorovDecomposition,
    validate_kernel,
)
from covkit.numlin import (
    DEFAULT_TOL,
    DimensionError,
    Tolerances,
    as_matrix,
    frob,
    is_unitary,
    lstsq_define,
    null_space,
    offsets,
    psd_factor,
    rank,
)
from covkit.specfile import matrix_out


def vec(a) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(a, dtype=np.complex128).reshape(-1)


def unvec(x, rows, cols) -> np.ndarray:
    return np.asarray(x, dtype=np.complex128).reshape(rows, cols)


def hermitian_basis(n) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of the real space of n x n Hermitians."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = -1j / np.sqrt(2.0)
            e[j, i] = 1j / np.sqrt(2.0)
            basis.append(e)
    return basis


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
                    coeffs = alg.coefficients(beta(spec, g, unit))
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
# written.  The action and subgroup checks must report the same first
# violation; the group table, cocycle and representation checks that of the
# loop restricted to the generators (``on_generators``).


def greedy_generators_loop(mul, ident):
    """The greedy generating set of a table with identity ``ident``: each
    new generator is the smallest element outside the set reached so far by
    right multiplication with the generators."""
    gens, span = [], {ident}
    for g in range(len(mul)):
        if g not in span:
            gens.append(g)
            frontier = list(span)
            while frontier:
                new = {int(mul[a][s]) for a in frontier for s in gens} - span
                span |= new
                frontier = list(new)
    return gens


def group_table_violation(mul, on_generators=False):
    """Message of the first group axiom a square in-range table breaks, or
    None.  Associativity (xa)y = x(ay) is tested for every middle a, or with
    ``on_generators`` for the greedy generators only (Light's test), first
    failure in lexicographic order of (x, a, y)."""
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
    middles = greedy_generators_loop(mul, ident) if on_generators else range(n)
    for x in range(n):
        for a in middles:
            for y in range(n):
                if mul[mul[x, a], y] != mul[x, mul[a, y]]:
                    return f"associativity fails at ({x}, {a}, {y})"
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


def _rows(group, on_generators):
    """The rows a loop visits, and the factor its residuals are scaled by."""
    if on_generators:
        return group.generators(), group.max_word_length
    return group.elements(), 1


def cocycle_violation_loop(c, tol=1e-10, on_generators=False):
    """First violated cocycle identity in lexicographic order, or None.  The
    identity c(a, bk) c(b, k) = c(ab, k) c(a, b) is tested for every middle
    b, or with ``on_generators`` for b in ``group.generators()`` only, with
    its residual times ``max_word_length`` against ``tol``."""
    g = c.group
    v = c.values
    if np.any(np.abs(np.abs(v) - 1.0) > tol):
        bad = np.argwhere(np.abs(np.abs(v) - 1.0) > tol)[0]
        return ("modulus", int(bad[0]), int(bad[1]))
    e = g.identity
    for a in g.elements():
        if abs(v[e, a] - 1.0) > tol or abs(v[a, e] - 1.0) > tol:
            return ("normalization", a)
    middles, factor = _rows(g, on_generators)
    for a in g.elements():
        for b in middles:
            for k in g.elements():
                lhs = v[a, g.prod(b, k)] * v[b, k]
                rhs = v[g.prod(a, b), k] * v[a, b]
                if factor * abs(lhs - rhs) > tol:
                    return ("cocycle", a, b, k)
    return None


def rep_violation_loop(u, tol=DEFAULT_TOL, on_generators=False):
    """First violated representation identity in lexicographic order, or
    None; a non-finite matrix raises where ``is_unitary`` does.  Unitarity
    and the product rule U(a) U(b) = c(a, b) U(ab) are tested for every a,
    or with ``on_generators`` for a in ``group.generators()`` only, with the
    product residual times ``max_word_length`` against its bound."""
    g = u.group
    if frob(u(g.identity) - np.eye(u.dim)) > tol.recon_fro:
        return ("identity",)
    rows, factor = _rows(g, on_generators)
    if u.unitary_flag:
        for a in rows:
            if not is_unitary(u(a), tol):
                return ("unitary", a)
    for a in rows:
        for b in g.elements():
            lhs = u(a) @ u(b)
            rhs = u.cocycle(a, b) * u(g.prod(a, b))
            if factor * frob(lhs - rhs) > tol.recon_fro * max(1.0, frob(rhs)):
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


def factor_rep_tensor(pi_units, algebra, tol: Tolerances = DEFAULT_TOL):
    """Identify a unital representation of the algebra, given densely by
    the images of its matrix units, with the direct sum over its blocks of
    b_i -> b_i (x) I_{r_i}: returns ``(r, V)`` with ``r`` the tuple of
    multiplicities, V unitary and V^+ pi(E^i_ab) V = E_ab (x) I_{r_i} in
    block i (blocks in order, zero elsewhere).  V_i = [pi(E^i_00) C_i, ...,
    pi(E^i_{n-1,0}) C_i], C_i an orthonormal basis of the range of
    pi(E^i_00).  Raises :class:`NotSingleBlockError` when it does not
    factor so."""
    pi_units = np.asarray(pi_units, dtype=np.complex128)
    if pi_units.ndim != 3 or pi_units.shape[0] != algebra.n_units:
        raise NotSingleBlockError("need the images of all matrix units")
    big = pi_units.shape[1]
    mult, cols, want = [], [], []
    for i, n in enumerate(algebra.blocks):
        first = algebra.unit_offsets[i]
        p00 = pi_units[first]
        w, vecs = np.linalg.eigh(0.5 * (p00 + p00.conj().T))
        corner = vecs[:, w > 0.5]
        r = corner.shape[1]
        # pi(E^i_a0) C_i at columns a r .. (a + 1) r of V_i
        cols.append((pi_units[first : first + n * n : n] @ corner).transpose(1, 0, 2).reshape(big, n * r))
        mult.append(r)
    if sum(n * r for n, r in zip(algebra.blocks, mult)) != big:
        raise NotSingleBlockError("corner projection ranks do not fill the representation space")
    v = np.hstack(cols)
    if not is_unitary(v, tol):
        raise NotSingleBlockError("assembled intertwiner is not unitary")
    start = 0
    for n, r in zip(algebra.blocks, mult):
        here = slice(start, start + n * r)
        for a in range(n):
            for b in range(n):
                target = np.zeros((big, big), dtype=np.complex128)
                target[here, here] = np.kron(np.outer(np.eye(n)[a], np.eye(n)[b]), np.eye(r))
                want.append(target)
        start += n * r
    defect = max(frob(v.conj().T @ p @ v - t) for p, t in zip(pi_units, want))
    if defect > tol.recon_fro * max(1.0, np.sqrt(big)):
        raise NotSingleBlockError("representation does not factor through the blocks")
    return tuple(mult), v


def sym_stack(dil):
    """The dense (|G|, N, N) stack of sym(g), one element at a time."""
    return np.stack([dil.sym(g) for g in dil.spec.symmetry.group.elements()])


def twist_loop(dil):
    """max over group elements g and units k of ||sym(g) pi(E_k) -
    pi(beta_g(E_k)) sym(g)||, multiplying sym(g) into the whole dense stack
    of pi(E_k): the twist that the structure of sym(g) makes exact."""
    alg, u = dil.spec.algebra, dense_u(dil.spec)
    worst = 0.0
    for g in dil.spec.symmetry.group.elements():
        s = dil.sym(g)
        diff = s @ dil.pi_units - transport_loop(alg, u(g), dil.pi_units) @ s
        worst = max(worst, float(np.linalg.norm(diff, axis=(1, 2)).max()))
    return worst


def has_bar(dil):
    """Whether :func:`sym_bar` is defined: a symmetry whose every sigma_g is
    the identity, so every u(g) lies in the algebra."""
    sigma = None if dil.mult_rep is None else dil.spec.algebra.block_action(dense_u(dil.spec).matrices)[0]
    return sigma is not None and bool(np.all(sigma == np.arange(len(dil.mult))))


def sym_bar(dil, g):
    """The dense commuting twist pi(u(g)^+) sym(g) = I (*) W(g), with
    cocycle conj(c_u) c_rep, when :func:`has_bar`."""
    blocks, start = dil.spec.algebra.blocks, 0
    out = np.zeros((dil.rank, dil.rank), dtype=np.complex128)
    for n, r, ws in zip(blocks, dil.mult, dil.mult_rep):
        out[start : start + n * r, start : start + n * r] = np.kron(np.eye(n), ws[g])
        start += n * r
    return out


def commutation_loop(dil):
    """max over group elements a and units k of ||sym_bar(a) pi(E_k) -
    pi(E_k) sym_bar(a)||, densely."""
    pi = dil.pi_units
    bars = [sym_bar(dil, a) for a in dil.spec.symmetry.group.elements()]
    return max(float(np.linalg.norm(b @ pi - pi @ b, axis=(1, 2)).max()) for b in bars)


def cocycle_loop(mats, cocycle, group, on_generators=False):
    """max over pairs (a, b) of ||U(a) U(b) - c(a, b) U(ab)||_F; with
    ``on_generators``, over a in ``group.generators()`` only."""
    return max(
        (
            frob(mats[a] @ mats[b] - cocycle(a, b) * mats[group.prod(a, b)])
            for a in _rows(group, on_generators)[0]
            for b in group.elements()
        ),
        default=0.0,
    )


def sym_pinv_solve(dil):
    """The dense sym stack solved as sym(g) F = target through one
    pseudo-inverse of the stacked dilation blocks F = [pi(E_k) j]_k, the
    target being r(beta_g(E_k)) rep(g) for every unit k: the general solve
    that the multiplicity unitaries replace."""
    spec, n = dil.spec, dil.rank
    r_blocks = dil.r_blocks
    f = r_blocks.transpose(1, 0, 2).reshape(n, -1)
    pinv = np.linalg.pinv(f)
    u, rep = dense_u(spec), spec.symmetry.rep
    mats = []
    for g in spec.symmetry.group.elements():
        moved = transport_loop(spec.algebra, u(g), r_blocks) @ rep(g)
        mats.append(moved.transpose(1, 0, 2).reshape(n, -1) @ pinv)
    return np.stack(mats)


# ---------------------------------------------------------------------------
# dense u and the per-block loop forms of the KSGNS stages
# ---------------------------------------------------------------------------
#
# The CP form of an instrument keeps its inner implementation u as a block
# action; these build the dense u that as_cpmap used to, and run the factor,
# solve and certify stages of covkit.cpmaps one block at a time on it, as
# they were written before they were stacked by block shape.


def as_cpmap_dense(spec: InstrumentSpec) -> CPMapSpec:
    """:func:`covkit.instruments.as_cpmap` with its u(g) = perm(g) (x)
    out_rep(g) built as the dense (|G|, K|X|, K|X|) multiplier
    representation, by one einsum over the two factors."""
    cp = as_cpmap(spec)
    perm, out = cp.symmetry.u_factors[1], cp.symmetry.u_factors[0]
    n, k = spec.n_outcomes, spec.k_dim
    mats = np.einsum("gwx,gab->gwaxb", perm.matrices, out.matrices).reshape(-1, n * k, n * k)
    u = MultiplierRep(out.group, out.cocycle, mats)
    return dataclasses.replace(cp, symmetry=dataclasses.replace(cp.symmetry, u=u))


def dense_u(spec: CPMapSpec) -> MultiplierRep:
    """The dense u of a CP map's symmetry: as given, or assembled block by
    block from its block action, u(g) holding w_{g,i} at block (sigma_g(i), i)."""
    u = spec.symmetry.u
    if isinstance(u, MultiplierRep):
        return u
    off, dim = spec.algebra.offsets, spec.algebra.defining_dim
    mats = np.zeros((len(u.sigma), dim, dim), dtype=complex)
    for g in range(len(u.sigma)):
        for i, to in enumerate(u.sigma[g]):
            mats[g, off[to] : off[to + 1], off[i] : off[i + 1]] = u.w[i][g]
    return MultiplierRep(u.cocycle.group, u.cocycle, mats)


def beta(spec: CPMapSpec, g, bmat) -> np.ndarray:
    """The inner action u(g) b u(g)^+ on the defining space, densely."""
    u = dense_u(spec)(g)
    return u @ bmat @ u.conj().T


def psd_status_loop(a, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Positivity of one matrix with the scale max(1, ||a||_2) from an SVD
    and the verdict from a separate eigvalsh, as numlin first had it."""
    a = np.asarray(a, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a, 2))) if a.size else 1.0
    if not a.size:
        return True, 0.0
    low = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T)).min())
    ok = frob(a - a.conj().T) <= tol.psd_eig * scale and low >= -tol.psd_eig * scale
    return ok, max(0.0, -low)


def choi_blocks_loop(spec: CPMapSpec) -> list[np.ndarray]:
    """C_i[(b, v), (d, w)] = S(E^i_bd)[v, w], one entry block at a time."""
    nv, out = spec.n_v, []
    for i, n in enumerate(spec.algebra.blocks):
        c = np.zeros((n * nv, n * nv), dtype=complex)
        for a in range(n):
            for b in range(n):
                c[a * nv : (a + 1) * nv, b * nv : (b + 1) * nv] = spec.values[spec.algebra.unit_offsets[i] + a * n + b]
        out.append(c)
    return out


def cp_status_loop(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Complete positivity block by block: every Choi block against its own
    scale (:func:`psd_status_loop`), the residual the largest."""
    status = [psd_status_loop(c, tol) for c in choi_blocks_loop(spec)]
    return all(ok for ok, _ in status), max(res for _, res in status)


def kraus_loop(choi, k_dim, v_dim, tol: Tolerances = DEFAULT_TOL):
    """Kraus operators of one Choi block from its own eigendecomposition,
    with the SVD scale: descending eigenvalues, the first entry above 1e-12
    of each rotated real positive."""
    scale = max(1.0, float(np.linalg.norm(choi, 2))) if choi.size else 1.0
    w, v = np.linalg.eigh(0.5 * (choi + choi.conj().T))
    w = np.clip(w, 0.0, None)
    keep = np.where(w > max(tol.rank_rel * w.max(initial=0.0), tol.psd_eig * scale))[0][::-1]
    f = np.sqrt(w[keep])[:, None] * v[:, keep].conj().T
    lead = f[np.arange(len(keep)), np.argmax(np.abs(f) > 1e-12, axis=1)]
    lead[np.abs(lead) <= 1e-12] = 1.0
    return (f / (lead / np.abs(lead))[:, None]).reshape(len(keep), k_dim, v_dim)


def ksgns_j_loop(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL):
    """(mult, j) of the minimal dilation from one factorization per block:
    row (i, a, l) of j is row a of A^i_l."""
    nv = spec.n_v
    kraus = [kraus_loop(c, n, nv, tol) for n, c in zip(spec.algebra.blocks, choi_blocks_loop(spec))]
    j = np.concatenate([a.transpose(1, 0, 2).reshape(-1, nv) for a in kraus])
    return tuple(len(a) for a in kraus), j


def certify_covariant_loop(dil, tol: Tolerances = DEFAULT_TOL):
    """The multiplicity unitaries W_{g,i} and the residuals sym_unitary,
    sym_j and sym_cocycle, one block at a time on the block action of the
    dense u: a least-squares solve per block (or the dilation's own W), the
    unitarity from the dense (w^+ w) (x) (W^+ W), and the cocycle rows of
    the generators.  Returns (mult_rep, residuals)."""
    spec = dil.spec
    group, rep, u = spec.symmetry.group, spec.symmetry.rep, dense_u(spec)
    sigma, w = spec.algebra.block_action(u.matrices)
    kraus, mult_rep, unit, moved = [], [], 0.0, 0.0
    start = 0
    for n, r in zip(spec.algebra.blocks, dil.mult):
        kraus.append(dil.j[start : start + n * r].reshape(n, r, spec.n_v).transpose(1, 0, 2))
        start += n * r
    for i, a in enumerate(kraus):
        ri, ni, nv = a.shape
        target = np.stack([kraus[k] for k in sigma[:, i]]) @ rep.matrices[:, None]
        target = np.einsum("gba,glbv->glav", w[i].conj(), target).reshape(group.order, ri, ni * nv)
        src = a.reshape(ri, ni * nv)
        if dil.mult_rep is not None:
            ws = dil.mult_rep[i]
        elif ri:
            ws = lstsq_define([(src, target.reshape(group.order * ri, ni * nv))], tol)[0].reshape(group.order, ri, ri)
        else:
            ws = np.zeros((group.order, 0, 0), dtype=complex)
        res = np.linalg.norm(ws @ src - target, axis=(1, 2))
        grams = [x.conj().transpose(0, 2, 1) @ x for x in (w[i], ws)]
        gram = np.einsum("gab,glm->galbm", *grams).reshape(group.order, ni * ri, ni * ri)
        unit = unit + np.linalg.norm(gram - np.eye(ni * ri), axis=(1, 2)) ** 2
        moved = moved + res**2
        mult_rep.append(ws)
    gens = list(group.generators())
    c = (u.cocycle.values.conj() * rep.cocycle.values)[gens, :, None, None]
    pairs = 0.0
    for i, (ni, ws) in enumerate(zip(spec.algebra.blocks, mult_rep)):
        after = np.stack([mult_rep[k][gens] for k in sigma[:, i]]).transpose(1, 0, 2, 3)
        pairs = pairs + ni * np.linalg.norm(after @ ws - c * ws[group.mul[gens]], axis=(-2, -1)) ** 2
    residuals = {
        "sym_unitary": float(np.sqrt(unit).max()),
        "sym_j": float(np.sqrt(moved).max()),
        "sym_cocycle": float(np.sqrt(pairs).max(initial=0.0)),
    }
    return tuple(mult_rep), residuals


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


def kernel_covariance_loop(spec: CovariantKernelSpec, on_generators=False):
    """max ||T[ax, ay] - conj(alpha(a, x)) alpha(a, y) U(a)^-+ T[x, y] U(a)^-1||
    over all (a, x, y); with ``on_generators``, over a in
    ``group.generators()`` only."""
    worst = 0.0
    for a in _rows(spec.action.group, on_generators)[0]:
        ua_inv = spec.rep.inv_mat(a)
        for x in range(spec.x_size):
            for y in range(spec.x_size):
                lhs = spec.blocks[spec.action.apply(a, x), spec.action.apply(a, y)]
                rhs = np.conj(spec.alpha[a, x]) * spec.alpha[a, y] * (ua_inv.conj().T @ spec.blocks[x, y] @ ua_inv)
                worst = max(worst, frob(lhs - rhs))
    return worst


# -- the Kolmogorov decomposition by per-element loops -------------------------


def _solve_dilation_rep(spec, factors, n_dil, tol):
    """Solve the dilation unitaries from sym(g) factors[x] =
    alpha(g, x)^{-1} factors[g x] rep(g); returns them with the solve's
    certificate."""
    g = spec.action.group
    stacked_in = np.hstack(list(factors))
    mats = np.zeros((g.order, n_dil, n_dil), dtype=np.complex128)
    worst = 0.0
    for a in g.elements():
        targets = np.hstack(
            [
                factors[spec.action.apply(a, x)] @ spec.rep(a) / spec.alpha[a, x]
                for x in range(spec.x_size)
            ]
        )
        mats[a], res = lstsq_define([(stacked_in, targets)], tol)
        worst = max(worst, res)
    checks = Checks().require(
        tol.recon_fro * max(1.0, frob(stacked_in)),
        "dilation solve failed; alpha / cocycle data is inconsistent with the blocks",
        dilation_solve=worst,
    )
    return MultiplierRep(g, spec.dilation_cocycle(), mats), checks


def _certify_decomposition(spec, decomp, tol) -> Checks:
    g = spec.action.group
    checks = Checks()
    n = decomp.rank
    grand = spec.grand_matrix()
    scale = max(1.0, np.linalg.norm(grand, 2)) if grand.size else 1.0

    recon = 0.0
    for x in range(spec.x_size):
        for y in range(spec.x_size):
            recon = max(
                recon,
                frob(decomp.factors[x].conj().T @ decomp.factors[y] - spec.blocks[x, y]),
            )
    checks.require(tol.recon_fro * scale, "factor reconstruction failed", reconstruction=recon)

    unit = max((frob(decomp.sym(a).conj().T @ decomp.sym(a) - np.eye(n)) for a in g.elements()), default=0.0)
    checks.require(tol.unitary_fro * max(1.0, np.sqrt(n)), "dilation unitaries failed", unitarity=unit)

    cocycle = spec.dilation_cocycle()
    coc = 0.0
    for a in g.elements():
        for b in g.elements():
            coc = max(
                coc,
                frob(decomp.sym(a) @ decomp.sym(b) - cocycle(a, b) * decomp.sym(g.prod(a, b))),
            )
    checks.require(tol.recon_fro * max(1.0, np.sqrt(n)), "dilation cocycle failed", cocycle=coc)

    inter = 0.0
    for a in g.elements():
        for x in range(spec.x_size):
            lhs = decomp.sym(a) @ decomp.factors[x]
            rhs = decomp.factors[spec.action.apply(a, x)] @ spec.rep(a) / spec.alpha[a, x]
            inter = max(inter, frob(lhs - rhs))
    return checks.require(
        tol.recon_fro * max(1.0, scale), "covariant intertwining failed", intertwining=inter
    )



def kolmogorov_loop(spec: CovariantKernelSpec, factors, tol: Tolerances = DEFAULT_TOL, sym=None):
    """The dilation representation of the factors solved one group element
    at a time, or ``sym`` as given, and the certificate of loops over (x,
    y), g, (a, b) and (g, x): ``dilation_solve`` (only when solved),
    ``reconstruction``, ``unitarity``, ``cocycle`` and ``intertwining``."""
    n_dil = factors.shape[1]
    checks = Checks()
    if sym is None:
        sym, checks = _solve_dilation_rep(spec, factors, n_dil, tol)
    checks.update(_certify_decomposition(spec, KolmogorovDecomposition(spec, n_dil, factors, sym), tol))
    return sym, checks


def cp_covariance_loop(spec: CPMapSpec, on_generators=False):
    """max over (g, k) of ||S(u(g) E_k u(g)^+) - rep(g) S(E_k) rep(g)^+||,
    one group element at a time through the loop-form transport; with
    ``on_generators``, over g in ``group.generators()`` only."""
    sym, u = spec.symmetry, dense_u(spec)
    worst = 0.0
    for g in _rows(sym.group, on_generators)[0]:
        uinv = sym.rep.inv_mat(g)
        diff = transport_loop(spec.algebra, u(g), spec.values) - uinv.conj().T @ spec.values @ uinv
        worst = max(worst, float(np.linalg.norm(diff, axis=(1, 2)).max()))
    return worst


def observable_covariance_loop(spec: ObservableSpec, on_generators=False):
    """max ||rep(g) E_w rep(g)^+ - E_{gw}|| over all (g, w); with
    ``on_generators``, over g in ``group.generators()`` only."""
    sym = spec.symmetry
    worst = 0.0
    for g in _rows(sym.group, on_generators)[0]:
        ug = sym.rep(g)
        for w in range(spec.n_outcomes):
            lhs = ug @ spec.effects[w] @ ug.conj().T
            worst = max(worst, frob(lhs - spec.effects[sym.action.apply(g, w)]))
    return worst


def instrument_covariance_loop(spec: InstrumentSpec, on_generators=False):
    """max ||W_g C_w W_g^+ - C_{gw}|| over all (g, w), with W_g =
    conj(out_rep(g)) (x) rep(g); with ``on_generators``, over g in
    ``group.generators()`` only."""
    sym = spec.symmetry
    worst = 0.0
    for g in _rows(sym.group, on_generators)[0]:
        wg = np.kron(sym.out_rep(g).conj(), sym.rep(g))
        for w in range(spec.n_outcomes):
            worst = max(worst, frob(wg @ spec.choi[w] @ wg.conj().T - spec.choi[sym.action.apply(g, w)]))
    return worst


def sample_lines_loop(spec: InstrumentSpec, state, n, seed, tol=DEFAULT_TOL):
    """The text of ``covkit sample``: one ``[outcome, p, post]`` line per
    draw, each encoded on its own."""
    return "".join(
        json.dumps([r.outcome, r.probability, matrix_out(r.post_state)]) + "\n"
        for r in sample_stream(spec, state, n, seed, tol)
    )


def cp_commutant_dense(dil, mats, j=None):
    """Orthonormal basis of {D : [D, pi(A)] = 0, [D, S] = 0 for S in mats,
    j^+ D j = 0} (no compression when ``j`` is None), from the stored pi
    alone.  pi(A) is generated by pi(h), h diagonal with distinct entries,
    and pi(c), c the cyclic shift inside every block; D commutes with pi(h)
    iff it is block diagonal over the eigenspaces of pi(h), found by eigh.
    So the unknowns are the entries of those diagonal blocks, and nothing is
    assumed about the dilation's layout."""
    blk, a, b = dil.spec.algebra.unit_index().T
    size = np.asarray(dil.spec.algebra.blocks)[blk]
    diag = a == b
    h = np.tensordot(np.arange(1.0, diag.sum() + 1.0), dil.pi_units[diag], axes=1)
    c = dil.pi_units[a == (b + 1) % size].sum(axis=0)
    w, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    labels = np.round(w).astype(int)
    units = []
    for lab in np.unique(labels):
        p = vecs[:, labels == lab]
        units += [np.outer(x, y.conj()) for x in p.T for y in p.T]
    units = np.stack(units)  # Frobenius-orthonormal
    rows = [(units @ g - g @ units).reshape(len(units), -1).T for g in [c, *mats]]
    if j is not None:
        rows.append((j.conj().T @ units @ j).reshape(len(units), -1).T)
    x = null_space(np.vstack(rows))
    return list(np.tensordot(x.T, units, axes=1))


# ---------------------------------------------------------------------------
# the dense commutant: the N^2-column kron system
# ---------------------------------------------------------------------------


def dense_commutant(
    generators,
    constraints=(),
    *,
    hermitian_only=False,
    dim=None,
    tol: Tolerances = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Basis of ``{D : [D, A_i] = 0 for all i, tr(C_j^+ D) = 0 for all j}``.

    ``generators`` are square matrices A_i, ``constraints`` coefficient
    matrices C_j encoding the linear functionals ``D -> tr(C_j^+ D)``.  With
    ``hermitian_only`` the solution space is computed over the real span of
    Hermitian matrices; otherwise over all complex matrices.  Returned
    matrices are orthonormal in the Frobenius inner product.  An empty list
    means only D = 0 satisfies all conditions.
    """
    generators = [as_matrix(g) for g in generators]
    constraints = [as_matrix(c) for c in constraints]
    sizes = {g.shape for g in generators} | {c.shape for c in constraints}
    if dim is not None:
        sizes.add((dim, dim))
    if len(sizes) > 1:
        raise DimensionError(f"inconsistent sizes {sorted(sizes)}")
    if not sizes:
        raise DimensionError("cannot infer matrix size: no inputs and no dim")
    n = sizes.pop()[0]
    eye = np.eye(n, dtype=np.complex128)

    rows = []
    for g in generators:
        # [D, A] = 0  <=>  (I (x) A^T - A (x) I) vec(D) = 0 in row-major vec.
        rows.append(np.kron(eye, g.T) - np.kron(g, eye))
    for c in constraints:
        rows.append(vec(c.conj())[None, :])
    system = np.vstack(rows) if rows else np.zeros((0, n * n), dtype=np.complex128)

    if not hermitian_only:
        basis = null_space(system, tol)
        return [unvec(basis[:, k], n, n) for k in range(basis.shape[1])]

    hbasis = hermitian_basis(n)
    cols = np.stack([system @ vec(h) for h in hbasis], axis=1)
    real_system = np.vstack([cols.real, cols.imag])
    coeffs = null_space(real_system, tol)
    out = []
    for k in range(coeffs.shape[1]):
        d = sum(float(coeffs[i, k].real) * hbasis[i] for i in range(len(hbasis)))
        out.append(d)
    return out


def compression_functionals(compressions) -> list[np.ndarray]:
    """The coefficient matrices C of the functionals D -> tr(C^+ D) that
    make up sum_k L_k^+ D R_k = 0 for each compression (L, R), entry by
    entry, in the row order of ``constrained_commutant``."""
    out = []
    for l, r in compressions:
        l, r = np.asarray(l, dtype=np.complex128), np.asarray(r, dtype=np.complex128)
        for v in range(l.shape[2]):
            for w in range(r.shape[2]):
                out.append(sum(np.outer(lk[:, v], rk[:, w].conj()) for lk, rk in zip(l, r)))
    return out


def instrument_from_cpmap(cp_spec: CPMapSpec, symmetry: Symmetry) -> InstrumentSpec:
    """Inverse of :func:`covkit.instruments.as_cpmap` for specs over the same
    tensor split."""
    k, v = symmetry.out_rep.dim, symmetry.rep.dim
    n = symmetry.n_outcomes
    choi = np.zeros((n, k * v, k * v), dtype=np.complex128)
    for kk, (i, a, b) in enumerate(cp_spec.algebra.unit_index()):
        choi[i][a * v : (a + 1) * v, b * v : (b + 1) * v] = cp_spec.values[kk]
    return InstrumentSpec(choi, symmetry)


def instrument_extremal_cpform(
    spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL
) -> ExtremalityCertificate:
    """Extremality among covariant instruments, decided on the instrument's
    CP-map form over output-algebra (x) outcome functions."""
    cp = as_cpmap(spec)
    cert = cp_extremal(cp, None, tol)
    if cert.extreme or cert.perturbed is None:
        return cert
    neighbours = tuple(
        instrument_from_cpmap(p, spec.symmetry) for p in cert.perturbed
    )
    for nb in neighbours:
        report = validate_instrument(nb, tol)
        if not report.ok:
            raise DilationResidualError("perturbed instrument failed validation")
    return ExtremalityCertificate(False, cert.witness, neighbours, cert.freedom)


def structure_chain_B(spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL):
    """Verification path for the Kraus-family structure through the full
    dilation chain: observable-marginal dilation, instrument dilation, the
    decomposable fiber isometries connecting them, and the base-point
    channel.  Returns operators generating the same instrument."""
    naim = naimark_loop(marginal_observable(spec), tol)
    cp = as_cpmap(spec)
    dil = ksgns(cp, tol)
    k = spec.k_dim
    lam = naim.factors[0]
    m0 = naim.fiber_dims[0]
    alg = cp.algebra

    # isometry from the base observable fiber into the base instrument
    # fiber, solved on the spanning columns coming from the module space
    p0 = dil.pi(_indicator(alg, k, 0))
    c0, res = lstsq_define([(naim.factors[0], p0 @ dil.j)], tol)
    if res > tol.recon_fro * max(1.0, frob(dil.j)):
        raise DilationResidualError(f"fiber isometry residual {res:.2e}")
    gram = c0.conj().T @ c0
    if frob(gram - np.eye(m0)) > tol.recon_fro * max(1.0, m0):
        raise DilationResidualError("fiber connector is not an isometry")

    # base-point channel b -> c0^+ pi(b on the base block) c0 and its Kraus
    grand = np.zeros((k * m0, k * m0), dtype=np.complex128)
    for a in range(k):
        for b in range(k):
            blockmap = c0.conj().T @ dil.pi(_unit_on_outcome(alg, k, 0, a, b)) @ c0
            grand[a * m0 : (a + 1) * m0, b * m0 : (b + 1) * m0] = blockmap
    a_ops = kraus_from_choi(grand, k, m0, tol)
    return CovariantInstrumentData(tuple(a @ lam for a in a_ops))


def _indicator(alg, k, outcome):
    mat = np.zeros((alg.defining_dim, alg.defining_dim), dtype=np.complex128)
    off = outcome * k
    mat[off : off + k, off : off + k] = np.eye(k)
    return mat


def _unit_on_outcome(alg, k, outcome, a, b):
    mat = np.zeros((alg.defining_dim, alg.defining_dim), dtype=np.complex128)
    off = outcome * k
    mat[off + a, off + b] = 1.0
    return mat


# -- the Naimark dilation by per-fiber solves ----------------------------------


@dataclasses.dataclass(frozen=True)
class NaimarkData:
    """Minimal covariant Naimark dilation of an observable.

    The dilation space is the direct sum of per-outcome fibers; ``isometry``
    stacks the factor blocks of the effects; ``cocycle_blocks[g][w]`` is the
    unitary carrying fiber g^{-1} w into fiber w, assembling to a multiplier
    representation with the module representation's cocycle.
    """

    spec: ObservableSpec
    fiber_dims: tuple[int, ...]
    factors: tuple[np.ndarray, ...]  # per outcome, (m(w), V)
    cocycle_blocks: dict  # g -> list of per-outcome unitaries
    checks: Checks = dataclasses.field(default_factory=Checks)

    @property
    def total_dim(self) -> int:
        return int(sum(self.fiber_dims))

    def offsets(self) -> np.ndarray:
        return offsets(self.fiber_dims)

    def isometry(self) -> np.ndarray:
        return np.vstack(list(self.factors))

    def projection(self, w) -> np.ndarray:
        outcome = np.repeat(np.arange(len(self.fiber_dims)), self.fiber_dims)
        return np.diag(outcome == w).astype(np.complex128)

    def assembled_rep(self) -> MultiplierRep:
        sym = self.spec.symmetry
        n = self.total_dim
        offs = self.offsets()
        mats = np.zeros((sym.group.order, n, n), dtype=np.complex128)
        for g in sym.group.elements():
            for w in range(self.spec.n_outcomes):
                src = sym.action.apply(sym.group.inv(g), w)
                mats[g][offs[w] : offs[w + 1], offs[src] : offs[src + 1]] = self.cocycle_blocks[g][w]
        return MultiplierRep(sym.group, sym.rep.cocycle, mats)


def naimark_loop(spec: ObservableSpec, tol: Tolerances = DEFAULT_TOL) -> NaimarkData:
    """Minimal covariant Naimark dilation: factor each effect, stack the
    factors into an isometry, and read the imprimitivity cocycle off the
    fiber-transport relation."""
    report = validate_observable(spec, tol)
    if not report.ok:
        raise ValueError(f"observable invalid: {report.failed()}")
    sym = spec.symmetry
    factors, fiber_dims = [], []
    for w in range(spec.n_outcomes):
        m, f = psd_factor(spec.effects[w], tol)
        factors.append(f)
        fiber_dims.append(m)

    blocks: dict = {}
    worst = 0.0
    for g in sym.group.elements():
        per = []
        for w in range(spec.n_outcomes):
            src = sym.action.apply(sym.group.inv(g), w)
            if fiber_dims[w] == 0:
                per.append(np.zeros((0, 0), dtype=np.complex128))
                continue
            target = factors[w] @ sym.rep(g)
            blk, res = lstsq_define([(factors[src], target)], tol)
            # each transport is held to the scale of its own source fiber
            Checks().require(
                tol.recon_fro * max(1.0, frob(factors[src])),
                f"fiber transport failed at g={g}, outcome={w}",
                cocycle_solve=res,
            )
            worst = max(worst, res)
            if not is_unitary(blk, tol):
                raise DilationResidualError("transport block is not unitary")
            per.append(blk)
        blocks[g] = per

    data = NaimarkData(spec, tuple(fiber_dims), tuple(factors), blocks)
    # every transport passed its own bound above
    checks = Checks(cocycle_solve=Check(True, worst))
    checks.update(_certify_naimark(data, tol))
    return dataclasses.replace(data, checks=checks)


def _certify_naimark(data: NaimarkData, tol) -> Checks:
    spec, sym = data.spec, data.spec.symmetry
    k_iso = data.isometry()
    worst = 0.0
    for w in range(spec.n_outcomes):
        compressed = k_iso.conj().T @ data.projection(w) @ k_iso
        worst = max(worst, frob(compressed - spec.effects[w]))
    lim = tol.recon_fro * max(1.0, np.sqrt(spec.v_dim))
    checks = Checks().require(
        lim,
        "naimark compression identities failed",
        isometry=frob(k_iso.conj().T @ k_iso - np.eye(spec.v_dim)),
        compression=worst,
    )
    # minimality: the fibers are spanned by projected isometry columns
    for w in range(spec.n_outcomes):
        if rank(data.factors[w], tol) != data.fiber_dims[w]:
            raise DilationResidualError("naimark dilation is not minimal", checks)
    # assembled representation: intertwining and the block cocycle identity
    rep_big = data.assembled_rep()
    worst_j = max(
        (
            frob(rep_big(g) @ k_iso - k_iso @ sym.rep(g))
            for g in sym.group.elements()
        ),
        default=0.0,
    )
    checks.require(lim, "naimark covariance identities failed", intertwining=worst_j)
    coc = 0.0
    cocycle = sym.rep.cocycle
    for a in sym.group.elements():
        for b in sym.group.elements():
            for w in range(spec.n_outcomes):
                lhs = data.cocycle_blocks[sym.group.prod(a, b)][w]
                mid = sym.action.apply(sym.group.inv(a), w)
                rhs = (
                    np.conj(cocycle(a, b))
                    * data.cocycle_blocks[a][w]
                    @ data.cocycle_blocks[b][mid]
                )
                coc = max(coc, frob(lhs - rhs))
    return checks.require(
        tol.recon_fro * max(1.0, np.sqrt(max(data.total_dim, 1))),
        "naimark covariance identities failed",
        block_cocycle=coc,
    )
