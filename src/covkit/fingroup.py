"""Finite groups, actions, 2-cocycles, multiplier representations, their
irreducible decomposition, and the clock-and-shift system.

Groups are kept as multiplication tables on element indices.  Representations
store one matrix per element; a multiplier representation with cocycle c
satisfies ``U(g) U(h) = c(g, h) U(gh)``.
"""

from __future__ import annotations

import itertools
from dataclasses import field

import numpy as np

from .numlin import DEFAULT_TOL, DimensionError, Tolerances, frob, is_unitary, record


class GroupStructureError(ValueError):
    """The given tables do not define a group / action / subgroup."""


# ---------------------------------------------------------------------------
# groups and actions
# ---------------------------------------------------------------------------


@record
class FiniteGroup:
    """A finite group as a multiplication table on indices 0..order-1."""

    mul: np.ndarray  # (order, order) int array, mul[g, h] = g*h
    identity: int = field(init=False, default=0)
    inverse: np.ndarray = field(init=False, default=None)
    _generators: tuple = field(init=False, default=())
    max_word_length: int = field(init=False, default=0)

    def __post_init__(self):
        mul = np.asarray(self.mul, dtype=np.int64)
        object.__setattr__(self, "mul", mul)
        n = mul.shape[0]
        if mul.shape != (n, n) or n == 0:
            raise GroupStructureError("multiplication table must be square and nonempty")
        if mul.min() < 0 or mul.max() >= n:
            raise GroupStructureError("table entries out of range")
        idx = np.arange(n)
        units = np.flatnonzero(np.all(mul == idx, axis=1) & np.all(mul.T == idx, axis=1))
        if units.size == 0:
            raise GroupStructureError("no identity element")
        ident = int(units[0])
        hits = mul == ident
        inv = hits.argmax(axis=1)
        bad = np.flatnonzero((hits.sum(axis=1) != 1) | (mul[inv, idx] != ident))
        if bad.size:
            raise GroupStructureError(f"element {bad[0]} has no two-sided inverse")
        # greedy generators: each new one is the smallest element outside the span so far
        gens, span, depth = [], idx == ident, 0
        while not span.all():
            gens.append(int(span.argmin()))
            span, depth = _walk(mul, ident, gens)
        # Light's test: the a with (xa)y = x(ay) for all x, y are closed under
        # products, and every element is a positive word in gens
        fails = mul[mul[:, gens]] != mul[:, mul[gens]]
        if fails.any():
            x, a, y = np.argwhere(fails)[0]
            raise GroupStructureError(f"associativity fails at ({x}, {gens[a]}, {y})")
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "_generators", tuple(gens))
        object.__setattr__(self, "max_word_length", depth)

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    def elements(self):
        return range(self.order)

    def inv(self, g) -> int:
        return int(self.inverse[g])

    def prod(self, g, h) -> int:
        return int(self.mul[g, h])

    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily: each new generator is the
        smallest element outside the subgroup generated so far.  Empty for
        the trivial group.  Every element is a product of at most
        ``max_word_length`` of them."""
        return self._generators

    # -- constructors -------------------------------------------------------

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        idx = np.arange(n)
        return FiniteGroup((idx[:, None] + idx[None, :]) % n)

    @staticmethod
    def trivial() -> "FiniteGroup":
        return FiniteGroup(np.zeros((1, 1), dtype=np.int64))

    @staticmethod
    def dihedral(n: int) -> "FiniteGroup":
        """Symmetries of the n-gon; element (r, s) -> index s*n + r, with
        (ra, sa) * (rb, sb) = (ra + (-1)^sa rb, sa xor sb)."""
        if n < 1:
            raise GroupStructureError("dihedral needs n >= 1")
        idx = np.arange(2 * n)
        r, s = idx % n, idx // n
        return FiniteGroup((s[:, None] ^ s) * n + (r[:, None] + (1 - 2 * s[:, None]) * r) % n)

    @staticmethod
    def symmetric(n: int) -> "FiniteGroup":
        """Permutations of n letters, indexed in lexicographic order."""
        if n > 6:
            raise GroupStructureError("symmetric(n) supported only for n <= 6")
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
        # (p*q)(k) = p(q(k)); lexicographic order is the order of the base-n codes
        power = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        codes = perms @ power
        return FiniteGroup(np.searchsorted(codes, perms[:, perms] @ power))

    @staticmethod
    def direct_product(a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
        """Product group; element (x, y) -> index x * b.order + y."""
        nb = b.order
        mul = a.mul[:, None, :, None] * nb + b.mul[None, :, None, :]
        return FiniteGroup(mul.reshape(a.order * nb, a.order * nb))


def _walk(mul, identity, gens):
    """Breadth-first walk of the Cayley graph from the identity by right
    multiplication with ``gens``: the reached elements as a mask, and the
    number of steps after which nothing new is reached."""
    n = mul.shape[0]
    members = np.zeros(n, dtype=bool)
    members[identity] = True
    frontier, depth, gens = np.array([identity]), 0, np.asarray(gens, dtype=np.int64)
    while True:
        reached = np.zeros(n, dtype=bool)
        reached[mul[frontier[:, None], gens]] = True
        frontier = (reached > members).nonzero()[0]
        if not frontier.size:
            return members, depth
        members[frontier] = True
        depth += 1


def closure(group: FiniteGroup, gens) -> tuple[int, ...]:
    """Sorted members of the subgroup generated by ``gens``.

    Positive words suffice: in a finite group every inverse is a power.
    """
    return tuple(np.flatnonzero(_walk(group.mul, group.identity, gens)[0]).tolist())


@record
class GroupAction:
    """Left action of a group on {0..set_size-1} as a lookup table."""

    group: FiniteGroup
    table: np.ndarray  # (order, set_size) int array, table[g, x] = g.x

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        object.__setattr__(self, "table", table)
        g = self.group
        n, m = table.shape
        if n != g.order:
            raise GroupStructureError("action table has wrong number of rows")
        if table.size and (table.min() < 0 or table.max() >= m):
            raise GroupStructureError("action table entries out of range")
        if not np.array_equal(table[g.identity], np.arange(m)):
            raise GroupStructureError("identity must act trivially")
        # Light's test, as for the group table: the a with (ab).x = a.(b.x)
        # for every b, x are closed under products, and every element is a
        # positive word in the generators
        gens = list(g.generators())
        fails = np.any(table[g.mul[gens]] != table[gens][:, table], axis=2)
        if fails.any():
            a, b = np.argwhere(fails)[0]
            raise GroupStructureError(f"action not compatible at ({gens[a]}, {b})")

    @property
    def set_size(self) -> int:
        return self.table.shape[1]

    def apply(self, g, x) -> int:
        return int(self.table[g, x])

    def orbit(self, x) -> list[int]:
        hit = np.zeros(self.set_size, dtype=bool)
        hit[self.table[:, x]] = True
        return np.flatnonzero(hit).tolist()

    def orbits(self) -> list[list[int]]:
        """The orbits, each sorted, in the order of their smallest points."""
        if not self.set_size:
            return []
        least = self.table.min(axis=0)  # the smallest point of each point's orbit
        order = np.argsort(least, kind="stable")
        cuts = np.flatnonzero(np.diff(least[order])) + 1
        return [orb.tolist() for orb in np.split(order, cuts)]

    def stabilizer(self, x) -> list[int]:
        return np.flatnonzero(self.table[:, x] == x).tolist()

    @staticmethod
    def left_translation(group: FiniteGroup) -> "GroupAction":
        return GroupAction(group, group.mul.copy())

    @staticmethod
    def trivial(group: FiniteGroup, set_size: int = 1) -> "GroupAction":
        return GroupAction(group, np.tile(np.arange(set_size), (group.order, 1)))


# ---------------------------------------------------------------------------
# subgroups and coset spaces
# ---------------------------------------------------------------------------


@record
class SubgroupData:
    """A subgroup H of a parent group with the left coset space G/H.

    The coset space is indexed 0..n_cosets-1 with the identity coset first,
    the others in the order of their smallest members; the section picks the
    smallest element index in each coset, which makes it canonical, and maps
    the identity coset to the identity.
    """

    parent: FiniteGroup
    members: tuple[int, ...]
    section: tuple[int, ...] = field(init=False, default=None)
    projection: np.ndarray = field(init=False, default=None)
    _action: GroupAction = field(init=False, default=None, repr=False)

    def __post_init__(self):
        g = self.parent
        members = np.asarray(self.members).ravel()  # an object array for ints past int64
        if members.size and (members.min() < 0 or members.max() >= g.order):
            raise GroupStructureError("subgroup members out of range")
        mask = np.zeros(g.order, dtype=bool)
        mask[members.astype(np.int64)] = True
        cols = np.flatnonzero(mask)
        object.__setattr__(self, "members", tuple(cols.tolist()))
        if not mask[g.identity]:
            raise GroupStructureError("subgroup must contain the identity")
        # the first member whose inverse or products leave H, inverse first
        no_inverse = ~mask[g.inverse[cols]]
        bad = np.flatnonzero(no_inverse | ~mask[g.mul[cols[:, None], cols]].all(axis=1))
        if bad.size:
            broken = "inverse" if no_inverse[bad[0]] else "multiplication"
            raise GroupStructureError(f"subgroup not closed under {broken}")
        # each coset xH is labelled by its smallest member; identity coset first
        label = g.mul[:, cols].min(axis=1)
        heads = np.flatnonzero(label == np.arange(g.order))
        heads = np.concatenate(([label[g.identity]], heads[heads != label[g.identity]]))
        index = np.zeros(g.order, dtype=np.int64)
        index[heads] = np.arange(heads.size)
        projection = index[label]
        section = (g.identity, *heads[1:].tolist())
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "projection", projection)
        # a maps the coset of s(w) to that of a s(w)
        object.__setattr__(self, "_action", GroupAction(g, projection[g.mul[:, section]]))

    @property
    def n_cosets(self) -> int:
        return len(self.section)

    def project(self, g) -> int:
        return int(self.projection[g])

    def coset_action(self) -> GroupAction:
        """The action a.w = the coset of a s(w), built once."""
        return self._action

    def subgroup_group(self) -> FiniteGroup:
        """H as a group in its own right (indices follow ``members``)."""
        cols = np.array(self.members)
        pos = np.zeros(self.parent.order, dtype=np.int64)
        pos[cols] = np.arange(cols.size)
        return FiniteGroup(pos[self.parent.mul[cols[:, None], cols]])


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------


@record
class TwoCocycle:
    """Unit-modulus scalar 2-cocycle c(g, h) on a finite group."""

    group: FiniteGroup
    values: np.ndarray  # (order, order) complex array

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", vals)
        n = self.group.order
        if vals.shape != (n, n):
            raise DimensionError("cocycle table has wrong shape")

    def __call__(self, g, h) -> complex:
        return complex(self.values[g, h])

    @staticmethod
    def trivial(group: FiniteGroup) -> "TwoCocycle":
        return TwoCocycle(group, np.ones((group.order, group.order), dtype=np.complex128))

    @staticmethod
    def coboundary(group: FiniteGroup, phases) -> "TwoCocycle":
        """c(g, h) = p(g) p(h) / p(gh) for unit-modulus p with p(e) = 1."""
        p = np.asarray(phases, dtype=np.complex128)
        if p.shape != (group.order,):
            raise DimensionError("need one phase per element")
        if abs(p[group.identity] - 1.0) > 1e-12:
            raise ValueError("phase at the identity must be 1")
        if np.any(np.abs(np.abs(p) - 1.0) > 1e-12):
            raise ValueError("phases must have unit modulus")
        vals = p[:, None] * p[None, :] / p[group.mul]
        return TwoCocycle(group, vals)

    def multiply(self, other: "TwoCocycle") -> "TwoCocycle":
        return TwoCocycle(self.group, self.values * other.values)

    def conj(self) -> "TwoCocycle":
        return TwoCocycle(self.group, self.values.conj())

    def is_trivial(self, tol: float = 1e-10) -> bool:
        return bool(np.all(np.abs(self.values - 1.0) <= tol))


def cocycle_status(c: TwoCocycle, tol: Tolerances = DEFAULT_TOL):
    """First violated identity, or None if ``c`` is a genuine 2-cocycle, and
    the largest residual found.

    Unit modulus and normalization are checked at every entry.  The cocycle
    identity c(x, a) c(xa, y) = c(a, y) c(x, ay) is checked for a in
    ``group.generators()`` and every x, y: the a for which it holds are
    closed under products (Light's test, as for the group table), so it then
    holds for every a.  Each entry fails where its modulus or normalization
    defect exceeds ``tol.recon_fro``, and those rows where ``max_word_length``
    times their residual does, the scale :func:`rep_status` holds the product
    rule to; a violation is reported as ``("cocycle", x, a, y)``, first in
    lexicographic order.
    """
    g, v, tol = c.group, c.values, tol.recon_fro
    gens = list(g.generators())
    modulus = np.abs(np.abs(v) - 1.0)
    e = g.identity
    unit = np.maximum(np.abs(v[e] - 1.0), np.abs(v[:, e] - 1.0))
    rows = np.abs(v[:, gens, None] * v[g.mul[:, gens]] - v[gens][None] * v[:, g.mul[gens]])
    residual = float(max(modulus.max(), unit.max(), rows.max(initial=0.0)))
    if np.any(modulus > tol):
        bad = np.argwhere(modulus > tol)[0]
        return ("modulus", int(bad[0]), int(bad[1])), residual
    bad = np.flatnonzero(unit > tol)
    if bad.size:
        return ("normalization", int(bad[0])), residual
    hits = np.argwhere(g.max_word_length * rows > tol)
    if hits.size:
        x, a, y = hits[0]
        return ("cocycle", int(x), gens[a], int(y)), residual
    return None, residual


def cocycle_violation(c: TwoCocycle, tol: Tolerances = DEFAULT_TOL):
    """First violated identity, or None if ``c`` is a genuine 2-cocycle
    (:func:`cocycle_status`)."""
    return cocycle_status(c, tol)[0]


def validate_cocycle(c: TwoCocycle, tol: Tolerances = DEFAULT_TOL) -> bool:
    return cocycle_violation(c, tol) is None


# ---------------------------------------------------------------------------
# multiplier representations
# ---------------------------------------------------------------------------


@record
class MultiplierRep:
    """Map g -> U(g) with U(e) = I and U(g) U(h) = cocycle(g, h) U(gh)."""

    group: FiniteGroup
    cocycle: TwoCocycle
    matrices: np.ndarray  # (order, dim, dim)
    unitary_flag: bool = True

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=np.complex128)
        object.__setattr__(self, "matrices", mats)
        if mats.ndim != 3 or mats.shape[0] != self.group.order:
            raise DimensionError("need one square matrix per group element")
        if mats.shape[1] != mats.shape[2]:
            raise DimensionError("representation matrices must be square")

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def __call__(self, g) -> np.ndarray:
        return self.matrices[g]

    def inv_mat(self, g) -> np.ndarray:
        """U(g)^{-1}; for unitary representations the adjoint."""
        if self.unitary_flag:
            return self.matrices[g].conj().T
        return np.linalg.inv(self.matrices[g])

    @staticmethod
    def trivial(group: FiniteGroup, dim: int = 1) -> "MultiplierRep":
        mats = np.tile(np.eye(dim, dtype=np.complex128), (group.order, 1, 1))
        return MultiplierRep(group, TwoCocycle.trivial(group), mats)

    @staticmethod
    def regular(group: FiniteGroup) -> "MultiplierRep":
        """Left regular representation by permutation matrices."""
        return MultiplierRep.from_action(GroupAction.left_translation(group))

    @staticmethod
    def from_action(action: GroupAction) -> "MultiplierRep":
        """Permutation representation of an action."""
        n, m = action.group.order, action.set_size
        mats = np.zeros((n, m, m), dtype=np.complex128)
        mats[np.arange(n)[:, None], action.table, np.arange(m)] = 1.0
        return MultiplierRep(action.group, TwoCocycle.trivial(action.group), mats)

    def direct_sum(self, other: "MultiplierRep") -> "MultiplierRep":
        if frob(self.cocycle.values - other.cocycle.values) > 1e-10:
            raise ValueError("direct sum needs matching cocycles")
        d1, d2 = self.dim, other.dim
        mats = np.zeros((self.group.order, d1 + d2, d1 + d2), dtype=np.complex128)
        mats[:, :d1, :d1] = self.matrices
        mats[:, d1:, d1:] = other.matrices
        return MultiplierRep(self.group, self.cocycle, mats, self.unitary_flag and other.unitary_flag)

    def conjugate(self, q: np.ndarray) -> "MultiplierRep":
        """Change of basis g -> q^+ U(g) q by a unitary q."""
        mats = np.einsum("ij,gjk,kl->gil", q.conj().T, self.matrices, q)
        return MultiplierRep(self.group, self.cocycle, mats, self.unitary_flag)

    def twist(self, phases) -> "MultiplierRep":
        """Multiply by unit scalars p(g), p(e) = 1; the cocycle picks up the
        coboundary of p."""
        p = np.asarray(phases, dtype=np.complex128)
        cob = TwoCocycle.coboundary(self.group, p)
        mats = p[:, None, None] * self.matrices
        return MultiplierRep(self.group, self.cocycle.multiply(cob), mats, self.unitary_flag)

    def restrict(self, sub: SubgroupData) -> "MultiplierRep":
        """Restriction to a subgroup, reindexed along ``sub.members``."""
        idx = list(sub.members)
        hgrp = sub.subgroup_group()
        cvals = self.cocycle.values[np.ix_(idx, idx)]
        return MultiplierRep(hgrp, TwoCocycle(hgrp, cvals), self.matrices[idx], self.unitary_flag)


def rep_status(u: MultiplierRep, tol: Tolerances = DEFAULT_TOL):
    """First violated representation identity, or None, and the largest
    residual found.

    U(e) = I, then unitarity of U(s) and U(s) U(h) = c(s, h) U(sh) for s in
    ``group.generators()`` and every h.  With c a 2-cocycle
    (:func:`cocycle_status`) these imply the product rule for every pair:
    U(st) U(h) = U(s) U(t) U(h) / c(s, t) = c(t, h) c(s, th) / c(s, t) U(sth),
    which is c(st, h) U(sth) by the cocycle identity, and unitarity of every
    U(g) follows.  A product row fails where ``max_word_length`` times its
    residual exceeds recon_fro max(1, ||c(s, h) U(sh)||_F); a violation is
    reported as ``("product", s, h)``, first in lexicographic order.
    """
    g, mats = u.group, u.matrices
    gens = list(g.generators())
    ident = frob(mats[g.identity] - np.eye(u.dim))
    if ident > tol.recon_fro:
        return ("identity",), ident
    unit = 0.0
    if u.unitary_flag:
        # is_unitary allows unitary_fro * max(1, |U|_2), so a matrix within
        # unitary_fro of unitarity passes it; it decides (or raises on) the
        # rest, non-finite matrices included
        with np.errstate(invalid="ignore", over="ignore"):
            gram = np.linalg.norm(np.conj(np.swapaxes(mats[gens], 1, 2)) @ mats[gens] - np.eye(u.dim), axis=(1, 2))
        for a, res in zip(gens, gram):
            if not res <= tol.unitary_fro and not is_unitary(mats[a], tol):
                return ("unitary", a), float(res)
        unit = float(gram.max(initial=0.0))
    if not np.isfinite(mats).all():
        raise ValueError("representation matrices contain NaN or Inf entries")
    rhs = u.cocycle.values[gens][:, :, None, None] * mats[g.mul[gens]]
    resid = np.linalg.norm(mats[gens][:, None] @ mats - rhs, axis=(2, 3))
    bound = tol.recon_fro * np.maximum(1.0, np.linalg.norm(rhs, axis=(2, 3)))
    residual = max(ident, unit, float(resid.max(initial=0.0)))
    hits = np.argwhere(g.max_word_length * resid > bound)
    if hits.size:
        return ("product", gens[hits[0, 0]], int(hits[0, 1])), residual
    return None, residual


def rep_violation(u: MultiplierRep, tol: Tolerances = DEFAULT_TOL):
    """First violated representation identity, or None (:func:`rep_status`)."""
    return rep_status(u, tol)[0]


def validate_rep(u: MultiplierRep, tol: Tolerances = DEFAULT_TOL) -> bool:
    if not validate_cocycle(u.cocycle, tol):
        return False
    return rep_violation(u, tol) is None


# ---------------------------------------------------------------------------
# irreducible decomposition
# ---------------------------------------------------------------------------


@record
class IrrepBlock:
    """One irreducible component of a decomposition: its label, dimension,
    multiplicity and aligned representative."""

    label: str
    dim: int
    multiplicity: int
    rep: MultiplierRep  # the aligned irreducible representative


@record
class IrrepDecomposition:
    """V^+ U(g) V = direct sum over blocks of tau_g (x) I_mult."""

    rep: MultiplierRep
    blocks: tuple[IrrepBlock, ...]
    basis: np.ndarray  # the change-of-basis unitary V

    def assembled(self) -> np.ndarray:
        """The block-diagonal matrices the decomposition asserts for the
        U(g), stacked over g: tau_g (x) I_mult, block after block."""
        order, n = self.rep.group.order, self.basis.shape[1]
        out = np.zeros((order, n, n), dtype=np.complex128)
        pos = 0
        for blk in self.blocks:
            size = blk.dim * blk.multiplicity
            kron = blk.rep.matrices[:, :, None, :, None] * np.eye(blk.multiplicity)[:, None, :]
            out[:, pos : pos + size, pos : pos + size] = kron.reshape(order, size, size)
            pos += size
        return out


def _group_average_commutant(u: MultiplierRep, rng) -> np.ndarray:
    n = u.dim
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (h + h.conj().T)
    return (u.matrices @ h @ u.matrices.conj().transpose(0, 2, 1)).sum(axis=0) / u.group.order


def _compressed(u: MultiplierRep, cols: np.ndarray) -> np.ndarray:
    """The stack of cols^+ U(g) cols over g."""
    return cols.conj().T @ u.matrices @ cols


def _character(u: MultiplierRep, basis_cols: np.ndarray) -> np.ndarray:
    """Characters of the subrepresentation on the span of basis_cols."""
    return np.trace(_compressed(u, basis_cols), axis1=1, axis2=2)


def _schur_intertwiner(u: MultiplierRep, p_from: np.ndarray, p_to: np.ndarray, rng):
    """Unitary W with (restriction on p_to)(g) W = W (restriction on p_from)(g),
    or None if the two irreducible pieces are inequivalent."""
    d = p_from.shape[1]
    t0 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = _compressed(u, p_from)
    acc = (_compressed(u, p_to) @ t0 @ b.conj().transpose(0, 2, 1)).sum(axis=0) / u.group.order
    nrm = frob(acc)
    if nrm < 1e-8:
        return None
    # Schur: acc is a scalar multiple of a unitary
    scale = np.sqrt(np.trace(acc.conj().T @ acc).real / d)
    return acc / scale


# Random commutant elements irrep_decompose tries before it gives up: the
# eigenspaces of one are irreducible with probability one, so a retry only
# guards against eigenvalues that fall within the clustering cutoff.
_REFINE_TRIES = 8


def irrep_decompose(u: MultiplierRep, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> IrrepDecomposition:
    """Decompose a unitary multiplier representation into irreducibles.

    Randomized but deterministic for a fixed seed: a random Hermitian element
    of the commutant is produced by group averaging, its eigenspaces refine
    into irreducible invariant subspaces, equivalent pieces are detected by
    character comparison and aligned with explicit Schur intertwiners.
    """
    if not u.unitary_flag or not validate_rep(u, tol):
        raise ValueError("irrep_decompose needs a validated unitary representation")
    rng = np.random.default_rng(seed)
    n = u.dim
    order = u.group.order

    for _ in range(_REFINE_TRIES):
        w, v = np.linalg.eigh(_group_average_commutant(u, rng))
        # cluster eigenvalues
        pieces = np.split(v, np.flatnonzero(np.diff(w) > 1e-7 * max(1.0, abs(w).max())) + 1, axis=1)
        # each piece must be irreducible: |character|^2 averages to 1
        chars = [_character(u, p) for p in pieces]
        if not any(abs(np.vdot(chi, chi) / order - 1.0) > 1e-6 for chi in chars):
            break
    else:
        raise RuntimeError("irreducible refinement failed; try another seed")

    # group equivalent pieces by characters
    classes: list[dict] = []
    for p, chi in zip(pieces, chars):
        for cls in classes:
            if p.shape[1] == cls["dim"] and frob(chi - cls["chi"]) < 1e-6 * order:
                cls["pieces"].append(p)
                break
        else:
            classes.append({"dim": p.shape[1], "chi": chi, "pieces": [p]})
    def class_key(c):
        chi = np.round(c["chi"], 6)
        return (c["dim"], tuple(zip(-chi.real, -chi.imag)))

    classes.sort(key=class_key)

    blocks, columns = [], []
    counter: dict[int, int] = {}
    for cls in classes:
        d = cls["dim"]
        rep_piece = cls["pieces"][0]
        aligned = [rep_piece]
        for p in cls["pieces"][1:]:
            wmat = _schur_intertwiner(u, rep_piece, p, rng)
            if wmat is None:
                raise RuntimeError("character match without an intertwiner")
            aligned.append(p @ wmat)
        mult = len(aligned)
        tau = MultiplierRep(u.group, u.cocycle, _compressed(u, rep_piece))
        idx = counter.get(d, 0)
        counter[d] = idx + 1
        blocks.append(IrrepBlock(f"{d}d-{idx}", d, mult, tau))
        # basis ordered so the block matrix is tau_g (x) I_mult: column i * mult + l is aligned[l][:, i]
        columns.append(np.stack(aligned, axis=2).reshape(n, d * mult))

    basis = np.concatenate(columns, axis=1)
    decomp = IrrepDecomposition(u, tuple(blocks), basis)
    # certify the block equation
    err = np.linalg.norm(_compressed(u, basis) - decomp.assembled(), axis=(1, 2))
    bad = np.flatnonzero(err > tol.recon_fro * max(1.0, np.sqrt(n)))
    if bad.size:
        raise RuntimeError(f"block equation residual {err[bad[0]]:.2e} at g={bad[0]}")
    return decomp


# ---------------------------------------------------------------------------
# discrete Weyl-Heisenberg system
# ---------------------------------------------------------------------------


def heisenberg_rep(d: int):
    """Clock-and-shift system on C^d over the group Z_d x Z_d.

    Returns ``(group, cocycle, rep)`` where element (q, p) has index
    q*d + p, the matrices are W(q, p) = X^q Z^p with X the cyclic shift
    (X e_j = e_{j-1}) and Z = diag(omega^j), and the cocycle satisfies
    W(v) W(v') = c(v, v') W(v + v').
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    group = FiniteGroup.direct_product(FiniteGroup.cyclic(d), FiniteGroup.cyclic(d))
    omega = np.exp(2j * np.pi / d)
    j = np.arange(d)
    # X^q Z^p as one stacked product of the permutations X^q and the powers
    # of Z from matrix_power: its zeros carry the signs the BLAS product
    # gives them, and the documents print those (-0.0), so the entries of
    # Z^p are not scattered
    shifts = np.eye(d, dtype=np.complex128)[(j[:, None] + j) % d]
    z = np.diag(omega ** j)
    zpow = np.stack([np.linalg.matrix_power(z, p) for p in range(d)])
    mats = shifts[:, None] @ zpow
    q, p = np.divmod(np.arange(d * d), d)
    cocycle = TwoCocycle(group, omega ** ((-q * p[:, None]) % d))
    rep = MultiplierRep(group, cocycle, mats.reshape(d * d, d, d))
    return group, cocycle, rep
