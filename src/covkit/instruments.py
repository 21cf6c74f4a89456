"""Quantum observables and instruments on a finite homogeneous space with
multiplier symmetry: Naimark dilations, imprimitivity cocycles, the
block-operator structure of covariant observables, the Kraus-family
structure of covariant instruments, the square-integrable specialization,
the discrete phase-space construction, and an outcome sampler.

Outcome spaces are coset spaces of a finite group.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cpmaps import CPMapSpec, CPSymmetry, cp_extremal, kraus_from_choi, ksgns
from .cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from .fingroup import (
    FiniteGroup,
    GroupAction,
    MultiplierRep,
    SubgroupData,
    TwoCocycle,
    heisenberg_rep,
    irrep_decompose,
)
from .kernels import (
    Check,
    Checks,
    CovariantKernelSpec,
    DilationResidualError,
    ExtremalityCertificate,
    _certify_commutant,
    _hermitian_witness,
)
from .numlin import (
    DEFAULT_TOL,
    DimensionError,
    Tolerances,
    constrained_commutant,
    frob,
    is_unitary,
    lstsq_define,
    offsets,
    psd_check,
    psd_factor,
    psd_status,
    rank,
)


@dataclass(frozen=True)
class Symmetry:
    """Transitive outcome symmetry: a subgroup with its coset space, the
    module representation on the system space, and for instruments the
    representation on the output space."""

    sub: SubgroupData
    rep: MultiplierRep
    out_rep: MultiplierRep | None = None
    action: GroupAction = field(init=False, default=None)

    def __post_init__(self):
        if self.rep.group.order != self.sub.parent.order:
            raise DimensionError("representation and subgroup use different groups")
        if self.out_rep is not None and self.out_rep.group.order != self.sub.parent.order:
            raise DimensionError("output representation uses a different group")
        object.__setattr__(self, "action", self.sub.coset_action())

    @property
    def group(self) -> FiniteGroup:
        return self.sub.parent

    @property
    def n_outcomes(self) -> int:
        return self.sub.n_cosets


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservableSpec:
    """Effects indexed by the coset space, summing to the identity and
    permuted by the symmetry."""

    effects: np.ndarray  # (n_outcomes, V, V)
    symmetry: Symmetry

    def __post_init__(self):
        effects = np.asarray(self.effects, dtype=np.complex128)
        object.__setattr__(self, "effects", effects)
        v = self.symmetry.rep.dim
        if effects.shape != (self.symmetry.n_outcomes, v, v):
            raise DimensionError("effects must be (n_outcomes, V, V)")

    @property
    def v_dim(self) -> int:
        return self.symmetry.rep.dim

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]


def validate_observable(spec: ObservableSpec, tol: Tolerances = DEFAULT_TOL) -> Checks:
    checks = Checks(effects_psd=Check(*psd_status(spec.effects, tol)))
    total = spec.effects.sum(axis=0)
    res = frob(total - np.eye(spec.v_dim))
    checks["normalization"] = Check(res <= tol.recon_fro * max(1.0, np.sqrt(spec.v_dim)), res)
    sym = spec.symmetry
    worst = 0.0
    for g in sym.group.elements():
        ug = sym.rep(g)
        for w in range(spec.n_outcomes):
            lhs = ug @ spec.effects[w] @ ug.conj().T
            worst = max(worst, frob(lhs - spec.effects[sym.action.apply(g, w)]))
    checks["covariance"] = Check(worst <= tol.recon_fro * max(1.0, np.sqrt(spec.v_dim)), worst)
    return checks


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstrumentSpec:
    """Per-outcome completely positive maps stored as Choi blocks.

    ``choi[w]`` is the (K*V) x (K*V) block matrix with (b, d) block equal to
    the outcome map applied to the matrix unit E_{bd} of the output algebra.
    """

    choi: np.ndarray  # (n_outcomes, K*V, K*V)
    symmetry: Symmetry

    def __post_init__(self):
        choi = np.asarray(self.choi, dtype=np.complex128)
        object.__setattr__(self, "choi", choi)
        if self.symmetry.out_rep is None:
            raise DimensionError("instrument symmetry needs an output representation")
        k, v = self.k_dim, self.v_dim
        if choi.shape != (self.symmetry.n_outcomes, k * v, k * v):
            raise DimensionError("choi must be (n_outcomes, K*V, K*V)")

    @property
    def k_dim(self) -> int:
        return self.symmetry.out_rep.dim

    @property
    def v_dim(self) -> int:
        return self.symmetry.rep.dim

    @property
    def n_outcomes(self) -> int:
        return self.choi.shape[0]

    def outcome_map(self, w, bmat) -> np.ndarray:
        """Heisenberg-picture outcome map applied to an output operator."""
        k, v = self.k_dim, self.v_dim
        c4 = self.choi[w].reshape(k, v, k, v)
        return np.einsum("bd,bvdw->vw", np.asarray(bmat, dtype=np.complex128), c4)

    def outcome_kraus(self, w, tol: Tolerances = DEFAULT_TOL):
        return kraus_from_choi(self.choi[w], self.k_dim, self.v_dim, tol)

    def predual(self, w, rho) -> np.ndarray:
        """Subnormalized post-measurement state for outcome ``w``."""
        ops = self.outcome_kraus(w)
        out = np.zeros((self.k_dim, self.k_dim), dtype=np.complex128)
        for b in ops:
            out += b @ rho @ b.conj().T
        return out


def choi_from_kraus(ops, k_dim, v_dim) -> np.ndarray:
    out = np.zeros((k_dim * v_dim, k_dim * v_dim), dtype=np.complex128)
    for b in ops:
        z = b.conj().reshape(-1)
        out += np.outer(z, z.conj())
    return out


def validate_instrument(spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL) -> Checks:
    k, v = spec.k_dim, spec.v_dim
    checks = Checks(outcomes_cp=Check(*psd_status(spec.choi, tol)))
    total = sum(spec.outcome_map(w, np.eye(k)) for w in range(spec.n_outcomes))
    res = frob(total - np.eye(v))
    checks["normalization"] = Check(res <= tol.recon_fro * max(1.0, np.sqrt(v)), res)
    sym = spec.symmetry
    worst = 0.0
    for g in sym.group.elements():
        # W_g C_w W_g^+ - C_{gw} for every outcome w
        wg = np.kron(sym.out_rep(g).conj(), sym.rep(g))
        diff = wg @ spec.choi @ wg.conj().T - spec.choi[sym.action.table[g]]
        worst = max(worst, float(np.linalg.norm(diff, axis=(1, 2)).max()))
    scale = max(1.0, float(np.abs(spec.choi).max()) * k * v)
    checks["covariance"] = Check(worst <= tol.recon_fro * scale, worst)
    return checks


def marginal_observable(spec: InstrumentSpec) -> ObservableSpec:
    effects = np.stack(
        [spec.outcome_map(w, np.eye(spec.k_dim)) for w in range(spec.n_outcomes)]
    )
    sym = spec.symmetry
    return ObservableSpec(effects, Symmetry(sym.sub, sym.rep))


def marginal_channel(spec: InstrumentSpec) -> CPMapSpec:
    alg = FiniteCStarAlgebra.full(spec.k_dim)
    values = np.stack(
        [
            sum(spec.outcome_map(w, u) for w in range(spec.n_outcomes))
            for u in alg.units()
        ]
    )
    symmetry = CPSymmetry(u=spec.symmetry.out_rep, rep=spec.symmetry.rep)
    return CPMapSpec(alg, ModuleSpace(k=1, n_v=spec.v_dim), values, symmetry)


def as_cpmap(spec: InstrumentSpec) -> CPMapSpec:
    """The instrument as a covariant CP map on output-algebra (x) functions
    on the outcome space, with the block-permuting inner implementation."""
    sym = spec.symmetry
    k, v, n = spec.k_dim, spec.v_dim, spec.n_outcomes
    split = TensorSplit(FiniteCStarAlgebra.full(k), FiniteCStarAlgebra.commutative(n))
    values = np.zeros((split.algebra.n_units, v, v), dtype=np.complex128)
    for kk, (i, a, b) in enumerate(split.algebra.unit_index()):
        unit = np.zeros((k, k), dtype=np.complex128)
        unit[a, b] = 1.0
        values[kk] = spec.outcome_map(i, unit)
    perm_rep = MultiplierRep.from_action(sym.action)
    mats = np.stack(
        [np.kron(perm_rep(g), sym.out_rep(g)) for g in sym.group.elements()]
    )
    u_total = MultiplierRep(sym.group, sym.out_rep.cocycle, mats)
    return CPMapSpec(
        split.algebra,
        ModuleSpace(k=1, n_v=v),
        values,
        CPSymmetry(u=u_total, rep=sym.rep, u_factors=(sym.out_rep, perm_rep)),
        tensor=split,
    )


def instrument_from_cpmap(cp_spec: CPMapSpec, symmetry: Symmetry) -> InstrumentSpec:
    """Inverse of :func:`as_cpmap` for specs over the same tensor split."""
    k, v = symmetry.out_rep.dim, symmetry.rep.dim
    n = symmetry.n_outcomes
    choi = np.zeros((n, k * v, k * v), dtype=np.complex128)
    for kk, (i, a, b) in enumerate(cp_spec.algebra.unit_index()):
        choi[i][a * v : (a + 1) * v, b * v : (b + 1) * v] = cp_spec.values[kk]
    return InstrumentSpec(choi, symmetry)


# ---------------------------------------------------------------------------
# Naimark dilation and decomposable operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
    checks: Checks = field(default_factory=Checks)

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


def naimark(spec: ObservableSpec, tol: Tolerances = DEFAULT_TOL) -> NaimarkData:
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
    return replace(data, checks=checks)


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


@dataclass(frozen=True)
class DecomposableOp:
    """Operator on a direct sum of fibers moving fiber T^{-1}(w) to fiber w
    by the block ``blocks[w]``."""

    perm: tuple[int, ...]  # w -> T(w)
    fiber_dims: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]  # blocks[w]: fiber T^{-1}(w) -> fiber w

    def assemble(self) -> np.ndarray:
        offs = offsets(self.fiber_dims)
        inv = {self.perm[w]: w for w in range(len(self.perm))}
        out = np.zeros((offs[-1], offs[-1]), dtype=np.complex128)
        for w in range(len(self.perm)):
            src = inv[w]
            out[offs[w] : offs[w + 1], offs[src] : offs[src + 1]] = self.blocks[w]
        return out

    def is_unitary_op(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        if any(b.shape[0] != b.shape[1] for b in self.blocks):
            return False
        return all(is_unitary(b, tol) for b in self.blocks if b.size)


def decomposable_extract(
    op: np.ndarray, perm, fiber_dims, tol: Tolerances = DEFAULT_TOL
) -> DecomposableOp:
    """Read the fiber blocks off an operator intertwining the fiber
    projections with a permutation of the outcome set; rejects operators
    violating the intertwining, reporting the worst outcome."""
    perm = tuple(int(p) for p in perm)
    fiber_dims = tuple(int(m) for m in fiber_dims)
    offs = offsets(fiber_dims)
    pos = int(offs[-1])
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (pos, pos):
        raise DimensionError("operator does not match the fiber layout")
    inv = {perm[w]: w for w in range(len(perm))}

    # intertwining with every singleton indicator
    worst, worst_w = 0.0, None
    for w in range(len(perm)):
        p_w = np.zeros((pos, pos))
        p_w[offs[w] : offs[w + 1], offs[w] : offs[w + 1]] = np.eye(fiber_dims[w])
        p_tw = np.zeros((pos, pos))
        tw = perm[w]
        p_tw[offs[tw] : offs[tw + 1], offs[tw] : offs[tw + 1]] = np.eye(fiber_dims[tw])
        res = frob(op @ p_w - p_tw @ op)
        if res > worst:
            worst, worst_w = res, w
    if worst > tol.recon_fro * max(1.0, frob(op)):
        raise DilationResidualError(
            f"operator is not decomposable over the permutation; worst outcome {worst_w}"
            f" with residual {worst:.2e}"
        )

    blocks = []
    for w in range(len(perm)):
        src = inv[w]
        blocks.append(op[offs[w] : offs[w + 1], offs[src] : offs[src + 1]].copy())
    out = DecomposableOp(perm, fiber_dims, tuple(blocks))

    # adjoint identity: the adjoint's block at w equals blocks[T(w)]^+
    adj = op.conj().T
    worst_adj = 0.0
    for w in range(len(perm)):
        tw = perm[w]
        blk = adj[offs[w] : offs[w + 1], offs[tw] : offs[tw + 1]]
        worst_adj = max(worst_adj, frob(blk - out.blocks[tw].conj().T))
    if worst_adj > tol.recon_fro * max(1.0, frob(op)):
        raise DilationResidualError("adjoint block identity failed")
    return out


# ---------------------------------------------------------------------------
# Wigner rotations and the canonical imprimitivity system
# ---------------------------------------------------------------------------


def wigner_rotation(rho: MultiplierRep, sub: SubgroupData) -> dict:
    """Strict cocycle (g, w) -> rho at s(w)^{-1} g s(g^{-1} w).

    ``rho`` is a representation of the subgroup as a group in its own right
    (indices along ``sub.members``); the result maps pairs to matrices and
    satisfies the strict cocycle identities exhaustively when rho is an
    ordinary representation.
    """
    g = sub.parent
    act = sub.coset_action()
    pos = {m: i for i, m in enumerate(sub.members)}
    table = {}
    for a in g.elements():
        for w in range(sub.n_cosets):
            target = act.apply(g.inv(a), w)
            h = g.prod(g.inv(sub.section[w]), g.prod(a, sub.section[target]))
            table[(a, w)] = rho(pos[h])
    return table


@dataclass(frozen=True)
class CanonicalSystem:
    """Canonical imprimitivity system induced from a subgroup representation:
    the function space with the equivariance constraint, the translation
    representation, the outcome projections, and the unitary onto the
    product picture carrying the translation into the Wigner cocycle form."""

    sub: SubgroupData
    rho: MultiplierRep
    dim: int
    theta: np.ndarray  # (|G|, dim, dim)
    projections: np.ndarray  # (n_cosets, dim, dim)
    to_product: np.ndarray  # unitary onto C^{n_cosets * dim(rho)}
    wigner: dict

    def induced_block_matrix(self, g) -> np.ndarray:
        """The induced form: block at (w, g^{-1} w) is the Wigner cocycle."""
        act = self.sub.coset_action()
        m = self.rho.dim
        n = self.sub.n_cosets
        out = np.zeros((n * m, n * m), dtype=np.complex128)
        for w in range(n):
            src = act.apply(self.sub.parent.inv(g), w)
            out[w * m : (w + 1) * m, src * m : (src + 1) * m] = self.wigner[(g, w)]
        return out


def canonical_system(
    rho: MultiplierRep, sub: SubgroupData, tol: Tolerances = DEFAULT_TOL
) -> CanonicalSystem:
    """Build the canonical system concretely on equivariant functions.

    Requires an ordinary (trivial-cocycle) subgroup representation; the
    function space has one rho-block of coordinates per coset, translation
    acts by the regular permutation compressed to the space, and the
    identification with the product picture is certified to carry the
    translation representation onto the Wigner-cocycle form and the
    projections onto the coordinate blocks.
    """
    if not rho.cocycle.is_trivial():
        raise ValueError("canonical system needs an ordinary subgroup representation")
    g = sub.parent
    m = rho.dim
    n = sub.n_cosets
    dim = n * m
    pos = {mem: i for i, mem in enumerate(sub.members)}

    # embedding of the equivariant functions into all functions G -> C^m
    embed = np.zeros((g.order * m, dim), dtype=np.complex128)
    for w in range(n):
        s_w = sub.section[w]
        for mem in sub.members:
            gg = g.prod(s_w, mem)
            block = rho(pos[mem]).conj().T  # value at s(w) h is rho(h)^+ e_i
            embed[gg * m : (gg + 1) * m, w * m : (w + 1) * m] = block
    embed /= np.sqrt(len(sub.members))

    theta = np.zeros((g.order, dim, dim), dtype=np.complex128)
    for a in g.elements():
        big = np.zeros((g.order * m, g.order * m), dtype=np.complex128)
        for x in g.elements():
            y = g.prod(a, x)
            big[y * m : (y + 1) * m, x * m : (x + 1) * m] = np.eye(m)
        moved = big @ embed
        theta[a] = embed.conj().T @ moved
        if frob(moved - embed @ theta[a]) > tol.recon_fro * max(1.0, np.sqrt(dim)):
            raise DilationResidualError("function space is not translation invariant")

    projections = np.zeros((n, dim, dim), dtype=np.complex128)
    for w in range(n):
        big = np.zeros((g.order * m, g.order * m), dtype=np.complex128)
        for x in g.elements():
            if sub.project(x) == w:
                big[x * m : (x + 1) * m, x * m : (x + 1) * m] = np.eye(m)
        projections[w] = embed.conj().T @ big @ embed

    wigner = wigner_rotation(rho, sub)
    to_product = np.eye(dim, dtype=np.complex128)  # section coordinates
    system = CanonicalSystem(sub, rho, dim, theta, projections, to_product, wigner)

    worst = max(
        frob(system.theta[a] - system.induced_block_matrix(a)) for a in g.elements()
    )
    if worst > tol.recon_fro * max(1.0, np.sqrt(dim)):
        raise DilationResidualError(
            f"canonical translation does not match the induced cocycle form ({worst:.2e})"
        )
    # imprimitivity relation
    act = sub.coset_action()
    worst = 0.0
    for a in g.elements():
        for w in range(n):
            lhs = system.theta[a] @ system.projections[w] @ system.theta[a].conj().T
            worst = max(worst, frob(lhs - system.projections[act.apply(a, w)]))
    if worst > tol.recon_fro * max(1.0, np.sqrt(dim)):
        raise DilationResidualError("imprimitivity relation failed")
    return system


# ---------------------------------------------------------------------------
# block-operator structure of covariant observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovariantObservableData:
    """Structure data of a covariant observable: the base-fiber subgroup
    representation and one block operator per orthonormal direction of each
    irreducible component of the module representation, normalized so each
    component's blocks resolve the identity on the multiplicity space."""

    sub: SubgroupData
    rho: MultiplierRep  # of the subgroup-as-group, on the base fiber
    decomposition: object  # IrrepDecomposition of the module representation
    lambda_blocks: tuple  # per decomposition block, tuple of (m0, mult) arrays

    @property
    def base_dim(self) -> int:
        return self.rho.dim

    def weights(self) -> list[float]:
        g_order = self.sub.parent.order
        h_order = len(self.sub.members)
        return [
            np.sqrt(blk.dim * h_order / g_order) for blk in self.decomposition.blocks
        ]

    def assembled_map(self) -> np.ndarray:
        """The total map from the module space to the base fiber."""
        cols = []
        for blk, ops, c in zip(
            self.decomposition.blocks, self.lambda_blocks, self.weights()
        ):
            cols.append(c * np.hstack(list(ops)))
        raw = np.hstack(cols)
        return raw @ self.decomposition.basis.conj().T


def validate_observable_data(
    data: CovariantObservableData, tol: Tolerances = DEFAULT_TOL
) -> Checks:
    worst = 0.0
    for blk, ops in zip(data.decomposition.blocks, data.lambda_blocks):
        total = sum(op.conj().T @ op for op in ops)
        worst = max(worst, frob(total - np.eye(blk.multiplicity)))
    checks = Checks(block_normalization=Check(worst <= 1e-7, worst))

    lam = data.assembled_map()
    checks["totality"] = Check(rank(lam, tol) == data.base_dim, 0.0)

    u = data.decomposition.rep
    pos = {m: i for i, m in enumerate(data.sub.members)}
    worst = 0.0
    for mem in data.sub.members:
        worst = max(worst, frob(lam @ u(mem) - data.rho(pos[mem]) @ lam))
    checks["subgroup_intertwining"] = Check(worst <= tol.recon_fro * max(1.0, frob(lam)), worst)
    return checks


def observable_from_lambda(
    data: CovariantObservableData, tol: Tolerances = DEFAULT_TOL
) -> ObservableSpec:
    """Effects from the block-operator data: compress the base-fiber map
    transported along the section.  Averaging over the subgroup is
    certified unnecessary thanks to the intertwining property."""
    report = validate_observable_data(data, tol)
    if not report.ok:
        raise ValueError(f"observable data invalid: {report.failed()}")
    sub = data.sub
    u = data.decomposition.rep
    lam = data.assembled_map()
    effects = []
    for w in range(sub.n_cosets):
        a_w = lam @ u(sub.section[w]).conj().T
        effects.append(a_w.conj().T @ a_w)
    effects = np.stack(effects)

    # section-independence certificate: average over the whole coset
    worst = 0.0
    members = sub.members
    for w in range(sub.n_cosets):
        acc = np.zeros_like(effects[w])
        for mem in members:
            gg = sub.parent.prod(sub.section[w], mem)
            a_g = lam @ u(gg).conj().T
            acc += a_g.conj().T @ a_g
        worst = max(worst, frob(acc / len(members) - effects[w]))
    if worst > tol.recon_fro * max(1.0, frob(lam) ** 2):
        raise DilationResidualError("effects depend on the section inside cosets")

    spec = ObservableSpec(effects, Symmetry(sub, u))
    val = validate_observable(spec, tol)
    if not val.ok:
        raise DilationResidualError(f"reconstructed observable invalid: {val.failed()}")
    return spec


def lambda_from_observable(
    spec: ObservableSpec, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> CovariantObservableData:
    """Extract the block-operator data: dilate, identify the base fiber with
    the canonical picture, evaluate at the identity coset, and split along
    the irreducible decomposition of the module representation."""
    sym = spec.symmetry
    naim = naimark(spec, tol)
    lam_raw = naim.factors[0]  # evaluation at the identity coset
    m0 = naim.fiber_dims[0]
    pos_members = list(sym.sub.members)
    hgrp = sym.sub.subgroup_group()
    cvals = sym.rep.cocycle.values[np.ix_(pos_members, pos_members)]
    rho = MultiplierRep(
        hgrp,
        TwoCocycle(hgrp, cvals),
        np.stack([naim.cocycle_blocks[mem][0] for mem in pos_members])
        if m0
        else np.zeros((len(pos_members), 0, 0)),
    )
    decomp = irrep_decompose(sym.rep, seed=seed, tol=tol)
    lam_rot = lam_raw @ decomp.basis
    g_order, h_order = sym.group.order, len(sym.sub.members)
    blocks, offset = [], 0
    for blk in decomp.blocks:
        c = np.sqrt(blk.dim * h_order / g_order)
        ops = []
        for j in range(blk.dim):
            ops.append(
                lam_rot[:, offset + j * blk.multiplicity : offset + (j + 1) * blk.multiplicity]
                / c
            )
        blocks.append(tuple(ops))
        offset += blk.dim * blk.multiplicity
    data = CovariantObservableData(sym.sub, rho, decomp, tuple(blocks))
    rebuilt = observable_from_lambda(data, tol)
    worst = max(
        frob(rebuilt.effects[w] - spec.effects[w]) for w in range(spec.n_outcomes)
    )
    if worst > tol.recon_fro * max(1.0, np.sqrt(spec.v_dim)):
        raise DilationResidualError(f"round-trip reconstruction residual {worst:.2e}")
    return data


def observable_extremal(
    data: CovariantObservableData, tol: Tolerances = DEFAULT_TOL
) -> ExtremalityCertificate:
    """Extremality of the covariant observable encoded by the block data:
    directions on the base fiber commuting with the subgroup representation
    and compressed to zero by every component's blocks certify splits.  The
    commutant is solved over a generating set of the subgroup and re-checked
    against all of it."""
    generators = [data.rho(s) for s in data.rho.group.generators()]
    constraints = []
    for blk, ops in zip(data.decomposition.blocks, data.lambda_blocks):
        for a in range(blk.multiplicity):
            for b in range(blk.multiplicity):
                c = sum(np.outer(op[:, a], op[:, b].conj()) for op in ops)
                constraints.append(c)
    basis = constrained_commutant(
        generators, constraints, hermitian_only=False, dim=data.base_dim, tol=tol
    )
    _certify_commutant(basis, data.rho.matrices, tol)
    if not basis:
        return ExtremalityCertificate(True, None, None, 0)
    witness = _hermitian_witness(basis, tol)
    if witness is None:
        return ExtremalityCertificate(True, None, None, len(basis))

    u = data.decomposition.rep
    lam = data.assembled_map()
    eye = np.eye(data.base_dim)
    neighbours = []
    for sign in (+1.0, -1.0):
        effects = []
        for w in range(data.sub.n_cosets):
            a_w = lam @ u(data.sub.section[w]).conj().T
            effects.append(a_w.conj().T @ (eye + sign * witness) @ a_w)
        neighbours.append(ObservableSpec(np.stack(effects), Symmetry(data.sub, u)))
    return ExtremalityCertificate(False, witness, tuple(neighbours), len(basis))


def observable_kernel_form(spec: ObservableSpec):
    """The observable as a covariant kernel over the outcomes plus one fixed
    total point; extremality with the total entry pinned is the kernel-level
    route to observable extremality."""
    sym = spec.symmetry
    n, v = spec.n_outcomes, spec.v_dim
    table = np.zeros((sym.group.order, n + 1), dtype=np.int64)
    table[:, :n] = sym.action.table
    table[:, n] = n  # the total point is fixed
    action = GroupAction(sym.group, table)
    blocks = np.zeros((n + 1, n + 1, v, v), dtype=np.complex128)
    for w in range(n):
        blocks[w, w] = spec.effects[w]
        blocks[n, w] = spec.effects[w]
        blocks[w, n] = spec.effects[w]
    blocks[n, n] = np.eye(v)
    kernel = CovariantKernelSpec(
        action=action,
        alpha=np.ones((sym.group.order, n + 1), dtype=np.complex128),
        sigma=TwoCocycle.trivial(sym.group),
        rep=sym.rep,
        module=ModuleSpace(k=1, n_v=v),
        blocks=blocks,
    )
    return kernel, [(n, n)]


# ---------------------------------------------------------------------------
# covariant instruments: Kraus-family structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovariantInstrumentData:
    """The Kraus family generating a covariant instrument from the identity
    coset."""

    b_ops: tuple  # operators K x V


class StructureViolation(ValueError):
    """The Kraus family violates the subgroup-invariance or normalization
    condition; carries the worst offender."""

    def __init__(self, message, worst):
        super().__init__(message)
        self.worst = worst


def check_b_family(
    data: CovariantInstrumentData, symmetry: Symmetry, tol: Tolerances = DEFAULT_TOL
):
    """Exhaustive check of subgroup invariance and total normalization."""
    sub, u, rep = symmetry.sub, symmetry.out_rep, symmetry.rep
    k = u.dim
    alg = FiniteCStarAlgebra.full(k)
    worst_inv = 0.0
    for mem in sub.members:
        for unit in alg.units():
            lhs = sum(
                b.conj().T @ u(mem).conj().T @ unit @ u(mem) @ b for b in data.b_ops
            )
            rhs = sum(
                (b @ rep(mem)).conj().T @ unit @ (b @ rep(mem)) for b in data.b_ops
            )
            worst_inv = max(worst_inv, frob(lhs - rhs))
    total = np.zeros((rep.dim, rep.dim), dtype=np.complex128)
    for w in range(sub.n_cosets):
        us = rep(sub.section[w])
        for b in data.b_ops:
            total += us @ b.conj().T @ b @ us.conj().T
    worst_norm = frob(total - np.eye(rep.dim))
    return worst_inv, worst_norm


def instrument_from_B(
    data: CovariantInstrumentData, symmetry: Symmetry, tol: Tolerances = DEFAULT_TOL
) -> InstrumentSpec:
    """Assemble the covariant instrument generated by a Kraus family: the
    outcome at each coset uses the section-transported operators.  The
    invariance and normalization conditions are enforced first and
    independence from the section choice is certified."""
    worst_inv, worst_norm = check_b_family(data, symmetry, tol)
    scale = max(1.0, sum(frob(b) ** 2 for b in data.b_ops))
    if worst_inv > tol.recon_fro * scale:
        raise StructureViolation(
            f"subgroup invariance fails (worst {worst_inv:.2e})", worst_inv
        )
    if worst_norm > tol.recon_fro * max(1.0, np.sqrt(symmetry.rep.dim)):
        raise StructureViolation(
            f"total normalization fails (worst {worst_norm:.2e})", worst_norm
        )
    sub, u, rep = symmetry.sub, symmetry.out_rep, symmetry.rep
    k, v = u.dim, rep.dim

    def choi_at(section):
        out = np.zeros((sub.n_cosets, k * v, k * v), dtype=np.complex128)
        for w in range(sub.n_cosets):
            g_w = section[w]
            ops = [u(g_w) @ b @ rep(g_w).conj().T for b in data.b_ops]
            out[w] = choi_from_kraus(ops, k, v)
        return out

    choi = choi_at(sub.section)
    spec = InstrumentSpec(choi, symmetry)
    report = validate_instrument(spec, tol)
    if not report.ok:
        raise DilationResidualError(f"assembled instrument invalid: {report.failed()}")

    # section independence: shift every section point inside its coset
    members = list(sub.members)
    shifted = [
        sub.parent.prod(sub.section[w], members[(w + 1) % len(members)])
        for w in range(sub.n_cosets)
    ]
    res = max(
        frob(a - b) for a, b in zip(choi_at(shifted), choi)
    )
    if res > tol.recon_fro * max(1.0, float(np.abs(choi).max()) * k * v):
        raise DilationResidualError(f"section dependence detected ({res:.2e})")
    return spec


def B_from_instrument(
    spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL
) -> CovariantInstrumentData:
    """Extract a Kraus family from the identity-coset outcome; the subgroup
    invariance follows from covariance and the normalization from the
    instrument normalization, both certified, and the reconstruction is
    checked against the original instrument."""
    report = validate_instrument(spec, tol)
    if not report.ok:
        raise ValueError(f"instrument invalid: {report.failed()}")
    ops = kraus_from_choi(spec.choi[0], spec.k_dim, spec.v_dim, tol)
    data = CovariantInstrumentData(tuple(ops))
    rebuilt = instrument_from_B(data, spec.symmetry, tol)
    worst = max(frob(a - b) for a, b in zip(rebuilt.choi, spec.choi))
    if worst > tol.recon_fro * max(1.0, float(np.abs(spec.choi).max()) * spec.k_dim * spec.v_dim):
        raise DilationResidualError(
            f"reconstruction residual {worst:.2e}: instrument covariance is broken"
        )
    return data


def structure_chain_B(spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL):
    """Verification path for the Kraus-family structure through the full
    dilation chain: observable-marginal dilation, instrument dilation, the
    decomposable fiber isometries connecting them, and the base-point
    channel.  Returns operators generating the same instrument."""
    naim = naimark(marginal_observable(spec), tol)
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


def instrument_extremal(
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


# ---------------------------------------------------------------------------
# square integrability and the discrete phase space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqConstantResult:
    ok: bool
    value: float | None
    spread: float


def sq_constant(
    w_rep: MultiplierRep, tol: float = 1e-9, h_order: int = 1
) -> SqConstantResult:
    """The square-integrability constant: the weighted sum over the group of
    squared matrix coefficients, required equal for every pair of unit
    vectors.  Checked exactly through the group twirl on matrix units;
    returns the constant, or the spread on failure."""
    n = w_rep.dim
    twirl = np.zeros((n, n, n, n), dtype=np.complex128)
    for g in w_rep.group.elements():
        m = w_rep(g)
        twirl += np.einsum("ai,bj->ijab", m, m.conj())
    twirl /= h_order
    # twirl[i, j] as an operator must be d * delta_ij * I
    d_est = float(np.real(np.trace(twirl[0, 0])) / n)
    spread = 0.0
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            target = d_est * eye if i == j else np.zeros((n, n))
            spread = max(spread, frob(twirl[i, j] - target))
    ok = spread <= tol * max(1.0, d_est) * n
    return SqConstantResult(ok, d_est if ok else None, spread)


@dataclass(frozen=True)
class SqStructure:
    seed_matrix: np.ndarray  # PSD, trace one
    b_ops: tuple
    constant: float
    checks: Checks


def sq_structure(spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL) -> SqStructure:
    """For an instrument covariant under an irreducible square-integrable
    representation: recover the trace-one seed with constant * sum of
    B_j^+ B_j equal to the seed, commuting with the subgroup restriction,
    and matching observable marginal."""
    sym = spec.symmetry
    sq = sq_constant(sym.rep, h_order=len(sym.sub.members))
    if not sq.ok:
        raise ValueError(f"representation is not square integrable (spread {sq.spread:.2e})")
    d = sq.value
    data = B_from_instrument(spec, tol)
    total = sum(b.conj().T @ b for b in data.b_ops)
    seed = d * total
    checks = Checks().require(
        tol.psd_eig * max(1.0, np.linalg.norm(seed, 2)),
        "recovered seed is not positive",
        positive=psd_status(seed, tol)[1],
    )
    checks.require(tol.recon_fro, "recovered seed is not trace one", trace=abs(np.trace(seed).real - 1.0))
    subgroup_commutant = max(
        (
            frob(seed @ sym.rep(mem) - sym.rep(mem) @ seed)
            for mem in sym.sub.members
        ),
        default=0.0,
    )
    marg = marginal_observable(spec)
    worst = 0.0
    for w in range(spec.n_outcomes):
        us = sym.rep(sym.sub.section[w])
        worst = max(worst, frob(marg.effects[w] - us @ seed @ us.conj().T / d))
    checks.require(
        tol.recon_fro,
        "square-integrable structure failed",
        subgroup_commutant=subgroup_commutant,
        observable_form=worst,
    )
    return SqStructure(seed, data.b_ops, d, checks)


def phase_space(d: int, b_ops, tol: Tolerances = DEFAULT_TOL) -> InstrumentSpec:
    """Covariant phase-space instrument over the d x d discrete phase space.

    ``b_ops`` is a family with d * sum of B_j^+ B_j of unit trace (the seed
    operator divided by the square-integrability constant); the instrument
    translates it by the clock-and-shift system.
    """
    group, cocycle, w0 = heisenberg_rep(d)
    sub = SubgroupData(group, (group.identity,))
    symmetry = Symmetry(sub, rep=w0, out_rep=w0)
    total = sum(np.asarray(b, dtype=np.complex128).conj().T @ b for b in b_ops)
    tr = float(np.trace(total).real) * d
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"seed normalization is {tr:.6f}, expected 1")
    data = CovariantInstrumentData(tuple(np.asarray(b, dtype=np.complex128) for b in b_ops))
    spec = instrument_from_B(data, symmetry, tol)
    effects_total = sum(
        spec.outcome_map(w, np.eye(d)) for w in range(spec.n_outcomes)
    )
    if frob(effects_total - np.eye(d)) > 1e-10 * max(1.0, d):
        raise DilationResidualError("phase-space normalization failed")
    return spec


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleResult:
    outcome: int
    probability: float
    post_state: np.ndarray


def outcome_distribution(spec: InstrumentSpec, state) -> np.ndarray:
    state = np.asarray(state, dtype=np.complex128)
    p = np.array(
        [
            float(np.real(np.trace(state @ spec.outcome_map(w, np.eye(spec.k_dim)))))
            for w in range(spec.n_outcomes)
        ]
    )
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sample(spec: InstrumentSpec, state, rng_seed: int) -> SampleResult:
    """Draw one outcome and the conditional post-measurement state."""
    state = np.asarray(state, dtype=np.complex128)
    if not psd_check(state) or abs(np.trace(state).real - 1.0) > 1e-8:
        raise ValueError("state must be positive with unit trace")
    p = outcome_distribution(spec, state)
    rng = np.random.default_rng(rng_seed)
    w = int(rng.choice(len(p), p=p))
    post = spec.predual(w, state)
    post = post / np.trace(post).real
    return SampleResult(w, float(p[w]), post)


def sample_stream(spec: InstrumentSpec, state, n: int, rng_seed: int):
    """Sequence of outcome draws; the post state is recomputed per outcome."""
    state = np.asarray(state, dtype=np.complex128)
    if not psd_check(state) or abs(np.trace(state).real - 1.0) > 1e-8:
        raise ValueError("state must be positive with unit trace")
    p = outcome_distribution(spec, state)
    rng = np.random.default_rng(rng_seed)
    draws = rng.choice(len(p), size=n, p=p)
    posts = {}
    for w in draws:
        w = int(w)
        if w not in posts:
            post = spec.predual(w, state)
            posts[w] = post / np.trace(post).real
        yield SampleResult(w, float(p[w]), posts[w])
