"""Quantum observables and instruments on a finite homogeneous space with
multiplier symmetry: Naimark dilations, imprimitivity cocycles, the
block-operator structure of covariant observables, the Kraus-family
structure of covariant instruments, the square-integrable specialization,
the discrete phase-space construction, and an outcome sampler.

Outcome spaces are coset spaces of a finite group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpmaps import BlockAction, CPMapSpec, CPSymmetry, KSGNSDilation, kraus_from_choi, ksgns
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
    _revalidate,
)
from .numlin import (
    DEFAULT_TOL,
    DimensionError,
    Tolerances,
    constrained_commutant,
    frob,
    is_unitary,
    offsets,
    psd_check,
    psd_status,
    rank,
    unitary_moves,
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

    def as_instrument(self) -> InstrumentSpec:
        """The observable as the covariant instrument with a trivial
        one-dimensional output: the Choi block of outcome w is E_w."""
        sym = self.symmetry
        return InstrumentSpec(self.effects, Symmetry(sym.sub, sym.rep, MultiplierRep.trivial(sym.group)))


def validate_observable(spec: ObservableSpec, tol: Tolerances = DEFAULT_TOL) -> Checks:
    """Positivity, normalization and covariance of the effects.  Covariance
    is checked at the group's generators and passes if ``max_word_length``
    times its residual is within the bound, as in
    :func:`~covkit.cpmaps.cp_validate`."""
    checks = Checks(effects_psd=Check(*psd_status(spec.effects, tol)))
    total = spec.effects.sum(axis=0)
    res = frob(total - np.eye(spec.v_dim))
    checks["normalization"] = Check(res <= tol.recon_fro * max(1.0, np.sqrt(spec.v_dim)), res)
    # rep(s) E_w rep(s)^+ - E_{sw} for every generator s and outcome w
    sym, gens = spec.symmetry, list(spec.symmetry.group.generators())
    u = sym.rep.matrices[gens, None]
    diff = u @ spec.effects @ u.conj().transpose(0, 1, 3, 2) - spec.effects[sym.action.table[gens]]
    worst = float(np.linalg.norm(diff, axis=(-2, -1)).max(initial=0.0))
    bound = tol.recon_fro * max(1.0, np.sqrt(spec.v_dim))
    checks["covariance"] = Check(sym.group.max_word_length * worst <= bound, worst)
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

    def predual(self, w, rho) -> np.ndarray:
        """Subnormalized post-measurement state for outcome ``w``: sum_l B_l
        rho B_l^+ for any Kraus family of the outcome map, which is
        sum_{v, v'} conj(C_w[(a, v), (c, v')]) rho[v, v'] at (a, c), so no
        factorization is needed."""
        k, v = self.k_dim, self.v_dim
        return np.einsum("avcw,vw->ac", self.choi[w].conj().reshape(k, v, k, v), rho)


def _choi_of(ops) -> np.ndarray:
    """Choi matrices of a stack of Kraus families (..., r, K, V), one per
    family: C[(a, v), (c, w)] = sum_l conj(B_l[a, v]) B_l[c, w]."""
    ops = np.asarray(ops, dtype=np.complex128)
    k, v = ops.shape[-2:]
    choi = np.einsum("...lav,...lcw->...avcw", ops.conj(), ops)
    return choi.reshape(ops.shape[:-3] + (k * v, k * v))


def choi_from_kraus(ops, k_dim, v_dim) -> np.ndarray:
    return _choi_of(np.reshape(ops, (-1, k_dim, v_dim)))


def _effects(spec: InstrumentSpec) -> np.ndarray:
    """The effect of every outcome, its map at the identity: (|X|, V, V)."""
    k, v = spec.k_dim, spec.v_dim
    return np.einsum("wbvbx->wvx", spec.choi.reshape(-1, k, v, k, v))


def validate_instrument(spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL) -> Checks:
    """Complete positivity, normalization and covariance of the outcome
    maps.  Covariance is checked at the group's generators and passes if
    ``max_word_length`` times its residual is within the bound, as in
    :func:`~covkit.cpmaps.cp_validate`."""
    k, v = spec.k_dim, spec.v_dim
    checks = Checks(outcomes_cp=Check(*psd_status(spec.choi, tol)))
    res = frob(_effects(spec).sum(0) - np.eye(v))
    checks["normalization"] = Check(res <= tol.recon_fro * max(1.0, np.sqrt(v)), res)
    sym = spec.symmetry
    worst = 0.0
    for g in sym.group.generators():
        # W_g C_w W_g^+ - C_{gw} for every outcome w
        wg = np.kron(sym.out_rep(g).conj(), sym.rep(g))
        diff = wg @ spec.choi @ wg.conj().T - spec.choi[sym.action.table[g]]
        worst = max(worst, float(np.linalg.norm(diff, axis=(1, 2)).max()))
    scale = max(1.0, float(np.abs(spec.choi).max()) * k * v)
    checks["covariance"] = Check(sym.group.max_word_length * worst <= tol.recon_fro * scale, worst)
    return checks


def marginal_observable(spec: InstrumentSpec) -> ObservableSpec:
    sym = spec.symmetry
    return ObservableSpec(_effects(spec), Symmetry(sym.sub, sym.rep))


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
    on the outcome space.  Its inner implementation perm(g) (x) out_rep(g)
    carries the block of outcome x to that of gx by out_rep(g), so it is
    given as that :class:`~covkit.cpmaps.BlockAction` and never densely."""
    sym = spec.symmetry
    k, v, n = spec.k_dim, spec.v_dim, spec.n_outcomes
    split = TensorSplit(FiniteCStarAlgebra.full(k), FiniteCStarAlgebra.commutative(n))
    # unit (w, a, b) of the product, E_ab on outcome w, has image choi[w] at block (a, b)
    values = spec.choi.reshape(n, k, v, k, v).transpose(0, 1, 3, 2, 4).reshape(n * k * k, v, v)
    action = BlockAction(sym.action.table, (sym.out_rep.matrices,) * n, sym.out_rep.cocycle)
    return CPMapSpec(
        split.algebra,
        ModuleSpace(k=1, n_v=v),
        values,
        CPSymmetry(u=action, rep=sym.rep, u_factors=(sym.out_rep, MultiplierRep.from_action(sym.action))),
        tensor=split,
    )


# ---------------------------------------------------------------------------
# Naimark dilation and decomposable operators
# ---------------------------------------------------------------------------


def naimark(spec: ObservableSpec, tol: Tolerances = DEFAULT_TOL) -> KSGNSDilation:
    """Minimal covariant Naimark dilation: the KSGNS dilation of the
    observable's CP form, :func:`as_cpmap` of
    :meth:`ObservableSpec.as_instrument` (on the functions on the outcome
    space, u(g) the coset permutation).

    Outcome w is block w of the dilation, so ``mult[w]`` is the fiber
    dimension, block w of ``j`` factors the effect E_w, and ``mult_rep[w][g]``
    carries fiber w into fiber gw: F_{gw} rep(g) = W_{g,w} F_w.  The input is
    validated once, by :func:`~covkit.cpmaps.cp_validate` in
    :func:`~covkit.cpmaps.ksgns`, and normalization by the ``isometry``
    verdict j^+ j = I; an unnormalized observable raises ``ValueError``."""
    dil = ksgns(as_cpmap(spec.as_instrument()), tol)
    res = frob(dil.j.conj().T @ dil.j - np.eye(spec.v_dim))
    dil.checks["isometry"] = Check(res <= tol.recon_fro * max(1.0, np.sqrt(spec.v_dim)), res)
    if not dil.checks["isometry"].ok:
        raise ValueError(f"observable invalid: the effects sum to the identity only to {res:.2e}")
    return dil


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
    worst, ok = 0.0, True
    for blk, ops in zip(data.decomposition.blocks, data.lambda_blocks):
        res = frob(sum(op.conj().T @ op for op in ops) - np.eye(blk.multiplicity))
        worst, ok = max(worst, res), ok and res <= tol.recon_fro * max(1.0, np.sqrt(blk.multiplicity))
    checks = Checks(block_normalization=Check(ok, worst))

    lam = data.assembled_map()
    missing = data.base_dim - rank(lam, tol)
    checks["totality"] = Check(missing == 0, float(missing))

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
    lam_raw = naim.j[: naim.mult[0]]  # evaluation at the identity coset
    pos_members = list(sym.sub.members)
    hgrp = sym.sub.subgroup_group()
    cvals = sym.rep.cocycle.values[np.ix_(pos_members, pos_members)]
    rho = MultiplierRep(hgrp, TwoCocycle(hgrp, cvals), naim.mult_rep[0][pos_members])
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
    the lambda picture, the reference for ``instrument_extremal(
    spec.as_instrument())``, which decides the same on the base fiber.

    The observable is extreme iff D = 0 is the only D on the base fiber that
    commutes with the subgroup representation and has sum_k L_k^+ D L_k = 0
    for the blocks L_k of every irreducible component
    (:func:`~covkit.numlin.constrained_commutant`, one compression per
    component).  The system is solved over a generating set of the subgroup
    and re-checked against all of it and every compression.  On
    non-extremality both neighbours, the effects of I +- W, re-validate and
    average to the input's effects."""
    generators = [data.rho(s) for s in data.rho.group.generators()]
    compressions = [(np.stack(ops), np.stack(ops)) for ops in data.lambda_blocks]
    basis = constrained_commutant(generators, compressions, tol=tol)
    _certify_commutant(basis, data.rho.matrices, compressions, tol)
    if not basis:
        return ExtremalityCertificate(True, None, None, 0)
    witness = _hermitian_witness(basis, tol)
    if witness is None:
        return ExtremalityCertificate(True, None, None, len(basis))

    u = data.decomposition.rep
    lam = data.assembled_map()
    moved = np.stack([lam @ u(g).conj().T for g in data.sub.section])
    symmetry = Symmetry(data.sub, u)

    def observable(mid):
        return ObservableSpec(moved.conj().transpose(0, 2, 1) @ mid @ moved, symmetry)

    eye = np.eye(data.base_dim)
    neighbours = (observable(eye + witness), observable(eye - witness))
    scale = max(1.0, frob(lam) ** 2)
    _revalidate(observable(eye), neighbours, validate_observable, lambda obs: obs.effects, scale, tol)
    return ExtremalityCertificate(False, witness, neighbours, len(basis))


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
    coset, with the ``roundtrip`` residual when extracted from one."""

    b_ops: tuple  # operators K x V
    checks: Checks = field(default_factory=Checks)


class StructureViolation(ValueError):
    """The Kraus family violates the subgroup-invariance or normalization
    condition; carries the worst offender."""

    def __init__(self, message, worst):
        super().__init__(message)
        self.worst = worst


def check_b_family(data: CovariantInstrumentData, symmetry: Symmetry, tol: Tolerances = DEFAULT_TOL):
    """Exhaustive check of subgroup invariance, sum_l X_l^+ E_cd X_l equal for
    X_l = u(h) B_l and X_l = B_l rep(h) at every member h and unit E_cd, and
    of total normalization, each over all members and units at once."""
    sub, rep, b, members = symmetry.sub, symmetry.rep, np.stack(data.b_ops), list(symmetry.sub.members)
    # (X^+ E_cd X)[v, w] = conj(X[c, v]) X[d, w], summed over the family
    lhs, rhs = (
        np.einsum("hlcv,hldw->hcdvw", x.conj(), x)
        for x in (symmetry.out_rep.matrices[members][:, None] @ b, b @ rep.matrices[members][:, None])
    )
    us = rep.matrices[list(sub.section)]
    total = (us @ np.einsum("lav,law->vw", b.conj(), b) @ us.conj().transpose(0, 2, 1)).sum(0)
    return float(np.linalg.norm(lhs - rhs, axis=(-2, -1)).max()), frob(total - np.eye(rep.dim))


def _assemble_instrument(data: CovariantInstrumentData, symmetry: Symmetry, tol: Tolerances) -> InstrumentSpec:
    """The covariant instrument generated by a Kraus family, not yet
    validated: the outcome at each coset uses the section-transported
    operators.  The invariance and normalization conditions are enforced
    first and independence from the section choice is certified."""
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
    k, v, b = u.dim, rep.dim, np.stack(data.b_ops)

    def choi_at(section):
        # outcome w has the Kraus family u(g_w) B_l rep(g_w)^+, g_w = section[w]
        g = list(section)
        return _choi_of(u.matrices[g][:, None] @ b @ rep.matrices[g].conj().transpose(0, 2, 1)[:, None])

    choi = choi_at(sub.section)
    # section independence: shift every section point inside its coset
    members = list(sub.members)
    shifted = [
        sub.parent.prod(sub.section[w], members[(w + 1) % len(members)])
        for w in range(sub.n_cosets)
    ]
    res = float(np.linalg.norm(choi_at(shifted) - choi, axis=(1, 2)).max())
    if res > tol.recon_fro * max(1.0, float(np.abs(choi).max()) * k * v):
        raise DilationResidualError(f"section dependence detected ({res:.2e})")
    return InstrumentSpec(choi, symmetry)


def instrument_from_B(
    data: CovariantInstrumentData, symmetry: Symmetry, tol: Tolerances = DEFAULT_TOL
) -> InstrumentSpec:
    """The validated covariant instrument generated by a Kraus family."""
    spec = _assemble_instrument(data, symmetry, tol)
    report = validate_instrument(spec, tol)
    if not report.ok:
        raise DilationResidualError(f"assembled instrument invalid: {report.failed()}")
    return spec


def B_from_instrument(
    spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL
) -> CovariantInstrumentData:
    """Extract a Kraus family from the identity-coset outcome; the subgroup
    invariance follows from covariance and the normalization from the
    instrument normalization, both certified, and the reconstruction is
    checked against the original instrument.  The input is validated once:
    the round trip is assembled unvalidated, and its ``roundtrip`` residual
    against the validated input certifies it."""
    report = validate_instrument(spec, tol)
    if not report.ok:
        raise ValueError(f"instrument invalid: {report.failed()}")
    ops = kraus_from_choi(spec.choi[0], spec.k_dim, spec.v_dim, tol)
    rebuilt = _assemble_instrument(CovariantInstrumentData(tuple(ops)), spec.symmetry, tol)
    checks = Checks().require(
        tol.recon_fro * max(1.0, float(np.abs(spec.choi).max()) * spec.k_dim * spec.v_dim),
        "reconstruction failed, instrument covariance is broken",
        roundtrip=max(frob(a - b) for a, b in zip(rebuilt.choi, spec.choi)),
    )
    return CovariantInstrumentData(tuple(ops), checks)


def _multiplicity_rep(data: CovariantInstrumentData, symmetry: Symmetry, tol) -> np.ndarray:
    """The unitaries W_h with u(h) B_l rep(h)^+ = sum_m W_h[l, m] B_m for the
    members h != e of the subgroup, in their order, as an (m, r, r) stack
    (empty for a trivial subgroup): one pseudo-inverse of the independent
    B_m, certified unitary and intertwining for every h."""
    members = [h for h in symmetry.sub.members if h != symmetry.group.identity]
    b = np.stack(data.b_ops)
    m, r, n = len(members), len(b), b[0].size
    flat = b.reshape(r, n)
    u, rep = symmetry.out_rep.matrices[members], symmetry.rep.matrices[members]
    moved = (u[:, None] @ b @ rep.conj().transpose(0, 2, 1)[:, None]).reshape(m, r, n)
    ws, unitary, intertwining = unitary_moves(flat, moved)
    scale = np.linalg.norm(ws, 2, axis=(1, 2)).max(initial=1.0)
    Checks().require(tol.unitary_fro * scale, "multiplicity representation is not unitary", unitary=unitary.max(initial=0.0))
    Checks().require(
        tol.recon_fro * max(1.0, frob(flat)),
        "multiplicity representation does not move the Kraus family",
        intertwining=intertwining.max(initial=0.0),
    )
    return ws


def instrument_extremal(
    spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL
) -> ExtremalityCertificate:
    """Extremality among covariant instruments, decided on the base fiber.

    With the base-coset Kraus family B_1 .. B_r of :func:`B_from_instrument`
    stacked as J, rows (a, l) = B_l[a, :], the instrument is extreme iff D =
    0 is the only D on C^r that commutes with every W_h of
    :func:`_multiplicity_rep` and has sum_w L_w^+ (I_K (x) D) L_w = 0 for
    L_w = J rep(g_w)^+ over the section
    (:func:`~covkit.numlin.constrained_commutant` on the layout (K, r), so
    r^2 unknowns).  The basis is re-checked against every W_h and the
    compression.  On non-extremality the witness is I_K (x) X, and the
    neighbours are the instruments of the families sqrt(I +- X) B, each
    assembled and validated once by :func:`instrument_from_B`; their midpoint
    is the input.  An observable is decided as
    :meth:`ObservableSpec.as_instrument`, with K = 1."""
    data = B_from_instrument(spec, tol)
    k, r = spec.k_dim, len(data.b_ops)
    b = np.stack(data.b_ops)
    j = b.transpose(1, 0, 2).reshape(k * r, spec.v_dim)
    ws = _multiplicity_rep(data, spec.symmetry, tol)
    lifts = np.einsum("ab,hlm->halbm", np.eye(k), ws).reshape(len(ws), k * r, k * r)
    moved = j @ spec.symmetry.rep.matrices[list(spec.symmetry.sub.section)].conj().transpose(0, 2, 1)
    compressions = [(moved, moved)]
    basis = constrained_commutant(list(lifts), compressions, layout=[(k, r)], tol=tol)
    _certify_commutant(basis, lifts, compressions, tol)
    if not basis:
        return ExtremalityCertificate(True, None, None, 0)
    witness = _hermitian_witness(basis, tol)
    if witness is None:
        return ExtremalityCertificate(True, None, None, len(basis))

    neighbours = []
    for sign in (1.0, -1.0):
        w, v = np.linalg.eigh(np.eye(r) + sign * witness[:r, :r])
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        family = CovariantInstrumentData(tuple(np.einsum("lm,mav->lav", root, b)))
        neighbours.append(instrument_from_B(family, spec.symmetry, tol))
    middle = 0.5 * (neighbours[0].choi + neighbours[1].choi) - spec.choi
    Checks().require(
        tol.recon_fro * max(1.0, float(np.abs(spec.choi).max()) * k * spec.v_dim),
        "neighbours do not split the input",
        midpoint=float(np.linalg.norm(middle, axis=(1, 2)).max()),
    )
    return ExtremalityCertificate(False, witness, tuple(neighbours), len(basis))


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
    if frob(_effects(spec).sum(0) - np.eye(d)) > 1e-10 * max(1.0, d):
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
    # p_w = tr(state E_w)
    p = np.clip(np.einsum("vx,wxv->w", state, _effects(spec)).real, 0.0, None)
    return p / p.sum()


def _checked_state(state, tol: Tolerances) -> np.ndarray:
    """The state as a complex array; a ValueError unless it passes
    ``psd_check`` and its trace is within ``tol.recon_fro`` of 1."""
    state = np.asarray(state, dtype=np.complex128)
    if not psd_check(state, tol) or abs(np.trace(state).real - 1.0) > tol.recon_fro:
        raise ValueError("state must be positive with unit trace")
    return state


def sample(spec: InstrumentSpec, state, rng_seed: int, tol: Tolerances = DEFAULT_TOL) -> SampleResult:
    """Draw one outcome and the conditional post-measurement state."""
    state = _checked_state(state, tol)
    p = outcome_distribution(spec, state)
    rng = np.random.default_rng(rng_seed)
    w = int(rng.choice(len(p), p=p))
    post = spec.predual(w, state)
    post = post / np.trace(post).real
    return SampleResult(w, float(p[w]), post)


def sample_stream(spec: InstrumentSpec, state, n: int, rng_seed: int, tol: Tolerances = DEFAULT_TOL):
    """Sequence of outcome draws; the post state is computed once per
    outcome, and every draw of that outcome yields the same array."""
    state = _checked_state(state, tol)
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
