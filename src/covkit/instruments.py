"""Quantum observables and instruments on a finite homogeneous space with
multiplier symmetry: Naimark dilations, the block-operator structure of
covariant observables, the Kraus-family structure of covariant
instruments, the square-integrability certificate, the discrete
phase-space construction, and an outcome sampler.

Outcome spaces are coset spaces of a finite group.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import field

import numpy as np

from .cpmaps import (
    BlockAction,
    CPMapSpec,
    CPSymmetry,
    KSGNSDilation,
    _covariance,
    kraus_from_choi,
    ksgns,
)
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
    DilationResidualError,
    ExtremalityCertificate,
    _certify_commutant,
    _each,
    _split,
)
from .numlin import (
    DEFAULT_TOL,
    DimensionError,
    Tolerances,
    constrained_commutant,
    frob,
    psd_check,
    psd_spectrum,
    psd_status,
    rank,
    record,
    unitary_moves,
)


@record
class Symmetry:
    """Transitive outcome symmetry: a subgroup with its coset space, the
    module representation on the system space, and for instruments the
    representation on the output space.  Both representations are unitary:
    covariance, here and in the CP form :func:`as_cpmap`, moves by rep(g)
    and rep(g)^+."""

    sub: SubgroupData
    rep: MultiplierRep
    out_rep: MultiplierRep | None = None
    action: GroupAction = field(init=False, default=None)

    def __post_init__(self):
        if self.rep.group.order != self.sub.parent.order:
            raise DimensionError("representation and subgroup use different groups")
        if self.out_rep is not None and self.out_rep.group.order != self.sub.parent.order:
            raise DimensionError("output representation uses a different group")
        if not (self.rep.unitary_flag and (self.out_rep is None or self.out_rep.unitary_flag)):
            raise ValueError("an outcome symmetry needs unitary representations")
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


@record
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
    """Positivity, normalization and covariance of the effects: the
    verdicts of :func:`validate_instrument` on
    :meth:`ObservableSpec.as_instrument`, whose Choi blocks are the effects,
    with ``outcomes_cp`` named ``effects_psd``."""
    checks = validate_instrument(spec.as_instrument(), tol)
    return Checks(effects_psd=checks.pop("outcomes_cp"), **checks)


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


@record
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


def _effects(spec: InstrumentSpec) -> np.ndarray:
    """The effect of every outcome, its map at the identity: (|X|, V, V)."""
    k, v = spec.k_dim, spec.v_dim
    return np.einsum("wbvbx->wvx", spec.choi.reshape(-1, k, v, k, v))


def validate_instrument(spec: InstrumentSpec, tol: Tolerances = DEFAULT_TOL) -> Checks:
    """Complete positivity, normalization and covariance of the outcome
    maps.  Covariance is the Choi-block certificate of
    :func:`~covkit.cpmaps.cp_validate`, on the Choi blocks themselves: at
    the group's generators s, conj(out_rep(s)) (x) rep(s) moves C_w onto
    C_{sw} (:func:`~covkit.cpmaps._covariance`, sigma the coset action and
    w = out_rep at every outcome).

    Once covariance holds, complete positivity is decided on the orbit
    representative, outcome 0.  The coset action is transitive, so every
    C_x is reached from C_0 by at most ``max_word_length`` generator moves,
    each unitary and within the covariance residual eps of the block it
    lands on; so C_x is within ``max_word_length`` * eps of a unitary
    conjugate of C_0 in Frobenius norm, and C_0's verdict carries that bound
    (:func:`~covkit.numlin.psd_status`, Weyl's inequality).  The residual is
    C_0's plus the carried bound.  Without covariance every block is
    decided."""
    sym, gens = spec.symmetry, list(spec.symmetry.group.generators())
    blocks = [(np.arange(spec.n_outcomes), spec.choi, sym.out_rep.matrices[gens, None])]
    covariance = _covariance(blocks, sym.action.table[gens], sym.rep.matrices[gens], sym.group, tol)
    stack, carried = (spec.choi[:1], sym.group.max_word_length * covariance.residual) if covariance.ok else (spec.choi, 0.0)
    checks = Checks(outcomes_cp=Check(*psd_status(stack, tol, carried)))
    checks["normalization"] = _normalization(spec, tol)
    checks["covariance"] = covariance
    return checks


def _normalization(spec: InstrumentSpec, tol) -> Check:
    """The effects sum to the identity within recon_fro max(1, sqrt(V))."""
    v = spec.v_dim
    res = frob(_effects(spec).sum(0) - np.eye(v))
    return Check(res <= tol.recon_fro * max(1.0, np.sqrt(v)), res)


def _validate_rows(specs, rows, middles, tol) -> list:
    """The certificates of :func:`validate_instrument` for instruments built
    from one stack of Kraus rows: instrument i has Choi blocks C_w = R_w^+
    P_i R_w, R_w the (r, K V) stack ``rows[w]`` of the outcome's operators
    u(g_w) B_l rep(g_w)^+ and P_i the r x r ``middles[i]`` (I for a built
    instrument, I +- X for the two extremality neighbours), without forming
    any (K V)^2 product.  The row move is computed once for all of them.

    Covariance: at each generator s, the moved rows M_{s,w} = u(s) R_w
    rep(s)^+, which give f_s C_w f_s^+ = M^+ P M, are matched to a remix
    W R_{s w} of the target's rows by :func:`~covkit.numlin.unitary_moves`
    (one pseudo-inverse per outcome), with row defect rho = ||M - W R||_F.
    Then ||f_s C_w f_s^+ - C_{sw}||_F <= ||R||_2^2 ||W^+ P W - P||_F + (2
    ||W||_2 ||R||_2 + rho) ||P||_2 rho, R = R_{sw}, and that bound, with the
    spectral norms bounded from above, is the residual, held like the dense
    one to recon_fro max(1, max|C|); max|C| is the largest diagonal entry,
    the blocks being positive.  Positivity: x^+ C_w x >= min(0,
    lambda_min(P)) ||R_w||_2^2 |x|^2 and ||C_w - C_w^+||_F <= ||R_w||_2^2
    ||P - P^+||_F, both from P's r x r spectrum, held to psd_eig.
    Normalization is :func:`validate_instrument`'s.

    Where this certificate fails, :func:`validate_instrument` decides: rows
    that are linearly dependent can miss every unitary remix while the
    blocks are covariant, so no verdict is stricter than the dense one."""
    sym, gens = specs[0].symmetry, list(specs[0].symmetry.group.generators())
    n, r = rows.shape[:2]
    flat = rows.reshape(n, r, -1)
    if not (np.isfinite(flat).all() and np.isfinite(middles).all()):
        return [validate_instrument(spec, tol) for spec in specs]
    # moved[s, x] holds the rows of outcome s^-1 x moved by s, so they land on outcome x
    adjoint = sym.rep.matrices[gens].conj().transpose(0, 2, 1)[:, None, None]
    moved = sym.out_rep.matrices[gens, None, None] @ rows[sym.action.table[sym.group.inverse[gens]]] @ adjoint
    ws, unitary, rho = unitary_moves(flat, moved.reshape((len(gens),) + flat.shape))
    # upper bounds: ||R||_2 <= ||R||_F, ||W||_2^2 = ||W^+ W||_2 <= 1 + ||W^+ W - I||_F, and
    # ||P||_2 is at most its Hermitian part's (the spectrum's scale) plus its skew part's
    size = np.linalg.norm(flat, axis=(1, 2))
    spectrum = psd_spectrum(middles)
    p_norm = (spectrum.scale + spectrum.skew / 2)[:, None, None]
    p = middles[:, None, None]
    commutes = np.linalg.norm(ws.conj().swapaxes(-1, -2) @ p @ ws - p, axis=(-2, -1))
    bound = size**2 * commutes + (2 * np.sqrt(1 + unitary) * size + rho) * p_norm * rho
    # np.max keeps a NaN, and a non-finite bound certifies nothing
    worst = np.max(bound.reshape(len(specs), -1), axis=1, initial=0.0)
    top = float(size.max(initial=0.0)) ** 2
    negative = top * spectrum.residual()
    positive = np.maximum(negative, top * spectrum.skew) <= tol.psd_eig
    out = []
    for spec, res, neg, pos in zip(specs, worst, negative, positive):
        scale = max(1.0, float(np.abs(np.diagonal(spec.choi, axis1=-2, axis2=-1)).max(initial=0.0)))
        covariance = Check(bool(sym.group.max_word_length * res <= tol.recon_fro * scale < np.inf), float(res))
        if covariance.ok and pos:
            out.append(Checks(outcomes_cp=Check(True, float(neg)), normalization=_normalization(spec, tol), covariance=covariance))
        else:
            out.append(validate_instrument(spec, tol))
    return out


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
# Naimark dilation
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


# ---------------------------------------------------------------------------
# block-operator structure of covariant observables
# ---------------------------------------------------------------------------


@record
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

    # data.rho is indexed along the members
    hs = data.decomposition.rep.matrices[list(data.sub.members)]
    worst = float(np.linalg.norm(lam @ hs - data.rho.matrices @ lam, axis=(1, 2)).max())
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

    def effects_at(elements):
        moved = lam @ u.matrices[elements].conj().swapaxes(-1, -2)
        return moved.conj().swapaxes(-1, -2) @ moved

    effects = effects_at(list(sub.section))
    # section-independence certificate: average over the whole coset
    coset = sub.parent.mul[np.asarray(sub.section)[:, None], list(sub.members)]
    worst = float(np.linalg.norm(effects_at(coset).mean(axis=1) - effects, axis=(1, 2)).max())
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
    u = data.decomposition.rep
    lam = data.assembled_map()
    moved = np.stack([lam @ u(g).conj().T for g in data.sub.section])
    symmetry = Symmetry(data.sub, u)

    def observable(d):
        return ObservableSpec(moved.conj().transpose(0, 2, 1) @ d @ moved, symmetry)

    original, scale = observable(np.eye(data.base_dim)), max(1.0, frob(lam) ** 2)
    return _split(original, basis, observable, _each(validate_observable), lambda obs: obs.effects, scale, tol)


# ---------------------------------------------------------------------------
# covariant instruments: Kraus-family structure
# ---------------------------------------------------------------------------


@record
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


def _outcome_rows(b, symmetry: Symmetry, section) -> np.ndarray:
    """The Kraus operators u(g_w) B_l rep(g_w)^+ of every outcome w, g_w =
    section[w], for a family ``b`` (r, K, V): an (|X|, r, K, V) stack."""
    g = list(section)
    adjoint = symmetry.rep.matrices[g].conj().transpose(0, 2, 1)
    return symmetry.out_rep.matrices[g][:, None] @ b @ adjoint[:, None]


def _assemble_instrument(data: CovariantInstrumentData, symmetry: Symmetry, tol: Tolerances):
    """The covariant instrument generated by a Kraus family, not yet
    validated, and the Kraus rows of its outcomes (:func:`_outcome_rows`):
    the outcome at each coset uses the section-transported operators.  The
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
    sub, k, v, b = symmetry.sub, symmetry.out_rep.dim, symmetry.rep.dim, np.stack(data.b_ops)
    rows = _outcome_rows(b, symmetry, sub.section)
    choi = _choi_of(rows)
    # section independence: shift every section point inside its coset; a
    # trivial subgroup leaves each coset one point, so there is no shift
    members = list(sub.members)
    if len(members) > 1:
        shifted = [sub.parent.prod(sub.section[w], members[(w + 1) % len(members)]) for w in range(sub.n_cosets)]
        res = float(np.linalg.norm(_choi_of(_outcome_rows(b, symmetry, shifted)) - choi, axis=(1, 2)).max())
        if res > tol.recon_fro * max(1.0, float(np.abs(choi).max()) * k * v):
            raise DilationResidualError(f"section dependence detected ({res:.2e})")
    return InstrumentSpec(choi, symmetry), rows


def instrument_from_B(
    data: CovariantInstrumentData,
    symmetry: Symmetry,
    tol: Tolerances = DEFAULT_TOL,
    certificate: Checks | None = None,
) -> InstrumentSpec:
    """The validated covariant instrument generated by a Kraus family.  It is
    certified on the rows it is built from (:func:`_validate_rows`), and that
    certificate is also written into ``certificate`` when one is given."""
    spec, rows = _assemble_instrument(data, symmetry, tol)
    (report,) = _validate_rows([spec], rows, np.eye(rows.shape[1])[None], tol)
    if not report.ok:
        raise DilationResidualError(f"assembled instrument invalid: {report.failed()}")
    if certificate is not None:
        certificate.update(report)
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
        raise ValueError(f"instrument invalid: {', '.join(report.failed())}")
    ops = kraus_from_choi(spec.choi[0], spec.k_dim, spec.v_dim, tol)
    rebuilt, _ = _assemble_instrument(CovariantInstrumentData(tuple(ops)), spec.symmetry, tol)
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
    neighbours are the instruments with Choi blocks M_w^+ (I +- X) M_w, row
    l of M_w the outcome's Kraus operator u(g_w) B_l rep(g_w)^+: those of
    the families sqrt(I +- X) B.  Both are validated once, together, on
    those rows (:func:`_validate_rows`), and their midpoint is the input.  An
    observable is decided as :meth:`ObservableSpec.as_instrument`, with K =
    1."""
    data = B_from_instrument(spec, tol)
    sym, g = spec.symmetry, list(spec.symmetry.sub.section)
    k, r, v = spec.k_dim, len(data.b_ops), spec.v_dim
    b = np.stack(data.b_ops)
    j = b.transpose(1, 0, 2).reshape(k * r, v)
    ws = _multiplicity_rep(data, sym, tol)
    lifts = np.einsum("ab,hlm->halbm", np.eye(k), ws).reshape(len(ws), k * r, k * r)
    moved = j @ sym.rep.matrices[g].conj().transpose(0, 2, 1)
    compressions = [(moved, moved)]
    basis = constrained_commutant(list(lifts), compressions, layout=[(k, r)], tol=tol)
    _certify_commutant(basis, lifts, compressions, tol)
    rows = _outcome_rows(b, sym, g)
    flat = rows.reshape(len(g), r, k * v)

    def instrument(d):
        return InstrumentSpec(flat.conj().transpose(0, 2, 1) @ d[:r, :r] @ flat, sym)

    def validate(directions, neighbours, tol):
        # the neighbours share their rows, so one call certifies both
        return _validate_rows(neighbours, rows, np.stack([d[:r, :r] for d in directions]), tol)

    scale = max(1.0, float(np.abs(spec.choi).max()) * k * v)
    return _split(spec, basis, instrument, validate, lambda ins: ins.choi, scale, tol)


# ---------------------------------------------------------------------------
# square integrability and the discrete phase space
# ---------------------------------------------------------------------------


@record
class SqConstantResult:
    """The verdict of :func:`sq_constant`: whether the representation is
    square integrable, its constant d (None when not) and the norm of the
    twirl defect."""

    ok: bool
    value: float | None
    spread: float


def sq_constant(
    w_rep: MultiplierRep, tol: Tolerances = DEFAULT_TOL, h_order: int = 1
) -> SqConstantResult:
    """The square-integrability constant d = |G| / (n h_order): the sum over
    the group, divided by h_order, of |<phi, w_rep(g) psi>|^2, equal to d for
    every pair of unit vectors when w_rep is irreducible.

    Irreducibility of the unitary w_rep is certified by the character norm
    sum_g |tr w_rep(g)|^2 = |G| (Schur's lemma), within ``tol.recon_fro``
    relative.  ``spread`` is the Hilbert-Schmidt norm of the twirl defect,
    X -> sum_g w_rep(g) X w_rep(g)^+ / h_order - d tr(X) I, which is
    (|G| / h_order) sqrt(sum_g |tr w_rep(g)|^2 / |G| - 1); the constant is
    returned only when the certificate holds.  A representation flagged not
    unitary raises ``ValueError``."""
    if not w_rep.unitary_flag:
        raise ValueError("the character criterion needs a unitary representation")
    order = w_rep.group.order
    excess = float(np.sum(np.abs(np.einsum("gii->g", w_rep.matrices)) ** 2)) / order - 1.0
    ok = excess <= tol.recon_fro
    spread = order / h_order * np.sqrt(max(excess, 0.0))
    return SqConstantResult(ok, order / (w_rep.dim * h_order) if ok else None, spread)


def phase_space(d: int, b_ops, tol: Tolerances = DEFAULT_TOL, certificate: Checks | None = None) -> InstrumentSpec:
    """Covariant phase-space instrument over the d x d discrete phase space.

    ``b_ops`` is a family with d * sum of B_j^+ B_j of unit trace (the seed
    operator divided by the square-integrability constant); the instrument
    translates it by the clock-and-shift system.  The validation
    certificate is written into ``certificate`` as by
    :func:`instrument_from_B`.
    """
    group, cocycle, w0 = heisenberg_rep(d)
    sub = SubgroupData(group, (group.identity,))
    symmetry = Symmetry(sub, rep=w0, out_rep=w0)
    total = sum(np.asarray(b, dtype=np.complex128).conj().T @ b for b in b_ops)
    tr = float(np.trace(total).real) * d
    if abs(tr - 1.0) > tol.recon_fro:
        raise ValueError(f"seed normalization is {tr:.6f}, expected 1")
    data = CovariantInstrumentData(tuple(np.asarray(b, dtype=np.complex128) for b in b_ops))
    spec = instrument_from_B(data, symmetry, tol, certificate)
    # structural, not a tolerance: the effects sum to the clock-and-shift twirl of
    # sum_j B_j^+ B_j, tr * I in exact arithmetic, so this catches a wrong assembly
    if frob(_effects(spec).sum(0) - tr * np.eye(d)) > 1e-10 * max(1.0, d):
        raise DilationResidualError("phase-space normalization failed")
    return spec


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@record
class SampleResult:
    """One drawn outcome, its probability and the post-measurement state."""

    outcome: int
    probability: float
    post_state: np.ndarray


def outcome_distribution(spec: InstrumentSpec, state) -> np.ndarray:
    state = np.asarray(state, dtype=np.complex128)
    # p_w = tr(state E_w)
    p = np.clip(np.einsum("vx,wxv->w", state, _effects(spec)).real, 0.0, None)
    return p / p.sum()


def _checked_state(state, v_dim: int, tol: Tolerances) -> np.ndarray:
    """The state as a complex array; a DimensionError unless it is v_dim x
    v_dim, and a ValueError unless it passes ``psd_check`` and its trace is
    within ``tol.recon_fro`` of 1."""
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (v_dim, v_dim):
        raise DimensionError(f"state has shape {state.shape}, but the instrument acts on {v_dim} x {v_dim} states")
    if not psd_check(state, tol) or abs(np.trace(state).real - 1.0) > tol.recon_fro:
        raise ValueError("state must be positive with unit trace")
    return state


def _draws(p, n: int, rng_seed: int):
    """``n`` outcomes drawn from the distribution ``p`` by the interpreter's
    own generator, ``random.Random(rng_seed)``: inverse CDF by bisection on
    ``random()`` scaled to the total, the index clamped to the last outcome
    of positive probability, so an outcome of probability 0 is never drawn.
    Python keeps the ``random()`` sequence of a seed across versions, so the
    stream of a seed is fixed."""
    cdf = list(itertools.accumulate(float(x) for x in p))
    if not cdf[-1] > 0:  # NaN fails too
        raise ValueError("the outcome probabilities have no positive total")
    top = bisect.bisect_left(cdf, cdf[-1])
    rng = random.Random(rng_seed)
    for _ in range(n):
        yield min(bisect.bisect_right(cdf, rng.random() * cdf[-1]), top)


def sample_stream(spec: InstrumentSpec, state, n: int, rng_seed: int, tol: Tolerances = DEFAULT_TOL):
    """Sequence of outcome draws (:func:`_draws`); the result, with its post
    state, is built once per outcome, and every draw of that outcome yields
    the same :class:`SampleResult`."""
    state = _checked_state(state, spec.v_dim, tol)
    p = outcome_distribution(spec, state)
    results = {}
    for w in _draws(p, n, rng_seed):
        if w not in results:
            post = spec.predual(w, state)
            results[w] = SampleResult(w, float(p[w]), post / np.trace(post).real)
        yield results[w]
