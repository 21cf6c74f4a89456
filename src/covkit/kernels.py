"""Positive covariant kernels over a finite index set, their minimal
covariant Kolmogorov decompositions, and the extremality decision procedure.

A kernel assigns to each pair (x, y) a form matrix T[x, y] on the module
fiber; positivity means the grand block matrix over all of X is PSD, and
covariance couples the blocks through the group action, a scalar weight
family alpha, and a multiplier representation on the fiber.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .cstar import ModuleSpace
from .fingroup import GroupAction, MultiplierRep, TwoCocycle, cocycle_violation
from .numlin import (
    DEFAULT_TOL,
    DimensionError,
    Tolerances,
    as_matrix,
    constrained_commutant,
    frob,
    is_unitary,
    lstsq_define,
    psd_factor,
    psd_status,
    rank,
    unitary_moves,
)


class KernelValidationError(ValueError):
    """Operation requires a valid covariant kernel."""


class Check(NamedTuple):
    """One verdict of a certificate and the residual it rests on."""

    ok: bool
    residual: float


class Checks(dict):
    """A certificate: each check's name mapped to its :class:`Check`, in the
    order checked."""

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.values())

    def failed(self) -> list[str]:
        return [name for name, check in self.items() if not check.ok]

    def require(self, bound, message, factors=None, **residuals) -> Checks:
        """Record each residual against ``bound``, then raise
        :class:`DilationResidualError` carrying this certificate if one
        exceeds it.  ``factors`` maps a residual's name to the factor it is
        multiplied by before the comparison, such as ``max_word_length`` for
        a residual over generator rows; the default is 1."""
        factors = factors or {}
        for name, residual in residuals.items():
            self[name] = Check(bool(factors.get(name, 1) * residual <= bound), float(residual))
        for name in residuals:
            if not self[name].ok:
                times = f" x {factors[name]}" if name in factors else ""
                raise DilationResidualError(
                    f"{message}: {name} residual {self[name].residual:.2e}{times} > {bound:.2e}", self
                )
        return self


class DilationResidualError(RuntimeError):
    """A solve that is exact in exact arithmetic exceeded its tolerance;
    usually a sign of inconsistent alpha / cocycle data.  ``checks`` is the
    certificate up to and including the failed check."""

    def __init__(self, message, checks: Checks | None = None):
        super().__init__(message)
        self.checks = Checks() if checks is None else checks


@dataclass(frozen=True)
class CovariantKernelSpec:
    """Blocks T[x, y] of a positive kernel covariant for (action, alpha, rep).

    ``alpha`` has shape (|G|, |X|); ``sigma`` is the 2-cocycle attached to
    alpha by the composition rule alpha(gh, x) = sigma(g, h) alpha(h, x)
    alpha(g, hx).  ``rep`` acts on the fiber C^{n_V} and may carry its own
    cocycle; the dilation representation then has cocycle sigma * rep.cocycle.
    """

    action: GroupAction
    alpha: np.ndarray
    sigma: TwoCocycle
    rep: MultiplierRep
    module: ModuleSpace
    blocks: np.ndarray  # (|X|, |X|, n_V, n_V)

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.complex128)
        blocks = np.asarray(self.blocks, dtype=np.complex128)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "blocks", blocks)
        g, x, n = self.action.group, self.action.set_size, self.rep.dim
        if alpha.shape != (g.order, x):
            raise DimensionError("alpha must be |G| x |X|")
        if blocks.shape != (x, x, n, n):
            raise DimensionError("blocks must be |X| x |X| x n_V x n_V")
        if self.module.n_v != n:
            raise DimensionError("module fiber and representation dimension differ")
        if self.rep.group is not self.action.group and self.rep.group.order != g.order:
            raise DimensionError("action and representation use different groups")

    @property
    def x_size(self) -> int:
        return self.action.set_size

    @property
    def n_v(self) -> int:
        return self.rep.dim

    def grand_matrix(self) -> np.ndarray:
        x, n = self.x_size, self.n_v
        return self.blocks.transpose(0, 2, 1, 3).reshape(x * n, x * n)

    def dilation_cocycle(self) -> TwoCocycle:
        return self.sigma.multiply(self.rep.cocycle)


def validate_kernel(spec: CovariantKernelSpec, tol: Tolerances = DEFAULT_TOL) -> Checks:
    """Check the alpha composition rule, block covariance and positivity, as
    the verdicts ``alpha_cocycle``, ``covariant`` and ``positive``.  The
    composition residual covers every (a, b, x) at once, also when sigma
    itself is not a 2-cocycle (the verdict then fails).  Given the
    composition rule, covariance at a and b gives it at ab, so its residual
    covers the generators a of ``group.generators()`` and every block pair,
    and the verdict compares ``max_word_length`` times it with the bound."""
    g, table = spec.action.group, spec.action.table
    checks = Checks()

    # alpha(ab, x) against sigma(a, b) alpha(b, x) alpha(a, bx)
    composed = spec.sigma.values[:, :, None] * spec.alpha[None, :, :] * spec.alpha[:, table]
    err_unit = float(np.abs(spec.alpha[g.identity] - 1.0).max())
    err_alpha = max(err_unit, float(np.abs(spec.alpha[g.mul] - composed).max()))
    alpha_ok = (
        err_unit <= tol.recon_fro
        and err_alpha <= tol.recon_fro * max(1.0, float(np.abs(spec.alpha).max()) ** 2)
        and cocycle_violation(spec.sigma) is None
    )
    checks["alpha_cocycle"] = Check(bool(alpha_ok), err_alpha)

    # T[ax, ay] - conj(alpha(a, x)) alpha(a, y) U(a)^-+ T[x, y] U(a)^-1 for every generator a and (x, y)
    gens = list(g.generators())
    scale = max(1.0, float(np.abs(spec.blocks).max()) * float(np.abs(spec.alpha).max()) ** 2)
    alpha, table = spec.alpha[gens], table[gens]
    weights = np.conj(alpha)[:, :, None, None, None] * alpha[:, None, :, None, None]
    rep = spec.rep.matrices[gens]
    inv = rep.conj().transpose(0, 2, 1) if spec.rep.unitary_flag else np.linalg.inv(rep)
    moved = inv.conj().transpose(0, 2, 1)[:, None, None] @ spec.blocks @ inv[:, None, None]
    diff = spec.blocks[table[:, :, None], table[:, None, :]] - weights * moved
    err_cov = float(np.linalg.norm(diff, axis=(-2, -1)).max(initial=0.0))
    checks["covariant"] = Check(g.max_word_length * err_cov <= tol.recon_fro * scale, err_cov)
    checks["positive"] = Check(*psd_status(spec.grand_matrix(), tol))
    return checks


@dataclass(frozen=True)
class KolmogorovDecomposition:
    """Minimal factorization T[x, y] = factors[x]^+ factors[y] together with
    the dilation multiplier representation intertwining the fibers."""

    spec: CovariantKernelSpec
    rank: int
    factors: np.ndarray  # (|X|, rank, n_V)
    sym: MultiplierRep  # dimension = rank, cocycle = sigma * rep.cocycle
    checks: Checks = field(default_factory=Checks)

    def stacked(self) -> np.ndarray:
        return np.hstack(list(self.factors))


def _certify_kolmogorov(spec, factors, tol, ws=None) -> tuple[MultiplierRep, Checks]:
    """The dilation unitaries W_g with W_g F = F_g, F the factors side by
    side and block x of F_g that of factors[g x] rep(g) / alpha(g, x), from
    one :func:`~covkit.numlin.unitary_moves` solve over the group (or ``ws``
    as given), and their certificate: ``reconstruction``, factors[x]^+
    factors[y] = T[x, y] for every (x, y); ``unitarity``, ||W_g^+ W_g -
    I||_F; ``cocycle``, W_a W_b = c(a, b) W_ab for the generators a of
    ``group.generators()`` and every b at once, c = sigma * rep.cocycle;
    ``intertwining``, the solve residual ||W_g F - F_g||_F, which bounds
    every block's.  With c a 2-cocycle, the rows of a and a' give the row of
    aa' (induction on word length, as for
    :func:`~covkit.cpmaps.ksgns`'s ``sym_cocycle``), so ``max_word_length``
    times the ``cocycle`` residual is held to its bound."""
    group, (x_size, n, nv) = spec.action.group, factors.shape
    stacked = factors.transpose(1, 0, 2).reshape(n, x_size * nv)
    moved = factors[spec.action.table] @ spec.rep.matrices[:, None] / spec.alpha[..., None, None]
    moved = moved.transpose(0, 2, 1, 3).reshape(group.order, n, x_size * nv)
    ws, unitary, intertwining = unitary_moves(stacked, moved, ws)
    cocycle = spec.dilation_cocycle()
    recon = factors.conj().transpose(0, 2, 1)[:, None] @ factors[None] - spec.blocks
    gens = list(group.generators())
    pairs = ws[gens][:, None] @ ws[None] - cocycle.values[gens][..., None, None] * ws[group.mul[gens]]
    grand = float(np.linalg.norm(spec.grand_matrix(), 2)) if spec.blocks.size else 0.0
    recon, pairs = (float(np.linalg.norm(a, axis=(-2, -1)).max(initial=0.0)) for a in (recon, pairs))
    checks = Checks().require(tol.recon_fro * max(1.0, grand), "factor reconstruction failed", reconstruction=recon)
    checks.require(tol.unitary_fro * max(1.0, np.sqrt(n)), "dilation unitaries failed", unitarity=unitary.max())
    checks.require(tol.recon_fro * max(1.0, np.sqrt(n)), "dilation cocycle failed", {"cocycle": group.max_word_length}, cocycle=pairs)
    message = "covariant intertwining failed; alpha / cocycle data is inconsistent with the blocks"
    checks.require(tol.recon_fro * max(1.0, min(grand, frob(stacked))), message, intertwining=intertwining.max())
    return MultiplierRep(group, cocycle, ws), checks


def kolmogorov_decompose(
    spec: CovariantKernelSpec,
    tol: Tolerances = DEFAULT_TOL,
    basis_permutation=None,
) -> KolmogorovDecomposition:
    """Minimal covariant factorization of a valid kernel.

    The grand block matrix is factored through its eigendecomposition and the
    dilation representation of the whole group is solved by one pseudo-inverse
    of the spanning factor blocks, then certified
    (:func:`_certify_kolmogorov`).

    ``basis_permutation`` optionally permutes the grand coordinates before
    factoring; the result is another minimal decomposition of the same
    kernel, useful for exercising uniqueness up to a connecting unitary.
    """
    checks = validate_kernel(spec, tol)
    if not checks.ok:
        raise KernelValidationError(f"kernel invalid: {', '.join(checks.failed())}")
    grand = spec.grand_matrix()
    if basis_permutation is not None:
        perm = np.asarray(basis_permutation, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(grand.shape[0])):
            raise DimensionError("basis_permutation must permute the grand coordinates")
        n_dil, f_perm = psd_factor(grand[np.ix_(perm, perm)], tol)
        f = np.zeros((n_dil, grand.shape[0]), dtype=np.complex128)
        f[:, perm] = f_perm
    else:
        n_dil, f = psd_factor(grand, tol)
    factors = np.ascontiguousarray(f.reshape(n_dil, spec.x_size, spec.n_v).transpose(1, 0, 2))
    sym, checks = _certify_kolmogorov(spec, factors, tol)
    return KolmogorovDecomposition(spec, n_dil, factors, sym, checks)


def transform_decomposition(decomp: KolmogorovDecomposition, q) -> KolmogorovDecomposition:
    """Unitarily transported decomposition (q factors[x], q sym q^+)."""
    q = as_matrix(q)
    sym = replace(decomp.sym, matrices=q @ decomp.sym.matrices @ q.conj().T)
    return replace(decomp, factors=q @ decomp.factors, sym=sym)


class EquivalenceError(RuntimeError):
    """The two decompositions do not dilate the same kernel."""


def equivalence_unitary(
    d1: KolmogorovDecomposition, d2: KolmogorovDecomposition, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """The unitary connecting two minimal decompositions of the same kernel:
    w factors1[x] = factors2[x] for every x and w sym1(g) = sym2(g) w."""
    if d1.spec.x_size != d2.spec.x_size or d1.spec.n_v != d2.spec.n_v:
        raise DimensionError("decompositions live over different kernels")
    if d1.rank != d2.rank:
        raise EquivalenceError("ranks differ; not decompositions of one kernel")
    w, res = lstsq_define([(d1.stacked(), d2.stacked())], tol)
    scale = max(1.0, frob(d1.stacked()))
    if res > tol.recon_fro * scale:
        raise EquivalenceError(f"factor matching residual {res:.2e}")
    if not is_unitary(w, tol):
        raise EquivalenceError("connecting map failed the unitarity certificate")
    worst = float(np.linalg.norm(w @ d1.sym.matrices - d2.sym.matrices @ w, axis=(1, 2)).max())
    if worst > tol.recon_fro * max(1.0, np.sqrt(d1.rank)):
        raise EquivalenceError(f"intertwining residual {worst:.2e}")
    return w


@dataclass(frozen=True)
class ExtremalityCertificate:
    """Outcome of an extremality decision.

    ``witness`` is a Hermitian direction certifying non-extremality (norm
    one); ``perturbed`` holds the two neighbours whose midpoint is the
    tested object.  ``freedom`` is the dimension of the full solution space.
    """

    extreme: bool
    witness: np.ndarray | None
    perturbed: tuple | None
    freedom: int


def _hermitian_witness(basis, tol):
    """A norm-one Hermitian element of the span of ``basis``, or None."""
    for d in basis:
        h = 0.5 * (d + d.conj().T)
        if frob(h) > tol.recon_fro:
            return h / np.linalg.norm(h, 2)
        h = 0.5j * (d.conj().T - d)
        if frob(h) > tol.recon_fro:
            return h / np.linalg.norm(h, 2)
    return None


def _certify_commutant(basis, full, compressions, tol, pattern=0.0, scale=1.0):
    """Re-check a commutant basis solved over generating sets against every
    matrix of the full set ``full`` (an (m, n, n) stack), in one batched
    product, so the verdict rests on the whole algebra and group; then bound
    sum_k L_k^+ D R_k for every compression (L, R) of the solve by
    ``recon_fro`` max(1, ||L|| ||R||).  ``pattern`` is the caller's residual
    against the rest of the set, whose matrices have Frobenius norms up to
    ``scale``."""
    if not basis:
        return
    d = np.stack(basis)[:, None]
    comm = d @ full[None] - full[None] @ d
    Checks().require(
        tol.recon_fro * max(1.0, scale, float(np.linalg.norm(full, axis=(1, 2)).max(initial=0.0))),
        "commutant basis fails the full commutation check",
        commutant=max(pattern, float(np.linalg.norm(comm, axis=(2, 3)).max(initial=0.0))),
    )
    for left, right in compressions:
        squeezed = (left.conj().transpose(0, 2, 1)[None] @ d @ right[None]).sum(axis=1)
        Checks().require(
            tol.recon_fro * max(1.0, frob(left) * frob(right)),
            "commutant basis is not compressed to zero",
            compression=float(np.linalg.norm(squeezed, axis=(1, 2)).max()),
        )


def _revalidate(original, neighbours, validate, parts, scale, tol, **kept):
    """Both neighbours pass ``validate``, keep the value of every function in
    ``kept``, and average to ``original`` in the stack of matrices ``parts``
    returns, each within ``recon_fro`` times ``scale``."""
    for nb in neighbours:
        report = validate(nb, tol)
        if not report.ok:
            raise DilationResidualError(f"perturbed neighbour failed validation: {', '.join(report.failed())}", report)
    plus, minus = neighbours
    residuals = {name: max(frob(of(nb) - of(original)) for nb in neighbours) for name, of in kept.items()}
    middle = 0.5 * (parts(plus) + parts(minus)) - parts(original)
    Checks().require(
        tol.recon_fro * scale,
        "neighbours do not split the input",
        **residuals,
        midpoint=float(np.linalg.norm(middle, axis=(-2, -1)).max(initial=0.0)),
    )


def kernel_extremal(
    spec: CovariantKernelSpec,
    z_pairs,
    decomp: KolmogorovDecomposition | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> ExtremalityCertificate:
    """Decide extremality of the kernel in the convex set of covariant
    kernels agreeing with it on the pairs in ``z_pairs``.

    The kernel is extreme iff D = 0 is the only D that commutes with the
    dilation representation and has factors[x]^+ D factors[y] = 0 for each
    (x, y) in Z (:func:`~covkit.numlin.constrained_commutant`, one
    compression per pair).  Z is symmetrized first: a Hermitian direction
    vanishing on (x, y) vanishes on (y, x), and over the symmetrized Z the
    solution space is closed under D -> D^+, so its complex dimension equals
    the real dimension of its Hermitian part.  The system is solved over the
    images of a generating set of the group and re-checked against every
    group element and every pair.  On non-extremality the certificate
    carries a Hermitian witness and the two perturbed kernels built from I
    +- D; both re-validate, keep their blocks on Z and average to the input.
    A passed-in decomposition must reconstruct the kernel, be minimal and
    pass the certificate of :func:`kolmogorov_decompose` with its own sym,
    or :class:`DilationResidualError` is raised.
    """
    z_pairs = [(int(x), int(y)) for x, y in z_pairs]
    if not z_pairs:
        raise ValueError("Z must be nonempty")
    if decomp is None:
        decomp = kolmogorov_decompose(spec, tol)
    else:
        # a passed-in decomposition is trusted only once it factors this kernel, minimally and covariantly
        n, group = decomp.rank, spec.action.group
        if decomp.factors.shape != (spec.x_size, n, spec.n_v) or decomp.sym.matrices.shape != (group.order, n, n):
            raise DilationResidualError("the decomposition does not fit the kernel's shape")
        _certify_kolmogorov(spec, decomp.factors, tol, decomp.sym.matrices)
        if rank(decomp.stacked(), tol) != n:
            raise DilationResidualError("the decomposition is not minimal")
    if decomp.rank == 0:
        return ExtremalityCertificate(True, None, None, 0)
    z_set = sorted(set(z_pairs) | {(y, x) for x, y in z_pairs})
    compressions = [(decomp.factors[x][None], decomp.factors[y][None]) for x, y in z_set]
    generators = [decomp.sym(s) for s in spec.action.group.generators()]
    basis = constrained_commutant(generators, compressions, tol=tol)
    _certify_commutant(basis, decomp.sym.matrices, compressions, tol)
    if not basis:
        return ExtremalityCertificate(True, None, None, 0)

    witness = _hermitian_witness(basis, tol)
    if witness is None:
        # every basis element has a part of norm >= 1/sqrt(2); only a recon_fro above that lands here
        return ExtremalityCertificate(True, None, None, len(basis))

    adjoints = decomp.factors.conj().transpose(0, 2, 1)[:, None]
    perturbed = tuple(
        replace(spec, blocks=(adjoints @ (np.eye(decomp.rank) + sign * witness)) @ decomp.factors[None])
        for sign in (+1.0, -1.0)
    )
    on_z, scale = tuple(zip(*z_set)), max(1.0, frob(decomp.factors) ** 2)
    _revalidate(spec, perturbed, validate_kernel, lambda k: k.blocks, scale, tol, z_blocks=lambda k: k.blocks[on_z])
    return ExtremalityCertificate(False, witness, perturbed, len(basis))
