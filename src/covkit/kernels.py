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

    def require(self, bound, message, **residuals) -> Checks:
        """Record each residual against ``bound``, then raise
        :class:`DilationResidualError` carrying this certificate if one
        exceeds it."""
        for name, residual in residuals.items():
            self[name] = Check(bool(residual <= bound), float(residual))
        for name in residuals:
            if not self[name].ok:
                raise DilationResidualError(
                    f"{message}: {name} residual {self[name].residual:.2e} > {bound:.2e}", self
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
        out = np.zeros((x * n, x * n), dtype=np.complex128)
        for a in range(x):
            for b in range(x):
                out[a * n : (a + 1) * n, b * n : (b + 1) * n] = self.blocks[a, b]
        return out

    def dilation_cocycle(self) -> TwoCocycle:
        return self.sigma.multiply(self.rep.cocycle)


def validate_kernel(spec: CovariantKernelSpec, tol: Tolerances = DEFAULT_TOL) -> Checks:
    """Check the alpha composition rule, block covariance and positivity, as
    the verdicts ``alpha_cocycle``, ``covariant`` and ``positive``.  The
    composition residual covers every (a, b, x) at once, also when sigma
    itself is not a 2-cocycle (the verdict then fails); covariance is
    checked one group element at a time over every block pair."""
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

    err_cov = 0.0
    scale = max(1.0, float(np.abs(spec.blocks).max()) * float(np.abs(spec.alpha).max()) ** 2)
    weights = np.conj(spec.alpha)[:, :, None, None, None] * spec.alpha[:, None, :, None, None]
    for a in g.elements():
        # T[ax, ay] - conj(alpha(a, x)) alpha(a, y) U(a)^-+ T[x, y] U(a)^-1 for every (x, y)
        ua_inv = spec.rep.inv_mat(a)
        diff = spec.blocks[table[a][:, None], table[a]]
        diff -= weights[a] * (ua_inv.conj().T @ spec.blocks @ ua_inv)
        err_cov = max(err_cov, float(np.linalg.norm(diff, axis=(2, 3)).max()))
    checks["covariant"] = Check(err_cov <= tol.recon_fro * scale, err_cov)
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


def kolmogorov_decompose(
    spec: CovariantKernelSpec,
    tol: Tolerances = DEFAULT_TOL,
    basis_permutation=None,
) -> KolmogorovDecomposition:
    """Minimal covariant factorization of a valid kernel.

    The grand block matrix is factored through its eigendecomposition and the
    dilation representation is solved globally for each group element by
    least squares over the spanning factor blocks, then certified.

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
    nv = spec.n_v
    factors = np.stack(
        [f[:, x * nv : (x + 1) * nv] for x in range(spec.x_size)]
    ) if n_dil else np.zeros((spec.x_size, 0, nv), dtype=np.complex128)
    sym, checks = _solve_dilation_rep(spec, factors, n_dil, tol)
    decomp = KolmogorovDecomposition(spec, n_dil, factors, sym)
    checks.update(_certify_decomposition(spec, decomp, tol))
    return replace(decomp, checks=checks)


def transform_decomposition(decomp: KolmogorovDecomposition, q) -> KolmogorovDecomposition:
    """Unitarily transported decomposition (q factors[x], q sym q^+)."""
    q = as_matrix(q)
    factors = np.stack([q @ decomp.factors[x] for x in range(decomp.spec.x_size)])
    mats = np.stack([q @ decomp.sym(g) @ q.conj().T for g in decomp.spec.action.group.elements()])
    sym = MultiplierRep(decomp.spec.action.group, decomp.sym.cocycle, mats)
    return replace(decomp, factors=factors, sym=sym)


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
    if d1.rank == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    w, res = lstsq_define([(d1.stacked(), d2.stacked())], tol)
    scale = max(1.0, frob(d1.stacked()))
    if res > tol.recon_fro * scale:
        raise EquivalenceError(f"factor matching residual {res:.2e}")
    if not is_unitary(w, tol):
        raise EquivalenceError("connecting map failed the unitarity certificate")
    worst = max(
        frob(w @ d1.sym(g) - d2.sym(g) @ w) for g in d1.spec.action.group.elements()
    )
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
    """
    z_pairs = [(int(x), int(y)) for x, y in z_pairs]
    if not z_pairs:
        raise ValueError("Z must be nonempty")
    if decomp is None:
        decomp = kolmogorov_decompose(spec, tol)
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
