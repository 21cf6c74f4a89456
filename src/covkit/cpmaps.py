"""Covariant completely positive maps on finite-dimensional C*-algebras:
validation, minimal covariant dilations, Kraus extraction, extremality,
marginals over a tensor split, and subminimal dilations.

A map is stored by its form matrices on the matrix-unit basis of the
algebra and extended linearly.  Complete positivity is positivity of the
Choi matrix of every block (Choi's criterion), and the factorizations of
those matrices give the Kraus family and the minimal dilation, whose symmetry
u(g) (*) W(g) needs only a unitary W_{g,i} on each block's multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from .fingroup import FiniteGroup, MultiplierRep
from .kernels import (
    Check,
    Checks,
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
    offsets,
    psd_factor,
    psd_status,
    unitary_moves,
)


class InvarianceError(ValueError):
    """The unit value of the map is not invariant under the symmetry
    representation, so the covariant comparison class is empty."""


@dataclass(frozen=True)
class CPSymmetry:
    """Symmetry data of a covariant CP map.

    ``u`` implements the inner action b -> u(g) b u(g)^+ on the algebra's
    defining space (block-diagonal, possibly permuting equal-size blocks);
    ``rep`` acts on the module fiber.  Optional ``u_factors`` carry the
    factor implementations when the algebra is a declared tensor product.
    """

    u: MultiplierRep
    rep: MultiplierRep
    u_factors: tuple[MultiplierRep, MultiplierRep] | None = None

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group


@dataclass(frozen=True)
class CPMapSpec:
    algebra: FiniteCStarAlgebra
    module: ModuleSpace
    values: np.ndarray  # (n_units, n_V, n_V) form matrices on matrix units
    symmetry: CPSymmetry | None = None
    tensor: TensorSplit | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", values)
        nv = self.module.n_v
        if values.shape != (self.algebra.n_units, nv, nv):
            raise DimensionError("values must be (n_units, n_V, n_V)")
        if self.symmetry is not None:
            if self.symmetry.u.dim != self.algebra.defining_dim:
                raise DimensionError("symmetry u acts on the wrong space")
            if self.symmetry.rep.dim != nv:
                raise DimensionError("symmetry rep acts on the wrong space")
        if self.tensor is not None and self.tensor.algebra.blocks != self.algebra.blocks:
            raise DimensionError("tensor split does not match the algebra")

    @property
    def n_v(self) -> int:
        return self.module.n_v

    def value_of(self, bmat) -> np.ndarray:
        """Form matrix of the map at an algebra element (or a stack of them)."""
        coeffs = self.algebra.coefficients(bmat)
        return np.tensordot(coeffs, self.values, axes=(-1, 0))

    def unit_value(self) -> np.ndarray:
        return self.value_of(self.algebra.one())

    def beta(self, g, bmat) -> np.ndarray:
        u = self.symmetry.u
        return u(g) @ bmat @ u(g).conj().T

    def choi_blocks(self) -> list[np.ndarray]:
        """Choi matrix C_i[(b, v), (d, w)] = S(E^i_bd)[v, w] of every block."""
        return _choi_blocks(self.algebra, self.values)

    def choi(self) -> np.ndarray:
        """Choi matrix of a single-block algebra."""
        if len(self.algebra.blocks) != 1:
            raise DimensionError("choi() needs a single full matrix block")
        return self.choi_blocks()[0]


def _choi_blocks(alg: FiniteCStarAlgebra, stack) -> list[np.ndarray]:
    """Choi matrix of every block of a stack of unit images.  Because
    E_ab^+ E_cd = delta_ac E_bd, the grand kernel [S(E_k^+ E_l)] over the
    matrix units is the direct sum of I_{n_i} (x) C_i."""
    d, out = stack.shape[1], []
    for i, n in enumerate(alg.blocks):
        part = stack[alg.unit_offsets[i] : alg.unit_offsets[i + 1]]
        out.append(part.reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d))
    return out


def _cp_status(alg: FiniteCStarAlgebra, stack, tol) -> tuple[bool, float]:
    """Complete positivity of a stack of unit images: every Choi block is
    tested against its own scale, and the residual is the largest."""
    status = [psd_status(c, tol) for c in _choi_blocks(alg, stack)]
    return all(ok for ok, _ in status), max(res for _, res in status)


def kraus_from_choi(choi, k_dim, v_dim, tol: Tolerances = DEFAULT_TOL):
    """Kraus operators B_j (K x V) of a CP map from its Choi block matrix,
    with a deterministic gauge: descending eigenvalues, first significant
    entry rotated real positive."""
    n, f = psd_factor(choi, tol)
    lead = f[np.arange(n), np.argmax(np.abs(f) > 1e-12, axis=1)]
    lead[np.abs(lead) <= 1e-12] = 1.0
    return list((f / (lead / np.abs(lead))[:, None]).reshape(n, k_dim, v_dim))


def cp_validate(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL) -> Checks:
    """Complete positivity and covariance, checked over every matrix unit
    and the group's generators at once.  Normality is structural: every
    linear map between finite-dimensional algebras is normal, so it has no
    verdict.  Complete positivity passes if every block's Choi matrix passes
    :func:`psd_status` against its own scale; the residual is the most
    negative eigenvalue over the blocks, that of the grand kernel.
    Covariance at g and h gives it at gh, since Ad of a multiplier
    representation is a homomorphism, so it is checked at the generators s
    of ``group.generators()`` and passes if ``max_word_length`` times the
    residual is within the bound.  Where some b -> u(s) b u(s)^+ leaves the
    algebra, the residual is the largest part of a u(s) E_k u(s)^+ outside
    it; otherwise S(beta_s(E_k)) is compared with rep(s) S(E_k) rep(s)^+
    block by block (:func:`_moved_block`)."""
    checks = Checks(completely_positive=Check(*_cp_status(spec.algebra, spec.values, tol)))
    covariant, worst = True, 0.0
    # the trivial group has no generators: u(e) = rep(e) = I is all there is
    if spec.symmetry is not None and spec.symmetry.group.generators():
        alg, group = spec.algebra, spec.symmetry.group
        gens = list(group.generators())
        u, rep = spec.symmetry.u.matrices[gens], spec.symmetry.rep.matrices[gens]
        outside, size = alg.outside_norms(u)
        leaks = np.any(outside > tol.recon_fro * np.maximum(1.0, size), axis=-1)
        if leaks.any():
            covariant, worst = False, float(outside[leaks].max())
        else:
            sigma, w = alg.block_action(u)
            uinv = rep.conj().transpose(0, 2, 1) if spec.symmetry.rep.unitary_flag else np.linalg.inv(rep)
            expected = uinv.conj().transpose(0, 2, 1)[:, None] @ spec.values @ uinv[:, None]
            for i, (a, b) in enumerate(zip(alg.unit_offsets, alg.unit_offsets[1:])):
                moved = _moved_block(alg, sigma, w, spec.values, i)
                worst = max(worst, float(_norms(moved - expected[:, a:b]).max(initial=0.0)))
            covariant = group.max_word_length * worst <= tol.recon_fro * max(1.0, float(np.abs(spec.values).max()))
    checks["covariant"] = Check(covariant, worst)
    return checks


def _moved_block(alg: FiniteCStarAlgebra, sigma, w, stack, i) -> np.ndarray:
    """The linear map E_k -> stack[k] at beta_g(E^i_ab) = u(g) E^i_ab u(g)^+
    for every g of a stack of u(g) and unit of block i, (|stack|, n_i^2,
    ...), from the block action (sigma, w) of the stack: beta_g(E^i_ab) =
    sum_cd w_{g,i}[c, a] conj(w_{g,i}[d, b]) E^{sigma_g(i)}_cd, so with the
    images of block sigma_g(i) laid out as n_i x n_i matrices M, the result
    is w^T M conj(w)."""
    n, wi = alg.blocks[i], w[i]
    src = stack[alg.unit_offsets[sigma[:, i], None] + np.arange(n * n)]
    src = src.reshape(len(wi), n, n, -1).transpose(0, 3, 1, 2)
    moved = wi.transpose(0, 2, 1)[:, None] @ src @ wi.conj()[:, None]
    return moved.transpose(0, 2, 3, 1).reshape((len(wi), n * n) + stack.shape[1:])


def _tensor_pattern(algebra, mult):
    """Indices (unit, row, col) of the unit entries of every T_k = E_ab (x)
    I_{r_i}, k = (i, a, b), on the direct sum of C^{n_i} (x) C^{r_i}."""
    out, start = [], 0
    for i, (n, r) in enumerate(zip(algebra.blocks, mult)):
        a, b, lam = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), np.arange(r), indexing="ij"))
        out.append((algebra.unit_offsets[i] + a * n + b, start + a * r + lam, start + b * r + lam))
        start += n * r
    return tuple(np.concatenate(part) for part in zip(*out))


@dataclass(frozen=True)
class KSGNSDilation:
    """Minimal dilation S_b = j^+ pi(b) j with covariant intertwiners.

    The dilation space is the direct sum of C^{n_i} (x) C^{r_i}, r_i =
    ``mult[i]``, and pi(E^i_ab) = E_ab (x) I_{r_i} on it: every unital
    representation of the algebra has this form up to unitary equivalence,
    so pi is a function of the algebra and ``mult`` (:func:`_tensor_pattern`)
    and is never stored.  Nor is the symmetry: sym(g) = u(g) (*) W(g) moves
    block i to block sigma_g(i) as w_{g,i} (x) W_{g,i}, w_{g,i} the (sigma_g(i),
    i) block of u(g), so the twist sym(g) pi(b) = pi(beta_g(b)) sym(g) holds
    by construction; only the multiplicity unitaries W_{g,i} are stored.  A
    dilation off this layout cannot be built.
    """

    spec: CPMapSpec
    rank: int
    mult: tuple  # (r_i), so N = sum_i n_i r_i
    j: np.ndarray  # (N, n_V)
    mult_rep: tuple | None = None  # per block i, the (|G|, r_i, r_i) stack of W_{g,i}
    checks: Checks = field(default_factory=Checks)

    def __post_init__(self):
        filled = sum(b * r for b, r in zip(self.spec.algebra.blocks, self.mult))
        if filled != self.rank or np.shape(self.j) != (self.rank, self.spec.n_v):
            raise DilationResidualError("multiplicities or j do not fill the dilation space")
        order = self.spec.symmetry.group.order if self.spec.symmetry else -1
        if self.mult_rep is not None and [np.shape(w) for w in self.mult_rep] != [(order, r, r) for r in self.mult]:
            raise DilationResidualError("multiplicity unitaries do not match the multiplicities")

    def pi(self, bmat) -> np.ndarray:
        """pi of an algebra element or a stack of them: the coefficients
        scattered onto the pattern."""
        unit, rows, cols = _tensor_pattern(self.spec.algebra, self.mult)
        coeffs = self.spec.algebra.coefficients(bmat)
        out = np.zeros(coeffs.shape[:-1] + (self.rank, self.rank), dtype=np.complex128)
        out[..., rows, cols] = coeffs[..., unit]
        return out

    @property
    def r_blocks(self) -> np.ndarray:
        """pi(E_k) j for every matrix unit k, (n_units, N, n_V): rows of j moved
        from the column cell of T_k to its row cell."""
        unit, rows, cols = _tensor_pattern(self.spec.algebra, self.mult)
        out = np.zeros((self.spec.algebra.n_units, self.rank, self.spec.n_v), dtype=np.complex128)
        out[unit, rows] = self.j[cols]
        return out

    @property
    def pi_units(self) -> np.ndarray:
        """The dense (n_units, N, N) stack of pi(E_k), built on request."""
        out = np.zeros((self.spec.algebra.n_units, self.rank, self.rank), dtype=np.complex128)
        out[_tensor_pattern(self.spec.algebra, self.mult)] = 1.0
        return out

    def sym(self, g) -> np.ndarray:
        """The dense sym(g) = u(g) (*) W(g), built on request: the N x N
        matrix whose block (sigma_g(i), i) is w_{g,i} (x) W_{g,i}."""
        sigma, w = self.spec.algebra.block_action(self.spec.symmetry.u(g))
        start = offsets([n * r for n, r in zip(self.spec.algebra.blocks, self.mult)])
        out = np.zeros((self.rank, self.rank), dtype=np.complex128)
        for i, (to, wi, ws) in enumerate(zip(sigma, w, self.mult_rep)):
            out[start[to] : start[to + 1], start[i] : start[i + 1]] = np.kron(wi, ws[g])
        return out


def _kraus_blocks(dil: KSGNSDilation) -> list[np.ndarray]:
    """The Kraus operators A^i_l of every block i, an (r_i, n_i, n_V) stack
    read off j: row (i, a, l) of j is row a of A^i_l."""
    blocks, nv = dil.spec.algebra.blocks, dil.spec.n_v
    start = offsets([n * r for n, r in zip(blocks, dil.mult)])
    return [dil.j[a:b].reshape(n, r, nv).transpose(1, 0, 2) for a, b, n, r in zip(start, start[1:], blocks, dil.mult)]


def ksgns(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL) -> KSGNSDilation:
    """Minimal covariant dilation of a valid covariant CP map.

    Block i's Choi matrix factors into r_i = rank C_i Kraus operators A^i_l
    (n_i x n_V), so S(b) = sum_{i,l} A^i_l^+ b_i A^i_l.  On the dilation
    space, the direct sum of C^{n_i} (x) C^{r_i}, row (i, a, l) of j is row a
    of A^i_l and pi(E^i_ab) = E_ab (x) I_{r_i} exactly, so the rank is
    N = sum_i n_i r_i.  With a symmetry, sym(g) = u(g) (*) W(g), and the
    multiplicity unitaries W_{g,i} come from one solve per block
    (:func:`_certify_covariant`).  What does not hold by construction is
    certified against the tolerances.
    """
    report = cp_validate(spec, tol)
    if not report.ok:
        raise ValueError(f"cp map invalid: {', '.join(report.failed())}")
    alg, nv = spec.algebra, spec.n_v
    kraus = [np.reshape(kraus_from_choi(c, n, nv, tol), (-1, n, nv)) for n, c in zip(alg.blocks, spec.choi_blocks())]
    j = np.concatenate([a.transpose(1, 0, 2).reshape(-1, nv) for a in kraus]).astype(np.complex128)
    dil = KSGNSDilation(spec, len(j), tuple(len(a) for a in kraus), j)
    checks = _certify_reconstruction(dil, tol)
    if spec.symmetry is not None and dil.rank:
        mult_rep, covariant = _certify_covariant(dil, tol)
        dil = replace(dil, mult_rep=mult_rep)
        checks.update(covariant)
    return replace(dil, checks=checks)


def _norms(stack) -> np.ndarray:
    """Frobenius norm of every matrix of a stack, in one pass over its
    real and imaginary parts."""
    stack = np.ascontiguousarray(stack, dtype=np.complex128)
    flat = stack.view(np.float64).reshape(stack.shape[:-2] + (2 * stack.shape[-2] * stack.shape[-1],))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def _certify_reconstruction(dil: KSGNSDilation, tol) -> Checks:
    """Certify the reconstruction j^+ pi(E^i_ab) j = sum_l A^i_l[a]^+ A^i_l[b]
    = S(E^i_ab), and minimality: the stack F of the blocks pi(E_k) j, which
    is +_i I_{n_i} (x) A^i up to order with A^i[l, (b, v)] = A^i_l[b, v],
    has full rank iff every A^i does at the cutoff of
    :func:`~covkit.numlin.rank` over F, so F is never formed.  pi is a unital
    *-representation exactly, by construction."""
    kraus, nv, blocks = _kraus_blocks(dil), dil.spec.n_v, dil.spec.algebra.blocks
    values = np.concatenate([np.einsum("lav,lbw->abvw", a.conj(), a).reshape(-1, nv, nv) for a in kraus])
    checks = Checks().require(
        tol.recon_fro * max(1.0, frob(dil.j) ** 2),
        "reconstruction failed",
        reconstruction=float(_norms(values - dil.spec.values).max(initial=0.0)),
    )
    sv = [np.linalg.svd(a.reshape(r, n * nv), compute_uv=False) for a, n, r in zip(kraus, blocks, dil.mult)]
    cut = tol.rank_rel * max([1.0] + [s[0] for s in sv if s.size])
    if any(np.sum(s > cut) != r for s, r in zip(sv, dil.mult)):
        raise DilationResidualError("dilation is not minimal", checks)
    return checks


def _cells(alg, mult):
    """The layout of :func:`ksgns` in cells (i, a) of width r_i, numbered as
    on the defining space: the rows of every block, and the bin of every
    entry's (row cell, column cell)."""
    start = offsets([b * r for b, r in zip(alg.blocks, mult)])
    cell = np.repeat(np.arange(alg.defining_dim), np.repeat(mult, alg.blocks))
    return [slice(a, b) for a, b in zip(start[:-1], start[1:])], (cell[:, None] * alg.defining_dim + cell).ravel()


def _unit_commutators(mat, alg, mult, cuts, pair) -> np.ndarray:
    """||[M, T_k]||_F for every unit k of the pattern, by block moves: M T_k
    alone off the row cell (i, a), T_k M alone off the column cell (i, b),
    and the diagonal cells (i, a), (i, b) against each other."""
    dim, (at, to), uoff = alg.defining_dim, alg.unit_positions, alg.unit_offsets
    mass = np.bincount(pair, np.abs(mat).ravel() ** 2, dim**2).reshape(dim, -1) * (1 - np.eye(dim))
    res = mass.sum(0)[at] + mass.sum(1)[to]
    for i, (ni, ri) in enumerate(zip(alg.blocks, mult)):
        diag = mat[cuts[i], cuts[i]].reshape(ni, ri, ni, ri)[range(ni), :, range(ni)]
        res[uoff[i] : uoff[i + 1]] += (np.abs(diag[:, None] - diag[None]) ** 2).sum((2, 3)).ravel()
    return np.sqrt(res)


def _certify_covariant(dil: KSGNSDilation, tol) -> tuple[tuple, Checks]:
    """The multiplicity unitaries W_{g,i}, solved from (I (x) W_{g,i}) j_i =
    (w_{g,i}^+ (x) I) j_{sigma_g(i)} rep(g) on the independent A^i_l (one
    :func:`~covkit.numlin.unitary_moves` per block, stacked over the group)
    or the dilation's own re-checked, and their certificate: ``sym_unitary``
    from the blocks (w^+ w) (x) (W^+ W) of sym(g)^+ sym(g), so a non-unitary
    u is caught too; ``sym_j``, the solve residual ||sym(g) j - j rep(g)||_F;
    ``sym_cocycle``, the block cocycle W_{a,sigma_b(i)} W_{b,i} = conj(c_u(a,
    b)) c_rep(a, b) W_{ab,i} for the generators a and every b at once, which
    weighted by n_i is the dense ||sym(a) sym(b) - c_rep(a, b) sym(ab)||_F.
    With c_u and c_rep 2-cocycles, the rows of a and a' give the row of aa'
    (induction on word length, as in :func:`~covkit.fingroup.rep_status`),
    so ``max_word_length`` times the residual is held to the bound."""
    spec, group, rep, n = dil.spec, dil.spec.symmetry.group, dil.spec.symmetry.rep, dil.rank
    sigma, w = spec.algebra.block_action(spec.symmetry.u.matrices)
    if np.any(np.asarray(dil.mult)[sigma] != dil.mult):
        raise DilationResidualError("u(g) moves a block onto one of another multiplicity")
    kraus, mult_rep, unit, moved = _kraus_blocks(dil), [], 0.0, 0.0
    for i, a in enumerate(kraus):
        ri, ni, nv = a.shape
        target = np.stack([kraus[k] for k in sigma[:, i]]) @ rep.matrices[:, None]
        target = np.einsum("gba,glbv->glav", w[i].conj(), target).reshape(group.order, ri, ni * nv)
        given = None if dil.mult_rep is None else dil.mult_rep[i]
        ws, _, res = unitary_moves(a.reshape(ri, ni * nv), target, tol, given)
        grams = [x.conj().transpose(0, 2, 1) @ x for x in (w[i], ws)]
        gram = np.einsum("gab,glm->galbm", *grams).reshape(group.order, ni * ri, ni * ri)
        unit, moved = unit + _norms(gram - np.eye(ni * ri)) ** 2, moved + res**2
        mult_rep.append(ws)
    message = "covariant dilation certification failed"
    checks = Checks().require(tol.unitary_fro * max(1.0, np.sqrt(n)), message, sym_unitary=np.sqrt(unit).max())
    # pairs[a, b] = sum_i n_i ||W_{a,sigma_b(i)} W_{b,i} - c(a, b) W_{ab,i}||_F^2 for generators a
    gens = list(group.generators())
    c = (spec.symmetry.u.cocycle.values.conj() * rep.cocycle.values)[gens, :, None, None]
    pairs = 0.0
    for i, (ni, ws) in enumerate(zip(spec.algebra.blocks, mult_rep)):
        after = np.stack([mult_rep[k][gens] for k in sigma[:, i]]).transpose(1, 0, 2, 3)
        pairs = pairs + ni * _norms(after @ ws - c * ws[group.mul[gens]]) ** 2
    residuals = {"sym_j": np.sqrt(moved).max(), "sym_cocycle": np.sqrt(pairs).max(initial=0.0)}
    bound = tol.recon_fro * max(1.0, np.sqrt(n), frob(dil.j))
    checks.require(bound, message, {"sym_cocycle": group.max_word_length}, **residuals)
    return tuple(mult_rep), checks


class NotSingleBlockError(ValueError):
    """The operation needs a single full matrix block."""


def kraus_extract(spec: CPMapSpec, dilation: KSGNSDilation, tol: Tolerances = DEFAULT_TOL):
    """Kraus family A_l with S_b = sum_l A_l^+ b A_l, for a single-block
    algebra: the operators that the dilation of :func:`ksgns` stacks in j
    (row (a, l) of j is row a of A_l), so the count equals the rank of the
    Choi matrix.  The dilation must reconstruct ``spec`` and be minimal."""
    if len(spec.algebra.blocks) != 1:
        raise NotSingleBlockError("kraus extraction needs a single full block")
    dilation = replace(dilation, spec=spec)
    _certify_reconstruction(dilation, tol)
    return list(_kraus_blocks(dilation)[0])


def _certify_layout_commutant(dil: KSGNSDilation, basis, tol):
    """Re-check a commutant basis on the layout of :func:`ksgns` against the
    whole algebra and group: every pi unit as ||[D, T_k]|| by block moves,
    then every sym(g) and j^+ D j through :func:`_certify_commutant`."""
    if not basis:
        return
    alg, mult = dil.spec.algebra, dil.mult
    cuts, pair = _cells(alg, mult)
    pattern = max(float(_unit_commutators(d, alg, mult, cuts, pair).max()) for d in basis)
    elements = () if dil.mult_rep is None else dil.spec.symmetry.group.elements()
    full = np.reshape([dil.sym(g) for g in elements], (-1, dil.rank, dil.rank))
    _certify_commutant(basis, full, [(dil.j[None], dil.j[None])], tol, pattern=pattern, scale=np.sqrt(max(mult)))


def _cp_neighbours(spec: CPMapSpec, dil: KSGNSDilation, witness) -> tuple:
    """The maps b -> j^+ (I +- W) pi(b) j."""
    jh, blocks = dil.j.conj().T, dil.r_blocks
    return tuple(replace(spec, values=(jh @ (np.eye(dil.rank) + sign * witness)) @ blocks) for sign in (+1.0, -1.0))


def cp_extremal(
    spec: CPMapSpec, dilation: KSGNSDilation | None = None, tol: Tolerances = DEFAULT_TOL
) -> ExtremalityCertificate:
    """Extremality of the map among covariant CP maps with the same value at
    the algebra unit (Arveson's criterion).

    The map is extreme iff D = 0 is the only D that commutes with pi(A) and
    the dilation symmetry and has j^+ D j = 0.  On the layout of a
    :class:`KSGNSDilation`, pi(A)' = +_i I_{n_i} (x) M_{r_i}, so the system has
    sum_i r_i^2 unknowns and rows from the images of the group's generators
    only (:func:`~covkit.numlin.constrained_commutant` with the layout
    (n_i, r_i) and the compression (j, j)).  A passed-in dilation must
    reconstruct ``spec``, be minimal and, with a symmetry, pass the covariant
    certificate of :func:`ksgns`, or :class:`DilationResidualError` is
    raised.  The basis is re-checked against every group element and every
    matrix unit.  On non-extremality both neighbours j^+ (I +- W) pi(.) j
    re-validate, keep the unit value and average to the input.
    """
    if dilation is None:
        dilation = ksgns(spec, tol)
    else:
        # a passed-in dilation is trusted only once it dilates this map, covariantly
        dilation = replace(dilation, spec=spec)
        _certify_reconstruction(dilation, tol)
        if spec.symmetry is not None and dilation.rank:
            if dilation.mult_rep is None:
                raise DilationResidualError("the dilation carries no group representation")
            _certify_covariant(dilation, tol)
    if spec.symmetry is not None:
        t1, rep = spec.unit_value(), spec.symmetry.rep.matrices
        if _norms(rep.conj().transpose(0, 2, 1) @ t1 @ rep - t1).max() > tol.recon_fro * max(1.0, frob(t1)):
            raise InvarianceError("unit value of the map must be invariant under the module representation")

    if dilation.rank == 0:
        return ExtremalityCertificate(True, None, None, 0)
    group_gens = spec.symmetry.group.generators() if spec.symmetry is not None else ()
    layout = list(zip(spec.algebra.blocks, dilation.mult))
    compressions = [(dilation.j[None], dilation.j[None])]
    basis = constrained_commutant([dilation.sym(s) for s in group_gens], compressions, layout=layout, tol=tol)
    _certify_layout_commutant(dilation, basis, tol)
    if not basis:
        return ExtremalityCertificate(True, None, None, 0)
    witness = _hermitian_witness(basis, tol)
    if witness is None:
        return ExtremalityCertificate(True, None, None, len(basis))
    perturbed = _cp_neighbours(spec, dilation, witness)
    scale = max(1.0, frob(dilation.j) ** 2)
    _revalidate(spec, perturbed, cp_validate, lambda cp: cp.values, scale, tol, unit_value=CPMapSpec.unit_value)
    return ExtremalityCertificate(False, witness, perturbed, len(basis))


# ---------------------------------------------------------------------------
# marginals and subminimal dilations
# ---------------------------------------------------------------------------


def marginals(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL):
    """The two marginal maps of a CP map on a declared tensor product."""
    if spec.tensor is None:
        raise DimensionError("marginals need a declared tensor split")
    split = spec.tensor
    left, right = split.left, split.right

    def build(factor, embed_one_other, own_u):
        values = np.stack(
            [spec.value_of(embed_one_other(u)) for u in factor.units()]
        )
        symmetry = None
        if spec.symmetry is not None and own_u is not None:
            symmetry = CPSymmetry(u=own_u, rep=spec.symmetry.rep)
        return CPMapSpec(
            algebra=factor, module=spec.module, values=values, symmetry=symmetry
        )

    u_left = u_right = None
    if spec.symmetry is not None and spec.symmetry.u_factors is not None:
        u_left, u_right = spec.symmetry.u_factors
    first = build(left, lambda b: split.embed(b, right.one()), u_left)
    second = build(right, lambda c: split.embed(left.one(), c), u_right)
    return first, second


@dataclass(frozen=True)
class SubminimalMap:
    """Unique unital CP map into the commutant of the first-marginal
    dilation reproducing the joint map."""

    e_units: np.ndarray  # (n_units of the second factor, N, N)
    checks: Checks

    def of(self, algebra, cmat) -> np.ndarray:
        coeffs = algebra.coefficients(cmat)
        return np.tensordot(coeffs, self.e_units, axes=(0, 0))


def subminimal(
    spec: CPMapSpec, dilation: KSGNSDilation, tol: Tolerances = DEFAULT_TOL
) -> SubminimalMap:
    """Solve for the unique map E with S(b (x) c) = j^+ pi(b) E(c) j,
    commuting with pi and covariant for the second factor's action.

    ``dilation`` must be the minimal dilation of the first marginal.
    """
    if spec.tensor is None:
        raise DimensionError("subminimal needs a declared tensor split")
    split = spec.tensor
    left, right = split.left, split.right
    n = dilation.rank
    nv = spec.n_v

    # columns pi(b) j over the unit basis of the left factor span C^N
    _certify_reconstruction(dilation, tol)
    blocks = dilation.r_blocks
    pinv = np.linalg.pinv(np.hstack(list(blocks)))

    e_units = np.zeros((right.n_units, n, n), dtype=np.complex128)
    left_adj = left.adjoint_table()
    left_units = list(left.units())
    for kc, cunit in enumerate(right.units()):
        w = np.zeros((left.n_units * nv, left.n_units * nv), dtype=np.complex128)
        for k1 in range(left.n_units):
            b1 = left_units[left_adj[k1]]
            for k2 in range(left.n_units):
                w[k1 * nv : (k1 + 1) * nv, k2 * nv : (k2 + 1) * nv] = spec.value_of(
                    split.embed(b1 @ left_units[k2], cunit)
                )
        e_units[kc] = pinv.conj().T @ w @ pinv

    scale = max(1.0, frob(dilation.j) ** 2)
    # reconstruction over all unit pairs
    worst = 0.0
    for kb, bunit in enumerate(left_units):
        for kc, cunit in enumerate(right.units()):
            # j^+ pi(E_kb) = (pi(E_kb^+) j)^+
            lhs = blocks[left_adj[kb]].conj().T @ e_units[kc] @ dilation.j
            worst = max(worst, frob(lhs - spec.value_of(split.embed(bunit, cunit))))
    checks = Checks().require(tol.recon_fro * scale, "subminimal reconstruction failed", reconstruction=worst)

    # unital and commuting with pi
    one_coeffs = right.coefficients(right.one())
    e_one = np.tensordot(one_coeffs, e_units, axes=(0, 0))
    cuts, pair = _cells(left, dilation.mult)
    worst = max(float(_unit_commutators(e, left, dilation.mult, cuts, pair).max()) for e in e_units)
    lim = tol.recon_fro * max(1.0, np.sqrt(max(n, 1)))
    checks.require(
        lim, "subminimal map failed unitality/commutation", unital=frob(e_one - np.eye(n)), commutes=worst
    )

    # complete positivity of E as a map on the right factor
    if not _cp_status(right, e_units, tol)[0]:
        raise DilationResidualError("subminimal map is not completely positive", checks)

    # covariance against the second factor's action
    if (
        spec.symmetry is not None
        and dilation.mult_rep is not None
        and spec.symmetry.u_factors is not None
    ):
        sigma, w = right.block_action(spec.symmetry.u_factors[1].matrices)
        syms = np.stack([dilation.sym(g) for g in spec.symmetry.group.elements()])[:, None]
        worst = 0.0
        for i, (a, b) in enumerate(zip(right.unit_offsets, right.unit_offsets[1:])):
            diff = syms @ e_units[a:b] - _moved_block(right, sigma, w, e_units, i) @ syms
            worst = max(worst, float(_norms(diff).max()))
        checks.require(lim, "subminimal map failed covariance", covariance=worst)
    return SubminimalMap(e_units=e_units, checks=checks)
