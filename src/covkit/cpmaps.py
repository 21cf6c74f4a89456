"""Covariant completely positive maps on finite-dimensional C*-algebras:
validation, minimal covariant dilations, Kraus extraction, extremality,
marginals over a tensor split, and subminimal dilations.

A map is stored by its form matrices on the matrix-unit basis of the
algebra and extended linearly.  Complete positivity is positivity of the
Choi matrix of every block (Choi's criterion), and the factorizations of
those matrices give the Kraus family and the minimal dilation.
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
    rank,
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
    """Complete positivity and covariance, checked one group element at a
    time over every matrix unit at once.  Normality is structural: every
    linear map between finite-dimensional algebras is normal, so it has no
    verdict.  Complete positivity passes if every block's Choi matrix passes
    :func:`psd_status` against its own scale; the residual is the most
    negative eigenvalue over the blocks, that of the grand kernel.  Where
    some b -> u b u^+ leaves the algebra, the covariance residual is the
    largest part of a u E_k u^+ outside it."""
    checks = Checks(completely_positive=Check(*_cp_status(spec.algebra, spec.values, tol)))
    covariant, worst = True, 0.0
    if spec.symmetry is not None:
        alg, sym = spec.algebra, spec.symmetry
        leaves = 0.0
        for g in sym.group.elements():
            outside, size = alg.outside_norms(sym.u(g))
            if np.any(outside > tol.recon_fro * np.maximum(1.0, size)):
                leaves = max(leaves, float(outside.max()))
                continue
            uinv = sym.rep.inv_mat(g)
            lhs = alg.transport(sym.u(g), spec.values)
            rhs = uinv.conj().T @ spec.values @ uinv
            worst = max(worst, float(np.linalg.norm(lhs - rhs, axis=(1, 2)).max()))
        if leaves:
            covariant, worst = False, leaves
        else:
            covariant = worst <= tol.recon_fro * max(1.0, float(np.abs(spec.values).max()))
    checks["covariant"] = Check(covariant, worst)
    return checks


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
    and is never stored.  ``sym`` intertwines the module representation into
    the dilation, ``sym_bar`` is its commuting twist pi(u_g^+) sym(g) when
    every u_g lies in the algebra.  A dilation whose multiplicities or ``j``
    do not fill the space cannot be built.
    """

    spec: CPMapSpec
    rank: int
    mult: tuple  # (r_i), so N = sum_i n_i r_i
    j: np.ndarray  # (N, n_V)
    sym: MultiplierRep | None
    sym_bar: MultiplierRep | None
    checks: Checks = field(default_factory=Checks)

    def __post_init__(self):
        filled = sum(b * r for b, r in zip(self.spec.algebra.blocks, self.mult))
        if filled != self.rank or np.shape(self.j) != (self.rank, self.spec.n_v):
            raise DilationResidualError("multiplicities or j do not fill the dilation space")

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


def ksgns(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL) -> KSGNSDilation:
    """Minimal covariant dilation of a valid covariant CP map.

    Block i's Choi matrix factors into r_i = rank C_i Kraus operators A^i_l
    (n_i x n_V), so S(b) = sum_{i,l} A^i_l^+ b_i A^i_l.  On the dilation
    space, the direct sum of C^{n_i} (x) C^{r_i}, row (i, a, l) of j is row a
    of A^i_l and pi(E^i_ab) = E_ab (x) I_{r_i} exactly, so the rank is
    N = sum_i n_i r_i.  The dilation blocks r(E_k) = pi(E_k) j stack into F
    of full row rank N, and the group representation solves sym(g) F =
    target through one pseudo-inverse of F.  Every defining identity is then
    certified against the tolerances.
    """
    report = cp_validate(spec, tol)
    if not report.ok:
        raise ValueError(f"cp map invalid: {', '.join(report.failed())}")
    alg, nv = spec.algebra, spec.n_v
    m = alg.n_units
    rows, mult = [], []
    for n, choi in zip(alg.blocks, spec.choi_blocks()):
        ops = np.reshape(kraus_from_choi(choi, n, nv, tol), (-1, n, nv))
        rows.append(ops.transpose(1, 0, 2).reshape(-1, nv))
        mult.append(len(ops))
    j = np.concatenate(rows).astype(np.complex128)
    n_dil = len(j)
    dil = KSGNSDilation(spec, n_dil, tuple(mult), j, None, None)
    r_blocks = dil.r_blocks
    checks = _certify_reconstruction(dil, r_blocks, tol)

    sym = sym_bar = None
    if spec.symmetry is not None and n_dil:
        f = r_blocks.transpose(1, 0, 2).reshape(n_dil, m * nv)
        pinv = np.linalg.pinv(f)
        scale = max(1.0, frob(f))
        group, u, rep = spec.symmetry.group, spec.symmetry.u, spec.symmetry.rep
        mats = np.zeros((group.order, n_dil, n_dil), dtype=np.complex128)
        worst = 0.0
        for g in group.elements():
            # the target r(beta_g(E_k)) rep(g) for every unit k, as one block row
            moved = alg.transport(u(g), r_blocks) @ rep(g)
            targets = moved.transpose(1, 0, 2).reshape(n_dil, m * nv)
            mats[g] = targets @ pinv
            worst = max(worst, frob(mats[g] @ f - targets))
        checks.require(tol.recon_fro * scale, "dilation representation solve failed", sym_solve=worst)
        sym = MultiplierRep(group, rep.cocycle, mats)
        sym_bar = _build_bar(dil, sym, tol)
        dil = replace(dil, sym=sym, sym_bar=sym_bar)
        checks.update(_certify_covariant(dil, tol))
    return replace(dil, checks=checks)


def _build_bar(dil, sym, tol):
    """sym_bar(g) = pi(u_g^+) sym(g) when u_g lies in the algebra."""
    spec = dil.spec
    u = spec.symmetry.u.matrices
    if not spec.algebra.contains(u, tol):
        return None
    mats = dil.pi(u.conj().transpose(0, 2, 1)) @ sym.matrices
    cocycle = spec.symmetry.u.cocycle.conj().multiply(spec.symmetry.rep.cocycle)
    return MultiplierRep(spec.symmetry.group, cocycle, mats)


def _norms(stack) -> np.ndarray:
    """Frobenius norm of every matrix of a stack, in one pass over its
    real and imaginary parts."""
    stack = np.ascontiguousarray(stack, dtype=np.complex128)
    flat = stack.view(np.float64).reshape(stack.shape[:-2] + (2 * stack.shape[-2] * stack.shape[-1],))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def _certify_reconstruction(dil: KSGNSDilation, blocks, tol) -> Checks:
    """Certify the reconstruction j^+ pi(E_k) j = S(E_k) from the blocks
    pi(E_k) j, and minimality: the blocks span the dilation space.  pi needs
    no certificate of its own: the T_k = E_ab (x) I_{r_i} are the matrix
    units of +_i M_{n_i} (x) I_{r_i} by construction, so pi is a unital
    *-representation exactly."""
    n = dil.rank
    checks = Checks().require(
        tol.recon_fro * max(1.0, frob(dil.j) ** 2),
        "reconstruction failed",
        reconstruction=float(_norms(dil.j.conj().T @ blocks - dil.spec.values).max(initial=0.0)),
    )
    if n and rank(blocks.transpose(1, 0, 2).reshape(n, -1), tol) != n:
        raise DilationResidualError("dilation is not minimal", checks)
    return checks


def _cells(alg, mult):
    """The layout of :func:`ksgns` in cells of width r_i: the rows of every
    block, the cell (i, a) of every dilation index, numbered as on the
    defining space, and the bin of every entry's (row cell, column cell)."""
    start = offsets([b * r for b, r in zip(alg.blocks, mult)])
    cell = np.repeat(np.arange(alg.defining_dim), np.repeat(mult, alg.blocks))
    pair = (cell[:, None] * alg.defining_dim + cell).ravel()
    return [slice(a, b) for a, b in zip(start[:-1], start[1:])], cell, pair


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


def _certify_covariant(dil: KSGNSDilation, tol) -> Checks:
    """Unitarity, intertwining and twist of the dilation representation, and
    the commuting twist's commutation and cocycle, one group element at a
    time.  Twist and commutation are block moves of S = sym(g) over cells
    (i, a) of width r_i against the pattern T_k, k = (i, a, b), of pi: S T_k
    moves S's column cell (i, a) to (i, b), and the block-j rows of T(beta_g
    E_k) S are w[:, a] (x) (w[:, b]^+ S_j), w the (j, i) block of u(g).  Each
    region is a norm of slices: no N^3 product, no difference of norms."""
    spec = dil.spec
    alg, group = spec.algebra, spec.symmetry.group
    n, s = dil.rank, dil.sym.matrices
    limit = tol.recon_fro * max(1.0, np.sqrt(max(n, 1)), frob(dil.j))
    worst_unit = float(_norms(s.conj().transpose(0, 2, 1) @ s - np.eye(n)).max())
    worst_j = float(_norms(dil.j @ spec.symmetry.rep.matrices - s @ dil.j).max())
    blocks, mult, at = alg.blocks, dil.mult, alg.unit_positions[0]
    off, uoff, (cuts, cell, pair) = alg.offsets, alg.unit_offsets, _cells(alg, dil.mult)
    dim, blk = alg.defining_dim, np.repeat(np.arange(len(blocks)), blocks)  # cell -> its block
    worst_tw = 0.0
    for g in group.elements():
        ug, sg = spec.symmetry.u(g), s[g]
        near = np.add.reduceat(np.add.reduceat(np.abs(ug), off[:-1], axis=0), off[:-1], axis=1) != 0
        # S T_k alone in the row blocks j that u(g) does not reach from block i
        mass = np.add.reduceat(np.bincount(pair, np.abs(sg).ravel() ** 2, dim**2).reshape(dim, -1), off[:-1])
        res = np.where(near[:, blk], 0.0, mass).sum(0)[at]
        for j, i in zip(*np.nonzero(near)):
            (nj, rj), (ni, ri) = (blocks[j], mult[j]), (blocks[i], mult[i])
            w, sj = ug[off[j] : off[j + 1], off[i] : off[i + 1]], sg[cuts[j]]
            x = (w.conj().T @ sj.reshape(nj, rj * n)).reshape(ni, rj, n)  # x[b] = w[:, b]^+ S_j
            # T(beta_g E_k) S alone off the column cell (i, b); on it, against S_j at cell (i, a)
            spill = ((np.abs(x) ** 2).sum(1) * (cell != off[i] + np.arange(ni)[:, None])).sum(1)
            lhs = sj[:, cuts[i]].reshape(nj, rj, ni, ri).transpose(2, 0, 1, 3)
            rhs = x[:, :, cuts[i]].reshape(ni, rj, ni, ri)[range(ni), :, range(ni)]
            both = (np.abs(lhs[:, None] - np.einsum("ca,blm->abclm", w, rhs)) ** 2).sum((2, 3, 4))
            res[uoff[i] : uoff[i + 1]] += (np.outer((np.abs(w) ** 2).sum(0), spill) + both).ravel()
        worst_tw = max(worst_tw, float(np.sqrt(res).max()))
    message = "covariant dilation certification failed"
    checks = Checks().require(tol.unitary_fro * max(1.0, np.sqrt(max(n, 1))), message, sym_unitary=worst_unit)
    checks.require(limit, message, sym_j=worst_j, sym_twist=worst_tw)

    if dil.sym_bar is not None:
        bar, cocycle = dil.sym_bar.matrices, dil.sym_bar.cocycle.values
        worst_comm = coc = 0.0
        for a in group.elements():
            worst_comm = max(worst_comm, float(_unit_commutators(bar[a], alg, mult, cuts, pair).max()))
            # sym_bar(a) sym_bar(b) - c(a, b) sym_bar(ab) for every b
            rows = bar[a] @ bar - cocycle[a][:, None, None] * bar[group.mul[a]]
            coc = max(coc, float(_norms(rows).max()))
        checks.require(limit, "commuting twist certification failed", bar_commutes=worst_comm, bar_cocycle=coc)
    return checks


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
    _certify_reconstruction(dilation, dilation.r_blocks, tol)
    n, nv = spec.algebra.blocks[0], spec.n_v
    return list(dilation.j.reshape(n, dilation.rank // n, nv).transpose(1, 0, 2))


def _certify_layout_commutant(dil: KSGNSDilation, basis, tol):
    """Re-check a commutant basis on the layout of :func:`ksgns` against the
    whole algebra and group: every pi unit as ||[D, T_k]|| by block moves,
    then every sym(g) and j^+ D j through :func:`_certify_commutant`."""
    if not basis:
        return
    alg, mult = dil.spec.algebra, dil.mult
    cuts, _, pair = _cells(alg, mult)
    pattern = max(float(_unit_commutators(d, alg, mult, cuts, pair).max()) for d in basis)
    full = dil.sym.matrices if dil.sym is not None else np.zeros((0, dil.rank, dil.rank))
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
    matrix unit, and the commuting-twist generators must give the same
    freedom.  On non-extremality both neighbours j^+ (I +- W) pi(.) j
    re-validate, keep the unit value and average to the input.
    """
    if dilation is None:
        dilation = ksgns(spec, tol)
    else:
        # a passed-in dilation is trusted only once it dilates this map, covariantly
        dilation = replace(dilation, spec=spec)
        _certify_reconstruction(dilation, dilation.r_blocks, tol)
        if spec.symmetry is not None and dilation.rank:
            if dilation.sym is None:
                raise DilationResidualError("the dilation carries no group representation")
            _certify_covariant(dilation, tol)
    if spec.symmetry is not None:
        group = spec.symmetry.group
        rep = spec.symmetry.rep
        t1 = spec.unit_value()
        worst = max(
            frob(rep(g).conj().T @ t1 @ rep(g) - t1) for g in group.elements()
        )
        if worst > tol.recon_fro * max(1.0, frob(t1)):
            raise InvarianceError(
                "unit value of the map must be invariant under the module representation"
            )

    if dilation.rank == 0:
        return ExtremalityCertificate(True, None, None, 0)
    group_gens = spec.symmetry.group.generators() if spec.symmetry is not None else ()
    layout = list(zip(spec.algebra.blocks, dilation.mult))
    compressions = [(dilation.j[None], dilation.j[None])]
    basis = constrained_commutant([dilation.sym(s) for s in group_gens], compressions, layout=layout, tol=tol)
    _certify_layout_commutant(dilation, basis, tol)

    if dilation.sym_bar is not None:
        bar_gens = [dilation.sym_bar(s) for s in group_gens]
        alt = constrained_commutant(bar_gens, compressions, layout=layout, tol=tol)
        if len(alt) != len(basis):
            raise DilationResidualError(
                "commuting-twist generators disagree with the dilation generators"
            )

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
    blocks = dilation.r_blocks
    a_cols = np.hstack(list(blocks))
    if rank(a_cols, tol) != n:
        raise DilationResidualError("first-marginal dilation is not minimal")
    pinv = np.linalg.pinv(a_cols)

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
    cuts, _, pair = _cells(left, dilation.mult)
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
        and dilation.sym is not None
        and spec.symmetry.u_factors is not None
    ):
        _, u_right = spec.symmetry.u_factors
        worst = 0.0
        for g in spec.symmetry.group.elements():
            sg = dilation.sym(g)
            diff = sg @ e_units - right.transport(u_right(g), e_units) @ sg
            worst = max(worst, float(np.linalg.norm(diff, axis=(1, 2)).max()))
        checks.require(lim, "subminimal map failed covariance", covariance=worst)
    return SubminimalMap(e_units=e_units, checks=checks)
