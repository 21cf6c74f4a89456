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
)
from .numlin import (
    DEFAULT_TOL,
    DimensionError,
    Tolerances,
    constrained_commutant,
    frob,
    is_unitary,
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
    """Complete positivity, covariance, checked one group element at a time
    over every matrix unit at once, and normality, which is automatic at
    finite dimension.  Complete positivity passes if every block's Choi
    matrix passes :func:`psd_status` against its own scale; the residual is
    the most negative eigenvalue over the blocks, that of the grand kernel.
    Where some b -> u b u^+ leaves the algebra, the covariance residual is
    the largest part of a u E_k u^+ outside it."""
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
    checks["normal"] = Check(True, 0.0)
    return checks


@dataclass(frozen=True)
class KSGNSDilation:
    """Minimal dilation S_b = j^+ pi(b) j with covariant intertwiners.

    ``r_blocks[k]`` is the dilation image of the k-th matrix unit acting on
    the module (pi(unit) j); ``sym`` intertwines the module representation
    into the dilation, ``sym_bar`` is its commuting twist pi(u_g^+) sym(g)
    when every u_g lies in the algebra.  :func:`ksgns` lays the dilation
    space out as the direct sum of C^{n_i} (x) C^{r_i}, where pi(E^i_ab) is
    E_ab (x) I_{r_i}.
    """

    spec: CPMapSpec
    rank: int
    r_blocks: np.ndarray  # (n_units, N, n_V)
    j: np.ndarray  # (N, n_V)
    pi_units: np.ndarray  # (n_units, N, N)
    sym: MultiplierRep | None
    sym_bar: MultiplierRep | None
    checks: Checks = field(default_factory=Checks)

    def pi(self, bmat) -> np.ndarray:
        coeffs = self.spec.algebra.coefficients(bmat)
        return np.tensordot(coeffs, self.pi_units, axes=(-1, 0))


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
    pi_units = np.zeros((m, n_dil, n_dil), dtype=np.complex128)
    pi_units[_tensor_pattern(alg, mult)] = 1.0
    r_blocks = pi_units @ j
    dil = KSGNSDilation(spec, n_dil, r_blocks, j, pi_units, None, None)
    checks = _certify_pi(dil, tol)

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
        sym_bar = _build_bar(spec, pi_units, sym, alg, tol)
        dil = replace(dil, sym=sym, sym_bar=sym_bar)
        checks.update(_certify_covariant(dil, tol))
    return replace(dil, checks=checks)


def _build_bar(spec, pi_units, sym, alg, tol):
    """sym_bar(g) = pi(u_g^+) sym(g) when u_g lies in the algebra."""
    u = spec.symmetry.u.matrices
    if not alg.contains(u, tol):
        return None
    coeffs = alg.coefficients(u.conj().transpose(0, 2, 1))
    mats = np.tensordot(coeffs, pi_units, axes=(1, 0)) @ sym.matrices
    cocycle = spec.symmetry.u.cocycle.conj().multiply(spec.symmetry.rep.cocycle)
    return MultiplierRep(spec.symmetry.group, cocycle, mats)


def _norms(stack) -> np.ndarray:
    """Frobenius norm of every matrix of a stack, in one pass over its
    real and imaginary parts."""
    stack = np.ascontiguousarray(stack, dtype=np.complex128)
    flat = stack.view(np.float64).reshape(stack.shape[:-2] + (2 * stack.shape[-2] * stack.shape[-1],))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def _certify_pi(dil: KSGNSDilation, tol) -> Checks:
    """Certify pi as a unital *-representation and the dilation as minimal.

    Reconstruction, adjointness, unitality and minimality are checked
    directly.  Multiplicativity goes through the block factorization: with
    A_k = V^+ pi_k V = T_k + E_k (T_k = E_ab (x) I_r in block i), eps_k =
    ||E_k||, delta = ||V^+ V - I|| < 1 and T_k T_l = T_kl exactly,

        ||pi_k pi_l - pi_kl|| <= [eps_k + eps_l + eps_k eps_l + eps_kl
                                  + (1 + delta) ||pi_k|| ||pi_l|| delta] / (1 - delta)

    (Frobenius norms; eps_kl = 0 where E_k E_l = 0).  The reported
    ``pi_multiplicative`` is the largest such bound, which costs m N^3 work
    where the products over all pairs cost m^2 N^3.
    """
    alg = dil.spec.algebra
    n, pi = dil.rank, dil.pi_units
    scale = max(1.0, frob(dil.j) ** 2)
    checks = Checks().require(
        tol.recon_fro * scale,
        "reconstruction failed",
        reconstruction=float(_norms(dil.j.conj().T @ pi @ dil.j - dil.spec.values).max()),
    )

    worst_adj = float(_norms(pi.conj().transpose(0, 2, 1) - pi[alg.adjoint_table()]).max())
    index = alg.unit_index()
    unital = frob(pi[index[:, 1] == index[:, 2]].sum(axis=0) - np.eye(n))
    try:
        _, _, eps, delta = _block_factor(pi, alg)
    except NotSingleBlockError as exc:
        raise DilationResidualError(f"algebra representation does not factor: {exc}", checks) from exc
    if delta >= 1.0:
        raise DilationResidualError(f"block intertwiner is far from unitary ({delta:.2e})", checks)
    prod = alg.unit_product_table()
    norms = _norms(pi)
    bound = (
        eps[:, None]
        + eps[None, :]
        + np.outer(eps, eps)
        + np.where(prod >= 0, eps[prod], 0.0)
        + (1.0 + delta) * delta * np.outer(norms, norms)
    ) / (1.0 - delta)
    checks.require(
        tol.recon_fro * max(1.0, np.sqrt(max(n, 1))),
        "algebra representation certification failed",
        pi_multiplicative=float(bound.max()),
        pi_adjoint=worst_adj,
        pi_unital=unital,
    )

    # minimality: the blocks pi(unit) j span the dilation space
    if n and rank(dil.r_blocks.transpose(1, 0, 2).reshape(n, -1), tol) != n:
        raise DilationResidualError("dilation is not minimal", checks)
    return checks


def _certify_covariant(dil: KSGNSDilation, tol) -> Checks:
    """Unitarity, intertwining and twist of the dilation representation, and
    the commuting twist's commutation and cocycle, batched over the matrix
    units (or the group) one group element at a time."""
    spec = dil.spec
    alg, group = spec.algebra, spec.symmetry.group
    n, pi, s = dil.rank, dil.pi_units, dil.sym.matrices
    limit = tol.recon_fro * max(1.0, np.sqrt(max(n, 1)), frob(dil.j))
    worst_unit = float(_norms(s.conj().transpose(0, 2, 1) @ s - np.eye(n)).max())
    worst_j = float(_norms(dil.j @ spec.symmetry.rep.matrices - s @ dil.j).max())
    worst_tw = 0.0
    for g in group.elements():
        # sym(g) pi(E_k) - pi(beta_g(E_k)) sym(g) for every unit k
        diff = s[g] @ pi
        diff -= alg.transport(spec.symmetry.u(g), pi) @ s[g]
        worst_tw = max(worst_tw, float(_norms(diff).max()))
    message = "covariant dilation certification failed"
    checks = Checks().require(tol.unitary_fro * max(1.0, np.sqrt(max(n, 1))), message, sym_unitary=worst_unit)
    checks.require(limit, message, sym_j=worst_j, sym_twist=worst_tw)

    if dil.sym_bar is not None:
        bar, cocycle = dil.sym_bar.matrices, dil.sym_bar.cocycle.values
        worst_comm = coc = 0.0
        for a in group.elements():
            diff = bar[a] @ pi
            diff -= pi @ bar[a]
            worst_comm = max(worst_comm, float(_norms(diff).max()))
            # sym_bar(a) sym_bar(b) - c(a, b) sym_bar(ab) for every b
            rows = bar[a] @ bar - cocycle[a][:, None, None] * bar[group.mul[a]]
            coc = max(coc, float(_norms(rows).max()))
        checks.require(limit, "commuting twist certification failed", bar_commutes=worst_comm, bar_cocycle=coc)
    return checks


class NotSingleBlockError(ValueError):
    """The representation does not factor as the direct sum over the
    algebra's blocks of b_i (x) I_{r_i}."""


def _block_factor(pi_units: np.ndarray, algebra: FiniteCStarAlgebra):
    """Block factorization of a unital representation given by the images
    of the matrix units.

    For block i, C_i is an orthonormal basis of the range of pi(E^i_00)
    (r_i columns) and V_i = [pi(E^i_00) C_i, ..., pi(E^i_{n-1,0}) C_i];
    V = [V_1 ... V_k].  Returns the multiplicities, V, eps_k =
    ||V^+ pi(E_k) V - T_k|| for every unit k, where T_k is E_ab (x) I_{r_i}
    in block i, and delta = ||V^+ V - I|| (Frobenius norms).
    """
    if pi_units.ndim != 3 or pi_units.shape[0] != algebra.n_units:
        raise NotSingleBlockError("need the images of all matrix units")
    big = pi_units.shape[1]
    mult, cols = [], []
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
    delta = frob(v.conj().T @ v - np.eye(big))
    defect = v.conj().T @ (pi_units @ v)
    defect[_tensor_pattern(algebra, mult)] -= 1.0
    return tuple(mult), v, _norms(defect), delta


def _tensor_pattern(algebra, mult):
    """Indices (unit, row, col) of the unit entries of every T_k."""
    out, start = [], 0
    for i, (n, r) in enumerate(zip(algebra.blocks, mult)):
        a, b, lam = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), np.arange(r), indexing="ij"))
        out.append((algebra.unit_offsets[i] + a * n + b, start + a * r + lam, start + b * r + lam))
        start += n * r
    return tuple(np.concatenate(part) for part in zip(*out))


def factor_rep_tensor(
    pi_units: np.ndarray, algebra: FiniteCStarAlgebra, tol: Tolerances = DEFAULT_TOL
):
    """Identify a unital representation of the algebra with the direct sum
    over its blocks of b_i -> b_i (x) I_{r_i}: returns ``(r, V)`` with
    ``r`` the tuple of multiplicities, V unitary and V^+ pi(E^i_ab) V =
    E_ab (x) I_{r_i} in block i (blocks in order, zero elsewhere)."""
    mult, v, eps, _ = _block_factor(np.asarray(pi_units, dtype=np.complex128), algebra)
    if not is_unitary(v, tol):
        raise NotSingleBlockError("assembled intertwiner is not unitary")
    if eps.max(initial=0.0) > tol.recon_fro * max(1.0, np.sqrt(v.shape[0])):
        raise NotSingleBlockError("representation does not factor through the blocks")
    return mult, v


def kraus_extract(spec: CPMapSpec, dilation: KSGNSDilation, tol: Tolerances = DEFAULT_TOL):
    """Kraus family A_l with S_b = sum_l A_l^+ b A_l, for a single-block
    algebra: the operators that the dilation of :func:`ksgns` stacks in j
    (row (a, l) of j is row a of A_l), so the count equals the rank of the
    Choi matrix."""
    if len(spec.algebra.blocks) != 1:
        raise NotSingleBlockError("kraus extraction needs a single full block")
    n, nv = spec.algebra.blocks[0], spec.n_v
    ops = dilation.j.reshape(n, dilation.rank // n, nv).transpose(1, 0, 2)
    # sum_l A_l^+ E_ab A_l = sum_l conj(row a of A_l)^T (row b of A_l)
    total = np.einsum("lav,lbw->abvw", ops.conj(), ops).reshape(n * n, nv, nv)
    worst = float(_norms(total - spec.values).max())
    if worst > tol.recon_fro * max(1.0, frob(dilation.j) ** 2):
        raise DilationResidualError(f"kraus reconstruction residual {worst:.2e}")
    return list(ops)


def cp_extremal(
    spec: CPMapSpec, dilation: KSGNSDilation | None = None, tol: Tolerances = DEFAULT_TOL
) -> ExtremalityCertificate:
    """Extremality of the map among covariant CP maps with the same value at
    the algebra unit.

    Computed from the constrained commutant of the dilation: directions D
    commuting with the algebra representation and the dilation symmetry and
    compressed to zero by the intertwiner certify convex splits.  The system
    holds only the images of generating sets of the algebra and the group;
    the basis is then re-checked against every matrix unit and every group
    element.  The commuting-twist generator set is cross-checked when
    available.
    """
    if dilation is None:
        dilation = ksgns(spec, tol)
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

    n = dilation.rank
    if n == 0:
        return ExtremalityCertificate(True, None, None, 0)
    constraints = []
    for a in range(spec.n_v):
        for b in range(spec.n_v):
            constraints.append(np.outer(dilation.j[:, a], dilation.j[:, b].conj()))
    # E_{0b} and E_{b0} generate a block of size >= 2; E_{00} is a block of size 1
    blk, a, b = spec.algebra.unit_index().T
    size = np.asarray(spec.algebra.blocks)[blk]
    pi_gens = list(dilation.pi_units[((a == 0) | (b == 0)) & ((a != b) | (size == 1))])
    group_gens = spec.symmetry.group.generators() if dilation.sym is not None else ()
    generators = pi_gens + [dilation.sym(s) for s in group_gens]
    basis = constrained_commutant(generators, constraints, hermitian_only=False, dim=n, tol=tol)
    full = dilation.pi_units
    if dilation.sym is not None:
        full = np.concatenate([full, dilation.sym.matrices])
    _certify_commutant(basis, full, tol)

    if dilation.sym_bar is not None:
        alt = constrained_commutant(
            pi_gens + [dilation.sym_bar(s) for s in group_gens],
            constraints,
            hermitian_only=False,
            dim=n,
            tol=tol,
        )
        if len(alt) != len(basis):
            raise DilationResidualError(
                "commuting-twist generators disagree with the dilation generators"
            )

    if not basis:
        return ExtremalityCertificate(True, None, None, 0)
    witness = _hermitian_witness(basis, tol)
    if witness is None:
        return ExtremalityCertificate(True, None, None, len(basis))

    perturbed = []
    for sign in (+1.0, -1.0):
        values = dilation.j.conj().T @ (np.eye(n) + sign * witness) @ dilation.pi_units @ dilation.j
        perturbed.append(replace(spec, values=values))
    return ExtremalityCertificate(False, witness, tuple(perturbed), len(basis))


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
    a_cols = np.hstack([dilation.pi_units[k] @ dilation.j for k in range(left.n_units)])
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
            lhs = dilation.j.conj().T @ dilation.pi_units[kb] @ e_units[kc] @ dilation.j
            worst = max(worst, frob(lhs - spec.value_of(split.embed(bunit, cunit))))
    checks = Checks().require(tol.recon_fro * scale, "subminimal reconstruction failed", reconstruction=worst)

    # unital and commuting with pi
    one_coeffs = right.coefficients(right.one())
    e_one = np.tensordot(one_coeffs, e_units, axes=(0, 0))
    pi_left = dilation.pi_units[: left.n_units]
    worst = 0.0
    for e in e_units:
        worst = max(worst, float(np.linalg.norm(e @ pi_left - pi_left @ e, axis=(1, 2)).max()))
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
