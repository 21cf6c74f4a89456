"""Covariant completely positive maps on finite-dimensional C*-algebras:
validation, minimal covariant dilations, Kraus extraction, extremality,
marginals over a tensor split, and subminimal dilations.

A map is stored by its form matrices on the matrix-unit basis of the
algebra and extended linearly.  Complete positivity is positivity of the
grand kernel matrix over the unit basis; for a single matrix block this is
the usual Choi criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from .fingroup import FiniteGroup, MultiplierRep
from .kernels import (
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
    psd_check,
    psd_factor,
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
        """Form matrix of the map at an arbitrary algebra element."""
        coeffs = self.algebra.coefficients(bmat)
        return np.tensordot(coeffs, self.values, axes=(0, 0))

    def unit_value(self) -> np.ndarray:
        return self.value_of(self.algebra.one())

    def beta(self, g, bmat) -> np.ndarray:
        u = self.symmetry.u
        return u(g) @ bmat @ u(g).conj().T

    def grand_kernel(self) -> np.ndarray:
        """Block matrix of S at unit(i)^+ unit(j); PSD iff the map is CP."""
        alg, nv = self.algebra, self.n_v
        adj = alg.adjoint_table()
        prod = alg.unit_product_table()
        m = alg.n_units
        out = np.zeros((m * nv, m * nv), dtype=np.complex128)
        for i in range(m):
            for j in range(m):
                k = prod[(adj[i], j)]
                if k is not None:
                    out[i * nv : (i + 1) * nv, j * nv : (j + 1) * nv] = self.values[k]
        return out

    def choi(self) -> np.ndarray:
        """Choi-type block matrix [S at E_{bd}]; requires a single block."""
        if len(self.algebra.blocks) != 1:
            raise DimensionError("choi() needs a single full matrix block")
        n, nv = self.algebra.blocks[0], self.n_v
        out = np.zeros((n * nv, n * nv), dtype=np.complex128)
        for k, (_, a, b) in enumerate(self.algebra.unit_index()):
            out[a * nv : (a + 1) * nv, b * nv : (b + 1) * nv] = self.values[k]
        return out


@dataclass(frozen=True)
class CPReport:
    cp: bool
    covariant: bool
    zero_map: bool
    residuals: dict

    @property
    def ok(self) -> bool:
        return self.cp and self.covariant

    # normality is automatic at finite dimension; recorded for the report
    normal: bool = True


def cp_validate(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL) -> CPReport:
    residuals = {}
    cp = psd_check(spec.grand_kernel(), tol)
    zero = frob(spec.values) <= tol.recon_fro

    covariant = True
    if spec.symmetry is not None:
        group = spec.symmetry.group
        scale = max(1.0, float(np.abs(spec.values).max()))
        worst = 0.0
        for g in group.elements():
            ug = spec.symmetry.u(g)
            if not spec.algebra.contains(ug @ spec.algebra.one() @ ug.conj().T, tol):
                covariant = False
                residuals["action"] = float("inf")
                break
            uinv = spec.symmetry.rep.inv_mat(g)
            for unit in spec.algebra.units():
                moved = spec.beta(g, unit)
                if not spec.algebra.contains(moved, tol):
                    covariant = False
                    break
                lhs = spec.value_of(moved)
                rhs = uinv.conj().T @ spec.value_of(unit) @ uinv
                worst = max(worst, frob(lhs - rhs))
        residuals.setdefault("covariance", worst)
        if worst > tol.recon_fro * scale:
            covariant = False
    return CPReport(cp=cp, covariant=covariant, zero_map=zero, residuals=residuals)


@dataclass(frozen=True)
class KSGNSDilation:
    """Minimal dilation S_b = j^+ pi(b) j with covariant intertwiners.

    ``r_blocks[k]`` is the dilation image of the k-th matrix unit acting on
    the module (pi(unit) j); ``sym`` intertwines the module representation
    into the dilation, ``sym_bar`` is its commuting twist pi(u_g^+) sym(g)
    when every u_g lies in the algebra.
    """

    spec: CPMapSpec
    rank: int
    r_blocks: np.ndarray  # (n_units, N, n_V)
    j: np.ndarray  # (N, n_V)
    pi_units: np.ndarray  # (n_units, N, N)
    sym: MultiplierRep | None
    sym_bar: MultiplierRep | None
    residuals: dict = field(default_factory=dict)

    def pi(self, bmat) -> np.ndarray:
        coeffs = self.spec.algebra.coefficients(bmat)
        return np.tensordot(coeffs, self.pi_units, axes=(0, 0))

    def r_of(self, bmat) -> np.ndarray:
        coeffs = self.spec.algebra.coefficients(bmat)
        return np.tensordot(coeffs, self.r_blocks, axes=(0, 0))


def ksgns(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL) -> KSGNSDilation:
    """Minimal covariant dilation of a valid covariant CP map.

    The grand kernel over the matrix-unit basis is factored, the algebra
    representation is solved unit by unit over the spanning blocks, the
    dilation representation from the covariance relation, and every defining
    identity is certified against the tolerances.
    """
    report = cp_validate(spec, tol)
    if not report.ok:
        raise ValueError(f"cp map invalid: {report.residuals}")
    alg, nv = spec.algebra, spec.n_v
    m = alg.n_units
    n_dil, f = psd_factor(spec.grand_kernel(), tol)
    r_blocks = (
        np.stack([f[:, k * nv : (k + 1) * nv] for k in range(m)])
        if n_dil
        else np.zeros((m, 0, nv), dtype=np.complex128)
    )
    residuals = {}
    stacked = np.hstack(list(r_blocks)) if n_dil else None
    scale = max(1.0, frob(f))

    # the algebra representation: pi(b) r(c) = r(bc) on spanning blocks
    prod = alg.unit_product_table()
    pi_units = np.zeros((m, n_dil, n_dil), dtype=np.complex128)
    worst = 0.0
    for kb in range(m):
        targets = np.hstack(
            [
                r_blocks[prod[(kb, kc)]]
                if prod[(kb, kc)] is not None
                else np.zeros((n_dil, nv))
                for kc in range(m)
            ]
        )
        if n_dil:
            pi_units[kb], res = lstsq_define([(stacked, targets)], tol)
            worst = max(worst, res)
    residuals["pi_solve"] = worst
    if worst > tol.recon_fro * scale:
        raise DilationResidualError(f"algebra representation residual {worst:.2e}")

    dil = KSGNSDilation(spec, n_dil, r_blocks, _unit_j(alg, r_blocks, n_dil, nv), pi_units, None, None, residuals)
    _certify_pi(dil, tol)

    sym = sym_bar = None
    if spec.symmetry is not None and n_dil:
        group = spec.symmetry.group
        mats = np.zeros((group.order, n_dil, n_dil), dtype=np.complex128)
        worst = 0.0
        for g in group.elements():
            targets = []
            for unit in alg.units():
                moved_coeffs = alg.coefficients(spec.beta(g, unit))
                r_moved = np.tensordot(moved_coeffs, r_blocks, axes=(0, 0))
                targets.append(r_moved @ spec.symmetry.rep(g))
            mats[g], res = lstsq_define([(stacked, np.hstack(targets))], tol)
            worst = max(worst, res)
        residuals["sym_solve"] = worst
        if worst > tol.recon_fro * scale:
            raise DilationResidualError(f"dilation representation residual {worst:.2e}")
        sym = MultiplierRep(group, spec.symmetry.rep.cocycle, mats)
        sym_bar = _build_bar(spec, pi_units, sym, alg, tol)
        dil = replace(dil, sym=sym, sym_bar=sym_bar)
        _certify_covariant(dil, tol)
    return dil


def _unit_j(alg, r_blocks, n_dil, nv):
    j = np.zeros((n_dil, nv), dtype=np.complex128)
    for k, (_, a, b) in enumerate(alg.unit_index()):
        if a == b:
            j += r_blocks[k]
    return j


def _build_bar(spec, pi_units, sym, alg, tol):
    """sym_bar(g) = pi(u_g^+) sym(g) when u_g lies in the algebra."""
    group = spec.symmetry.group
    mats = np.zeros((group.order,) + pi_units.shape[1:], dtype=np.complex128)
    for g in group.elements():
        ug = spec.symmetry.u(g)
        if not alg.contains(ug, tol):
            return None
        coeffs = alg.coefficients(ug.conj().T)
        mats[g] = np.tensordot(coeffs, pi_units, axes=(0, 0)) @ sym(g)
    cocycle = spec.symmetry.u.cocycle.conj().multiply(spec.symmetry.rep.cocycle)
    return MultiplierRep(group, cocycle, mats)


def _certify_pi(dil: KSGNSDilation, tol):
    alg = dil.spec.algebra
    n, nv = dil.rank, dil.spec.n_v
    scale = max(1.0, frob(dil.j) ** 2)
    worst = 0.0
    for k, unit in enumerate(alg.units()):
        worst = max(
            worst,
            frob(dil.j.conj().T @ dil.pi_units[k] @ dil.j - dil.spec.values[k]),
        )
    dil.residuals["reconstruction"] = worst
    if worst > tol.recon_fro * scale:
        raise DilationResidualError(f"reconstruction residual {worst:.2e}")

    prod = alg.unit_product_table()
    adj = alg.adjoint_table()
    worst_mult = worst_adj = 0.0
    for k1 in range(alg.n_units):
        worst_adj = max(worst_adj, frob(dil.pi_units[k1].conj().T - dil.pi_units[adj[k1]]))
        for k2 in range(alg.n_units):
            target = (
                dil.pi_units[prod[(k1, k2)]]
                if prod[(k1, k2)] is not None
                else np.zeros((n, n))
            )
            worst_mult = max(worst_mult, frob(dil.pi_units[k1] @ dil.pi_units[k2] - target))
    unital = frob(dil.pi(alg.one()) - np.eye(n))
    dil.residuals.update(
        {"pi_multiplicative": worst_mult, "pi_adjoint": worst_adj, "pi_unital": unital}
    )
    limit = tol.recon_fro * max(1.0, np.sqrt(max(n, 1)))
    if worst_mult > limit or worst_adj > limit or unital > limit:
        raise DilationResidualError("algebra representation certification failed")

    # minimality: the blocks pi(unit) j span the dilation space
    if dil.rank:
        stacked = np.hstack(list(dil.r_blocks))
        if rank(stacked, tol) != dil.rank:
            raise DilationResidualError("dilation is not minimal")


def _certify_covariant(dil: KSGNSDilation, tol):
    spec = dil.spec
    group = spec.symmetry.group
    n = dil.rank
    limit = tol.recon_fro * max(1.0, np.sqrt(max(n, 1)), frob(dil.j))
    worst_unit = max(
        (frob(dil.sym(g).conj().T @ dil.sym(g) - np.eye(n)) for g in group.elements()),
        default=0.0,
    )
    worst_j = max(
        (frob(dil.j @ spec.symmetry.rep(g) - dil.sym(g) @ dil.j) for g in group.elements()),
        default=0.0,
    )
    worst_tw = 0.0
    for g in group.elements():
        for k, unit in enumerate(spec.algebra.units()):
            lhs = dil.sym(g) @ dil.pi_units[k]
            rhs = dil.pi(spec.beta(g, unit)) @ dil.sym(g)
            worst_tw = max(worst_tw, frob(lhs - rhs))
    dil.residuals.update(
        {"sym_unitary": worst_unit, "sym_j": worst_j, "sym_twist": worst_tw}
    )
    if worst_unit > tol.unitary_fro * max(1.0, np.sqrt(max(n, 1))) or worst_j > limit or worst_tw > limit:
        raise DilationResidualError("covariant dilation certification failed")

    if dil.sym_bar is not None:
        worst_comm = 0.0
        for g in group.elements():
            for k in range(spec.algebra.n_units):
                worst_comm = max(
                    worst_comm,
                    frob(dil.sym_bar(g) @ dil.pi_units[k] - dil.pi_units[k] @ dil.sym_bar(g)),
                )
        coc = 0.0
        cocycle = dil.sym_bar.cocycle
        for a in group.elements():
            for b in group.elements():
                coc = max(
                    coc,
                    frob(
                        dil.sym_bar(a) @ dil.sym_bar(b)
                        - cocycle(a, b) * dil.sym_bar(group.prod(a, b))
                    ),
                )
        dil.residuals.update({"bar_commutes": worst_comm, "bar_cocycle": coc})
        if worst_comm > limit or coc > limit:
            raise DilationResidualError("commuting twist certification failed")


class NotSingleBlockError(ValueError):
    """The representation is not a unital representation of one full block."""


def factor_rep_tensor(pi_units: np.ndarray, block_size: int, tol: Tolerances = DEFAULT_TOL):
    """Identify a unital representation of a full matrix block with
    b -> b (x) I_r: returns ``(r, V)`` with V unitary and
    V^+ pi(E_{ab}) V = E_{ab} (x) I_r.
    """
    n = block_size
    if pi_units.shape[0] != n * n:
        raise NotSingleBlockError("need the images of all n^2 matrix units")
    big = pi_units.shape[1]
    if big % n != 0:
        raise NotSingleBlockError("dimension is not a multiple of the block size")
    r = big // n

    def unit(a, b):
        return pi_units[a * n + b]

    p00 = unit(0, 0)
    w, v = np.linalg.eigh(0.5 * (p00 + p00.conj().T))
    cols = v[:, w > 0.5]
    if cols.shape[1] != r:
        raise NotSingleBlockError("corner projection rank does not match multiplicity")
    columns = np.zeros((big, big), dtype=np.complex128)
    for i in range(n):
        blockcols = unit(i, 0) @ cols
        columns[:, i * r : (i + 1) * r] = blockcols
    if not is_unitary(columns, tol):
        raise NotSingleBlockError("assembled intertwiner is not unitary")
    for a in range(n):
        for b in range(n):
            target = np.kron(np.eye(n)[:, [a]] @ np.eye(n)[[b], :], np.eye(r))
            if frob(columns.conj().T @ unit(a, b) @ columns - target) > tol.recon_fro * max(
                1.0, np.sqrt(big)
            ):
                raise NotSingleBlockError("representation does not factor through the block")
    return r, columns


def kraus_extract(spec: CPMapSpec, dilation: KSGNSDilation, tol: Tolerances = DEFAULT_TOL):
    """Kraus family A_l with S_b = sum_l A_l^+ b A_l, for a single-block
    algebra; the count equals the rank of the Choi matrix."""
    if len(spec.algebra.blocks) != 1:
        raise NotSingleBlockError("kraus extraction needs a single full block")
    n = spec.algebra.blocks[0]
    r, v = factor_rep_tensor(dilation.pi_units, n, tol)
    jprime = v.conj().T @ dilation.j
    ops = [
        np.stack([jprime[i * r + lam] for i in range(n)])
        for lam in range(r)
    ]
    worst = 0.0
    for k, unit in enumerate(spec.algebra.units()):
        total = sum(a.conj().T @ unit @ a for a in ops)
        worst = max(worst, frob(total - spec.values[k]))
    if worst > tol.recon_fro * max(1.0, frob(dilation.j) ** 2):
        raise DilationResidualError(f"kraus reconstruction residual {worst:.2e}")
    return ops


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
    blocks = spec.algebra.blocks
    pi_gens = [
        dilation.pi_units[k]
        for k, (i, a, b) in enumerate(spec.algebra.unit_index())
        if (a == 0 or b == 0) and (a != b or blocks[i] == 1)
    ]
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
        values = np.stack(
            [
                dilation.j.conj().T @ (np.eye(n) + sign * witness) @ dilation.pi_units[k] @ dilation.j
                for k in range(spec.algebra.n_units)
            ]
        )
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
    residuals: dict

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

    residuals = {}
    scale = max(1.0, frob(dilation.j) ** 2)
    # reconstruction over all unit pairs
    worst = 0.0
    for kb, bunit in enumerate(left_units):
        for kc, cunit in enumerate(right.units()):
            lhs = dilation.j.conj().T @ dilation.pi_units[kb] @ e_units[kc] @ dilation.j
            worst = max(worst, frob(lhs - spec.value_of(split.embed(bunit, cunit))))
    residuals["reconstruction"] = worst
    if worst > tol.recon_fro * scale:
        raise DilationResidualError(f"subminimal reconstruction residual {worst:.2e}")

    # unital and commuting with pi
    one_coeffs = right.coefficients(right.one())
    e_one = np.tensordot(one_coeffs, e_units, axes=(0, 0))
    residuals["unital"] = frob(e_one - np.eye(n))
    worst = 0.0
    for kc in range(right.n_units):
        for kb in range(left.n_units):
            worst = max(
                worst,
                frob(e_units[kc] @ dilation.pi_units[kb] - dilation.pi_units[kb] @ e_units[kc]),
            )
    residuals["commutes"] = worst
    lim = tol.recon_fro * max(1.0, np.sqrt(max(n, 1)))
    if residuals["unital"] > lim or worst > lim:
        raise DilationResidualError("subminimal map failed unitality/commutation")

    # complete positivity of E as a map on the right factor
    radj = right.adjoint_table()
    rprod = right.unit_product_table()
    grand = np.zeros((right.n_units * n, right.n_units * n), dtype=np.complex128)
    for k1 in range(right.n_units):
        for k2 in range(right.n_units):
            ku = rprod[(radj[k1], k2)]
            if ku is not None:
                grand[k1 * n : (k1 + 1) * n, k2 * n : (k2 + 1) * n] = e_units[ku]
    if not psd_check(grand, tol):
        raise DilationResidualError("subminimal map is not completely positive")

    # covariance against the second factor's action
    if (
        spec.symmetry is not None
        and dilation.sym is not None
        and spec.symmetry.u_factors is not None
    ):
        _, u_right = spec.symmetry.u_factors
        group = spec.symmetry.group
        worst = 0.0
        for g in group.elements():
            for kc, cunit in enumerate(right.units()):
                moved = u_right(g) @ cunit @ u_right(g).conj().T
                e_moved = np.tensordot(right.coefficients(moved), e_units, axes=(0, 0))
                worst = max(worst, frob(dilation.sym(g) @ e_units[kc] - e_moved @ dilation.sym(g)))
        residuals["covariance"] = worst
        if worst > lim:
            raise DilationResidualError("subminimal map failed covariance")
    return SubminimalMap(e_units=e_units, residuals=residuals)
