"""Paper constructions kept as library API beside the engines: sesquilinear
forms and algebra positivity, complete irreducibles, the group Fourier
transform and its Plancherel inverse, central extensions of a root-of-unity
cocycle, the uniqueness unitary of two minimal Kolmogorov decompositions,
marginals and subminimal dilations of a CP map, the marginals of an
instrument, decomposable operators, the Wigner cocycle and the canonical
imprimitivity system, the square-integrable structure of an instrument, and
one outcome drawn with its post-measurement state.

The command line runs none of these, so neither ``covkit.cli`` nor any
engine module imports this one; ``covkit`` resolves these names on first
access.
"""

from __future__ import annotations

import numpy as np

from .cpmaps import (
    CPMapSpec,
    CPSymmetry,
    KSGNSDilation,
    _cells,
    _certify_reconstruction,
    _choi_blocks,
    _choi_spectra,
    _covariance,
    _cp_status,
    _factor,
    _unit_commutators,
)
from .cstar import FiniteCStarAlgebra
from .fingroup import FiniteGroup, MultiplierRep, SubgroupData, TwoCocycle, cocycle_violation, irrep_decompose
from .instruments import (
    B_from_instrument,
    InstrumentSpec,
    ObservableSpec,
    SampleResult,
    Symmetry,
    _effects,
    as_cpmap,
    sample_stream,
    sq_constant,
)
from .kernels import Checks, DilationResidualError, KolmogorovDecomposition
from .numlin import (
    DEFAULT_TOL,
    DimensionError,
    Tolerances,
    as_matrix,
    frob,
    is_unitary,
    lstsq_define,
    psd_check,
    psd_status,
    record,
)


# ---------------------------------------------------------------------------
# sesquilinear forms and positivity in a finite C*-algebra
# ---------------------------------------------------------------------------


def form_eval(t, v, w) -> np.ndarray:
    """Evaluate the form with matrix ``t``: s(v, w) = v^+ t w (a k x k matrix)."""
    t, v, w = as_matrix(t), as_matrix(v), as_matrix(w)
    if t.shape[0] != t.shape[1] or v.shape[0] != t.shape[0] or w.shape[0] != t.shape[0]:
        raise DimensionError("form/element shapes disagree")
    return v.conj().T @ t @ w


def form_positive(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Positivity of the form s(v, w) = v^+ t w, equivalently of ``t``."""
    return psd_check(t, tol)


def alg_positive(alg: FiniteCStarAlgebra, a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Positivity in the algebra: every diagonal block is PSD."""
    a = as_matrix(a)
    if not alg.contains(a, tol):
        raise DimensionError("matrix is not an element of the algebra")
    return all(psd_check(alg.block_of(a, i), tol) for i in range(len(alg.blocks)))


# ---------------------------------------------------------------------------
# complete irreducibles, the group Fourier transform, central extensions
# ---------------------------------------------------------------------------


class CocycleExtensionError(ValueError):
    """Cocycle values are not roots of unity, so no finite central extension
    exists; such cocycles are rejected rather than approximated."""


class IncompleteIrrepsError(ValueError):
    """The supplied irreducible representations do not exhaust the group."""


def cosets(group: FiniteGroup, members) -> SubgroupData:
    return SubgroupData(group, tuple(members))


def complete_irreps(group: FiniteGroup, seed: int = 0, tol: Tolerances = DEFAULT_TOL):
    """A complete list of pairwise inequivalent ordinary irreducibles,
    obtained from the regular representation."""
    dec = irrep_decompose(MultiplierRep.regular(group), seed, tol)
    reps = [blk.rep for blk in dec.blocks]
    if sum(r.dim ** 2 for r in reps) != group.order:
        raise IncompleteIrrepsError("regular representation did not split completely")
    return reps


def fourier(values, irreps) -> list[np.ndarray]:
    """Matrix Fourier coefficients ``sum_g phi(g) tau_g`` for each irrep."""
    phi = np.asarray(values, dtype=np.complex128)
    if not irreps:
        raise IncompleteIrrepsError("no irreducibles supplied")
    group = irreps[0].group
    if phi.shape != (group.order,):
        raise DimensionError("need one value per group element")
    if sum(t.dim ** 2 for t in irreps) != group.order:
        raise IncompleteIrrepsError("irreducibles do not form a complete set")
    return [np.tensordot(phi, t.matrices, axes=(0, 0)) for t in irreps]


def plancherel_inverse(coefficients, irreps) -> np.ndarray:
    """Inverse of :func:`fourier`:
    ``phi(g) = (1/|G|) sum_tau dim(tau) tr(tau_g^+ coeff(tau))``."""
    if not irreps:
        raise IncompleteIrrepsError("no irreducibles supplied")
    group = irreps[0].group
    if sum(t.dim ** 2 for t in irreps) != group.order:
        raise IncompleteIrrepsError("irreducibles do not form a complete set")
    # tr(tau_g^+ c) = sum_ij conj(tau_g)_ij c_ij
    out = sum(t.dim * np.einsum("gij,ij->g", t.matrices.conj(), c) for t, c in zip(irreps, coefficients))
    return out / group.order


def _phase_orders(z: np.ndarray, max_order: int = 1024) -> np.ndarray:
    """The order of each entry of ``z`` as a root of unity: the least
    m <= max_order with |z^m - 1| < 1e-8."""
    orders = np.zeros(z.shape, dtype=np.int64)
    for m in range(1, max_order + 1):
        orders[(orders == 0) & (np.abs(z ** m - 1.0) < 1e-8)] = m
        if orders.all():
            return orders
    raise CocycleExtensionError(
        f"cocycle value {complex(z.flat[orders.argmin()])!r} is not a root of unity of order <= {max_order}"
    )


def central_extension(cocycle: TwoCocycle, tol: Tolerances = DEFAULT_TOL):
    """Finite central extension trivializing a root-of-unity valued cocycle.

    Returns ``(extension, lift, phase_root, exponent)`` where ``extension``
    is the group G x Z_m with product (g, s)(h, t) = (gh, s + t + k(g, h)),
    ``lift(g, s) = g * m + s`` indexes its elements, ``phase_root`` is the
    primitive m-th root zeta with cocycle(g, h) = zeta^k(g, h), and
    ``exponent[g, h] = k(g, h)``.  For a multiplier representation U with
    this cocycle, (g, s) -> zeta^s U(g) is an ordinary representation of the
    extension.  Non-root-of-unity cocycles are rejected, and so is a cocycle
    that fails :func:`cocycle_status` at ``tol``.
    """
    g, vals = cocycle.group, cocycle.values
    if cocycle_violation(cocycle, tol) is not None:
        raise ValueError("not a valid cocycle")
    m = int(np.lcm.reduce(_phase_orders(vals).ravel()))
    zeta = np.exp(2j * np.pi / m)
    k = np.rint(np.angle(vals) / (2 * np.pi / m)).astype(np.int64) % m
    if np.any(np.abs(zeta ** k - vals) > 1e-8):
        raise CocycleExtensionError("cocycle value off the root-of-unity grid")
    s = np.arange(m)
    # (a, s)(b, t) at [a, s, b, t]
    mul = g.mul[:, None, :, None] * m + (s[:, None, None] + s + k[:, None, :, None]) % m
    ext = FiniteGroup(mul.reshape(g.order * m, g.order * m))

    def lift(elem: int, phase: int = 0) -> int:
        return elem * m + phase % m

    return ext, lift, zeta, k


# ---------------------------------------------------------------------------
# uniqueness of the minimal Kolmogorov decomposition
# ---------------------------------------------------------------------------


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


@record
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
    cuts, pair = _cells(dilation)
    worst = max(float(_unit_commutators(e, left, dilation.mult, cuts, pair).max()) for e in e_units)
    lim = tol.recon_fro * max(1.0, np.sqrt(max(n, 1)))
    checks.require(
        lim, "subminimal map failed unitality/commutation", unital=frob(e_one - np.eye(n)), commutes=worst
    )

    # complete positivity of E as a map on the right factor
    if not _cp_status(_choi_spectra(right, e_units), tol)[0]:
        raise DilationResidualError("subminimal map is not completely positive", checks)

    # covariance against the second factor's action: E(beta_g(c)) = sym(g) E(c) sym(g)^+
    if (
        spec.symmetry is not None
        and dilation.mult_rep is not None
        and spec.symmetry.u_factors is not None
    ):
        group, u = spec.symmetry.group, spec.symmetry.u_factors[1]
        gens = list(group.generators())
        sigma, w = right.block_action(u.matrices[gens])
        syms = dilation.sym(gens)
        blocks = _choi_blocks(right, e_units, [_factor(wi, u.unitary_flag) for wi in w])
        checks["covariance"] = _covariance(blocks, sigma, syms, group, tol)
        if not checks["covariance"].ok:
            residual = checks["covariance"].residual
            raise DilationResidualError(f"subminimal map failed covariance: residual {residual:.2e}", checks)
    return SubminimalMap(e_units=e_units, checks=checks)


# ---------------------------------------------------------------------------
# marginals of an instrument
# ---------------------------------------------------------------------------


def marginal_observable(spec: InstrumentSpec) -> ObservableSpec:
    sym = spec.symmetry
    return ObservableSpec(_effects(spec), Symmetry(sym.sub, sym.rep))


def marginal_channel(spec: InstrumentSpec) -> CPMapSpec:
    """The channel summed over outcomes: the first marginal of the CP form."""
    return marginals(as_cpmap(spec))[0]


# ---------------------------------------------------------------------------
# decomposable operators
# ---------------------------------------------------------------------------


def _fiber_pattern(perm, fiber_dims) -> tuple[np.ndarray, np.ndarray]:
    """The fiber of every coordinate, and the mask of the cells (i, j) that
    an operator moving fiber w to fiber T(w) may fill: fiber(i) =
    T(fiber(j)).  Read row by row, the mask's cells are the blocks of the
    target fibers in order, each row-major."""
    if sorted(perm) != list(range(len(fiber_dims))):
        raise DimensionError("perm must be a permutation of the fibers")
    fiber = np.repeat(np.arange(len(perm)), fiber_dims)
    return fiber, fiber[:, None] == np.asarray(perm, dtype=np.int64)[fiber][None, :]


@record
class DecomposableOp:
    """Operator on a direct sum of fibers moving fiber T^{-1}(w) to fiber w
    by the block ``blocks[w]``."""

    perm: tuple[int, ...]  # w -> T(w)
    fiber_dims: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]  # blocks[w]: fiber T^{-1}(w) -> fiber w

    def assemble(self) -> np.ndarray:
        _, mask = _fiber_pattern(self.perm, self.fiber_dims)
        out = np.zeros(mask.shape, dtype=np.complex128)
        out[mask] = np.concatenate([np.ravel(b) for b in self.blocks])
        return out

    def is_unitary_op(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        if any(b.shape[0] != b.shape[1] for b in self.blocks):
            return False
        return all(is_unitary(b, tol) for b in self.blocks if b.size)


def _intertwining_residuals(op: np.ndarray, perm, fiber_dims) -> np.ndarray:
    """||op P_w - P_{T(w)} op||_F for every outcome w.  Its nonzero cells
    are the off-pattern cells of op in the columns of fiber w and in the
    rows of fiber T(w), so its square is the sum of |op|^2 over those."""
    fiber, mask = _fiber_pattern(perm, fiber_dims)
    off = np.where(mask, 0.0, np.abs(op) ** 2)
    by_col = np.bincount(fiber, off.sum(axis=0), minlength=len(perm))
    by_row = np.bincount(fiber, off.sum(axis=1), minlength=len(perm))
    return np.sqrt(by_col + by_row[list(perm)])


def decomposable_extract(
    op: np.ndarray, perm, fiber_dims, tol: Tolerances = DEFAULT_TOL
) -> DecomposableOp:
    """Read the fiber blocks off an operator intertwining the fiber
    projections with a permutation of the outcome set; rejects operators
    violating the intertwining, reporting the worst outcome."""
    perm = tuple(int(p) for p in perm)
    fiber_dims = tuple(int(m) for m in fiber_dims)
    op = np.asarray(op, dtype=np.complex128)
    _, mask = _fiber_pattern(perm, fiber_dims)
    if op.shape != mask.shape:
        raise DimensionError("operator does not match the fiber layout")
    res = _intertwining_residuals(op, perm, fiber_dims)
    worst = float(res.max(initial=0.0))
    if worst > tol.recon_fro * max(1.0, frob(op)):
        raise DilationResidualError(
            f"operator is not decomposable over the permutation; worst outcome {int(np.argmax(res))}"
            f" with residual {worst:.2e}"
        )
    src = np.argsort(perm)  # T^{-1}
    shapes = [(fiber_dims[w], fiber_dims[src[w]]) for w in range(len(perm))]
    cells = np.split(op[mask], np.cumsum([r * c for r, c in shapes])[:-1])
    return DecomposableOp(perm, fiber_dims, tuple(c.reshape(s) for c, s in zip(cells, shapes)))


# ---------------------------------------------------------------------------
# Wigner rotations and the canonical imprimitivity system
# ---------------------------------------------------------------------------


def wigner_rotation(rho: MultiplierRep, sub: SubgroupData) -> np.ndarray:
    """Strict cocycle W[g, w] = rho(s(w)^{-1} g s(g^{-1} w)), stacked as a
    (|G|, |X|, m, m) array.

    ``rho`` is a representation of the subgroup as a group in its own right
    (indices along ``sub.members``); W satisfies the strict cocycle
    identities W[ab, w] = W[a, w] W[b, a^{-1} w] when rho is an ordinary
    representation.
    """
    g, section = sub.parent, np.asarray(sub.section)
    back = section[sub.coset_action().table[g.inverse]]  # s(g^{-1} w)
    h = g.mul[g.inverse[section][None, :], g.mul[np.arange(g.order)[:, None], back]]
    return rho.matrices[np.searchsorted(sub.members, h)]  # members are sorted


def _induced_form(blocks: np.ndarray, sub: SubgroupData) -> np.ndarray:
    """The induced block form of a (|G|, |X|, b, b) stack: the matrix of g
    has block (w, g^{-1} w) equal to blocks[g, w] and zeros elsewhere, one
    (|X| b, |X| b) matrix per element."""
    order, n, b = blocks.shape[:3]
    src = sub.coset_action().table[sub.parent.inverse]
    out = np.zeros((order, n, b, n, b), dtype=np.complex128)
    out[np.arange(order)[:, None], np.arange(n), :, src, :] = blocks
    return out.reshape(order, n * b, n * b)


@record
class CanonicalSystem:
    """Canonical imprimitivity system induced from a subgroup representation:
    the function space with the equivariance constraint, in the coordinates
    of the section (one rho-block per coset), with the translation
    representation and the outcome projections."""

    sub: SubgroupData
    rho: MultiplierRep
    dim: int
    theta: np.ndarray  # (|G|, dim, dim)
    projections: np.ndarray  # (n_cosets, dim, dim)


def canonical_system(
    rho: MultiplierRep, sub: SubgroupData, tol: Tolerances = DEFAULT_TOL
) -> CanonicalSystem:
    """Build the canonical system concretely on equivariant functions.

    Requires an ordinary (trivial-cocycle) subgroup representation; the
    function space has one rho-block of coordinates per coset: the function
    with value rho(h)^+ e_i at s(w) h, scaled to unit norm.  Translation by a
    moves the value at a^{-1} x to x, so theta(a) and the projections are
    compressions of gathered rows of that embedding.  The section
    coordinates are certified to carry the translation onto the induced
    Wigner-cocycle form and the projections to satisfy the imprimitivity
    relation.
    """
    if not rho.cocycle.is_trivial(tol.recon_fro):
        raise ValueError("canonical system needs an ordinary subgroup representation")
    g, m, n, section = sub.parent, rho.dim, sub.n_cosets, np.asarray(sub.section)
    dim = n * m
    # embed[x, :, w, :]: the value at x of the function of coset w
    owner = sub.projection
    member = np.searchsorted(sub.members, g.mul[g.inverse[section[owner]], np.arange(g.order)])
    embed = np.zeros((g.order, m, n, m), dtype=np.complex128)
    embed[np.arange(g.order), :, owner, :] = rho.matrices[member].conj().transpose(0, 2, 1)
    embed = embed.reshape(g.order, m, dim) / np.sqrt(len(sub.members))
    flat = embed.reshape(g.order * m, dim)

    moved = embed[g.mul[g.inverse]].reshape(g.order, g.order * m, dim)  # row x of a: a^{-1} x
    theta = flat.conj().T @ moved
    scale = tol.recon_fro * max(1.0, np.sqrt(dim))
    if np.linalg.norm(moved - flat @ theta, axis=(1, 2)).max() > scale:
        raise DilationResidualError("function space is not translation invariant")
    in_coset = embed[g.mul[section[:, None], list(sub.members)]].reshape(n, -1, dim)
    projections = in_coset.conj().transpose(0, 2, 1) @ in_coset

    worst = float(np.linalg.norm(theta - _induced_form(wigner_rotation(rho, sub), sub), axis=(1, 2)).max())
    if worst > scale:
        raise DilationResidualError(
            f"canonical translation does not match the induced cocycle form ({worst:.2e})"
        )
    # imprimitivity relation theta(a) P_w theta(a)^+ = P_{aw}
    conj = theta[:, None] @ projections[None] @ theta.conj().transpose(0, 2, 1)[:, None]
    if np.linalg.norm(conj - projections[sub.coset_action().table], axis=(2, 3)).max() > scale:
        raise DilationResidualError("imprimitivity relation failed")
    return CanonicalSystem(sub, rho, dim, theta, projections)


# ---------------------------------------------------------------------------
# the square-integrable structure of an instrument
# ---------------------------------------------------------------------------


@record
class SqStructure:
    """The trace-one seed of a square-integrable covariant instrument, its
    Kraus family, the square-integrability constant and their checks."""

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
    sq = sq_constant(sym.rep, tol, h_order=len(sym.sub.members))
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
    hs = sym.rep.matrices[list(sym.sub.members)]
    us = sym.rep.matrices[list(sym.sub.section)]
    form = us @ seed @ us.conj().transpose(0, 2, 1) / d
    checks.require(
        tol.recon_fro,
        "square-integrable structure failed",
        subgroup_commutant=float(np.linalg.norm(seed @ hs - hs @ seed, axis=(1, 2)).max()),
        observable_form=float(np.linalg.norm(_effects(spec) - form, axis=(1, 2)).max()),
    )
    return SqStructure(seed, data.b_ops, d, checks)


# ---------------------------------------------------------------------------
# one outcome and its post-measurement state
# ---------------------------------------------------------------------------


def sample(spec: InstrumentSpec, state, rng_seed: int, tol: Tolerances = DEFAULT_TOL) -> SampleResult:
    """Draw one outcome and the conditional post-measurement state: the
    first draw of :func:`sample_stream` for the seed."""
    return next(sample_stream(spec, state, 1, rng_seed, tol))
