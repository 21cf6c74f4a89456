"""Covariant completely positive maps on finite-dimensional C*-algebras:
validation, minimal covariant dilations, Kraus extraction and extremality.

A map is stored by its form matrices on the matrix-unit basis of the
algebra and extended linearly.  Complete positivity is positivity of the
Choi matrix of every block (Choi's criterion), and the factorizations of
those matrices give the Kraus family and the minimal dilation, whose symmetry
u(g) (*) W(g) needs only a unitary W_{g,i} on each block's multiplicities.
Every per-block stage runs once per block shape, on the stack of the blocks
of that shape: u(g) carries a block only onto one of its own size, and the
dilation's W_{g,i} only onto one of its own multiplicity.
"""

from __future__ import annotations

from dataclasses import field, replace
from functools import cached_property

import numpy as np

from .cstar import FiniteCStarAlgebra, ModuleSpace, TensorSplit
from .fingroup import FiniteGroup, MultiplierRep, TwoCocycle
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
    block_layout,
    constrained_commutant,
    frob,
    multiplicity_moves,
    psd_factor,
    psd_spectrum,
    record,
    unitary_moves,
)


class InvarianceError(ValueError):
    """The unit value of the map is not invariant under the symmetry
    representation, so the covariant comparison class is empty."""


@record
class BlockAction:
    """A block-permuting multiplier representation u on an algebra's defining
    space, kept as its block action: u(g) carries block i to block
    ``sigma[g, i]`` by the n_i x n_i matrix ``w[i][g]``, the (sigma_g(i), i)
    block of u(g), and is zero elsewhere.  ``cocycle`` is the cocycle of u."""

    sigma: np.ndarray  # (|G|, number of blocks)
    w: tuple  # per block i, the (|G|, n_i, n_i) stack of w_{g,i}
    cocycle: TwoCocycle

    def fits(self, algebra: FiniteCStarAlgebra) -> bool:
        """Whether every sigma_g permutes blocks of equal size and every
        w_{g,i} is n_i x n_i."""
        sizes, order = np.asarray(algebra.blocks), self.cocycle.group.order
        sigma = np.asarray(self.sigma)
        if sigma.shape != (order, len(sizes)) or len(self.w) != len(sizes):
            return False
        if any(np.shape(w) != (order, n, n) for w, n in zip(self.w, sizes)):
            return False
        return bool(np.all(sizes[sigma] == sizes) and np.all(np.sort(sigma, axis=1) == np.arange(len(sizes))))


@record
class CPSymmetry:
    """Symmetry data of a covariant CP map.

    ``u`` implements the inner action b -> u(g) b u(g)^+ on the algebra's
    defining space: a dense :class:`MultiplierRep` (user data, whose leak out
    of the algebra :func:`cp_validate` measures) or, where the structure is
    known at construction, its :class:`BlockAction`.  ``rep`` acts on the
    module fiber.  Optional ``u_factors`` carry the factor implementations
    when the algebra is a declared tensor product.
    """

    u: MultiplierRep | BlockAction
    rep: MultiplierRep
    u_factors: tuple[MultiplierRep, MultiplierRep] | None = None

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group


@record
class CPMapSpec:
    """A CP map on a finite C*-algebra as its form matrices on the matrix
    units, with optional symmetry and tensor-product split."""

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
            u = self.symmetry.u
            if not (u.fits(self.algebra) if isinstance(u, BlockAction) else u.dim == self.algebra.defining_dim):
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

    @cached_property
    def block_action(self) -> BlockAction:
        """The symmetry's u as its :class:`BlockAction`; a dense u is read by
        :meth:`~covkit.cstar.FiniteCStarAlgebra.block_action` over the whole
        group, which drops any leak out of the algebra.  A map without a
        symmetry has none: ``ValueError``."""
        if self.symmetry is None:
            raise ValueError("the map has no symmetry, so no block action")
        u = self.symmetry.u
        if isinstance(u, BlockAction):
            return u
        sigma, w = self.algebra.block_action(u.matrices)
        return BlockAction(sigma, tuple(w), u.cocycle)

    def choi_blocks(self) -> list[np.ndarray]:
        """Choi matrix C_i[(b, v), (d, w)] = S(E^i_bd)[v, w] of every block."""
        out = [None] * len(self.algebra.blocks)
        for n, _, idx in block_layout(self.algebra.blocks, 1)[1]:
            for i, c in zip(idx, _choi_stack(self.algebra, self.values, n, idx)):
                out[i] = c
        return out

    def choi(self) -> np.ndarray:
        """Choi matrix of a single-block algebra."""
        if len(self.algebra.blocks) != 1:
            raise DimensionError("choi() needs a single full matrix block")
        return self.choi_blocks()[0]


def _units(alg: FiniteCStarAlgebra, n, idx) -> np.ndarray:
    """The matrix units of the blocks ``idx``, all of size n: (B, n^2)."""
    return alg.unit_offsets[idx][:, None] + np.arange(n * n)


def _choi_stack(alg: FiniteCStarAlgebra, stack, n, idx) -> np.ndarray:
    """Choi matrices of the blocks ``idx``, all of size n, of a stack of unit
    images (B, n d, n d).  Because E_ab^+ E_cd = delta_ac E_bd, the grand
    kernel [S(E_k^+ E_l)] over the matrix units is the direct sum of I_{n_i}
    (x) C_i."""
    d = stack.shape[1]
    return stack[_units(alg, n, idx)].reshape(len(idx), n, n, d, d).transpose(0, 1, 3, 2, 4).reshape(len(idx), n * d, n * d)


def _choi_spectra(alg: FiniteCStarAlgebra, stack, vectors=False) -> list:
    """One :func:`~covkit.numlin.psd_spectrum` per block size, over the
    stacked Choi matrices of the blocks of that size: (n, idx, spectrum)."""
    return [(n, idx, psd_spectrum(_choi_stack(alg, stack, n, idx), vectors)) for n, _, idx in block_layout(alg.blocks, 1)[1]]


def _cp_status(spectra, tol) -> tuple[bool, float]:
    """Complete positivity from the Choi spectra: every block is tested
    against its own scale, and the residual is the largest."""
    ok = all(bool(np.all(s.passes(tol))) for _, _, s in spectra)
    return ok, max(float(s.residual().max(initial=0.0)) for _, _, s in spectra)


# The phase gauge of a Kraus operator makes its first entry of magnitude above
# this floor real positive.  It picks one of the equally valid factors and
# decides no verdict, so it is structural rather than a tolerance: a fixed
# absolute value keeps the factors, and so every printed j, reproducible.
_GAUGE_FLOOR = 1e-12


def _gauge(f) -> np.ndarray:
    """Every row of a stack of factors (..., rows, cols) turned by the phase
    that makes its first entry above :data:`_GAUGE_FLOOR` real positive;
    rows without one are kept."""
    lead = np.take_along_axis(f, np.argmax(np.abs(f) > _GAUGE_FLOOR, axis=-1)[..., None], -1)
    big = np.abs(lead) > _GAUGE_FLOOR
    return f / np.where(big, lead / np.where(big, np.abs(lead), 1.0), 1.0)


def kraus_from_choi(choi, k_dim, v_dim, tol: Tolerances = DEFAULT_TOL):
    """Kraus operators B_j (K x V) of a CP map from its Choi block matrix,
    with a deterministic gauge: descending eigenvalues, first significant
    entry rotated real positive (:func:`_gauge`)."""
    n, f = psd_factor(choi, tol)
    return list(_gauge(f).reshape(n, k_dim, v_dim))


def cp_validate(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL) -> Checks:
    """Complete positivity and covariance, checked over every matrix unit
    and the group's generators at once.  Normality is structural: every
    linear map between finite-dimensional algebras is normal, so it has no
    verdict.  Complete positivity passes if every block's Choi matrix passes
    :func:`~covkit.numlin.psd_status` against its own scale, from one
    eigenvalue computation per block size; the residual is the most negative
    eigenvalue over the blocks, that of the grand kernel.  Covariance at g
    and h gives it at gh, since Ad of a multiplier representation is a
    homomorphism, so it is checked at the generators s of
    ``group.generators()`` (:func:`_covariance`).  Where a dense u(s) moves
    some b out of the algebra, the residual is the largest part of a u(s)
    E_k u(s)^+ outside it."""
    return _cp_checks(spec, _choi_spectra(spec.algebra, spec.values), tol)


def _cp_checks(spec: CPMapSpec, spectra, tol) -> Checks:
    """:func:`cp_validate` from the Choi spectra already computed."""
    checks = Checks(completely_positive=Check(*_cp_status(spectra, tol)))
    covariant = Check(True, 0.0)
    # the trivial group has no generators: u(e) = rep(e) = I is all there is
    if spec.symmetry is not None and spec.symmetry.group.generators():
        alg, group, u = spec.algebra, spec.symmetry.group, spec.symmetry.u
        gens = list(group.generators())
        if isinstance(u, BlockAction):
            sigma, w = u.sigma[gens], [wi[gens] for wi in u.w]
        else:
            outside, size = alg.outside_norms(u.matrices[gens])
            leaks = np.any(outside > tol.recon_fro * np.maximum(1.0, size), axis=-1)
            if leaks.any():
                checks["covariant"] = Check(False, float(outside[leaks].max()))
                return checks
            sigma, w = alg.block_action(u.matrices[gens])
            w = [_factor(wi, u.unitary_flag) for wi in w]
        rep = _factor(spec.symmetry.rep.matrices[gens], spec.symmetry.rep.unitary_flag)
        covariant = _covariance(_choi_blocks(alg, spec.values, w), sigma, rep, group, tol)
    checks["covariant"] = covariant
    return checks


def _factor(mats, unitary: bool) -> np.ndarray:
    """A stack of representation matrices as the factor the covariance
    defect moves Choi blocks by: itself when unitary, else its inverse
    adjoint."""
    return mats if unitary else np.swapaxes(np.linalg.inv(mats).conj(), -1, -2)


def _choi_blocks(alg: FiniteCStarAlgebra, values, w) -> list:
    """Per block size of ``alg``: the indices of those blocks, their stacked
    Choi matrices and their factors w_i stacked on axis 1, as
    :func:`_covariance` takes them."""
    shapes = block_layout(alg.blocks, 1)[1]
    return [(idx, _choi_stack(alg, values, n, idx), np.stack([w[i] for i in idx], axis=1)) for n, _, idx in shapes]


# The covariance defect of one block size is formed a chunk of blocks at a
# time, each chunk holding at most this many complex entries per stacked
# array (2 MiB): a large map never needs its whole (rows, blocks, nd, nd)
# defect at once.  The largest covariance check of the benchmark corpus
# (93 312 entries) is one chunk.
_COVARIANCE_CHUNK = 1 << 17


def _moved(choi, w, rep) -> np.ndarray:
    """f C f^+ for f = conj(w) (x) rep, over a stack of Choi matrices C (B, n
    d, n d), factors w (rows, B or 1, n, n) and rep (rows, d, d)."""
    nd = choi.shape[-1]
    f = (w.conj()[..., :, None, :, None] * rep[:, None, None, :, None, :]).reshape(w.shape[:2] + (nd, nd))
    return f @ choi @ np.swapaxes(f.conj(), -1, -2)


def _covariance(blocks, sigma, rep, group: FiniteGroup, tol) -> Check:
    """The one covariance certificate of CP maps, instruments and
    observables, over the rows s of a block permutation ``sigma`` and of a
    stack ``rep``, the generators of ``group``.  ``blocks`` holds, per block
    size, the indices of those blocks, their stacked Choi matrices C_i and
    their factors w_{s,i} (rows, blocks, n, n), or (rows, 1, n, n) for one
    factor all of them share; sigma_s maps each index set onto itself.  The
    residual is the largest ||(conj(w_{s,i}) (x) rep_s) C_i (.)^+ -
    C_{sigma_s(i)}||_F over s and i, one stacked expression per chunk of
    blocks of one size (:data:`_COVARIANCE_CHUNK`); it is a maximum, so the
    chunks change no value.  For unitary factors it is the Hilbert-Schmidt
    norm of b -> S(beta_s(b)) - rep_s S(b) rep_s^+ on block i, whatever unit
    basis it is summed over.  A non-unitary factor is passed as its inverse
    adjoint (:func:`_factor`).  The verdict holds ``max_word_length`` times
    the residual to recon_fro max(1, max|C_i|)."""
    worst, scale, d = [0.0], [1.0], rep.shape[-1]
    for idx, choi, w in blocks:
        n = w.shape[-1]
        step = max(1, _COVARIANCE_CHUNK // max(1, len(rep) * (n * d) ** 2))
        for part in (slice(lo, lo + step) for lo in range(0, len(idx), step)):
            defect = _moved(choi[part], w[:, part] if w.shape[1] > 1 else w, rep)
            defect -= choi[np.searchsorted(idx, sigma[:, idx[part]])]
            worst.append(_norms(defect).max(initial=0.0))
            scale.append(np.abs(choi[part]).max(initial=0.0))
    # np.max keeps a NaN, and a non-finite bound certifies nothing
    worst, bound = float(np.max(worst)), tol.recon_fro * float(np.max(scale))
    return Check(bool(group.max_word_length * worst <= bound < np.inf), worst)


def _tensor_pattern(dil: KSGNSDilation):
    """Indices (unit, row, col) of the unit entries of every T_k = E_ab (x)
    I_{r_i}, k = (i, a, b), on the direct sum of C^{n_i} (x) C^{r_i}, one
    block shape at a time."""
    (start, shapes), unit_at = dil.layout, dil.spec.algebra.unit_offsets
    out = [(np.zeros(0, np.int64),) * 3]
    for n, r, idx in shapes:
        a, b, lam = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), np.arange(r), indexing="ij"))
        at = start[idx, None]
        out.append((unit_at[idx, None] + a * n + b, at + a * r + lam, at + b * r + lam))
    return tuple(np.concatenate([p.ravel() for p in part]) for part in zip(*out))


@record
class KSGNSDilation:
    """Minimal dilation S_b = j^+ pi(b) j with covariant intertwiners.

    The dilation space is the direct sum of C^{n_i} (x) C^{r_i}, r_i =
    ``mult[i]``, laid out by :attr:`layout`, and pi(E^i_ab) = E_ab (x)
    I_{r_i} on it: every unital representation of the algebra has this form
    up to unitary equivalence, so pi is a function of the algebra and
    ``mult`` (:func:`_tensor_pattern`) and is never stored.  Nor is the
    symmetry: sym(g) = u(g) (*) W(g) moves block i to block sigma_g(i) as
    w_{g,i} (x) W_{g,i}, (sigma, w) the block action of u
    (:attr:`CPMapSpec.block_action`), so the twist sym(g) pi(b) =
    pi(beta_g(b)) sym(g) holds by construction; only the multiplicity
    unitaries W_{g,i} are stored, and :meth:`sym` takes an element or an
    index array.  A dilation off this layout cannot be built.
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

    @cached_property
    def layout(self) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray]]]:
        """:func:`~covkit.numlin.block_layout` of the dilation space: the
        start of every block and the blocks of every shape (n_i, r_i)."""
        return block_layout(self.spec.algebra.blocks, self.mult)

    def pi(self, bmat) -> np.ndarray:
        """pi of an algebra element or a stack of them: the coefficients
        scattered onto the pattern."""
        unit, rows, cols = _tensor_pattern(self)
        coeffs = self.spec.algebra.coefficients(bmat)
        out = np.zeros(coeffs.shape[:-1] + (self.rank, self.rank), dtype=np.complex128)
        out[..., rows, cols] = coeffs[..., unit]
        return out

    @property
    def r_blocks(self) -> np.ndarray:
        """pi(E_k) j for every matrix unit k, (n_units, N, n_V): rows of j moved
        from the column cell of T_k to its row cell."""
        unit, rows, cols = _tensor_pattern(self)
        out = np.zeros((self.spec.algebra.n_units, self.rank, self.spec.n_v), dtype=np.complex128)
        out[unit, rows] = self.j[cols]
        return out

    @property
    def pi_units(self) -> np.ndarray:
        """The dense (n_units, N, N) stack of pi(E_k), built on request."""
        out = np.zeros((self.spec.algebra.n_units, self.rank, self.rank), dtype=np.complex128)
        out[_tensor_pattern(self)] = 1.0
        return out

    def sym(self, g) -> np.ndarray:
        """The dense sym(g) = u(g) (*) W(g), built on request, of an element
        g or, for an index array, the stack of them: the N x N matrix whose
        block (sigma_g(i), i) is w_{g,i} (x) W_{g,i}, scattered one block
        shape at a time.  The dilation of a map without a symmetry has no
        sym: ``ValueError``, from :attr:`CPMapSpec.block_action`."""
        act = self.spec.block_action
        flat = np.asarray(g, dtype=np.intp).reshape(-1)
        out = np.zeros((len(flat), self.rank, self.rank), dtype=np.complex128)
        moves = [w[flat] for w in self.mult_rep], act.sigma[flat], list(zip(self.spec.algebra.blocks, self.mult))
        for n, r, idx, cells, ws, to in multiplicity_moves(*moves)[-1]:
            w = np.stack([act.w[i][flat] for i in idx], axis=1)  # (m, B, n, n)
            # w (x) W: w[a, b] W[l, k] at row (a, l) and column (b, k)
            kron = (w[:, :, :, None, :, None] * ws[:, :, None, :, None, :]).reshape(len(flat), len(idx), n * r, n * r)
            out[np.arange(len(flat))[:, None, None, None], cells[to][..., None], cells[:, None]] = kron
        return out.reshape(np.shape(g) + (self.rank, self.rank))


def _kraus_stack(dil: KSGNSDilation, n, r, idx) -> np.ndarray:
    """The Kraus operators A^i_l of the blocks ``idx``, all of shape (n, r),
    as a (B, r, n, n_V) stack read off j: row (i, a, l) of j is row a of
    A^i_l."""
    rows = dil.j[dil.layout[0][idx, None] + np.arange(n * r)]
    return rows.reshape(len(idx), n, r, -1).transpose(0, 2, 1, 3)


def ksgns(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL) -> KSGNSDilation:
    """Minimal covariant dilation of a valid covariant CP map.

    Block i's Choi matrix factors into r_i = rank C_i Kraus operators A^i_l
    (n_i x n_V), so S(b) = sum_{i,l} A^i_l^+ b_i A^i_l.  On the dilation
    space, the direct sum of C^{n_i} (x) C^{r_i}, row (i, a, l) of j is row a
    of A^i_l and pi(E^i_ab) = E_ab (x) I_{r_i} exactly, so the rank is
    N = sum_i n_i r_i.  One eigendecomposition of the stacked Choi matrices
    per block size gives the complete-positivity verdict of
    :func:`cp_validate`, its residual and the Kraus factors.  With a
    symmetry, sym(g) = u(g) (*) W(g), and the multiplicity unitaries W_{g,i}
    come from one batched solve per block shape (:func:`_certify_covariant`).
    What does not hold by construction is certified against the tolerances.
    """
    alg, nv = spec.algebra, spec.n_v
    spectra = _choi_spectra(alg, spec.values, vectors=True)
    report = _cp_checks(spec, spectra, tol)
    if not report.ok:
        raise ValueError(f"cp map invalid: {', '.join(report.failed())}")
    mult, factors = np.zeros(len(alg.blocks), dtype=np.int64), {}
    for n, idx, spectrum in spectra:
        mult[idx], f = spectrum.factor(tol)
        factors.update(zip(idx.tolist(), _gauge(f)))
    start, shapes = block_layout(alg.blocks, mult)
    j = np.zeros((int(start[-1]), nv), dtype=np.complex128)
    for n, r, idx in shapes:
        kraus = np.stack([factors[i][:r] for i in idx]).reshape(-1, r, n, nv).transpose(0, 2, 1, 3)
        j[start[idx, None] + np.arange(n * r)] = kraus.reshape(-1, n * r, nv)
    dil = KSGNSDilation(spec, len(j), tuple(int(r) for r in mult), j)
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
    :func:`~covkit.numlin.rank` over F, so F is never formed: A^i has r_i
    singular values, each above the cutoff (a family longer than n_i n_V
    has fewer).  Both run once per block shape (n_i, r_i), over the stacked
    Kraus operators.  pi is a unital *-representation exactly, by
    construction."""
    alg, nv = dil.spec.algebra, dil.spec.n_v
    values, sv = np.zeros_like(dil.spec.values), []
    for n, r, idx in dil.layout[1]:
        a = _kraus_stack(dil, n, r, idx)
        values[_units(alg, n, idx)] = np.einsum("Blav,Blbw->Babvw", a.conj(), a).reshape(len(idx), n * n, nv, nv)
        sv.append((r, np.linalg.svd(a.reshape(len(idx), r, n * nv), compute_uv=False)))
    checks = Checks().require(
        tol.recon_fro * max(1.0, frob(dil.j) ** 2),
        "reconstruction failed",
        reconstruction=float(_norms(values - dil.spec.values).max(initial=0.0)),
    )
    cut = tol.rank_rel * max([1.0] + [float(s[:, 0].max()) for _, s in sv])
    if any(s.shape[-1] < r or np.any(s[:, -1] <= cut) for r, s in sv):
        raise DilationResidualError("dilation is not minimal", checks)
    return checks


def _certify_covariant(dil: KSGNSDilation, tol) -> tuple[tuple, Checks]:
    """The multiplicity unitaries W_{g,i}, solved from (I (x) W_{g,i}) j_i =
    (w_{g,i}^+ (x) I) j_{sigma_g(i)} rep(g) on the independent A^i_l, or the
    dilation's own re-checked, and their certificate, each stage one stacked
    call per block shape (n_i, r_i) over the whole group: the solve is one
    batched :func:`~covkit.numlin.unitary_moves`.  ``sym_unitary`` is
    ||sym(g)^+ sym(g) - I||_F from the blocks P (x) Q of sym(g)^+ sym(g), P =
    w^+ w and Q = W^+ W, so a non-unitary u is caught too; with X = P - I and
    Y = Q - I, ||X (x) Q + I (x) Y||^2 = ||X||^2 ||Q||^2 + n ||Y||^2 + 2 Re
    conj(tr X) tr(Q^+ Y) has no cancellation.  ``sym_j`` is the solve
    residual ||sym(g) j - j rep(g)||_F; ``sym_cocycle``, the block cocycle
    W_{a,sigma_b(i)} W_{b,i} = conj(c_u(a, b)) c_rep(a, b) W_{ab,i} for the
    generators a and every b at once, which weighted by n_i is the dense
    ||sym(a) sym(b) - c_rep(a, b) sym(ab)||_F.  With c_u and c_rep
    2-cocycles, the rows of a and a' give the row of aa' (induction on word
    length, as in :func:`~covkit.fingroup.rep_status`), so
    ``max_word_length`` times the residual is held to the bound."""
    spec, group, rep = dil.spec, dil.spec.symmetry.group, dil.spec.symmetry.rep
    act, mult, order = spec.block_action, np.asarray(dil.mult), dil.spec.symmetry.group.order
    if np.any(mult[act.sigma] != mult):
        raise DilationResidualError("u(g) moves a block onto one of another multiplicity")
    gens = list(group.generators())
    c = (act.cocycle.values.conj() * rep.cocycle.values)[gens, :, None, None, None]
    mult_rep = [np.zeros((order, 0, 0), dtype=np.complex128)] * len(mult)
    unit, moved, pairs = np.zeros(order), np.zeros(order), np.zeros((len(gens), order))
    for n, r, idx in dil.layout[1]:
        to = np.searchsorted(idx, act.sigma[:, idx])  # (|G|, B): where sigma_g(i) sits in the sorted idx
        a, w = _kraus_stack(dil, n, r, idx), np.stack([act.w[i] for i in idx], axis=1)
        target = np.einsum("gBca,gBlcv->gBlav", w.conj(), a[to] @ rep.matrices[:, None, None])
        given = None if dil.mult_rep is None else np.stack([dil.mult_rep[i] for i in idx], axis=1)
        ws, _, res = unitary_moves(a.reshape(len(idx), r, -1), target.reshape(order, len(idx), r, -1), given)
        x, y = (np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1]) for m in (w, ws))
        cross = np.trace(x, axis1=-2, axis2=-1).conj() * np.einsum("gBlm,gBlm->gB", (y + np.eye(r)).conj(), y)
        unit += (_norms(x) ** 2 * _norms(y + np.eye(r)) ** 2 + n * _norms(y) ** 2 + 2 * cross.real).sum(1)
        moved += (res**2).sum(1)
        # pairs[a, b] += n ||W_{a,sigma_b(i)} W_{b,i} - c(a, b) W_{ab,i}||_F^2 for generators a
        pairs += n * (_norms(ws[gens][:, to] @ ws - c * ws[group.mul[gens]]) ** 2).sum(-1)
        for b, i in enumerate(idx):
            mult_rep[i] = ws[:, b]
    message = "covariant dilation certification failed"
    bound = tol.unitary_fro * max(1.0, np.sqrt(dil.rank))
    checks = Checks().require(bound, message, sym_unitary=np.sqrt(np.maximum(unit, 0.0)).max())
    residuals = {"sym_j": np.sqrt(moved).max(), "sym_cocycle": np.sqrt(pairs).max(initial=0.0)}
    bound = tol.recon_fro * max(1.0, np.sqrt(dil.rank), frob(dil.j))
    checks.require(bound, message, {"sym_cocycle": group.max_word_length}, **residuals)
    return tuple(mult_rep), checks


class NotSingleBlockError(ValueError):
    """The operation needs a single full matrix block."""


def kraus_extract(dilation: KSGNSDilation):
    """Kraus family A_l with S_b = sum_l A_l^+ b A_l of a single-block map,
    read off the dilation :func:`ksgns` built and certified for it: row (a,
    l) of j is row a of A_l, so the count equals the rank of the Choi
    matrix."""
    blocks = dilation.spec.algebra.blocks
    if len(blocks) != 1:
        raise NotSingleBlockError("kraus extraction needs a single full block")
    return list(_kraus_stack(dilation, blocks[0], dilation.mult[0], np.arange(1))[0])


def cp_extremal(spec: CPMapSpec, tol: Tolerances = DEFAULT_TOL) -> ExtremalityCertificate:
    """Extremality of the map among covariant CP maps with the same value at
    the algebra unit (Arveson's criterion).

    The map is extreme iff D = 0 is the only D that commutes with pi(A) and
    the dilation symmetry and has j^+ D j = 0.  On the layout of a
    :class:`KSGNSDilation`, pi(A)' = +_i I_{n_i} (x) M_{r_i}, so the system has
    sum_i r_i^2 unknowns and rows from the multiplicity moves of the group's
    generators only (:func:`~covkit.numlin.constrained_commutant` with the
    layout (n_i, r_i), sigma and the compression (j, j)), so no dense sym(g)
    is built.  :func:`~covkit.kernels._certify_commutant` re-checks the basis
    against the moves of every group element, pi(A)' and (j, j).  On
    non-extremality both neighbours j^+ (I +- W) pi(.) j re-validate, keep
    the unit value and average to the input.
    """
    dilation = ksgns(spec, tol)
    if spec.symmetry is not None:
        t1, rep = spec.unit_value(), spec.symmetry.rep.matrices
        if _norms(rep.conj().transpose(0, 2, 1) @ t1 @ rep - t1).max() > tol.recon_fro * max(1.0, frob(t1)):
            raise InvarianceError("unit value of the map must be invariant under the module representation")

    if dilation.rank == 0:
        return ExtremalityCertificate(True, None, None, 0)
    layout = list(zip(spec.algebra.blocks, dilation.mult))
    compressions = [(dilation.j[None], dilation.j[None])]
    ws, sigma, gens = (), None, []
    if spec.symmetry is not None:
        ws, sigma, gens = dilation.mult_rep, spec.block_action.sigma, list(spec.symmetry.group.generators())
    basis = constrained_commutant([w[gens] for w in ws], compressions, sigma=sigma[gens] if gens else None, layout=layout, tol=tol)
    _certify_commutant(basis, ws, compressions, tol, sigma=sigma, layout=layout)
    jh, blocks = dilation.j.conj().T, dilation.r_blocks

    def cpmap(d):
        # b -> j^+ D pi(b) j
        return replace(spec, values=(jh @ d) @ blocks)

    scale = max(1.0, frob(dilation.j) ** 2)
    return _split(spec, basis, cpmap, _each(cp_validate), lambda cp: cp.values, scale, tol, unit_value=CPMapSpec.unit_value)
