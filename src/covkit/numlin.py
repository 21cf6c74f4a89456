"""Dense complex linear algebra primitives shared by every higher layer.

All matrices are numpy arrays of complex128.  Every tolerance is relative to
the scale of the input; the knobs live in :class:`Tolerances` and every public
operation accepts an override.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Shapes of the inputs do not line up."""


class NotPositiveError(ValueError):
    """A matrix required to be positive semidefinite is not."""

    def __init__(self, message, min_eigenvalue):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances used throughout the toolkit.

    psd_eig     eigenvalue slack when testing positive semidefiniteness
    rank_rel    singular values below rank_rel * sigma_max count as zero
    unitary_fro Frobenius slack when certifying a matrix unitary
    recon_fro   Frobenius slack for reconstruction / intertwining identities
    """

    psd_eig: float = 1e-9
    rank_rel: float = 1e-9
    unitary_fro: float = 1e-8
    recon_fro: float = 1e-8

    def __post_init__(self):
        for name in ("psd_eig", "rank_rel", "unitary_fro", "recon_fro"):
            if getattr(self, name) <= 0:
                raise ValueError(f"tolerance {name} must be strictly positive")


DEFAULT_TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def frob(a) -> float:
    return float(np.linalg.norm(a))


def offsets(sizes) -> np.ndarray:
    """Start of each block of a direct sum with the given block sizes, with
    the total last."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def _scale(a) -> float:
    # Spectral-norm based scale, floored at 1 so absolute and relative
    # tolerances agree for O(1) inputs.
    if a.size == 0:
        return 1.0
    return max(1.0, float(np.linalg.norm(a, 2)))


def is_unitary(u, tol: Tolerances = DEFAULT_TOL) -> bool:
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    return frob(u.conj().T @ u - np.eye(u.shape[0])) <= tol.unitary_fro * _scale(u)


def psd_check(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``a`` is Hermitian within tolerance and has no eigenvalue
    below ``-psd_eig * scale`` (:class:`Spectrum`)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"psd_check needs a square matrix, got {a.shape}")
    return psd_status(a, tol)[0]


@dataclass(frozen=True)
class Spectrum:
    """One eigendecomposition of the Hermitian parts h = (a + a^+)/2 of a
    square matrix or a stack (..., n, n) of them, and what positivity reads
    off it, matrix by matrix.

    ``values`` (..., n) are ascending and ``vectors`` (..., n, n) hold the
    eigenvectors as columns (None when not asked for).  ``scale`` is
    max(1, ||h||_2), the largest eigenvalue magnitude floored at 1; it
    differs from max(1, ||a||_2) by at most ||a - a^+||_2 / 2, which the
    Hermitian verdict holds below ``psd_eig * scale / 2``.  ``skew`` is
    ||a - a^+||_F.
    """

    values: np.ndarray
    vectors: np.ndarray | None
    scale: np.ndarray
    skew: np.ndarray

    def passes(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Per matrix: Hermitian within ``psd_eig * scale`` and no eigenvalue
        below ``-psd_eig * scale``."""
        slack = tol.psd_eig * self.scale
        return (self.skew <= slack) & (self.residual() <= slack)

    def residual(self) -> np.ndarray:
        """Per matrix, the magnitude of the most negative eigenvalue, 0 when
        there is none."""
        return np.maximum(0.0, -self.values[..., 0]) if self.values.shape[-1] else np.zeros(self.scale.shape)

    def factor(self, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """Minimal-rank factors h = F^+ F, from the vectors: the ranks (...)
        and F (..., n, n), whose rows are sqrt(eigenvalue) times the adjoint
        eigenvector in descending eigenvalue order, zero from the rank on.
        Eigenvalues are clamped at zero, and those up to max(rank_rel *
        largest, psd_eig * scale) count as zero."""
        w = np.clip(self.values[..., ::-1], 0.0, None)
        thresh = np.maximum(tol.rank_rel * w[..., :1], tol.psd_eig * self.scale[..., None]) if w.shape[-1] else w
        keep = w > thresh
        f = np.where(keep, np.sqrt(w), 0.0)[..., None] * np.swapaxes(self.vectors[..., ::-1].conj(), -1, -2)
        return keep.sum(-1), f


def psd_spectrum(a, vectors: bool = False) -> Spectrum:
    """The :class:`Spectrum` of a square matrix or a stack of them, from one
    ``eigh`` (``eigvalsh`` without ``vectors``)."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"positivity needs square matrices, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    adjoint = np.swapaxes(a.conj(), -1, -2)
    h = 0.5 * (a + adjoint)
    w, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    top = np.maximum(-w[..., 0], w[..., -1]) if a.shape[-1] else np.zeros(a.shape[:-2])
    return Spectrum(w, v, np.maximum(1.0, top), np.linalg.norm(a - adjoint, axis=(-2, -1)))


def psd_status(a, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Positivity verdict and residual for a square matrix or a stack of
    them, from one eigenvalue computation.

    The verdict is that of :func:`psd_check` for every matrix; the residual
    is the magnitude of the most negative eigenvalue of the Hermitian parts,
    0 when there is none.
    """
    spectrum = psd_spectrum(a)
    return bool(np.all(spectrum.passes(tol))), float(spectrum.residual().max(initial=0.0))


def psd_factor(a, tol: Tolerances = DEFAULT_TOL):
    """Minimal-rank factorization ``a = F.conj().T @ F`` of a PSD matrix.

    Returns ``(rank, F)`` with ``F`` of shape (rank, n), from the one
    eigendecomposition of :meth:`Spectrum.factor`.  Eigenvalues within
    ``-psd_eig * scale`` of zero are clamped to zero; anything more negative
    raises :class:`NotPositiveError`.  Rows of ``F`` are ordered by
    descending eigenvalue, which keeps the factorization deterministic.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"psd_factor needs a square matrix, got {a.shape}")
    spectrum = psd_spectrum(a, vectors=True)
    if spectrum.skew > tol.psd_eig * spectrum.scale:
        raise NotPositiveError("matrix is not Hermitian", None)
    if not spectrum.passes(tol):
        low = float(spectrum.values[0])
        raise NotPositiveError(f"matrix is not positive semidefinite (min eigenvalue {low:.3e})", low)
    n, f = spectrum.factor(tol)
    return int(n), f[:n]


def rank(a, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank, with the cutoff of :func:`null_space` (``rank_rel``
    times the spectral norm floored at 1), so rank + nullity = columns."""
    a = as_matrix(a)
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(sv > tol.rank_rel * max(1.0, sv[0])))


def null_space(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel ``{x : a @ x = 0}``.

    A tall system is first reduced to its square triangular factor R (a = QR,
    same singular values and right singular vectors), so no rows x rows
    matrix is ever formed.  Singular values up to ``rank_rel`` times the
    scale (spectral norm, floored at 1) count as zero, so a system that is
    zero up to roundoff has the whole space as its kernel.
    """
    a = as_matrix(a)
    n = a.shape[1]
    if a.shape[0] == 0 or n == 0:
        return np.eye(n, dtype=np.complex128)
    if a.shape[0] > n:
        a = np.linalg.qr(a, mode="r")
    _, sv, vh = np.linalg.svd(a)
    r = int(np.sum(sv > tol.rank_rel * max(1.0, sv[0])))
    return vh[r:].conj().T


def constrained_commutant(
    generators, compressions=(), *, layout=None, tol: Tolerances = DEFAULT_TOL
) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the D in +_i I_{n_i} (x) M_{r_i} with
    [D, A] = 0 for every generator A and sum_k L_k^+ D R_k = 0 for every
    compression (L, R); an empty list means only D = 0 qualifies.

    ``layout`` holds the pairs (n_i, r_i), so D = +_i I_{n_i} (x) X_i /
    sqrt(n_i) and the unknowns are the sum_i r_i^2 entries of the X_i,
    orthonormal as D is; the default is one block (1, N), all N x N matrices.
    Each compression is a pair of stacks of shapes (k, N, p) and (k, N, q).
    The (j, i) block of a generator, cut into r_j x r_i cells s_ab, gives the
    rows X_j s_ab / sqrt(n_j) - s_ab X_i / sqrt(n_i) = 0; exactly zero blocks
    give no rows.
    """
    generators = [as_matrix(g) for g in generators]
    compressions = [tuple(np.asarray(m, dtype=np.complex128) for m in pair) for pair in compressions]
    if any(l.ndim != 3 or r.ndim != 3 or len(l) != len(r) for l, r in compressions):
        raise DimensionError("a compression needs two stacks (k, N, p) and (k, N, q)")
    sizes = {g.shape for g in generators} | {(m.shape[1],) * 2 for pair in compressions for m in pair}
    if layout is not None:
        sizes.add((sum(n * r for n, r in layout),) * 2)
    if len(sizes) > 1 or any(a != b for a, b in sizes):
        raise DimensionError(f"inconsistent sizes {sorted(sizes)}")
    if not sizes:
        raise DimensionError("cannot infer matrix size: no inputs and no layout")
    blocks, mult = zip(*layout) if layout is not None else ((1,), (sizes.pop()[0],))
    start, col = offsets([n * r for n, r in zip(blocks, mult)]), offsets([r * r for r in mult])
    cuts = [slice(a, b) for a, b in zip(start[:-1], start[1:])]

    rows = []
    for s in generators:
        for jb, ib in np.ndindex(len(blocks), len(blocks)):
            part = s[cuts[jb], cuts[ib]]
            if not part.any():
                continue
            (nj, rj), (ni, ri) = (blocks[jb], mult[jb]), (blocks[ib], mult[ib])
            part = part.reshape(nj, rj, ni, ri).transpose(0, 2, 1, 3)  # part[a, b] = s_ab
            row = np.zeros((nj, ni, rj, ri, col[-1]), dtype=np.complex128)
            # over the row-major entries of X: X s has rows I (x) s^T, s X has rows s (x) I
            left = np.einsum("lp,abqm->ablmpq", np.eye(rj), part).reshape(nj, ni, rj, ri, rj * rj)
            right = np.einsum("ablp,qm->ablmpq", part, np.eye(ri)).reshape(nj, ni, rj, ri, ri * ri)
            row[..., col[jb] : col[jb + 1]] += left / np.sqrt(nj)
            row[..., col[ib] : col[ib + 1]] -= right / np.sqrt(ni)
            rows.append(row.reshape(nj * ni * rj * ri, col[-1]))
    for l, r in compressions:
        # (sum_k L_k^+ D R_k)[v, w] = sum_i sum_{k, a} L_k[i, a]^+ X_i R_k[i, a] / sqrt(n_i),
        # L_k[i, a] the rows (i, a, .) of L_k
        k, p, q = len(l), l.shape[2], r.shape[2]
        parts = [
            np.einsum("kalv,kamw->vwlm", l[:, cut].reshape(k, n, m, p).conj(), r[:, cut].reshape(k, n, m, q))
            .reshape(p * q, m * m) / np.sqrt(n)
            for cut, n, m in zip(cuts, blocks, mult)
        ]
        rows.append(np.hstack(parts))
    x = null_space(np.vstack(rows) if rows else np.zeros((0, col[-1])), tol)
    basis = []
    for v in x.T:
        d = np.zeros((start[-1], start[-1]), dtype=np.complex128)
        for cut, n, r, c0 in zip(cuts, blocks, mult, col):
            x_i = v[c0 : c0 + r * r].reshape(r, r) / np.sqrt(n)
            d[cut, cut] = np.einsum("ab,lm->albm", np.eye(n), x_i).reshape(n * r, n * r)
        basis.append(d)
    return basis


def lstsq_define(pairs, tol: Tolerances = DEFAULT_TOL):
    """Least-squares solve for ``L`` with ``L @ input_i ~= target_i``.

    ``pairs`` is a sequence of (input, target) column blocks sharing row
    counts across all inputs and across all targets.  Returns ``(L,
    residual)`` where residual is the Frobenius norm of the total mismatch.
    Callers certify residual <= recon_fro * scale when exactness is
    guaranteed mathematically.
    """
    ins = [as_matrix(p[0]) for p in pairs]
    tgts = [as_matrix(p[1]) for p in pairs]
    if not ins:
        raise DimensionError("lstsq_define needs at least one pair")
    n = ins[0].shape[0]
    m = tgts[0].shape[0]
    for a, b in zip(ins, tgts):
        if a.shape[0] != n or b.shape[0] != m:
            raise DimensionError("row counts differ across pairs")
        if a.shape[1] != b.shape[1]:
            raise DimensionError("input/target column counts differ within a pair")
    big_in = np.hstack(ins)
    big_tgt = np.hstack(tgts)
    sol, _, _, _ = np.linalg.lstsq(big_in.T, big_tgt.T, rcond=None)
    l = sol.T
    residual = frob(l @ big_in - big_tgt)
    return l, residual


def unitary_moves(src, dst, ws=None):
    """The matrices W_h with W_h src = dst[h] for a family ``src`` (r, n) of
    independent rows and its moved copies ``dst`` (m, r, n), or for a stack
    of families ``src`` (B, r, n) and ``dst`` (m, B, r, n), or ``ws`` as
    given: the minimum-norm solutions dst[h] src^+, one pseudo-inverse per
    family, broadcast over h.  Returns ``(ws, unitary, intertwining)``: the
    (m, ..., r, r) stack and, per matrix, ||W_h^+ W_h - I||_F and ||W_h src
    - dst[h]||_F, which the caller bounds."""
    if ws is None:
        ws = dst @ np.linalg.pinv(src)
    unitary = np.linalg.norm(np.swapaxes(ws.conj(), -1, -2) @ ws - np.eye(ws.shape[-1]), axis=(-2, -1))
    return ws, unitary, np.linalg.norm(ws @ src - dst, axis=(-2, -1))
