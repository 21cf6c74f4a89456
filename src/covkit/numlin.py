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
    below ``-psd_eig * max(1, ||a||)``."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"psd_check needs a square matrix, got {a.shape}")
    return psd_status(a, tol)[0]


def psd_status(a, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Positivity verdict and residual for a square matrix or a stack of
    them, from one eigenvalue computation.

    The verdict is that of :func:`psd_check` for every matrix; the residual
    is the magnitude of the most negative eigenvalue of the Hermitian parts,
    0 when there is none.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"psd_status needs square matrices, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    if a.size == 0:
        return True, 0.0
    adjoint = np.swapaxes(a.conj(), -1, -2)
    scale = np.maximum(1.0, np.linalg.norm(a, 2, axis=(-2, -1)))
    hermitian = np.linalg.norm(a - adjoint, axis=(-2, -1)) <= tol.psd_eig * scale
    low = np.linalg.eigvalsh(0.5 * (a + adjoint)).min(axis=-1)
    ok = bool(np.all(hermitian) and np.all(low >= -tol.psd_eig * scale))
    return ok, max(0.0, -float(low.min()))


def psd_factor(a, tol: Tolerances = DEFAULT_TOL):
    """Minimal-rank factorization ``a = F.conj().T @ F`` of a PSD matrix.

    Returns ``(rank, F)`` with ``F`` of shape (rank, n).  Eigenvalues within
    ``-psd_eig * max(1, ||a||)`` of zero are clamped to zero; anything more
    negative raises :class:`NotPositiveError`.  Rows of ``F`` are ordered by
    descending eigenvalue, which keeps the factorization deterministic.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"psd_factor needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 0, np.zeros((0, 0), dtype=np.complex128)
    s = _scale(a)
    if frob(a - a.conj().T) > tol.psd_eig * s:
        raise NotPositiveError("matrix is not Hermitian", None)
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    if w.min() < -tol.psd_eig * s:
        raise NotPositiveError(
            f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})",
            float(w.min()),
        )
    w = np.clip(w, 0.0, None)
    thresh = max(tol.rank_rel * w.max(initial=0.0), tol.psd_eig * s)
    keep = np.where(w > thresh)[0][::-1]  # descending eigenvalue order
    f = np.sqrt(w[keep])[:, None] * v[:, keep].conj().T
    return len(keep), f


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


def vec(a) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(a, dtype=np.complex128).reshape(-1)


def unvec(x, rows, cols) -> np.ndarray:
    return np.asarray(x, dtype=np.complex128).reshape(rows, cols)


def hermitian_basis(n) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of the real space of n x n Hermitians."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = -1j / np.sqrt(2.0)
            e[j, i] = 1j / np.sqrt(2.0)
            basis.append(e)
    return basis


def constrained_commutant(
    generators,
    constraints=(),
    *,
    hermitian_only=False,
    dim=None,
    tol: Tolerances = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Basis of ``{D : [D, A_i] = 0 for all i, tr(C_j^+ D) = 0 for all j}``.

    ``generators`` are square matrices A_i, ``constraints`` coefficient
    matrices C_j encoding the linear functionals ``D -> tr(C_j^+ D)``.  With
    ``hermitian_only`` the solution space is computed over the real span of
    Hermitian matrices; otherwise over all complex matrices.  Returned
    matrices are orthonormal in the Frobenius inner product.  An empty list
    means only D = 0 satisfies all conditions.
    """
    generators = [as_matrix(g) for g in generators]
    constraints = [as_matrix(c) for c in constraints]
    sizes = {g.shape for g in generators} | {c.shape for c in constraints}
    if dim is not None:
        sizes.add((dim, dim))
    if len(sizes) > 1:
        raise DimensionError(f"inconsistent sizes {sorted(sizes)}")
    if not sizes:
        raise DimensionError("cannot infer matrix size: no inputs and no dim")
    n = sizes.pop()[0]
    eye = np.eye(n, dtype=np.complex128)

    rows = []
    for g in generators:
        # [D, A] = 0  <=>  (I (x) A^T - A (x) I) vec(D) = 0 in row-major vec.
        rows.append(np.kron(eye, g.T) - np.kron(g, eye))
    for c in constraints:
        rows.append(vec(c.conj())[None, :])
    system = np.vstack(rows) if rows else np.zeros((0, n * n), dtype=np.complex128)

    if not hermitian_only:
        basis = null_space(system, tol)
        return [unvec(basis[:, k], n, n) for k in range(basis.shape[1])]

    hbasis = hermitian_basis(n)
    cols = np.stack([system @ vec(h) for h in hbasis], axis=1)
    real_system = np.vstack([cols.real, cols.imag])
    coeffs = null_space(real_system, tol)
    out = []
    for k in range(coeffs.shape[1]):
        d = sum(float(coeffs[i, k].real) * hbasis[i] for i in range(len(hbasis)))
        out.append(d)
    return out


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

