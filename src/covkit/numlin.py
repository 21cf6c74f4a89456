"""Dense complex linear algebra primitives shared by every higher layer.

All matrices are numpy arrays of complex128.  Every tolerance is relative to
the scale of the input; the knobs live in :class:`Tolerances` and every public
operation accepts an override.
"""

from __future__ import annotations

import dataclasses
import inspect
import reprlib

import numpy as np


class DimensionError(ValueError):
    """Shapes of the inputs do not line up."""


class NotPositiveError(ValueError):
    """A matrix required to be positive semidefinite is not."""

    def __init__(self, message, min_eigenvalue):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class _Layout:
    """What the shared record methods need of one record class, worked out
    once when the class is decorated."""

    __slots__ = ("owner", "names", "defaults", "factories", "late", "post_init", "fields", "shown", "compared", "hashed")

    def __init__(self, cls):
        fields = dataclasses.fields(cls)
        given = [f for f in fields if f.init]
        self.owner = cls
        self.names = tuple(f.name for f in given)
        self.defaults = {f.name: f.default for f in given if f.default is not dataclasses.MISSING}
        self.factories = {f.name: f.default_factory for f in given if f.default_factory is not dataclasses.MISSING}
        # an init=False field with a plain default reads it from the class
        self.late = tuple((f.name, f.default_factory) for f in fields if not f.init and f.default_factory is not dataclasses.MISSING)
        self.post_init = hasattr(cls, "__post_init__")
        self.fields = tuple(f.name for f in fields)
        self.shown = tuple(f.name for f in fields if f.repr)
        self.compared = tuple(f.name for f in fields if f.compare)
        self.hashed = tuple(f.name for f in fields if (f.compare if f.hash is None else f.hash))

    def bind(self, args, kwargs) -> list:
        """The init field values of a call that is not one positional
        argument per init field, or the TypeError Python gives for it."""
        where = f"{self.owner.__qualname__}.__init__()"
        if len(args) > len(self.names):
            raise TypeError(f"{where} takes {len(self.names) + 1} positional arguments but {len(args) + 1} were given")
        values, missing = list(args), []
        for name in self.names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self.factories:
                values.append(self.factories[name]())
            elif name in self.defaults:
                values.append(self.defaults[name])
            else:
                missing.append(name)
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for argument" if name in self.names else "an unexpected keyword argument"
            raise TypeError(f"{where} got {problem} {name!r}")
        if missing:
            raise TypeError(f"{where} missing {len(missing)} required positional argument(s): {', '.join(map(repr, missing))}")
        return values


_set = object.__setattr__


def _record_init(self, *args, **kwargs):
    layout = self._record_layout
    if kwargs or len(args) != len(layout.names):
        args = layout.bind(args, kwargs)
    for name, value in zip(layout.names, args):
        _set(self, name, value)
    for name, factory in layout.late:
        _set(self, name, factory())
    if layout.post_init:
        self.__post_init__()


@reprlib.recursive_repr()
def _record_repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_layout.shown)
    return f"{self.__class__.__qualname__}({shown})"


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = self._record_layout.compared
    return tuple(getattr(self, name) for name in names) == tuple(getattr(other, name) for name in names)


def _record_hash(self):
    return hash(tuple(getattr(self, name) for name in self._record_layout.hashed))


def _record_setattr(self, name, value):
    layout = self._record_layout
    if type(self) is layout.owner or name in layout.fields:
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
    super(layout.owner, self).__setattr__(name, value)


def _record_delattr(self, name):
    layout = self._record_layout
    if type(self) is layout.owner or name in layout.fields:
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
    super(layout.owner, self).__delattr__(name)


class _Signature:
    """``inspect.signature`` of a record class, the one its dataclass
    ``__init__`` would give; worked out on access, so defining a record
    builds none."""

    def __get__(self, obj, cls):
        kind, factory = inspect.Parameter.POSITIONAL_OR_KEYWORD, dataclasses._HAS_DEFAULT_FACTORY
        layout = cls._record_layout
        params = [
            inspect.Parameter(
                f.name,
                kind,
                annotation=f.type,
                default=factory if f.name in layout.factories else layout.defaults.get(f.name, inspect.Parameter.empty),
            )
            for f in dataclasses.fields(cls)
            if f.init
        ]
        return inspect.Signature(params, return_annotation=None)


_RECORD_METHODS = {
    "__init__": _record_init,
    "__repr__": _record_repr,
    "__eq__": _record_eq,
    "__hash__": _record_hash,
    "__setattr__": _record_setattr,
    "__delattr__": _record_delattr,
}
_SIGNATURE = _Signature()


def record(cls):
    """Class decorator for a frozen record: what ``@dataclass(frozen=True)``
    makes of ``cls``, with methods shared by every record.

    ``dataclass`` writes the source of ``__init__``, ``__repr__``,
    ``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__`` for each
    class and compiles it with ``exec`` when the class is defined.  For the
    26 records that ``import covkit.cli`` defines, that took 16.5 ms of a
    64 ms import in every process; defined here they take 1.6 ms of 49 ms
    (medians of 12 fresh processes without a bytecode cache, Python 3.11.7,
    2-core VM).  ``dataclass(init=False, repr=False, eq=False)`` builds
    the field table and generates nothing, so ``dataclasses.fields``,
    ``replace`` and ``is_dataclass`` work as before, and the class gets six
    module-level functions that read a layout computed once, here:

    - ``__init__`` binds by position and keyword, fills defaults and
      ``default_factory`` fields (a fresh object per instance), then runs
      ``__post_init__``; an ``init=False`` field with a plain default reads
      it from the class, as in a dataclass;
    - ``__repr__`` is the dataclass text, without ``repr=False`` fields;
    - ``__eq__`` and ``__hash__`` compare and hash the tuple of
      ``compare`` fields, as a frozen dataclass does up to Python 3.12;
    - ``__setattr__`` and ``__delattr__`` raise ``FrozenInstanceError``;
    - ``inspect.signature`` reads the dataclass signature from
      ``__signature__``, built when asked for.

    ``__dataclass_params__`` describes what ``dataclass`` itself generated,
    not these methods.  A record may define none of the six, nor a
    keyword-only field or an ``InitVar``.
    """
    cls = dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    if _RECORD_METHODS.keys() & cls.__dict__.keys() or any(f.kw_only for f in dataclasses.fields(cls)):
        raise TypeError(f"record {cls.__qualname__} defines a dataclass method or a keyword-only field")
    cls._record_layout = _Layout(cls)
    cls.__signature__ = _SIGNATURE
    for name, method in _RECORD_METHODS.items():
        setattr(cls, name, method)
    return cls


@record
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
            if not 0 < getattr(self, name) < float("inf"):  # NaN fails too
                raise ValueError(f"tolerance {name} must be positive and finite")


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


def block_layout(blocks, mult) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray]]]:
    """The layout of the direct sum +_i C^{n_i} (x) C^{r_i}, n_i = ``blocks[i]``
    and r_i = ``mult[i]`` (or ``mult`` for every block, as the algebra's own
    blocks have r_i = 1): the start of every block with the total last, and
    the distinct shapes (n, r) with r > 0, each with the indices of its
    blocks.  The shapes are found with set(), not np.unique, which imports
    numpy.ma on its first call."""
    blocks = np.asarray(blocks, dtype=np.int64)
    mult = blocks * 0 + mult  # not np.broadcast_to, whose first call in a process costs more than a small layout
    shapes = sorted(set(zip(blocks.tolist(), mult.tolist())))
    groups = [(n, r, np.flatnonzero((blocks == n) & (mult == r))) for n, r in shapes if r > 0]
    return np.concatenate([[0], np.cumsum(blocks * mult)]), groups


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


@record
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

    def passes(self, tol: Tolerances = DEFAULT_TOL, carried: float = 0.0) -> np.ndarray:
        """Per matrix: Hermitian within ``psd_eig * scale`` and no eigenvalue
        below ``-psd_eig * scale``.  With ``carried``, the verdict instead
        covers every b within Frobenius distance ``carried`` of a unitary
        conjugate of the matrix: b's skew is at most skew + 2 carried, and by
        Weyl's inequality its eigenvalues, so its residual and its scale,
        move by at most carried."""
        slack = tol.psd_eig * np.maximum(1.0, self.scale - carried)
        return (self.skew + 2 * carried <= slack) & (self.residual() + carried <= slack)

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


def psd_status(a, tol: Tolerances = DEFAULT_TOL, carried: float = 0.0) -> tuple[bool, float]:
    """Positivity verdict and residual for a square matrix or a stack of
    them, from one eigenvalue computation.

    The verdict is that of :func:`psd_check` for every matrix; the residual
    is the magnitude of the most negative eigenvalue of the Hermitian parts,
    0 when there is none.  With ``carried``, both cover every matrix within
    Frobenius distance ``carried`` of a unitary conjugate of one in ``a``
    (:meth:`Spectrum.passes`), and the residual is raised by ``carried``.
    """
    spectrum = psd_spectrum(a)
    return bool(np.all(spectrum.passes(tol, carried))), float(spectrum.residual().max(initial=0.0)) + carried


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
    (start, _), (col, _) = block_layout(blocks, mult), block_layout(mult, mult)
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
