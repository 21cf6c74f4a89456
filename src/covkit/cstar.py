"""Finite-dimensional C*-algebras and matrix-realized Hilbert modules.

An algebra is a direct sum of full matrix blocks, represented concretely on
its defining space (block-diagonal matrices of size sum of block sizes).
Module elements over M_k are n x k matrices with inner product v^+ w, and
every sesquilinear form is given by a matrix T via s(v, w) = v^+ T w.
"""

from __future__ import annotations

from dataclasses import field
from functools import cached_property

import numpy as np

from .numlin import DEFAULT_TOL, DimensionError, Tolerances, as_matrix, block_layout, record


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@record
class FiniteCStarAlgebra:
    """Direct sum of full matrix blocks M_{n_1} + ... + M_{n_r}."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("block sizes must be positive")

    @staticmethod
    def full(n: int) -> "FiniteCStarAlgebra":
        return FiniteCStarAlgebra((n,))

    @staticmethod
    def commutative(n: int) -> "FiniteCStarAlgebra":
        """Functions on an n-point set."""
        return FiniteCStarAlgebra((1,) * n)

    @property
    def defining_dim(self) -> int:
        return sum(self.blocks)

    @property
    def linear_dim(self) -> int:
        return sum(b * b for b in self.blocks)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start of each block on the defining space, with the total last."""
        return _frozen(block_layout(self.blocks, 1)[0])

    @cached_property
    def unit_offsets(self) -> np.ndarray:
        """Index of each block's first matrix unit, with the total last."""
        return _frozen(block_layout(self.blocks, self.blocks)[0])

    def block_offset(self, i: int) -> int:
        return int(self.offsets[i])

    def unit_index(self) -> np.ndarray:
        """(n_units, 3) array of (block, row, col), in the order the unit
        basis is listed: block-major, then row-major inside a block."""
        return self._unit_index

    @cached_property
    def _unit_index(self) -> np.ndarray:
        parts = [
            np.stack([np.full(n * n, i), np.repeat(np.arange(n), n), np.tile(np.arange(n), n)], 1)
            for i, n in enumerate(self.blocks)
        ]
        return _frozen(np.concatenate(parts))

    @cached_property
    def unit_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column of each matrix unit on the defining space."""
        blk, a, b = self._unit_index.T
        off = self.offsets[blk]
        return _frozen(off + a), _frozen(off + b)

    def unit(self, i: int, a: int, b: int) -> np.ndarray:
        m = np.zeros((self.defining_dim, self.defining_dim), dtype=np.complex128)
        off = self.block_offset(i)
        m[off + a, off + b] = 1.0
        return m

    def units(self):
        for i, a, b in self.unit_index():
            yield self.unit(i, a, b)

    @property
    def n_units(self) -> int:
        return self.linear_dim

    def one(self) -> np.ndarray:
        return np.eye(self.defining_dim, dtype=np.complex128)

    def coefficients(self, mat) -> np.ndarray:
        """Coordinates in the matrix-unit basis of an algebra element, or of
        every matrix in a stack (..., D, D) -> (..., n_units)."""
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.shape[-2:] != (self.defining_dim, self.defining_dim):
            raise DimensionError("element has the wrong size for this algebra")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains NaN or Inf entries")
        rows, cols = self.unit_positions
        return mat[..., rows, cols]

    def element(self, coefficients) -> np.ndarray:
        """Inverse of :meth:`coefficients`, also on stacks (..., n_units)."""
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        if coefficients.shape[-1:] != (self.n_units,):
            raise DimensionError("need one coefficient per matrix unit")
        d = self.defining_dim
        m = np.zeros(coefficients.shape[:-1] + (d, d), dtype=np.complex128)
        rows, cols = self.unit_positions
        m[..., rows, cols] = coefficients
        return m

    def contains(self, mat, tol: Tolerances = DEFAULT_TOL) -> bool:
        """True iff the matrix (every matrix of a stack) vanishes outside the
        block-diagonal pattern."""
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.shape[-2:] != (self.defining_dim, self.defining_dim):
            return False
        residual = np.linalg.norm(mat - self.element(self.coefficients(mat)), axis=(-2, -1))
        scale = np.maximum(1.0, np.linalg.norm(mat, axis=(-2, -1)))
        return bool(np.all(residual <= tol.recon_fro * scale))

    def block_of(self, mat, i: int) -> np.ndarray:
        off, n = self.block_offset(i), self.blocks[i]
        return as_matrix(mat)[off : off + n, off : off + n]

    def unit_product_table(self) -> np.ndarray:
        """(n_units, n_units) array: index of unit(k1) @ unit(k2), or -1 when
        the product is zero."""
        return self._product_table

    @cached_property
    def _product_table(self) -> np.ndarray:
        blk, a, b = self._unit_index.T
        n = np.asarray(self.blocks)[blk]
        # E^i_ab E^j_cd = E^i_ad when i == j and b == c
        hit = (blk[:, None] == blk[None, :]) & (b[:, None] == a[None, :])
        target = (self.unit_offsets[blk] + a * n)[:, None] + b[None, :]
        return _frozen(np.where(hit, target, -1))

    def adjoint_table(self) -> np.ndarray:
        """Index of unit(k)^+ for every unit k."""
        return self._adjoint_table

    @cached_property
    def _adjoint_table(self) -> np.ndarray:
        blk, a, b = self._unit_index.T
        return _frozen(self.unit_offsets[blk] + b * np.asarray(self.blocks)[blk] + a)

    def outside_norms(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Frobenius norm of the part of u E_k u^+ outside the algebra, for
        every unit k, and the norm of u E_k u^+ itself; for a stack (..., D,
        D) of u, one row of each per matrix.

        Entry (p, q) of u E_k u^+ is u[p, row_k] conj(u[q, col_k]); the
        squared mass outside is a sum of non-negative terms over pairs of
        distinct blocks, so it carries no cancellation.
        """
        u = np.asarray(u, dtype=np.complex128)
        mass = np.add.reduceat(np.abs(u) ** 2, self.offsets[:-1], axis=-2)  # (..., blocks, D)
        rows, cols = self.unit_positions
        left, right = mass[..., rows], mass[..., cols]
        apart = 1.0 - np.eye(len(self.blocks))
        outside = np.sqrt((left * (apart @ right)).sum(-2))
        return outside, np.sqrt(left.sum(-2) * right.sum(-2))

    def block_action(self, u) -> tuple[np.ndarray, list[np.ndarray]]:
        """The block structure of b -> u b u^+ for a block-permuting u, or a
        stack (..., D, D) of them: ``sigma[..., i]`` is the block where column
        block i of u has its mass, and ``w[i]`` is the (sigma(i), i) block of
        u, so block sigma(i) of u b u^+ is w_i b_i w_i^+.  Any mass of u off
        these blocks is dropped; :class:`~covkit.numlin.DimensionError` unless
        sigma permutes blocks of equal size."""
        u = np.asarray(u, dtype=np.complex128)
        off, sizes = self.offsets, np.asarray(self.blocks)
        mass = np.add.reduceat(np.add.reduceat(np.abs(u) ** 2, off[:-1], axis=-2), off[:-1], axis=-1)
        sigma = mass.argmax(axis=-2)
        if np.any(sizes[sigma] != sizes) or np.any(np.sort(sigma, axis=-1) != np.arange(len(sizes))):
            raise DimensionError("u does not permute the blocks of the algebra")
        rows = [off[sigma[..., i], None] + np.arange(n) for i, n in enumerate(self.blocks)]
        return sigma, [np.take_along_axis(u[..., off[i] : off[i + 1]], r[..., None], -2) for i, r in enumerate(rows)]


@record
class TensorSplit:
    """Identification of an algebra with a tensor product left (x) right.

    Blocks of the product are indexed left-major; the defining space of
    block (i, j) is C^{n_i} (x) C^{m_j} with the right index fast.
    """

    left: FiniteCStarAlgebra
    right: FiniteCStarAlgebra
    algebra: FiniteCStarAlgebra = field(init=False, default=None)

    def __post_init__(self):
        blocks = tuple(
            n * m for n in self.left.blocks for m in self.right.blocks
        )
        object.__setattr__(self, "algebra", FiniteCStarAlgebra(blocks))

    def embed(self, bmat, cmat) -> np.ndarray:
        """b (x) c as an element of the product algebra."""
        bmat, cmat = as_matrix(bmat), as_matrix(cmat)
        out = np.zeros(
            (self.algebra.defining_dim, self.algebra.defining_dim), dtype=np.complex128
        )
        pos = 0
        for i, n in enumerate(self.left.blocks):
            boff = self.left.block_offset(i)
            bblk = bmat[boff : boff + n, boff : boff + n]
            for j, m in enumerate(self.right.blocks):
                coff = self.right.block_offset(j)
                cblk = cmat[coff : coff + m, coff : coff + m]
                out[pos : pos + n * m, pos : pos + n * m] = np.kron(bblk, cblk)
                pos += n * m
        return out


@record
class ModuleSpace:
    """Module of n_V x k matrices over M_k with inner product v^+ w."""

    k: int
    n_v: int

    def __post_init__(self):
        if self.k < 1 or self.n_v < 1:
            raise ValueError("module dimensions must be positive")

    def element_shape(self):
        return (self.n_v, self.k)

    def check_element(self, v) -> np.ndarray:
        v = as_matrix(v)
        if v.shape != self.element_shape():
            raise DimensionError(
                f"module element must be {self.element_shape()}, got {v.shape}"
            )
        return v

    def inner(self, v, w) -> np.ndarray:
        return self.check_element(v).conj().T @ self.check_element(w)

    def random_element(self, rng) -> np.ndarray:
        return rng.normal(size=self.element_shape()) + 1j * rng.normal(
            size=self.element_shape()
        )
