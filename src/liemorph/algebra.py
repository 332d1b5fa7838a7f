"""Real Lie algebras given by structure constants and a Gram matrix.

Conventions: the basis is the one the structure constants are written in,
[X_i, X_j] = sum_k c[i, j, k] X_k, and <X_i, X_j> = gram[i, j].  All indices
are zero-based.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .checks import Check, max_residual
from .errors import StructureError

# Spans and subspace comparisons are rank decisions on floating-point data;
# these thresholds are shared by every helper below.
RANK_TOL = 1e-10
SUBSPACE_TOL = 1e-10


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _scale(c: np.ndarray) -> float:
    """max(1, max |c|): the size structural tolerances and rank floors scale with."""
    return max(1.0, float(np.abs(c).max()) if c.size else 0.0)


def _coo_max_abs(terms, budget: float = math.inf) -> float | None:
    """max |sum of the terms| over every output index, by a join of nonzero entries.

    Each term is ``(spec, x, y, outputs)``.  ``spec`` names the axes of x and
    y as einsum does ("ijm,kml"), and the one letter they share is summed
    over.  Each product of a nonzero x entry with a nonzero y entry is added
    at every index string of ``outputs`` (a leading "-" subtracts it), so one
    join can feed several permutations of its indices.  Sums are keyed by
    the output entries the products reach (``np.unique`` + ``bincount``);
    every other entry is 0.  The products are counted from the nonzero
    patterns first, and when the count times the outputs exceeds ``budget``
    the join is not formed: the result is None.

    A dense product turns an inf or NaN entry into NaN through inf * 0; the
    join forms no such product, so any non-finite entry makes the result
    NaN outright.
    """
    pending, size = [], 0
    for spec, x, y, outputs in terms:
        xs, ys = spec.split(",")
        (m,) = set(xs) & set(ys)
        y = np.moveaxis(y, ys.index(m), 0)          # y's nonzeros come sorted by m
        ys = m + ys.replace(m, "")
        xi = np.unravel_index(np.flatnonzero(x != 0), x.shape)    # != 0: NaN counts
        yi = np.unravel_index(np.flatnonzero(y != 0), y.shape)
        if not (np.isfinite(x[xi]).all() and np.isfinite(y[yi]).all()):
            return math.nan
        ycount = np.bincount(yi[0], minlength=y.shape[0])
        reps = ycount[xi[xs.index(m)]]              # y partners of each x entry
        size += int(reps.sum()) * len(outputs)
        pending.append((xs, ys, m, x, y, xi, yi, ycount, reps, outputs))
    if size > budget:
        return None
    if not size:
        return 0.0
    keys, vals = [], []
    for xs, ys, m, x, y, xi, yi, ycount, reps, outputs in pending:
        # pair k of x entry a is the k-th y entry with the same m
        first = np.cumsum(reps) - reps              # first pair of each x entry
        ystart = np.cumsum(ycount) - ycount         # first y entry of each m
        xa = np.repeat(np.arange(len(reps)), reps)
        ya = np.arange(len(xa)) + (ystart[xi[xs.index(m)]] - first)[xa]
        axes = {**{a: (xi[p][xa], x.shape[p]) for p, a in enumerate(xs) if a != m},
                **{a: (yi[p][ya], y.shape[p]) for p, a in enumerate(ys) if a != m}}
        prod = x[xi][xa] * y[yi][ya]
        for out in outputs:
            letters = out.lstrip("-")
            keys.append(np.ravel_multi_index(tuple(axes[a][0] for a in letters),
                                             tuple(axes[a][1] for a in letters)))
            vals.append(-prod if out.startswith("-") else prod)
    # return_index selects numpy's stable sort, whose first use in a fresh
    # process maps less new code than the default sort's (ru_maxrss: 0.25
    # against about 0.4 MB)
    _, _, where = np.unique(np.concatenate(keys), return_index=True, return_inverse=True)
    return float(np.abs(np.bincount(where, weights=np.concatenate(vals))).max())


def _jacobi_dense(c: np.ndarray) -> float:
    """``_jacobi_residual`` by dense products, one first index i at a time.

    The check needs d^3 memory, not d^4; each of the three terms of a slab
    J[j, k, l] is one BLAS product.
    """
    d = c.shape[0]
    rows = c.reshape(d * d, d)                          # [(j,k), m] = c[j,k,m]
    cols = c.transpose(1, 0, 2).reshape(d, d * d)       # [m, (k,l)] = c[k,m,l]
    return max_residual(
        float(np.abs((rows @ c[i]).reshape(d, d, d)     # sum_m c[j,k,m] c[i,m,l]
                     + c[:, i] @ c                      # sum_m c[k,i,m] c[j,m,l]
                     + (c[i] @ cols).reshape(d, d, d)   # sum_m c[i,j,m] c[k,m,l]
                     ).max())
        for i in range(d))


def _jacobi_sparse(c: np.ndarray, budget: float = math.inf) -> float | None:
    """``_jacobi_residual`` by one join of c with itself; None over ``budget``.

    T[i,j,k,l] = sum_m c[i,j,m] c[k,m,l] is placed at the three cyclic
    permutations of (i, j, k), in the order the dense path adds them.
    """
    return _coo_max_abs([("ijm,kml", c, c, ("kijl", "jkil", "ijkl"))], budget)


def _jacobi_residual(c: np.ndarray) -> float:
    """Max |coefficient| of [X_i,[X_j,X_k]] + [X_j,[X_k,X_i]] + [X_k,[X_i,X_j]].

    Sparse constants, such as those of every builtin above dimension 3, go
    through the join of nonzero entries, whose sums are exact on integer
    constants.  When the join would form more than d^3 products, the size
    of one dense slab, the dense path runs instead.
    """
    sparse = _jacobi_sparse(c, budget=c.shape[0] ** 3)
    return _jacobi_dense(c) if sparse is None else sparse


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional real Lie algebra with an inner product on the basis."""

    structure_constants: np.ndarray
    gram: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        c = np.asarray(self.structure_constants, dtype=float)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[0] != c.shape[2]:
            raise StructureError(f"structure constants must have shape (d, d, d), got {c.shape}")
        g = np.asarray(self.gram, dtype=float)
        if g.shape != c.shape[:2]:
            raise StructureError(f"gram must have shape {c.shape[:2]}, got {g.shape}")
        object.__setattr__(self, "structure_constants", _readonly(c))
        object.__setattr__(self, "gram", _readonly(g))
        if validate:
            failed = [c.name for c in self.validation_report() if not c.passed]
            if failed:
                raise StructureError("invalid Lie algebra data: " + ", ".join(failed))

    @property
    def dim(self) -> int:
        return self.structure_constants.shape[0]

    def validation_report(self) -> list[Check]:
        """One check per structural invariant, computed once per instance; a fresh list.

        Tolerances scale with the data; they are structural, not named
        tolerances of ``checks.DEFAULT_TOLERANCES``.
        """
        return list(self._validation)

    @cached_property
    def _validation(self) -> tuple[Check, ...]:
        c, g = self.structure_constants, self.gram
        scale = _scale(c)
        anti = float(np.abs(c + c.transpose(1, 0, 2)).max()) if c.size else 0.0
        jacobi = _jacobi_residual(c)
        gsym = float(np.abs(g - g.T).max())
        eig = np.linalg.eigvalsh(0.5 * (g + g.T))
        floor = 1e-12 * max(1.0, float(eig.max()))
        posdef = max(0.0, floor - float(eig.min()))
        return (
            Check("antisymmetry", anti, 1e-12 * scale),
            Check("jacobi", jacobi, 1e-12 * scale),
            Check("gram_symmetric", gsym, 1e-12 * max(1.0, float(np.abs(g).max()))),
            Check("gram_positive_definite", posdef, 0.0),
        )

    def bracket(self, x, y) -> np.ndarray:
        """[x, y] for coordinate vectors x, y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"bracket arguments must have length {self.dim}")
        return np.einsum("i,j,ijk->k", x, y, self.structure_constants)

    def ad(self, z) -> np.ndarray:
        """Matrix of v -> [z, v] in the declared basis; one per row of an (N, d) stack."""
        z = np.asarray(z, dtype=float)
        if z.ndim not in (1, 2) or z.shape[-1] != self.dim:
            raise ValueError(f"ad argument must have length {self.dim}")
        return np.einsum("...i,ijk->...kj", z, self.structure_constants)

    def ad_trace(self, z) -> float:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValueError(f"ad_trace argument must have length {self.dim}")
        return float(np.einsum("i,ijj->", z, self.structure_constants))

    def inner(self, x, y) -> float:
        return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x) -> float:
        return float(np.sqrt(max(0.0, self.inner(x, x))))


@dataclass(frozen=True)
class Subspace:
    """Subspace of R^ambient_dim spanned by the rows of ``basis``."""

    ambient_dim: int
    basis: np.ndarray  # shape (k, ambient_dim), rows linearly independent

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float).reshape(-1, self.ambient_dim)
        if b.shape[0] > 0:
            rank = np.linalg.matrix_rank(b, tol=RANK_TOL * max(1.0, float(np.abs(b).max())))
            if rank < b.shape[0]:
                raise StructureError("subspace basis vectors are linearly dependent")
        object.__setattr__(self, "basis", _readonly(b))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v, tol: float = SUBSPACE_TOL) -> bool:
        v = np.asarray(v, dtype=float)
        if self.dim == 0:
            return bool(np.linalg.norm(v) <= tol)
        coeff, *_ = np.linalg.lstsq(self.basis.T, v, rcond=None)
        resid = np.linalg.norm(self.basis.T @ coeff - v)
        return bool(resid <= tol * max(1.0, float(np.linalg.norm(v))))

    def contains_all(self, other: "Subspace", tol: float = SUBSPACE_TOL) -> bool:
        return all(self.contains(v, tol) for v in other.basis)

    def equals(self, other: "Subspace", tol: float = SUBSPACE_TOL) -> bool:
        return (self.dim == other.dim
                and self.contains_all(other, tol)
                and other.contains_all(self, tol))


def full_space(algebra: LieAlgebra) -> Subspace:
    return Subspace(algebra.dim, np.eye(algebra.dim))


def span(vectors, ambient_dim: int) -> Subspace:
    """Subspace spanned by the given vectors (SVD rank truncation)."""
    return _span_above(vectors, ambient_dim, 0.0)


def _span_above(vectors, ambient_dim: int, floor: float) -> Subspace:
    """``span`` keeping only singular values above ``RANK_TOL * s[0]`` and ``floor``."""
    vs = np.asarray(vectors, dtype=float).reshape(-1, ambient_dim)
    if vs.shape[0] == 0 or not vs.any():
        return Subspace(ambient_dim, np.zeros((0, ambient_dim)))
    _, s, vh = np.linalg.svd(vs, full_matrices=False)
    rank = int(np.sum(s > max(RANK_TOL * s[0], floor)))
    return Subspace(ambient_dim, _fix_signs(vh[:rank]))


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Make the first significantly nonzero coefficient of each row positive."""
    rows = np.array(rows, dtype=float)
    for r in rows:
        nz = np.nonzero(np.abs(r) > 1e-9 * max(1.0, float(np.abs(r).max())))[0]
        if nz.size and r[nz[0]] < 0:
            r *= -1.0
    return rows


def orthonormalize(algebra: LieAlgebra, subspace: Subspace) -> Subspace:
    """Gram-Schmidt with respect to the algebra's inner product.

    Runs the projection twice for numerical stability and fixes the sign so
    the first nonzero coefficient of each output vector is positive.
    """
    g = algebra.gram
    out = []
    for v in subspace.basis:
        w = np.array(v, dtype=float)
        for _ in range(2):
            for u in out:
                w = w - (u @ g @ w) * u
        nrm = np.sqrt(max(0.0, w @ g @ w))
        if nrm <= 1e-12 * max(1.0, float(np.abs(v).max())):
            raise StructureError("orthonormalize: input vectors are rank deficient")
        out.append(w / nrm)
    return Subspace(subspace.ambient_dim, _fix_signs(np.array(out).reshape(-1, subspace.ambient_dim)))


def orthonormal_basis(algebra: LieAlgebra) -> np.ndarray:
    """Rows form a basis that is orthonormal for the gram matrix (Cholesky).

    For an identity gram this returns the declared basis unchanged.
    """
    chol = np.linalg.cholesky(algebra.gram)
    return np.linalg.inv(chol)


def orthocomplement(algebra: LieAlgebra, subspace: Subspace) -> Subspace:
    """Orthogonal complement with respect to the algebra's inner product."""
    if subspace.dim == 0:
        return full_space(algebra)
    m = subspace.basis @ algebra.gram
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return Subspace(algebra.dim, _fix_signs(vh[rank:]))


def _bracket_span(algebra: LieAlgebra, left: np.ndarray, right: np.ndarray) -> Subspace:
    """span{[x, y] : x a row of ``left``, y a row of ``right``}.

    All brackets are one contraction and the span one rank decision.  Its
    floor is the algebra's scale, the one ``validation_report`` uses, so
    brackets that are all rounding noise (such as [g, z(g)]) span nothing.
    """
    c = algebra.structure_constants
    vecs = np.einsum("ai,bj,ijk->abk", left, right, c, optimize=True)
    return _span_above(vecs, algebra.dim, RANK_TOL * _scale(c))


def derived_series(algebra: LieAlgebra) -> list[Subspace]:
    """g, [g,g], [[g,g],[g,g]], ... until the dimension stabilizes."""
    series = [full_space(algebra)]
    while series[-1].dim > 0:
        nxt = _bracket_span(algebra, series[-1].basis, series[-1].basis)
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def lower_central_series(algebra: LieAlgebra) -> list[Subspace]:
    """g, [g,g], [g,[g,g]], ... until the dimension stabilizes."""
    series = [full_space(algebra)]
    while series[-1].dim > 0:
        nxt = _bracket_span(algebra, series[0].basis, series[-1].basis)
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def is_solvable(algebra: LieAlgebra) -> bool:
    return derived_series(algebra)[-1].dim == 0


def is_nilpotent(algebra: LieAlgebra) -> bool:
    return lower_central_series(algebra)[-1].dim == 0


def is_abelian(algebra: LieAlgebra) -> bool:
    return float(np.abs(algebra.structure_constants).max()) <= 1e-12 if algebra.dim else True


def center(algebra: LieAlgebra) -> Subspace:
    """Null space of the stacked maps x -> [x, e_j]."""
    c = algebra.structure_constants
    d = algebra.dim
    stacked = c.transpose(1, 2, 0).reshape(d * d, d)  # rows (j,k), columns i
    if not stacked.any():
        return full_space(algebra)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)   # d^2 >= d rows: vh is d x d
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return Subspace(d, _fix_signs(vh[rank:]))
