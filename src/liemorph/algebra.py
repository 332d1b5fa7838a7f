"""Real Lie algebras given by structure constants and a Gram matrix.

Conventions: the basis is the one the structure constants are written in,
[X_i, X_j] = sum_k c[i, j, k] X_k, and <X_i, X_j> = gram[i, j].  All indices
are zero-based.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .checks import Check
from .errors import StructureError

# Spans and subspace comparisons are rank decisions on floating-point data;
# these thresholds are shared by every helper below.
RANK_TOL = 1e-10
SUBSPACE_TOL = 1e-10


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


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
        """One check per structural invariant.

        Tolerances scale with the data; they are structural, not named
        tolerances of ``checks.DEFAULT_TOLERANCES``.
        """
        c, g = self.structure_constants, self.gram
        scale = max(1.0, float(np.abs(c).max()) if c.size else 0.0)
        anti = float(np.abs(c + c.transpose(1, 0, 2)).max()) if c.size else 0.0
        jac = (np.einsum("jkm,iml->ijkl", c, c)
               + np.einsum("kim,jml->ijkl", c, c)
               + np.einsum("ijm,kml->ijkl", c, c))
        jacobi = float(np.abs(jac).max()) if jac.size else 0.0
        gsym = float(np.abs(g - g.T).max())
        eig = np.linalg.eigvalsh(0.5 * (g + g.T))
        floor = 1e-12 * max(1.0, float(eig.max()))
        posdef = max(0.0, floor - float(eig.min()))
        return [
            Check("antisymmetry", anti, 1e-12 * scale),
            Check("jacobi", jacobi, 1e-12 * scale),
            Check("gram_symmetric", gsym, 1e-12 * max(1.0, float(np.abs(g).max()))),
            Check("gram_positive_definite", posdef, 0.0),
        ]

    def bracket(self, x, y) -> np.ndarray:
        """[x, y] for coordinate vectors x, y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"bracket arguments must have length {self.dim}")
        return np.einsum("i,j,ijk->k", x, y, self.structure_constants)

    def ad(self, z) -> np.ndarray:
        """Matrix of v -> [z, v] in the declared basis."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValueError(f"ad argument must have length {self.dim}")
        return np.einsum("i,ijk->kj", z, self.structure_constants)

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
    vs = np.asarray(vectors, dtype=float).reshape(-1, ambient_dim)
    if vs.shape[0] == 0 or not vs.any():
        return Subspace(ambient_dim, np.zeros((0, ambient_dim)))
    _, s, vh = np.linalg.svd(vs, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
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


def _bracket_span(algebra: LieAlgebra, left: Subspace, right: Subspace) -> Subspace:
    vecs = [algebra.bracket(x, y) for x in left.basis for y in right.basis]
    if not vecs:
        return Subspace(algebra.dim, np.zeros((0, algebra.dim)))
    return span(vecs, algebra.dim)


def derived_series(algebra: LieAlgebra) -> list[Subspace]:
    """g, [g,g], [[g,g],[g,g]], ... until the dimension stabilizes."""
    series = [full_space(algebra)]
    while series[-1].dim > 0:
        nxt = _bracket_span(algebra, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def lower_central_series(algebra: LieAlgebra) -> list[Subspace]:
    """g, [g,g], [g,[g,g]], ... until the dimension stabilizes."""
    series = [full_space(algebra)]
    whole = series[0]
    while series[-1].dim > 0:
        nxt = _bracket_span(algebra, whole, series[-1])
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
    _, s, vh = np.linalg.svd(stacked)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return Subspace(d, _fix_signs(vh[rank:]))
