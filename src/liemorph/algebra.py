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
# below this many dense multiply-adds, _representation_residual skips the join
_JOIN_MIN_WORK = 2 ** 19


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _scale(c: np.ndarray) -> float:
    """max(1, max |c|): the size structural tolerances and rank floors scale with.

    A non-finite entry is left out, so a tolerance scaled by it stays finite.
    """
    size = float(np.abs(c).max())
    if not math.isfinite(size):         # only non-finite data pays for the mask
        size = float(np.abs(c).max(initial=0.0, where=np.isfinite(c)))
    return max(1.0, size)


def _dependent(rows: np.ndarray) -> bool:
    """Whether the (k, m) rows, real or complex, have rank below k at RANK_TOL * _scale(rows)."""
    return np.linalg.matrix_rank(rows, tol=RANK_TOL * _scale(rows)) < len(rows)


def _coo_max_abs(terms, budget: float = math.inf) -> float | None:
    """max |sum of the terms| over every output index, by a join of nonzero entries.

    Each term is ``(spec, x, y, outputs)``.  ``spec`` names the axes of x and
    y as einsum does ("ijm,kml"), and the one letter they share is summed
    over.  Each product of a nonzero x entry with a nonzero y entry is added
    at every index string of ``outputs`` (a leading "-" subtracts it), so one
    join can feed several permutations of its indices.  Sums are keyed by
    the output entries the products reach (``np.unique`` + ``bincount``);
    every other entry is 0.  The products are counted from the nonzero
    patterns first, term by term, and once the count times the outputs
    exceeds ``budget`` the join is not formed: the result is None.

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
        if size > budget:
            return None
        pending.append((xs, ys, m, x, y, xi, yi, ycount, reps, outputs))
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


def _representation_residual(c: np.ndarray, rep: np.ndarray) -> float:
    """max |[M_i, M_j] - sum_k c[i,j,k] M_k| over the (d, n, n) stack ``rep``.

    One rule picks the path.  The join of nonzero entries (M_i M_j added at
    (i, j) and subtracted at (j, i), then c[i,j,k] M_k subtracted; exact on
    integer data) runs when the dense products would do at least
    ``_JOIN_MIN_WORK`` multiply-adds, d^2 n^2 (d + n), below which they take
    less than the join's fixed cost of about 0.1 ms, and when it forms no
    more entries than one d n^2 slab.  Otherwise dense products run over
    blocks of first indices i, each block at most max(2^16, d n^2) entries.

    A non-finite entry makes the residual NaN on both paths: the dense
    products turn it into NaN through inf * 0, the join returns NaN outright.
    """
    d, n = rep.shape[:2]
    slab = d * n * n
    if d * slab * (d + n) >= _JOIN_MIN_WORK:
        resid = _coo_max_abs([("iab,jbc", rep, rep, ("ijac", "-jiac")),
                              ("ijk,kac", c, rep, ("-ijac",))], slab)
        if resid is not None:
            return resid
    step = max(2 ** 16, slab) // max(1, slab)
    with np.errstate(invalid="ignore", over="ignore"):      # inf * 0 and overflow fail as NaN, inf
        return max_residual(
            float(np.abs(rep[i:i + step, None] @ rep - rep @ rep[i:i + step, None]
                         - np.tensordot(c[i:i + step], rep, axes=(2, 0))).max())
            for i in range(0, d, step))


def _jacobi_residual(c: np.ndarray) -> float:
    """Max |coefficient| of [X_i,[X_j,X_k]] + [X_j,[X_k,X_i]] + [X_k,[X_i,X_j]].

    For antisymmetric c this is the representation residual of the adjoint
    stack ad X_i = c[i].T: Jacobi holds iff ad[X_i, X_j] = [ad X_i, ad X_j].
    """
    return _representation_residual(c, c.transpose(0, 2, 1))


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional real Lie algebra with an inner product on the basis."""

    structure_constants: np.ndarray
    gram: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        c = np.asarray(self.structure_constants, dtype=float)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[0] != c.shape[2] or not c.size:
            raise StructureError(f"structure constants must have shape (d, d, d) with d >= 1, "
                                 f"got {c.shape}")
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
        scale = self._c_scale
        with np.errstate(invalid="ignore"):     # inf - inf: a non-finite entry fails as NaN
            anti = float(np.abs(c + c.transpose(1, 0, 2)).max())
            gsym = float(np.abs(g - g.T).max())
        jacobi = _jacobi_residual(c)
        posdef = math.nan       # no eigenvalues of non-finite data; max(0.0, nan) would pass
        if np.isfinite(g).all():
            eig = np.linalg.eigvalsh(0.5 * (g + g.T))
            posdef = max(0.0, 1e-12 * max(1.0, float(eig.max())) - float(eig.min()))
        return (
            Check("antisymmetry", anti, 1e-12 * scale),
            Check("jacobi", jacobi, 1e-12 * scale),
            Check("gram_symmetric", gsym, 1e-12 * _scale(g)),
            Check("gram_positive_definite", posdef, 0.0),
        )

    @cached_property
    def _c_scale(self) -> float:
        """``_scale`` of the structure constants, computed once per instance."""
        return _scale(self.structure_constants)

    @cached_property
    def _derived(self) -> "Subspace":
        """[g, g]: the row space of c reshaped to (d^2, d), under the series' noise floor."""
        c = self.structure_constants
        return _span_above(c.reshape(-1, self.dim), self.dim, RANK_TOL * self._c_scale)

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
        with np.errstate(invalid="ignore"):             # inf * 0 is NaN, not a warning
            return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x) -> float:
        return float(np.sqrt(np.maximum(0.0, self.inner(x, x))))     # a NaN stays NaN


@dataclass(frozen=True)
class Subspace:
    """Subspace of R^ambient_dim spanned by the rows of ``basis``."""

    ambient_dim: int
    basis: np.ndarray  # shape (k, ambient_dim), rows linearly independent

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float).reshape(-1, self.ambient_dim)
        if not np.isfinite(b).all():
            raise StructureError("subspace basis has non-finite entries")
        if b.shape[0] > 0 and _dependent(b):
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
    """``span`` keeping only singular values above ``RANK_TOL * s[0]`` and ``floor``.

    ``_rank_decision`` drops zero rows and QR-reduces a tall stack to d x d
    before the SVD; non-finite input raises StructureError.
    """
    rank, _, vh = _rank_decision(np.asarray(vectors, dtype=float).reshape(-1, ambient_dim), floor)
    return Subspace(ambient_dim, _fix_signs(vh[:rank]))


def _rank_decision(stack: np.ndarray, floor: float = 0.0):
    """(rank, s, vh) of a (k, d) stack, counting s above max(RANK_TOL * s[0], floor).

    vh[:rank] spans the row space, vh[rank:] the null space.  The SVD runs on
    the nonzero rows, or on their d x d R factor when more than d remain: R =
    Q^T stack has the same row space and, up to rounding, singular values.
    An inf or NaN entry raises StructureError before LAPACK, which can hang.
    """
    rows = stack[stack.any(axis=1)]              # a NaN row counts as nonzero
    if not np.isfinite(rows).all():
        raise StructureError("rank decision on non-finite input")
    if rows.shape[0] > rows.shape[1]:
        rows = np.linalg.qr(rows, mode="r")
    if rows.shape[0] == 0:
        return 0, np.zeros(0), np.eye(stack.shape[1])
    _, s, vh = np.linalg.svd(rows)
    return int(np.sum(s > max(RANK_TOL * s[0], floor))), s, vh


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Make the first significantly nonzero coefficient of each row positive."""
    rows = np.array(rows, dtype=float)
    size = np.abs(rows)
    # fmax ignores a NaN row maximum, so such a row keeps the 1e-9 floor
    significant = size > 1e-9 * np.fmax(1.0, size.max(axis=1))[:, None]
    lead = rows[np.arange(len(rows)), significant.argmax(axis=1)]
    rows[significant.any(axis=1) & (lead < 0)] *= -1.0
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
        if nrm <= 1e-12 * _scale(v):
            raise StructureError("orthonormalize: input vectors are rank deficient")
        out.append(w / nrm)
    return Subspace(subspace.ambient_dim, _fix_signs(np.array(out).reshape(-1, subspace.ambient_dim)))


def orthonormal_basis(algebra: LieAlgebra) -> np.ndarray:
    """Rows form a basis that is orthonormal for the gram matrix (Cholesky).

    For an identity gram this returns the declared basis unchanged.
    """
    chol = np.linalg.cholesky(algebra.gram)
    return np.linalg.inv(chol)


def _orthonormal_frame(algebra: LieAlgebra, onb=None) -> np.ndarray:
    """``onb``, by default the Cholesky frame, if it is d x d with onb g onb^T = I within 1e-10."""
    onb = orthonormal_basis(algebra) if onb is None else np.asarray(onb, dtype=float)
    eye = np.eye(algebra.dim)
    if onb.shape != eye.shape or not Check(           # Check's rule: a NaN frame fails
            "orthonormal_frame", np.abs(onb @ algebra.gram @ onb.T - eye).max(), 1e-10).passed:
        raise StructureError("expected an orthonormal frame of the whole algebra")
    return onb


def orthocomplement(algebra: LieAlgebra, subspace: Subspace) -> Subspace:
    """Orthogonal complement with respect to the algebra's inner product."""
    rank, _, vh = _rank_decision(subspace.basis @ algebra.gram)
    return Subspace(algebra.dim, _fix_signs(vh[rank:]))


def _contract(algebra: LieAlgebra, left: np.ndarray) -> np.ndarray:
    """tensordot(left, c), whose slice a maps a row y to y @ out[a] = [left_a, y]."""
    with np.errstate(invalid="ignore", over="ignore"):      # inf * 0, overflow: raised at the span
        return np.tensordot(left, algebra.structure_constants, axes=(1, 0))


def _products_span(algebra: LieAlgebra, right: np.ndarray, contracted: np.ndarray) -> Subspace:
    """span{[x, y] : x a left row, y a row of ``right``}, given the left rows' ``_contract``.

    One product, ``right @ contracted``, and one rank decision.  Its floor is
    the algebra's scale, the one ``validation_report`` uses, so brackets that
    are all rounding noise (such as [g, z(g)]) span nothing.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        brackets = right @ contracted
    return _span_above(brackets, algebra.dim, RANK_TOL * algebra._c_scale)


def _bracket_span(algebra: LieAlgebra, left: np.ndarray, right: np.ndarray) -> Subspace:
    return _products_span(algebra, right, _contract(algebra, left))


def _derived_algebra(algebra: LieAlgebra) -> Subspace:
    """[g, g], decided once per algebra."""
    return algebra._derived


def _descending_series(algebra: LieAlgebra, first: Subspace, second: Subspace,
                       contracted=None) -> list[Subspace]:
    """first, second, [L, second], [L, [L, second]], ... until the dimension stabilizes.

    Each term after ``second`` brackets the last with L: a fixed left operand
    whose ``_contract`` is ``contracted``, or else the last term itself.  At
    most d + 2 terms.
    """
    series = [first]
    while second.dim != series[-1].dim:
        series.append(second)
        if second.dim == 0 or len(series) > algebra.dim + 1:
            break
        basis = second.basis
        second = _products_span(algebra, basis,
                                _contract(algebra, basis) if contracted is None else contracted)
    return series


def derived_series(algebra: LieAlgebra) -> list[Subspace]:
    """g, [g,g], [[g,g],[g,g]], ... until the dimension stabilizes."""
    return _descending_series(algebra, full_space(algebra), _derived_algebra(algebra))


def lower_central_series(algebra: LieAlgebra) -> list[Subspace]:
    """g, [g,g], [g,[g,g]], ... until the dimension stabilizes; c itself brackets with g."""
    return _descending_series(algebra, full_space(algebra), _derived_algebra(algebra),
                              algebra.structure_constants)


def is_solvable(algebra: LieAlgebra) -> bool:
    return derived_series(algebra)[-1].dim == 0


def is_nilpotent(algebra: LieAlgebra) -> bool:
    return lower_central_series(algebra)[-1].dim == 0


def is_abelian(algebra: LieAlgebra) -> bool:
    return _derived_algebra(algebra).dim == 0       # under the series' noise floor


def center(algebra: LieAlgebra) -> Subspace:
    """Null space of the stacked maps x -> [x, e_j].

    ``_rank_decision`` drops the stack's zero rows and QR-reduces the rest to
    d x d before the SVD, with the series' noise floor; non-finite constants
    raise StructureError.
    """
    c, d = algebra.structure_constants, algebra.dim
    stacked = c.transpose(1, 2, 0).reshape(d * d, d)  # rows (j,k)
    rank, _, vh = _rank_decision(stacked, RANK_TOL * algebra._c_scale)
    return Subspace(d, _fix_signs(vh[rank:]))
