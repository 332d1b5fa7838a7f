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
    size = float(np.abs(c).max(initial=0.0))
    if not math.isfinite(size):         # only non-finite data pays for the mask
        size = float(np.abs(c).max(initial=0.0, where=np.isfinite(c)))
    return max(1.0, size)


def _dependent(rows: np.ndarray) -> bool:
    """Whether the (k, m) rows, real or complex, have rank below k at RANK_TOL * _scale(rows)."""
    return np.linalg.matrix_rank(rows, tol=RANK_TOL * _scale(rows)) < len(rows)


class _Entries:
    """An array and its nonzero entries (a NaN counts), listed once, on first use.

    ``index`` holds one index array per axis and ``values`` the entries.  They
    come in the array's C order, or, for a ``transpose``, in the C order of the
    array it transposes.  Either way, entries that agree off one axis come in
    increasing order along it, and that is all a join's sums depend on.
    """

    def __init__(self, dense: np.ndarray):
        self.dense = dense

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dense.shape

    @cached_property
    def index(self) -> tuple[np.ndarray, ...]:
        # != 0: a NaN counts
        return np.unravel_index(np.flatnonzero(self.dense != 0), self.dense.shape)

    @cached_property
    def values(self) -> np.ndarray:
        return self.dense[self.index]

    def transpose(self, *axes: int) -> "_Entries":
        """The entries of ``dense.transpose(axes)``: the same listing, its index arrays permuted."""
        out = _Entries(self.dense.transpose(axes))
        out.index = tuple(self.index[a] for a in axes)
        out.values = self.values
        return out


def _entries(a) -> _Entries:
    """An ``_Entries`` as it is; an array wrapped, to be listed on first use."""
    return a if isinstance(a, _Entries) else _Entries(np.asarray(a))


def _partners(x: _Entries, xm: int, y: _Entries, ym: int):
    """The join of x's and y's entries on x's axis ``xm`` against y's axis ``ym``, counted.

    Returns (reps, starts, order): x entry a has ``reps[a]`` partners, the y
    entries with its index, and the first is at ``starts[a]`` in y's entries
    taken in ``order``, sorted by that index.
    """
    ycount = np.bincount(y.index[ym], minlength=y.shape[ym])
    xm = x.index[xm]
    return ycount[xm], (np.cumsum(ycount) - ycount)[xm], np.argsort(y.index[ym], kind="stable")


def _pair_up(reps: np.ndarray, starts: np.ndarray, order: np.ndarray):
    """(xa, ya): the positions of every joined pair in x's and y's entries, given ``_partners``."""
    first = np.cumsum(reps) - reps              # first pair of each x entry
    xa = np.repeat(np.arange(len(reps)), reps)
    return xa, order[np.arange(len(xa)) + (starts - first)[xa]]


def _sum_by_key(keys: np.ndarray, values: np.ndarray):
    """(the distinct keys, ascending; the sum of the values at each), each sum in the given order.

    The stable sort keeps equal keys in their order, so ``bincount`` adds each
    key's values as they came.  ``np.unique`` would do the grouping too, but its
    first call imports ``numpy.ma``, about 1.7 MB of resident memory.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new], np.bincount(np.cumsum(new) - 1, weights=values[order])


def _coo_max_abs(terms, budget: float = math.inf) -> float | None:
    """max |sum of the terms| over every output index, by a join of nonzero entries.

    Each term is ``(spec, x, y, outputs)``, x and y arrays or their
    ``_Entries``.  ``spec`` names the axes of x and y as einsum does
    ("ijm,kml"), and the one letter they share is summed over.  Each product
    of a nonzero x entry with a nonzero y entry is added at every index string
    of ``outputs`` (a leading "-" subtracts it), so one join can feed several
    permutations of its indices.  Sums are keyed by the output entries the
    products reach (``_sum_by_key``); every other entry is 0.  The
    products are counted from the nonzero patterns first, term by term, and
    once the count times the outputs exceeds ``budget`` the join is not
    formed: the result is None.

    A dense product turns an inf or NaN entry into NaN through inf * 0; the
    join forms no such product, so any non-finite entry makes the result
    NaN outright.
    """
    pending, size = [], 0
    for spec, x, y, outputs in terms:
        x, y = _entries(x), _entries(y)
        xs, ys = spec.split(",")
        (m,) = set(xs) & set(ys)
        if not (np.isfinite(x.values).all() and np.isfinite(y.values).all()):
            return math.nan
        reps, starts, order = _partners(x, xs.index(m), y, ys.index(m))
        size += int(reps.sum()) * len(outputs)
        if size > budget:
            return None
        pending.append((xs, ys, m, x, y, (reps, starts, order), outputs))
    if not size:
        return 0.0
    keys, vals = [], []
    for xs, ys, m, x, y, partners, outputs in pending:
        xa, ya = _pair_up(*partners)
        axes = {**{a: (x.index[p][xa], x.shape[p]) for p, a in enumerate(xs) if a != m},
                **{a: (y.index[p][ya], y.shape[p]) for p, a in enumerate(ys) if a != m}}
        prod = x.values[xa] * y.values[ya]
        for out in outputs:
            letters = out.lstrip("-")
            keys.append(np.ravel_multi_index(tuple(axes[a][0] for a in letters),
                                             tuple(axes[a][1] for a in letters)))
            vals.append(-prod if out.startswith("-") else prod)
    return float(np.abs(_sum_by_key(np.concatenate(keys), np.concatenate(vals))[1]).max())


def _distinct_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """The distinct values of ``rows``, row numbers of a (d^2, d) stack, ascending."""
    hit = np.zeros(d * d, dtype=bool)
    hit[rows] = True
    return np.flatnonzero(hit)


def _representation_residual(c, rep) -> float:
    """max |[M_i, M_j] - sum_k c[i,j,k] M_k| over the (d, n, n) stack ``rep``.

    ``c`` and ``rep`` are arrays or their ``_Entries``; the join reads their
    listings, the dense products their arrays.  One rule picks the path.  The
    join of nonzero entries (M_i M_j added at (i, j) and subtracted at (j, i),
    then c[i,j,k] M_k subtracted; exact on integer data) runs when the dense
    products would do at least ``_JOIN_MIN_WORK`` multiply-adds, d^2 n^2
    (d + n), below which they take less than the join's fixed cost of about
    0.1 ms, and when it forms no more entries than one d n^2 slab.  Otherwise
    dense products run over blocks of first indices i, each block at most
    max(2^16, d n^2) entries.  A stack that fits one block takes one product
    P = M_i M_j at [i, j], and M_j M_i is P with its pair axes swapped.

    A non-finite entry makes the residual NaN on both paths: the dense
    products turn it into NaN through inf * 0, the join returns NaN outright.
    """
    c, rep = _entries(c), _entries(rep)
    d, n = rep.shape[:2]
    slab = d * n * n
    if d * slab * (d + n) >= _JOIN_MIN_WORK:
        resid = _coo_max_abs([("iab,jbc", rep, rep, ("ijac", "-jiac")),
                              ("ijk,kac", c, rep, ("-ijac",))], slab)
        if resid is not None:
            return resid
    c, rep = c.dense, rep.dense
    step = max(2 ** 16, slab) // max(1, slab)
    with np.errstate(invalid="ignore", over="ignore"):      # inf * 0 and overflow fail as NaN, inf
        if step >= d:
            prod = rep[:, None] @ rep
            return float(np.abs(prod - prod.swapaxes(0, 1)
                                - np.tensordot(c, rep, axes=(2, 0))).max())
        return max_residual(
            float(np.abs(rep[i:i + step, None] @ rep - rep @ rep[i:i + step, None]
                         - np.tensordot(c[i:i + step], rep, axes=(2, 0))).max())
            for i in range(0, d, step))


def _jacobi_residual(c) -> float:
    """Max |coefficient| of [X_i,[X_j,X_k]] + [X_j,[X_k,X_i]] + [X_k,[X_i,X_j]].

    For antisymmetric c this is the representation residual of the adjoint
    stack ad X_i = c[i].T: Jacobi holds iff ad[X_i, X_j] = [ad X_i, ad X_j].
    ``c`` is an array or its ``_Entries``, whose one listing both stacks read.
    """
    c = _entries(c)
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
        entries = self._entries
        i, j, k = entries.index
        with np.errstate(invalid="ignore"):     # inf - inf: a non-finite entry fails as NaN
            # each nonzero against its (j, i, k) partner; a pair of zeros adds nothing
            anti = float(np.abs(entries.values + c[j, i, k]).max(initial=0.0))
            gsym = float(np.abs(g - g.T).max())
        jacobi = _jacobi_residual(entries)
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
    def _entries(self) -> _Entries:
        """The nonzero entries of c, listed once per instance: the scale, the
        antisymmetry and Jacobi checks, [g, g] and the center read them."""
        return _Entries(self.structure_constants)

    @cached_property
    def _c_scale(self) -> float:
        """``_scale`` of the structure constants, computed once per instance."""
        return _scale(self._entries.values)

    @cached_property
    def _derived(self) -> "Subspace":
        """[g, g]: the row space of c reshaped to (d^2, d), under the series' noise floor.

        Only the rows (i, j) with a nonzero entry are taken, in their order.
        """
        c, d = self.structure_constants, self.dim
        i, j, _ = self._entries.index
        rows = c.reshape(-1, d)[_distinct_rows(i * d + j, d)]
        return _span_above(rows, d, RANK_TOL * self._c_scale)

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
        if b.shape[0] > 0 and not _orthonormal_rows(b) and _dependent(b):
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


def _orthonormal_rows(rows: np.ndarray) -> bool:
    """Whether |rows rows^T - I| <= 1e-10: such rows are independent at any rank floor."""
    with np.errstate(over="ignore", invalid="ignore"):      # huge rows fail as inf or NaN
        return bool(np.abs(rows @ rows.T - np.eye(len(rows))).max() <= 1e-10)


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

    The stack's rows (j, k) are c[:, j, k]; only those with a nonzero entry
    are taken, in their order.  ``_rank_decision`` QR-reduces them to d x d
    before the SVD, with the series' noise floor; non-finite constants raise
    StructureError.
    """
    c, d = algebra.structure_constants, algebra.dim
    _, j, k = algebra._entries.index
    rows = _distinct_rows(j * d + k, d)
    stacked = c[:, rows // d, rows % d].T
    rank, _, vh = _rank_decision(stacked, RANK_TOL * algebra._c_scale)
    return Subspace(d, _fix_signs(vh[rank:]))
