"""Matrix realizations of the built-in groups, exponentials, and point sampling."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (LieAlgebra, _dependent, _Entries, _pair_up, _partners, _readonly,
                      _representation_residual, _sum_by_key)
from .errors import StructureError

HOMOMORPHISM_TOL = 1e-10
_SQRT_TINY = 2.0 ** -511        # two nonzero entries at least this large multiply to a normal float
# entries of one block of exponentials: 2^16, as in the dense representation residual,
# raised the peak RSS of many-point sampling (300 points of N_5) by about 0.2 MB
_BLOCK_ENTRIES = 2 ** 15


def exp_matrix(x, t=1.0) -> np.ndarray:
    """e^{tX} for one matrix X, or the stack of e^{t_k X} for a 1-d ``t``.

    The one-matrix view of ``_exp_stack``: a scalar ``t`` is a batch of one,
    and every slice of a batch gets the result it would get alone.  A result
    too large for a float comes back with non-finite entries and no
    ``RuntimeWarning``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or not len(x):
        raise ValueError(f"expected a nonempty square matrix, got shape {x.shape}")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-d array, got shape {ts.shape}")
    series = _exp_stack(x[None], ts.reshape(-1, 1))[0]
    return series if ts.ndim else series[0]


def _exp_stack(xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """e^{t[k, i] X_i} at [i, k], for a (b, n, n) stack of X_i and an (N, b) array of t.

    Every slice is bit-identical to the matrix's own call, whatever else is
    in the stack: the scaling, the powers, the nilpotency and the coefficient
    tables are formed for the whole stack at once, but a term or a squaring
    that one matrix does not take never touches another matrix's slices.

    Each X is scaled exactly to Y = X / 2^e, 2^e > max|X|, and its powers Y^m
    are formed once for all its t.  X counts as nilpotent when a power Y^m,
    m <= n, is exactly zero and no nonzero entry of Y, ..., Y^(m-1) is below
    sqrt(tiny) (about 1.5e-154), so no product that formed the zero power
    underflowed; it gets the terminating power series, which is exact up to
    rounding.  Every other X goes through scaling-and-squaring with a
    degree-12 truncated series (Higham, SIAM J. Matrix Anal. Appl. 26, 2005):
    k squarings with ||t X|| / 2^k <= 0.5, its spectral norm taken by one SVD,
    and the terms (t 2^(e-k))^m / m! Y^m.  A result too large for a float
    comes back with non-finite entries and no ``RuntimeWarning``; k is
    bounded by the float exponent range (at most about 2100).
    """
    b, n = xs.shape[:2]
    sizes = np.abs(xs).max(axis=(1, 2))
    if not np.isfinite(sizes).all() or not np.isfinite(ts).all():
        raise ValueError("exp_matrix requires finite entries")
    e = np.frexp(sizes)[1]
    last = max(n, 12)
    powers = np.empty((last, b, n, n))              # Y^m at [m - 1]
    powers[0] = np.ldexp(xs, -e[:, None, None])     # Y = X / 2^e, exactly
    # a zero power up to Y^n ends a matrix's powers, and every later power is zero too;
    # past Y^n only the series needs more, up to Y^12
    level = 1
    while level < last and (level > n or powers[level - 1].any()):
        np.matmul(powers[level - 1], powers[0], out=powers[level])
        level += 1
    sizes = np.abs(powers[:level])
    highs = sizes.max(axis=(2, 3))                  # max|Y^m| at [m - 1, i]
    # a zero power up to Y^n makes every later one zero, so the first one, top, ends the
    # nonzero powers up to Y^n, and the least nonzero entry is one of Y, ..., Y^(top-1)
    zero = highs[min(n, level) - 1] == 0
    top = np.where(zero, (highs[:n] > 0).sum(axis=0) + 1, level)
    nilpotent = zero & (sizes.min(axis=(0, 2, 3), where=sizes > 0, initial=np.inf) >= _SQRT_TINY)
    keep = np.where(nilpotent, top, np.minimum(top, 12) + 1)     # a zero power drops out
    t_mant, t_exp = np.frexp(ts)
    q = t_exp + e                                   # s = t 2^(e-k) = t_mant 2^q
    steps = 0                                       # squarings: none for a nilpotent X
    if not nilpotent.all():
        # ||t X|| = |t| 2^e ||Y|| read as mantissa and exponent, so no product overflows;
        # a nilpotent X has norm 0 here, and so no squarings
        norms = np.zeros(b)
        for i in np.flatnonzero(~nilpotent):
            norms[i] = np.linalg.svd(powers[0, i], compute_uv=False)[0]
        norm_mant, norm_exp = np.frexp(norms)
        size_mant, size_exp = np.frexp(np.abs(t_mant) * norm_mant)
        # the least k >= 0 with ||t X|| <= 2^(k-1); none for t = 0
        least = size_exp + q + norm_exp + (size_mant != 0.5)
        k = np.where(size_mant == 0, 0, np.maximum(least, 0))
        q = q - k
        k = k.T.ravel()                             # in the order of the slices
        steps = k.max(initial=0)

    # Y^m gets s^m / m!.  Each power is held as 2^-h M with max|M| in [1, 2), so the
    # coefficient (t_mant^m / m!) 2^(mq - h) overflows only where the term does, and
    # each term is exact where it is a normal float.  A matrix takes terms up to
    # Y^(keep-1).  Only the zero matrix takes none, and its term of Y is exactly zero
    # (Y = 0, coefficient t / 2), so every slice starts as the term of Y plus I, formed
    # in place: c Y + I rounds as I + c Y does
    terms, shared = max(int(keep.max()), 2) - 1, max(int(keep.min()), 2) - 1
    h = 1 - np.frexp(highs[:terms])[1]
    mants = np.ldexp(powers[:terms], h[:, :, None, None])[:, :, None]
    m = np.arange(1, terms + 1)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow ends as inf or NaN
        coeffs = np.ldexp(np.cumprod(t_mant / m, axis=0), m * q - h[:, None])
        coeffs = coeffs.transpose(0, 2, 1)[..., None, None]
        series = np.multiply(coeffs[0], mants[0], out=np.empty((b, len(ts), n, n)))
        series += np.eye(n)
        for coeff, mant in zip(coeffs[1:shared], mants[1:]):
            series += coeff * mant
        for term in range(shared, terms):
            took = np.flatnonzero(keep > term + 1)
            series[took] += coeffs[term, took] * mants[term, took]
        flat = series.reshape(-1, n, n)
        for step in range(steps):
            rows = np.flatnonzero(k > step)
            square = flat[rows]
            flat[rows] = square @ square
    return series


def _exp_factors(xs: np.ndarray, ts: np.ndarray):
    """``_exp_stack(xs, ts)`` one matrix's (N, n, n) stack at a time.

    The kernel runs on blocks of consecutive matrices, each block at most
    max(_BLOCK_ENTRIES, N n^2) entries, so a large draw holds one factor at a
    time.
    """
    slab = len(ts) * xs.shape[1] ** 2
    step = max(_BLOCK_ENTRIES, slab) // max(1, slab)
    for lo in range(0, len(xs), step):
        yield from _exp_stack(xs[lo:lo + step], ts[:, lo:lo + step])


@dataclass(frozen=True)
class MatrixRealization:
    """One ambient x ambient matrix per basis vector, held as one read-only (d, n, n) copy.

    Construction checks that the matrices are independent and realize the brackets.
    """

    algebra: LieAlgebra
    rep: np.ndarray

    def __post_init__(self):
        if len(self.rep) != self.algebra.dim:
            raise StructureError(f"need {self.algebra.dim} matrices, got {len(self.rep)}")
        try:
            rep = _readonly(self.rep)
        except ValueError as exc:       # matrices of different shapes
            raise StructureError("realization matrices must share a square shape") from exc
        if rep.ndim != 3 or rep.shape[1] != rep.shape[2]:
            raise StructureError("realization matrices must share a square shape")
        object.__setattr__(self, "rep", rep)
        # the residual first: it is NaN on a non-finite entry, which the rank test
        # would misreport as dependence (inf) or fail to decompose (NaN)
        resid = self.homomorphism_residual()
        if not resid <= HOMOMORPHISM_TOL:     # a NaN residual fails too
            raise StructureError(f"realization is not a homomorphism (residual {resid:.3e})")
        if _dependent(rep.reshape(len(rep), -1)):
            raise StructureError("realization matrices are linearly dependent")

    @property
    def ambient(self) -> int:
        return self.rep.shape[1]

    def matrix_of(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.algebra.dim,):
            raise ValueError(f"coordinate vector must have length {self.algebra.dim}")
        return np.einsum("i,ijk->jk", x, self.rep)

    def homomorphism_residual(self) -> float:
        """max |[M_i, M_j] - sum_k c[i,j,k] M_k| over all pairs, computed once per instance."""
        return self._homomorphism_residual

    @cached_property
    def _homomorphism_residual(self) -> float:
        return _representation_residual(self.algebra._entries, self.rep)


def sample_points(realization: MatrixRealization, count: int, seed: int,
                  scale: float = 1.0) -> np.ndarray:
    """Deterministic group points exp(v_1 X_1) ... exp(v_d X_d), v_i ~ U[-scale, scale].

    The points are one (count, n, n) stack.  Their coefficients are one (count,
    d) draw, so point k uses the same stream positions as the k-th of ``count``
    single-point draws.  The factors come from ``_exp_factors``, a block of basis
    matrices per kernel call, and are multiplied into the points in basis order.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise ValueError(f"count must be an integer, got {count!r}") from None
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"scale must be a finite number >= 0, got {scale!r}")
    if not math.isfinite(2.0 * scale):
        raise StructureError(f"sampling range [-{scale}, {scale}] overflows; reduce scale")
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-scale, scale, (count, realization.algebra.dim))
    points = np.broadcast_to(np.eye(realization.ambient),
                             (count, realization.ambient, realization.ambient))
    with np.errstate(over="ignore", invalid="ignore"):   # checked just below
        for factor in _exp_factors(realization.rep, coeffs):
            points = points @ factor
            del factor          # a finished block is freed before the next one is formed
    if not np.all(np.isfinite(points)):
        raise StructureError("sampled point has non-finite entries; reduce scale")
    return points


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def _algebra_from_matrices(mats) -> tuple[LieAlgebra, MatrixRealization]:
    """Read structure constants off the matrices themselves.

    The commutators come from a join of the matrices' nonzero entries on the
    shared index: each product M_i[a, m] M_j[m, b], i != j, is added to entry
    (a, b) of the pair (min(i, j), max(i, j)), with sign + for i < j and - for
    i > j.  Each commutator [M_i, M_j], i < j, is projected onto the span of
    the basis through the rows of one pseudo-inverse, so neither the products
    nor the commutators are formed densely.  Whether a commutator lies in the
    span is decided by the realization's residual alone.
    """
    mats = np.array(mats, dtype=float)     # (d, n, n)
    if not np.isfinite(mats).all():
        raise StructureError("realization matrices have non-finite entries")
    d, n = mats.shape[:2]
    x = _Entries(mats)
    mat, row, col = x.index
    xa, ya = _pair_up(*_partners(x, 2, x, 1))    # M_i[a, m] against M_j[m, b]
    cross = mat[xa] != mat[ya]
    xa, ya = xa[cross], ya[cross]
    i, j, a, b = mat[xa], mat[ya], row[xa], col[ya]
    with np.errstate(over="ignore", invalid="ignore"):   # the realization's residual fails them
        prod = x.values[xa] * x.values[ya]
        keys, comm = _sum_by_key(((np.minimum(i, j) * d + np.maximum(i, j)) * n + a) * n + b,
                                 np.where(i < j, prod, -prod))
        reached = comm != 0
        pair, entry = np.divmod(keys[reached], n * n)   # pair = i d + j, entry = a n + b
        proj = np.linalg.pinv(mats.reshape(d, -1))[entry] * comm[reached][:, None]
        # the flat index of (i, j, k) in c is pair d + k
        where, coeff = _sum_by_key((pair[:, None] * d + np.arange(d)).ravel(), proj.ravel())
    ij, k = np.divmod(where, d)
    i, j = np.divmod(ij, d)
    c = np.zeros((d, d, d))
    c[np.arange(d)[:, None] > np.arange(d)] = -0.0     # c[j, i] = -c[i, j], so its zeros are -0.0
    c[i, j, k] = coeff
    c[j, i, k] = -coeff
    algebra = LieAlgebra(c, np.eye(d))
    return algebra, MatrixRealization(algebra, mats)


def build_N(n: int) -> tuple[LieAlgebra, MatrixRealization]:
    """Strictly upper triangular n x n matrices; the group is unipotent."""
    if n < 2:
        raise ValueError("build_N requires n >= 2")
    mats = [_unit(n, r, s) for r in range(n) for s in range(r + 1, n)]
    return _algebra_from_matrices(mats)


def build_H(n: int) -> tuple[LieAlgebra, MatrixRealization]:
    """Heisenberg group of dimension 2n + 1, realized inside (n+2) x (n+2) matrices.

    Basis order: X_1..X_n, Y_1..Y_n, Z with [X_k, Y_k] = Z.
    """
    if n < 1:
        raise ValueError("build_H requires n >= 1")
    m = n + 2
    mats = [_unit(m, 0, 1 + k) for k in range(n)]
    mats += [_unit(m, 1 + k, n + 1) for k in range(n)]
    mats.append(_unit(m, 0, n + 1))
    return _algebra_from_matrices(mats)


def build_K(n: int) -> tuple[LieAlgebra, MatrixRealization]:
    """Filiform-type nilpotent group of dimension n + 1 inside (n+1) x (n+1) matrices.

    Basis order: Y_1..Y_n (last column), then X = (E_12 + ... + E_{n-1,n}) / sqrt(n-1).
    """
    if n < 2:
        raise ValueError("build_K requires n >= 2")
    m = n + 1
    mats = [_unit(m, k, n) for k in range(n)]
    x = sum(_unit(m, j, j + 1) for j in range(n - 1)) / math.sqrt(n - 1)
    mats.append(x)
    return _algebra_from_matrices(mats)


def build_S(n: int) -> tuple[LieAlgebra, MatrixRealization]:
    """All upper triangular n x n matrices (connected component: positive diagonal).

    Basis order: diagonal units D_1..D_n, then E_rs for r < s.
    """
    if n < 2:
        raise ValueError("build_S requires n >= 2")
    mats = [_unit(n, t, t) for t in range(n)]
    mats += [_unit(n, r, s) for r in range(n) for s in range(r + 1, n)]
    return _algebra_from_matrices(mats)


def build_G3(alpha: float, beta: float) -> tuple[LieAlgebra, MatrixRealization]:
    """Solvable 3-dimensional group where e_1 acts on the plane by alpha*I + beta*J.

    The declared basis e_1, e_2, e_3 is orthonormal (identity gram), which for
    alpha, beta != 0 differs from the trace inner product of the realization.
    """
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("build_G3 requires (alpha, beta) != (0, 0)")
    e1 = np.array([[alpha, -beta, 0.0], [beta, alpha, 0.0], [0.0, 0.0, 0.0]])
    e2 = _unit(3, 0, 2)
    e3 = _unit(3, 1, 2)
    return _algebra_from_matrices([e1, e2, e3])


def build_Galpha(alpha: float) -> tuple[LieAlgebra, MatrixRealization]:
    """Solvable 3-dimensional group where e_1 acts on the plane with eigenvalues alpha, -1."""
    e1 = np.diag([alpha, -1.0, 0.0])
    e2 = _unit(3, 0, 2)
    e3 = -_unit(3, 1, 2)
    return _algebra_from_matrices([e1, e2, e3])


DEFAULT_J = (np.array([[0.0, -1.0], [1.0, 0.0]]),)


def build_damek_ricci(dim_v: int, dim_z: int, j_maps=None) -> tuple[LieAlgebra, None]:
    """Solvable algebra v + z + a with a two-step nilradical v + z of Heisenberg type.

    j_maps gives, per z-basis vector Z_m, the skew map J_m on v defining
    [X, Y] = sum_m <J_m X, Y> Z_m; the maps must satisfy the Clifford relations
    J_a J_b + J_b J_a = -2 delta_ab I.  The generator A of a acts by 1/2 on v
    and by 1 on z.  No matrix realization is produced; all checks are run at
    the algebra level.
    """
    if dim_v < 1 or dim_z < 1:
        raise ValueError("build_damek_ricci requires dim_v >= 1 and dim_z >= 1")
    if j_maps is None:
        if (dim_v, dim_z) != (2, 1):
            raise ValueError("explicit j_maps are required unless (dim_v, dim_z) == (2, 1)")
        j_maps = DEFAULT_J
    j_maps = [np.asarray(j, dtype=float) for j in j_maps]
    if len(j_maps) != dim_z:
        raise StructureError(f"need {dim_z} J maps, got {len(j_maps)}")
    # the first map of the wrong shape, or dim_z; every map before it is stacked
    shaped = next((m for m, j in enumerate(j_maps) if j.shape != (dim_v, dim_v)), dim_z)
    j = np.stack(j_maps[:shaped]) if shaped else np.zeros((0, dim_v, dim_v))
    skew = np.flatnonzero(np.abs(j + j.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12)
    if skew.size:
        raise StructureError(f"failed Clifford identity: J_{skew[0]} is not skew-symmetric")
    if shaped < dim_z:
        raise StructureError(f"J_{shaped} must be {dim_v} x {dim_v}")
    prod = j[:, None] @ j[None, :]                           # J_a J_b at [a, b]
    target = -2.0 * np.eye(dim_z)[:, :, None, None] * np.eye(dim_v)
    failed = np.argwhere(np.triu(
        np.abs(prod + prod.transpose(1, 0, 2, 3) - target).max(axis=(2, 3)) > 1e-12))
    if failed.size:
        a, b = failed[0]
        raise StructureError(f"failed Clifford identity: J_{a} J_{b} + J_{b} J_{a} != "
                             + ("-2 I" if a == b else "0"))
    d = dim_v + dim_z + 1
    ia = d - 1
    iv, iz = np.arange(dim_v), dim_v + np.arange(dim_z)
    c = np.zeros((d, d, d))
    c[:dim_v, :dim_v, iz] = j.transpose(2, 1, 0)            # c[i, j, Z_m] = J_m[j, i]
    c[ia, iv, iv], c[iv, ia, iv] = 0.5, -0.5
    c[ia, iz, iz], c[iz, ia, iz] = 1.0, -1.0
    return LieAlgebra(c, np.eye(d)), None
