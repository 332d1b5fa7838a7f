"""Matrix realizations of the built-in groups, exponentials, and point sampling."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .algebra import LieAlgebra, _readonly, _representation_residual
from .errors import StructureError

HOMOMORPHISM_TOL = 1e-10


def exp_matrix(x, t=1.0) -> np.ndarray:
    """e^{tX} for one matrix, or a stack of exponentials.

    A 1-d ``t`` gives the stack of e^{t_k X}; an (N, n, n) stack ``x`` with a
    scalar ``t`` gives the stack of e^{t X_k}.  An (n, n) ``x`` with a scalar
    ``t`` is a batch of one, and every slice of a batch gets the result it
    would get alone.  Each matrix with a power that is exactly zero gets the
    terminating power series, which is exact up to rounding.  The others go
    through scaling-and-squaring with a degree-12 truncated series scaled so
    that ||t_k X|| / 2^k <= 0.5.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {x.shape}")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or (x.ndim == 3 and ts.ndim):
        raise ValueError(f"t must be a scalar, or a 1-d array with one matrix, "
                         f"got shape {ts.shape}")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(ts)):
        raise ValueError("exp_matrix requires finite entries")
    n = x.shape[-1]
    a = ts.reshape(-1, 1, 1) * x
    eye = np.broadcast_to(np.eye(n), a.shape)
    powers = [eye]
    p = eye
    for _ in range(n):
        p = p @ a
        if not p.any():
            break
        powers.append(p)
    nilpotent = ~p.any(axis=(1, 2))     # a zero power stays zero
    out = np.zeros_like(a)
    if nilpotent.any():
        fact = 1.0
        for m, pm in enumerate(powers):
            if m > 0:
                fact *= m
            out += pm / fact
    if not nilpotent.all():
        rest = a[~nilpotent]
        norm = np.linalg.svd(rest, compute_uv=False).max(axis=1)     # spectral norms
        k = np.array([math.ceil(math.log2(v / 0.5)) if v > 0.5 else 0 for v in norm],
                     dtype=int)
        b = np.ldexp(rest, -k[:, None, None])      # rest / 2^k, exactly
        series = eye[:len(rest)]
        term = series
        for m in range(1, 13):
            term = term @ b / m
            series = series + term
        for step in range(k.max()):
            series = np.where((k > step)[:, None, None], series @ series, series)
        out[~nilpotent] = series
    return out if ts.ndim or x.ndim == 3 else out[0]


@dataclass(frozen=True)
class MatrixRealization:
    """One ambient x ambient matrix per basis vector, held as one read-only (d, n, n) copy."""

    algebra: LieAlgebra
    rep: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if len(self.rep) != self.algebra.dim:
            raise StructureError(f"need {self.algebra.dim} matrices, got {len(self.rep)}")
        try:
            rep = _readonly(self.rep)
        except ValueError as exc:       # matrices of different shapes
            raise StructureError("realization matrices must share a square shape") from exc
        if rep.ndim != 3 or rep.shape[1] != rep.shape[2]:
            raise StructureError("realization matrices must share a square shape")
        object.__setattr__(self, "rep", rep)
        if validate:
            # the residual first: it is NaN on a non-finite entry, which the rank test
            # would misreport as dependence (inf) or fail to decompose (NaN)
            resid = self.homomorphism_residual()
            if not resid <= HOMOMORPHISM_TOL:     # a NaN residual fails too
                raise StructureError(f"realization is not a homomorphism (residual {resid:.3e})")
            flat = rep.reshape(len(rep), -1)
            scale = max(1.0, float(np.abs(flat).max()))
            if np.linalg.matrix_rank(flat, tol=1e-10 * scale) < len(rep):
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
        return _representation_residual(self.algebra.structure_constants, self.rep)


def sample_points(realization: MatrixRealization, count: int, seed: int,
                  scale: float = 1.0) -> list[np.ndarray]:
    """Deterministic group points exp(v_1 X_1) ... exp(v_d X_d), v_i ~ U[-scale, scale].

    The coefficients of all points are one (count, d) draw, so point k uses
    the same stream positions as the k-th of ``count`` single-point draws.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not math.isfinite(2.0 * scale):
        raise StructureError(f"sampling range [-{scale}, {scale}] overflows; reduce scale")
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-scale, scale, (count, realization.algebra.dim))
    points = np.broadcast_to(np.eye(realization.ambient),
                             (count, realization.ambient, realization.ambient))
    with np.errstate(over="ignore", invalid="ignore"):   # checked just below
        for column, mat in zip(coeffs.T, realization.rep):
            points = points @ exp_matrix(mat, column)
    if not np.all(np.isfinite(points)):
        raise StructureError("sampled point has non-finite entries; reduce scale")
    return list(points)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def _algebra_from_matrices(mats) -> tuple[LieAlgebra, MatrixRealization]:
    """Read structure constants off the matrices themselves.

    Each commutator [M_i, M_j], i < j, is projected onto the span of the basis;
    whether it lies in that span is decided by the realization's residual alone.
    """
    mats = np.array(mats, dtype=float)     # (d, n, n)
    if not np.isfinite(mats).all():
        raise StructureError("realization matrices have non-finite entries")
    d, n = mats.shape[:2]
    i, j = np.triu_indices(d, 1)
    with np.errstate(over="ignore", invalid="ignore"):   # the realization's residual fails them
        # every M_i M_j (at [i, :, j]) in one product; rebinding frees them before validation
        comm = (mats.reshape(-1, n) @ mats.transpose(1, 0, 2).reshape(n, -1)).reshape(d, n, d, n)
        comm = (comm[i, :, j] - comm[j, :, i]).reshape(len(i), n * n)
        coeff = comm @ np.linalg.pinv(mats.reshape(d, -1))
    c = np.zeros((d, d, d))
    c[i, j] = coeff
    c[j, i] = -coeff
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
