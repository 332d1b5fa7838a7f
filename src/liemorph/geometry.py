"""Left-invariant Levi-Civita connection, curvature tensor, and sectional curvature."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import LieAlgebra, _orthonormal_frame
from .checks import DEFAULT_TOLERANCES, Check
from .errors import StructureError
from .groups import MatrixRealization


@dataclass(frozen=True)
class ConnectionTable:
    """Connection coefficients over an orthonormal left-invariant frame.

    nabla_{X_a} X_b = sum_c gamma[a, b, c] X_c, where the frame vectors X_a are
    the rows of ``onb`` written in the algebra's declared basis.
    """

    algebra: LieAlgebra
    onb: np.ndarray
    gamma: np.ndarray
    frame_brackets: np.ndarray  # f[a, b, c] = <[X_a, X_b], X_c>

    def nabla(self, x, y) -> np.ndarray:
        """Covariant derivative in frame coordinates."""
        return np.einsum("a,b,abc->c", np.asarray(x, float), np.asarray(y, float), self.gamma)

    def to_algebra_coords(self, frame_vec) -> np.ndarray:
        return np.asarray(frame_vec, float) @ self.onb

    def to_frame_coords(self, algebra_vec) -> np.ndarray:
        return self.onb @ self.algebra.gram @ np.asarray(algebra_vec, float)

    def invariant_residuals(self) -> dict[str, float]:
        torsion = float(np.abs(self.gamma - self.gamma.transpose(1, 0, 2) - self.frame_brackets).max())
        compat = float(np.abs(self.gamma + self.gamma.transpose(0, 2, 1)).max())
        return {"torsion_free": torsion, "metric_compatible": compat}

    @cached_property
    def _curvature(self) -> np.ndarray:
        """``curvature(table)``: computed once per table, one read-only array for every call."""
        gamma, f = self.gamma, self.frame_brackets
        term1 = np.einsum("bce,aed->abcd", gamma, gamma)
        term2 = np.einsum("ace,bed->abcd", gamma, gamma)
        term3 = np.einsum("abe,ecd->abcd", f, gamma)
        r = term1 - term2 - term3
        r.flags.writeable = False
        return r


def koszul(algebra: LieAlgebra, onb=None) -> ConnectionTable:
    """Connection table from the Koszul formula for left-invariant fields.

    2 <nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>, over ``onb``, an
    orthonormal frame of the whole algebra (by default the Cholesky one).
    """
    onb = _orthonormal_frame(algebra, onb)
    br = np.einsum("ai,bj,ijk->abk", onb, onb, algebra.structure_constants, optimize=True)
    f = np.einsum("abk,kl,cl->abc", br, algebra.gram, onb, optimize=True)
    # transpose(2,0,1)[a,b,c] = f[b,c,a] and transpose(1,2,0)[a,b,c] = f[c,a,b]
    gamma = 0.5 * (f - f.transpose(2, 0, 1) + f.transpose(1, 2, 0))
    gamma.flags.writeable = f.flags.writeable = False     # the table caches its curvature
    return ConnectionTable(algebra, onb, gamma, f)


def gl_connection_term(realization: MatrixRealization, x) -> np.ndarray:
    """nabla_X X for the metric induced by trace(A B^t): project [X, X^t] back.

    ``x`` is one coordinate vector or an (N, d) stack of them, with one row
    of the result per row.  Only valid when the algebra's gram equals the
    trace inner product of the realization matrices; anything else raises.
    """
    rep = realization.rep                                    # (d, n, n)
    gram_rep = np.einsum("ajk,bjk->ab", rep, rep)
    if float(np.abs(gram_rep - realization.algebra.gram).max()) > 1e-10:
        raise StructureError("algebra gram is not the trace inner product of the realization")
    m = np.einsum("...i,ijk->...jk", np.asarray(x, dtype=float), rep)
    mt = np.swapaxes(m, -1, -2)
    b = np.einsum("...jk,ajk->...a", m @ mt - mt @ m, rep)
    return np.linalg.solve(gram_rep, b[..., None])[..., 0]


def curvature(table: ConnectionTable) -> np.ndarray:
    """R[a,b,c,d] = <R(X_a, X_b) X_c, X_d> with R(X,Y)Z = [nabla_X, nabla_Y]Z - nabla_{[X,Y]}Z."""
    return table._curvature


def curvature_symmetry_residuals(r: np.ndarray) -> dict[str, float]:
    return {
        "antisymmetry_first_pair": float(np.abs(r + r.transpose(1, 0, 2, 3)).max()),
        "antisymmetry_second_pair": float(np.abs(r + r.transpose(0, 1, 3, 2)).max()),
        "pair_symmetry": float(np.abs(r - r.transpose(2, 3, 0, 1)).max()),
        "first_bianchi": float(np.abs(r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)).max()),
    }


def sectional(r: np.ndarray, x, y) -> float:
    """Sectional curvature of the plane span{x, y}, frame coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    num = float(np.einsum("abcd,a,b,c,d->", r, x, y, y, x))
    den = float((x @ x) * (y @ y) - (x @ y) ** 2)
    scale = float((x @ x) * (y @ y))
    if den <= 1e-12 * max(scale, 1e-300):
        raise ValueError("sectional curvature needs linearly independent vectors")
    return num / den


def random_planes(dim: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal 2-frames (x[k], y[k]) from Gaussian pairs, rejecting near-dependent draws.

    One (count, 2, d) draw, topped up from the same stream for rejected rows,
    so plane k is the k-th accepted pair of a one-pair-at-a-time draw; stacked
    matmul rows reproduce that draw's ``x @ y`` bit for bit.
    """
    if dim < 2:
        raise ValueError(f"random planes need dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    xs = ys = np.empty((0, dim))
    while len(xs) < count:
        x, y = rng.standard_normal((count - len(xs), 2, dim)).transpose(1, 0, 2)
        with np.errstate(divide="ignore", invalid="ignore"):   # rejected rows only
            nx = np.sqrt(_row_dots(x, x))
            x = x / nx[:, None]
            y_perp = y - _row_dots(x, y)[:, None] * x
            ny = np.sqrt(_row_dots(y_perp, y_perp))
            keep = (nx >= 1e-6) & (ny != 0.0) & ~(np.sqrt(_row_dots(y, y)) / ny > 1e6)
        xs = np.concatenate([xs, x[keep]])
        ys = np.concatenate([ys, y_perp[keep] / ny[keep, None]])
    return xs, ys


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for every row k."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def sectional_profile(algebra: LieAlgebra, n_planes: int = 500, seed: int = 0,
                      table: ConnectionTable | None = None) -> tuple[float, float, float]:
    """(min, max, mean) of sectional curvature over random planes: a description, not a verdict."""
    if table is None:
        table = koszul(algebra)
    d = algebra.dim
    x, y = random_planes(d, n_planes, seed)
    # R(x, y, y, x) for every plane: xy[p, (a, b)] = x_a y_b against R as a
    # (d^2, d^2) matrix, paired with y_c x_d, the transpose of xy's (a, b) block
    xy = (x[:, :, None] * y[:, None, :]).reshape(-1, d * d)
    rxy = (xy @ curvature(table).reshape(d * d, d * d)).reshape(-1, d, d)
    num = np.einsum("pcd,pdc->p", rxy, xy.reshape(-1, d, d))
    den = np.einsum("pa,pa->p", x, x) * np.einsum("pa,pa->p", y, y) \
        - np.einsum("pa,pa->p", x, y) ** 2
    values = num / den
    return float(np.min(values)), float(np.max(values)), float(np.mean(values))


def curvature_operator(r: np.ndarray) -> np.ndarray:
    """The curvature operator on bivectors, a symmetric C(d,2) x C(d,2) matrix.

    op[(a,b), (c,d)] = R[a,b,d,c] over pairs a < b and c < d, so the sectional
    curvature of an orthonormal pair (x, y) is w @ op @ w for w = x ^ y.  The
    curvature is constant K iff op = K I (Milnor, Adv. Math. 21, 1976), and
    the mean sectional curvature over all planes is tr op / C(d,2).
    """
    a, b = np.triu_indices(r.shape[0], 1)
    return r[a[:, None], b[:, None], b[None, :], a[None, :]]


def is_constant_curvature(algebra: LieAlgebra,
                          tol: float = DEFAULT_TOLERANCES["curvature_constant"],
                          table: ConnectionTable | None = None) -> tuple[bool, float, float]:
    """(verdict, mean sectional curvature, spread) of the exact curvature operator.

    The spread is lambda_max - lambda_min, zero iff the curvature is constant,
    and NaN for a non-finite operator; the verdict is ``Check``'s rule.  In
    dimension 3 the spectrum is the exact sectional range, above it a bound.
    """
    if algebra.dim < 2:
        raise ValueError(f"sectional curvature needs dim >= 2, got {algebra.dim}")
    if table is None:
        table = koszul(algebra)
    op = curvature_operator(curvature(table))
    mean = float(np.trace(op)) / len(op)
    spread = float(np.ptp(np.linalg.eigvalsh(op))) if np.isfinite(op).all() else np.nan
    return Check("constant_sectional_curvature", spread, tol).passed, mean, spread
