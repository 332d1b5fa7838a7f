"""Second fundamental forms of left-invariant splittings and the 3-d foliation scan."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .algebra import (LieAlgebra, Subspace, _bracket_span, _fix_signs, center, derived_series,
                      orthocomplement, orthonormalize, span)
from .checks import DEFAULT_TOLERANCES, Check
from .errors import StructureError
from .geometry import ConnectionTable, is_constant_curvature, koszul

CLASSIFY_TOL = DEFAULT_TOLERANCES["classify"]


@dataclass(frozen=True)
class DistributionSpec:
    """Orthogonal splitting vertical + horizontal of a left-invariant metric algebra."""

    algebra: LieAlgebra
    vertical: Subspace
    horizontal: Subspace = None
    foliation: InitVar[bool] = True

    def __post_init__(self, foliation):
        if self.horizontal is None:
            object.__setattr__(self, "horizontal", orthocomplement(self.algebra, self.vertical))
        g = self.algebra.gram
        block = self.vertical.basis @ g @ self.horizontal.basis.T
        if block.size and float(np.abs(block).max()) > 1e-12 * max(1.0, float(np.abs(g).max())):
            raise StructureError("vertical and horizontal subspaces are not orthogonal")
        if self.vertical.dim + self.horizontal.dim != self.algebra.dim:
            raise StructureError("splitting dimensions do not fill the algebra")
        if foliation and self.vertical.dim > 1:
            brackets = _bracket_span(self.algebra, self.vertical.basis, self.vertical.basis)
            if not self.vertical.contains_all(brackets, 1e-10):
                raise StructureError("vertical distribution is not involutive")


def _frame_coords(algebra: LieAlgebra, table: ConnectionTable, rows: np.ndarray) -> np.ndarray:
    return rows @ algebra.gram @ table.onb.T


def second_forms(dist: DistributionSpec, table: ConnectionTable | None = None):
    """(B_V, B_H): symmetrized, projected covariant derivatives of the splitting.

    B_V(U, W) = H(nabla_U W + nabla_W U) / 2 measures geodesity of the fibres,
    B_H(X, Y) = V(nabla_X Y + nabla_Y X) / 2 conformality of the horizontal
    spread.  Outputs are arrays of frame-coordinate vectors indexed by the
    orthonormalized vertical / horizontal bases.
    """
    alg = dist.algebra
    if table is None:
        table = koszul(alg)
    v_onb = _frame_coords(alg, table, orthonormalize(alg, dist.vertical).basis) \
        if dist.vertical.dim else np.zeros((0, alg.dim))
    h_onb = _frame_coords(alg, table, orthonormalize(alg, dist.horizontal).basis) \
        if dist.horizontal.dim else np.zeros((0, alg.dim))
    p_v = v_onb.T @ v_onb
    p_h = np.eye(alg.dim) - p_v

    def sym_nabla(rows, proj):
        nabla = np.einsum("ia,jb,abc->ijc", rows, rows, table.gamma)
        return 0.5 * (nabla + nabla.transpose(1, 0, 2)) @ proj.T

    return sym_nabla(v_onb, p_h), sym_nabla(h_onb, p_v)


@dataclass
class ClassifyResult:
    totally_geodesic: bool
    riemannian: bool
    conformal: bool
    conformal_vector: np.ndarray     # algebra coordinates
    residuals: dict

    def flags(self) -> dict:
        return {"totally_geodesic": self.totally_geodesic,
                "riemannian": self.riemannian,
                "conformal": self.conformal}


def classify(dist: DistributionSpec, table: ConnectionTable | None = None,
             tol: float = CLASSIFY_TOL) -> ClassifyResult:
    """Conformal / Riemannian / totally geodesic flags via the trace part of B_H."""
    alg = dist.algebra
    if table is None:
        table = koszul(alg)
    b_v, b_h = second_forms(dist, table)
    resid_tg = float(np.linalg.norm(b_v))
    kh = b_h.shape[0]
    if kh:
        mean_vec = np.einsum("iik->k", b_h) / kh
        deviation = b_h - np.einsum("ij,k->ijk", np.eye(kh), mean_vec)
        resid_conf = float(np.linalg.norm(deviation))
    else:
        mean_vec = np.zeros(alg.dim)
        resid_conf = 0.0
    v_norm = float(np.linalg.norm(mean_vec))
    conformal = resid_conf < tol
    return ClassifyResult(
        totally_geodesic=resid_tg < tol,
        riemannian=conformal and v_norm < tol,
        conformal=conformal,
        conformal_vector=table.to_algebra_coords(mean_vec),
        residuals={"totally_geodesic": resid_tg, "conformal": resid_conf,
                   "conformal_vector_norm": v_norm},
    )


# ---------------------------------------------------------------------------
# 3-dimensional scan
# ---------------------------------------------------------------------------

def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic, roughly uniform unit vectors on S^2."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    k = np.arange(count)
    z = 1.0 - 2.0 * (k + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(k * golden), r * np.sin(k * golden), z], axis=1)


def _tangent_pairs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal completion of each row of an (N, 3) stack of unit vectors.

    The completion starts from the coordinate axis of the first smallest
    component, projected off v.
    """
    pick = np.argmin(np.abs(v), axis=1)
    x = np.eye(3)[pick] - np.take_along_axis(v, pick[:, None], axis=1) * v
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x, np.cross(v, x)


def residuals(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Conformal-plus-geodesic defect of the line fields span{v_k}, frame coordinates.

    ``gamma`` is a 3-d connection table (``ConnectionTable.gamma``) and ``v``
    an (N, 3) stack of nonzero directions.  With P = I - v v^T and
    S_v = sym(Gamma . v), the symmetrized horizontal second fundamental form
    of span{v}, the defect is

        sqrt(|P nabla_v v|^2 + ||P S_v P - tr(P S_v P) P / 2||_F^2):

    the fibres' geodesic curvature and the trace-free part of B_H, which
    vanish together exactly for a conformal foliation by geodesics.  No
    tangent frame is built.
    """
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    geodesic = np.einsum("na,nb,abc->nc", v, v, gamma)
    geodesic -= np.einsum("nc,nc->n", geodesic, v)[:, None] * v
    m = np.einsum("abc,nc->nab", gamma, v)
    p = np.eye(3) - v[:, :, None] * v[:, None, :]
    psp = p @ (0.5 * (m + m.transpose(0, 2, 1))) @ p
    free = psp - 0.5 * np.trace(psp, axis1=1, axis2=2)[:, None, None] * p
    return np.sqrt(np.einsum("nc,nc->n", geodesic, geodesic)
                   + np.einsum("nab,nab->n", free, free))


_DIAG = 1.0 / math.sqrt(2.0)
# pattern-search offsets (a, b) along the tangent pair (x, y), in trial order
_OFFSETS = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                     (_DIAG, _DIAG), (_DIAG, -_DIAG), (-_DIAG, _DIAG), (-_DIAG, -_DIAG)])


def _polish(gamma: np.ndarray, starts: np.ndarray, rounds: int = 3):
    """Pattern search on the sphere from every start at once, in lockstep.

    Each start moves to its first improving offset of step ``step`` along its
    tangent pair, or halves its own step when none improves; a round ends
    when the step falls to 1e-13, and a start leaves after a round once its
    residual is below 1e-13.  Every start follows the path it would follow
    alone.  Returns the polished directions, their residuals and the number
    of residual evaluations.
    """
    v = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    best = residuals(gamma, v)
    evaluations = len(v)
    step = np.full(len(v), 0.25)
    rounds_left = np.full(len(v), rounds)
    active = np.ones(len(v), dtype=bool)
    while active.any():
        idx = np.flatnonzero(active)
        x, y = _tangent_pairs(v[idx])
        cand = v[idx, None] + step[idx, None, None] * (
            _OFFSETS[:, 0, None] * x[:, None] + _OFFSETS[:, 1, None] * y[:, None])
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        r = residuals(gamma, cand.reshape(-1, 3)).reshape(len(idx), len(_OFFSETS))
        evaluations += r.size
        improving = r < best[idx, None]
        moved = improving.any(axis=1)
        first = improving.argmax(axis=1)[moved]
        v[idx[moved]] = cand[moved, first]
        best[idx[moved]] = r[moved, first]
        step[idx[~moved]] *= 0.5
        ended = idx[~(step[idx] > 1e-13)]
        rounds_left[ended] -= 1
        done = ended[(rounds_left[ended] == 0) | (best[ended] < 1e-13)]
        active[done] = False
        step[ended] = 0.25
    return v, best, evaluations


@dataclass
class ScanHit:
    vector: np.ndarray          # algebra coordinates, unit for the gram metric
    residual: float
    flags: dict
    alpha: float
    beta: float
    adjoint_residual: float     # distance of ad_V|_H from alpha I + beta J
    constant_curvature: bool
    curvature_value: float
    curvature_spread: float


@dataclass
class ScanResult:
    hits: list
    min_residual: float
    grid: int
    evaluations: int            # residual evaluations, coarse grid plus polish
    note: str = "numeric scan over left-invariant line fields; not a proof"


def scan_3d(algebra: LieAlgebra, grid: int = 200, hit_tol: float = CLASSIFY_TOL,
            refine_starts: int = 16,
            curvature_tol: float = DEFAULT_TOLERANCES["curvature_constant"]) -> ScanResult:
    """Scan unit vertical directions for conformal foliations by geodesics.

    Coarse residuals come from a Fibonacci sphere grid; the most promising
    well-separated candidates are polished together by a deterministic
    pattern search, and ``ScanResult.evaluations`` counts the residuals
    evaluated in both stages.
    Hits are merged within 1e-3 radians (antipodes identified: a line field
    does not see the sign) and reported with the recovered rotation-scaling
    data (alpha, beta) of ad_V on the horizontal plane plus the algebra's
    exact constant-curvature verdict, computed once per scan.  ``hit_tol`` is
    also the tolerance of each hit's classify flags, and ``curvature_tol``
    that of the constant-curvature verdict.
    """
    if algebra.dim != 3:
        raise ValueError("scan_3d requires a 3-dimensional algebra")
    table = koszul(algebra)
    candidates = fibonacci_sphere(grid)
    coarse = residuals(table.gamma, candidates)
    min_residual = float(coarse.min())

    # best-first starts for refinement, kept at least 0.3 rad apart
    # (antipodes identified: a line field does not see the sign of V)
    order = np.argsort(coarse, kind="stable")
    starts = []
    for idx in order:
        v = candidates[idx]
        if all(abs(float(v @ s)) < math.cos(0.3) for s in starts):
            starts.append(v)
        if len(starts) >= refine_starts:
            break

    polished, polished_resid, evaluations = _polish(table.gamma, np.array(starts))
    min_residual = min(min_residual, float(polished_resid.min()))

    curvature_verdict = is_constant_curvature(algebra, curvature_tol, table)
    hits = []
    kept_frames = []
    merge_cos = math.cos(1e-3)
    for v, resid in zip(polished, polished_resid.tolist()):
        if resid >= hit_tol:
            continue
        if any(min(1.0, abs(float(v @ k))) > merge_cos for k in kept_frames):
            continue
        v = _fix_signs(v[None] / np.linalg.norm(v))[0]     # first significant component > 0
        kept_frames.append(v)
        v_alg, _, _, alpha, beta, adj_resid = _rotation_scaling(algebra, table, v)
        flags = classify(DistributionSpec(algebra, span([v_alg], algebra.dim)), table,
                         hit_tol).flags()
        hits.append(ScanHit(v_alg, resid, flags, alpha, beta, adj_resid, *curvature_verdict))
    return ScanResult(hits, min_residual, grid, grid + evaluations)


def _rotation_scaling(algebra, table, v_frame):
    """ad_V on the horizontal plane of a unit frame vector, read as alpha I + beta J.

    Returns (v, x, y, alpha, beta, residual): v and its tangent pair (x, y)
    in algebra coordinates, the recovered data with beta >= 0 (the sign of y
    is free), and the max distance of the 2x2 block <[V, X_i], X_j> from
    [[alpha, beta], [-beta, alpha]].
    """
    x, y = (u[0] for u in _tangent_pairs(v_frame[None]))
    v_alg, x_alg, y_alg = (table.to_algebra_coords(u) for u in (v_frame, x, y))
    h = np.stack([x_alg, y_alg])
    s = h @ algebra.ad(v_alg).T @ algebra.gram @ h.T     # s[i, j] = <[V, X_i], X_j>
    if 0.5 * (s[0, 1] - s[1, 0]) < 0:
        # flip the second horizontal vector so the recovered rotation part is >= 0
        s[0, 1], s[1, 0] = -s[0, 1], -s[1, 0]
    alpha = 0.5 * (s[0, 0] + s[1, 1])
    beta = 0.5 * (s[0, 1] - s[1, 0])
    adj_resid = float(np.abs(s - np.array([[alpha, beta], [-beta, alpha]])).max())
    return v_alg, x_alg, y_alg, float(alpha), float(beta), adj_resid


@dataclass
class CurvatureCertificate:
    """Verdict tying a conformal foliation by geodesics to constant curvature."""

    alpha: float
    beta: float
    curvature_value: float
    checks: tuple           # of Check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def constant_curvature_certificate(algebra: LieAlgebra, v,
                                   classify_tol: float = CLASSIFY_TOL,
                                   curvature_tol: float = DEFAULT_TOLERANCES["curvature_constant"],
                                   ) -> CurvatureCertificate:
    """Certify: a centerless solvable 3-d algebra carrying a conformal-geodesic
    line field has constant sectional curvature -alpha^2.

    Hypothesis failures (dimension, center, solvability, the classify flags)
    raise with the offending hypothesis named; the returned certificate holds
    the numeric checks for the conclusion.  ``classify_tol`` is the tolerance
    of the classify flags and of ``horizontal_vectors_commute``;
    ``curvature_tol`` that of the two curvature checks.
    """
    failures = []
    if algebra.dim != 3:
        failures.append("not 3-dimensional")
    else:
        series = derived_series(algebra)
        if center(algebra).dim != 0:
            failures.append("not centerless")
        if series[-1].dim != 0:
            failures.append("not solvable")
    if failures:
        raise StructureError("hypotheses failed: " + ", ".join(failures))
    v = np.asarray(v, dtype=float)
    table = koszul(algebra)
    dist = DistributionSpec(algebra, span([v], algebra.dim))
    result = classify(dist, table, classify_tol)
    if not (result.conformal and result.totally_geodesic):
        raise StructureError(
            "hypotheses failed: direction is not a conformal foliation by geodesics "
            f"(residuals {result.residuals})")

    v_frame = table.to_frame_coords(v)
    v_frame = _fix_signs(v_frame[None] / np.linalg.norm(v_frame))[0]     # a line has no sign
    _, x_alg, y_alg, alpha, beta, _ = _rotation_scaling(algebra, table, v_frame)
    comm = algebra.ad(x_alg) @ y_alg
    derived = series[1]
    horiz = span([x_alg, y_alg], algebra.dim)
    contained = horiz.contains_all(derived, 1e-8) and derived.contains_all(horiz, 1e-8)
    _, value, spread = is_constant_curvature(algebra, curvature_tol, table)
    checks = (
        Check("horizontal_vectors_commute", float(np.abs(comm).max()), classify_tol),
        Check("horizontal_plane_is_derived_algebra", 0.0 if contained else 1.0, 0.0),
        Check("constant_sectional_curvature", spread, curvature_tol),
        Check("curvature_equals_minus_alpha_sq", abs(value + alpha * alpha), curvature_tol),
    )
    return CurvatureCertificate(alpha, beta, value, checks)
