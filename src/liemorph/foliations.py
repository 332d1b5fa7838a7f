"""Second fundamental forms of left-invariant splittings and the 3-d foliation scan."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .algebra import (LieAlgebra, Subspace, center, derived_series, is_solvable,
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
            for i, x in enumerate(self.vertical.basis):
                for y in self.vertical.basis[i + 1:]:
                    if not self.vertical.contains(self.algebra.bracket(x, y), 1e-10):
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
        k = rows.shape[0]
        out = np.zeros((k, k, alg.dim))
        for i in range(k):
            for j in range(i, k):
                s = 0.5 * (table.nabla(rows[i], rows[j]) + table.nabla(rows[j], rows[i]))
                out[i, j] = out[j, i] = proj @ s
        return out

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
    pts = np.zeros((count, 3))
    for k in range(count):
        z = 1.0 - 2.0 * (k + 0.5) / count
        r = math.sqrt(max(0.0, 1.0 - z * z))
        pts[k] = (r * math.cos(k * golden), r * math.sin(k * golden), z)
    return pts


def _tangent_pair(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal completion of a unit 3-vector."""
    pick = 0 if abs(v[0]) <= min(abs(v[1]), abs(v[2])) else (1 if abs(v[1]) <= abs(v[2]) else 2)
    e = np.zeros(3)
    e[pick] = 1.0
    x = e - (e @ v) * v
    x /= np.linalg.norm(x)
    y = np.cross(v, x)
    return x, y


def _cg_residual(table: ConnectionTable, v_frame: np.ndarray) -> float:
    """Conformal-plus-geodesic defect of the line field span{v} (frame coords)."""
    v = v_frame / np.linalg.norm(v_frame)
    x, y = _tangent_pair(v)
    b_v = table.nabla(v, v)
    b_v = b_v - (b_v @ v) * v
    def sym(a, b):
        s = 0.5 * (table.nabla(a, b) + table.nabla(b, a))
        return (s @ v)
    bxx, byy, bxy = sym(x, x), sym(y, y), sym(x, y)
    mean = 0.5 * (bxx + byy)
    return math.sqrt(float(b_v @ b_v) + (bxx - mean) ** 2 + (byy - mean) ** 2 + 2.0 * bxy ** 2)


def _refine(table: ConnectionTable, v0: np.ndarray, rounds: int = 3) -> tuple[np.ndarray, float]:
    """Pattern search on the sphere: 8 tangent directions, halving steps."""
    v = v0 / np.linalg.norm(v0)
    best = _cg_residual(table, v)
    diag = 1.0 / math.sqrt(2.0)
    offsets = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
               (diag, diag), (diag, -diag), (-diag, diag), (-diag, -diag)]
    for _ in range(rounds):
        step = 0.25
        while step > 1e-13:
            x, y = _tangent_pair(v)
            improved = False
            for a, b in offsets:
                cand = v + step * (a * x + b * y)
                cand /= np.linalg.norm(cand)
                r = _cg_residual(table, cand)
                if r < best:
                    v, best = cand, r
                    improved = True
                    break
            if not improved:
                step *= 0.5
        if best < 1e-13:
            break
    return v, best


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
    note: str = "numeric scan over left-invariant line fields; not a proof"


def scan_3d(algebra: LieAlgebra, grid: int = 200, hit_tol: float = CLASSIFY_TOL,
            refine_starts: int = 16, curvature_planes: int = 500,
            curvature_seed: int = 0,
            curvature_tol: float = DEFAULT_TOLERANCES["curvature_constant"]) -> ScanResult:
    """Scan unit vertical directions for conformal foliations by geodesics.

    Coarse residuals come from a Fibonacci sphere grid; the most promising
    well-separated candidates are polished by a deterministic pattern search.
    Hits are merged within 1e-3 radians (antipodes identified: a line field
    does not see the sign) and reported with the recovered rotation-scaling
    data (alpha, beta) of ad_V on the horizontal plane plus the constant-
    curvature verdict.  ``hit_tol`` is also the tolerance of each hit's
    classify flags, and ``curvature_tol`` that of its constant-curvature
    verdict.
    """
    if algebra.dim != 3:
        raise ValueError("scan_3d requires a 3-dimensional algebra")
    table = koszul(algebra)
    candidates = fibonacci_sphere(grid)
    coarse = np.array([_cg_residual(table, v) for v in candidates])
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

    refined = []
    for v0 in starts:
        v, resid = _refine(table, v0)
        min_residual = min(min_residual, resid)
        refined.append((v, resid))

    hits = []
    kept_frames = []
    merge_cos = math.cos(1e-3)
    for v, resid in refined:
        if resid >= hit_tol:
            continue
        if any(min(1.0, abs(float(v @ k))) > merge_cos for k in kept_frames):
            continue
        frame_vec, hit = _describe_hit(algebra, table, v, resid, curvature_planes,
                                       curvature_seed, curvature_tol, hit_tol)
        kept_frames.append(frame_vec)
        hits.append(hit)
    return ScanResult(hits, min_residual, grid)


def _describe_hit(algebra, table, v_frame, resid, planes, seed, curvature_tol, classify_tol):
    v_frame = v_frame / np.linalg.norm(v_frame)
    # canonical sign: first significant frame component positive
    nz = np.nonzero(np.abs(v_frame) > 1e-9)[0]
    if nz.size and v_frame[nz[0]] < 0:
        v_frame = -v_frame
    x, y = _tangent_pair(v_frame)
    g = algebra.gram
    v_alg = table.to_algebra_coords(v_frame)
    x_alg = table.to_algebra_coords(x)
    y_alg = table.to_algebra_coords(y)
    s = np.array([[algebra.bracket(v_alg, x_alg) @ g @ x_alg,
                   algebra.bracket(v_alg, x_alg) @ g @ y_alg],
                  [algebra.bracket(v_alg, y_alg) @ g @ x_alg,
                   algebra.bracket(v_alg, y_alg) @ g @ y_alg]])
    if 0.5 * (s[0, 1] - s[1, 0]) < 0:
        # flip the second horizontal vector so the recovered rotation part is >= 0
        s[0, 1], s[1, 0] = -s[0, 1], -s[1, 0]
    alpha = 0.5 * (s[0, 0] + s[1, 1])
    beta = 0.5 * (s[0, 1] - s[1, 0])
    adj_resid = float(np.abs(s - np.array([[alpha, beta], [-beta, alpha]])).max())
    constant, value, spread = is_constant_curvature(algebra, planes, seed, curvature_tol,
                                                    table=table)
    dist = DistributionSpec(algebra, span([v_alg], algebra.dim))
    flags = classify(dist, table, classify_tol).flags()
    hit = ScanHit(v_alg, resid, flags, float(alpha), float(beta), adj_resid,
                  constant, value, spread)
    return v_frame, hit


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
                                   curvature_planes: int = 500,
                                   curvature_seed: int = 0,
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
        if center(algebra).dim != 0:
            failures.append("not centerless")
        if not is_solvable(algebra):
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
    v_frame /= np.linalg.norm(v_frame)
    x, y = _tangent_pair(v_frame)
    x_alg, y_alg = table.to_algebra_coords(x), table.to_algebra_coords(y)
    v_alg = table.to_algebra_coords(v_frame)
    g = algebra.gram
    alpha = 0.5 * (algebra.bracket(v_alg, x_alg) @ g @ x_alg
                   + algebra.bracket(v_alg, y_alg) @ g @ y_alg)
    beta = 0.5 * (algebra.bracket(v_alg, x_alg) @ g @ y_alg
                  - algebra.bracket(v_alg, y_alg) @ g @ x_alg)
    if beta < 0:
        beta = -beta

    comm = algebra.bracket(x_alg, y_alg)
    derived = derived_series(algebra)[1]
    horiz = span([x_alg, y_alg], algebra.dim)
    contained = horiz.contains_all(derived, 1e-8) and derived.contains_all(horiz, 1e-8)
    constant, value, spread = is_constant_curvature(algebra, curvature_planes,
                                                    curvature_seed, table=table)
    checks = (
        Check("horizontal_vectors_commute", float(np.abs(comm).max()), classify_tol),
        Check("horizontal_plane_is_derived_algebra", 0.0 if contained else 1.0, 0.0),
        Check("constant_sectional_curvature", spread, curvature_tol),
        Check("curvature_equals_minus_alpha_sq", abs(value + alpha * alpha), curvature_tol),
    )
    return CurvatureCertificate(float(alpha), float(beta), value, checks)
