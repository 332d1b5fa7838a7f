"""Second fundamental forms of left-invariant splittings and the 3-d foliation scan."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (LieAlgebra, Subspace, _bracket_span, _fix_signs, center, derived_series,
                      orthocomplement, orthonormalize)
from .checks import DEFAULT_TOLERANCES, Check
from .errors import StructureError
from .geometry import ConnectionTable, curvature, is_constant_curvature, koszul

CLASSIFY_TOL = DEFAULT_TOLERANCES["classify"]


@dataclass(frozen=True)
class DistributionSpec:
    """Splitting vertical + orthocomplement(vertical) of a metric algebra, vertical involutive."""

    algebra: LieAlgebra
    vertical: Subspace
    horizontal: Subspace = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "horizontal", orthocomplement(self.algebra, self.vertical))
        if self.vertical.dim + self.horizontal.dim != self.algebra.dim:
            raise StructureError("splitting dimensions do not fill the algebra")
        if self.vertical.dim > 1:
            brackets = _bracket_span(self.algebra, self.vertical.basis, self.vertical.basis)
            if not self.vertical.contains_all(brackets, 1e-10):
                raise StructureError("vertical distribution is not involutive")


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
    # the orthonormalized bases in frame coordinates; an empty one gives (0, d)
    v_onb, h_onb = (orthonormalize(alg, sub).basis @ alg.gram @ table.onb.T
                    for sub in (dist.vertical, dist.horizontal))
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
    conformal = Check("conformal", resid_conf, tol).passed
    return ClassifyResult(
        totally_geodesic=Check("totally_geodesic", resid_tg, tol).passed,
        riemannian=conformal and Check("conformal_vector_norm", v_norm, tol).passed,
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


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """v over its norm along the last axis: the bits of ``np.linalg.norm``, without its wrapper."""
    return v / np.sqrt((v * v).sum(axis=-1))[..., None]


_EYE3 = np.eye(3)
# (v x x)_i = v_{i+1} x_{i+2} - v_{i+2} x_{i+1}, indices mod 3
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def _tangent_pairs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal completion of each row of an (N, 3) stack of unit vectors.

    The completion starts from the coordinate axis of the first smallest
    component, projected off v; the second vector is v x x.
    """
    pick = np.abs(v).argmin(axis=1)
    x = _unit_rows(_EYE3[pick] - v[np.arange(len(v)), pick][:, None] * v)
    return x, v[:, _NEXT] * x[:, _AFTER] - v[:, _AFTER] * x[:, _NEXT]


def _residual_kernel(gamma: np.ndarray):
    """The components of ``residuals``' defect for one connection table, as a function of an
    (N, 3) stack: the geodesic vectors (N, 3) and the trace-free matrices (N, 9).

    The rows must be unit vectors; callers normalise each row once.  The
    components are polynomials in the row, so a complex row v + i h x gives
    their derivative along x in the imaginary part (see ``_jacobian``).
    Coefficients are precomputed once: with S_v = sym(Gamma . v), one
    (N, 9) @ (9, 6) product of v (x) v gives g = Gamma(v, v) and S_v v, and
    one (N, 3) @ (3, 10) product gives S_v and, in its last column, tr S_v.
    For unit v, q = g . v = v^T S_v v, P S_v P = S_v - v (S_v v)^T - (S_v v) v^T
    + q v v^T and tr(P S_v P) = tr S_v - q.  The geodesic vector and the
    trace-free matrix stay explicit: |P S_v P|^2 - tr^2 / 2 would cancel
    near a hit.
    """
    sym = 0.5 * (gamma + gamma.transpose(1, 0, 2))          # S_v[a, b] = sym[a, b, c] v_c
    quad = np.concatenate([gamma.reshape(9, 3), sym.transpose(1, 2, 0).reshape(9, 3)], axis=1)
    lin = np.concatenate([sym.transpose(2, 0, 1).reshape(3, 9),
                          np.einsum("aac->c", sym)[:, None]], axis=1)
    eye = _EYE3.reshape(9)

    def kernel(v: np.ndarray) -> np.ndarray:
        vv = (v[:, :, None] * v[:, None, :]).reshape(-1, 9)
        gs = vv @ quad
        g, sv = gs[:, :3], gs[:, 3:]
        q = np.einsum("nc,nc->n", g, v)
        geodesic = g - q[:, None] * v
        s = v @ lin
        half_t = 0.5 * (s[:, 9] - q)
        w = v[:, :, None] * sv[:, None, :]
        free = (s[:, :9] - (w + w.transpose(0, 2, 1)).reshape(-1, 9)
                + (q + half_t)[:, None] * vv - half_t[:, None] * eye)
        return geodesic, free

    return kernel


def _defect(geodesic: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The residual of each row from its ``_residual_kernel`` components."""
    return np.sqrt(np.einsum("nc,nc->n", geodesic, geodesic) + np.einsum("nc,nc->n", free, free))


def residuals(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Conformal-plus-geodesic defect of the line fields span{v_k}, frame coordinates.

    ``gamma`` is a 3-d connection table (``ConnectionTable.gamma``) and ``v``
    an (N, 3) stack of nonzero directions.  With P = I - v v^T and
    S_v = sym(Gamma . v), the symmetrized horizontal second fundamental form
    of span{v}, the defect is

        sqrt(|P nabla_v v|^2 + ||P S_v P - tr(P S_v P) P / 2||_F^2):

    the fibres' geodesic curvature and the trace-free part of B_H, which
    vanish together exactly for a conformal foliation by geodesics.  No
    tangent frame is built; see ``_residual_kernel``.
    """
    return _defect(*_residual_kernel(gamma)(_unit_rows(v)))


# Levenberg-Marquardt constants of ``_polish``: the complex step of the Jacobian; the damping
# relative to tr J^T J, which starts at its floor, moves by its factor per step and ends a
# start past its cap; and the step length, in radians, below which a start has converged
_COMPLEX_STEP = 2.0 ** -64
_DAMPING_FLOOR, _DAMPING_FACTOR, _DAMPING_CAP = 1e-6, 100.0, 1e4
_STEP_FLOOR = 4.0 * np.finfo(float).eps


def _jacobian(kernel, v: np.ndarray):
    """The tangent pair (x, y) of each unit row of v and the derivatives, each (N, 12), of its
    ``kernel`` components along x and along y: Im F(v + i h x) / h, exact for a polynomial F."""
    x, y = _tangent_pairs(v)
    step = np.concatenate([v, v]) + 1j * _COMPLEX_STEP * np.concatenate([x, y])
    columns = np.concatenate(kernel(step), axis=1).imag / _COMPLEX_STEP
    return x, y, columns[:len(v)], columns[len(v):]


def _polish(gamma: np.ndarray, starts: np.ndarray):
    """Damped Gauss-Newton (Levenberg-Marquardt) on the sphere from every start at once.

    The residual is the norm of the 12 ``_residual_kernel`` components F(v).
    Each step takes the tangent pair (x, y) of v, the exact 12 x 2 Jacobian J
    of F along x and y (``_jacobian``: a complex step through the kernel's own
    polynomial formula), and solves the damped normal equations
    (J^T J + mu tr(J^T J) I) (a, b) = -J^T F.  The candidate unit(v + a x + b y)
    is taken only when the kernel scores it strictly lower; then mu shrinks
    by ``_DAMPING_FACTOR``, down to ``_DAMPING_FLOOR`` where it starts, and J
    is formed again at the new v; else mu grows by that factor.  A start
    leaves when its step is at most ``_STEP_FLOOR`` radians (or not finite:
    J = 0, a NaN start), so that no later step could move v, or when a
    rejected step takes mu past ``_DAMPING_CAP``.  No rule reads the
    residual's level, so a metric scaled by 4^k takes the same steps and ends
    with residuals scaled by 2^-k.  All starts run in lockstep, and every
    start follows the path it would follow alone.  Returns the polished
    directions, their residuals and the number of residual evaluations (a
    Jacobian counts two).
    """
    kernel = _residual_kernel(gamma)

    def score(v):
        geodesic, free = kernel(v)
        return np.concatenate([geodesic, free], axis=1), _defect(geodesic, free)

    polished = _unit_rows(starts)
    comps, polished_best = score(polished)
    evaluations = len(polished)
    # the active starts, compacted: their rows of ``polished`` and their state
    rows = np.arange(len(polished))
    v, best = polished.copy(), polished_best.copy()
    mu = np.full(len(v), _DAMPING_FLOOR)
    x, y, jx, jy = _jacobian(kernel, v)
    evaluations += 2 * len(v)
    while len(rows):
        axx, axy, ayy = (np.einsum("nc,nc->n", p, q) for p, q in ((jx, jx), (jx, jy), (jy, jy)))
        gx, gy = np.einsum("nc,nc->n", jx, comps), np.einsum("nc,nc->n", jy, comps)
        damping = mu * (axx + ayy)
        pxx, pyy = axx + damping, ayy + damping
        with np.errstate(divide="ignore", invalid="ignore"):       # J = 0: no step
            det = pxx * pyy - axy * axy
            a, b = (axy * gy - pyy * gx) / det, (axy * gx - pxx * gy) / det
        length = np.sqrt(a * a + b * b)
        moving = (length > _STEP_FLOOR) & (length < np.inf)
        cand = _unit_rows(v[moving] + a[moving, None] * x[moving] + b[moving, None] * y[moving])
        cand_comps, r = score(cand)
        evaluations += len(cand)
        taken = r < best[moving]
        better = np.zeros(len(v), dtype=bool)
        better[moving] = taken
        v[better], best[better], comps[better] = cand[taken], r[taken], cand_comps[taken]
        mu[better] = np.maximum(mu[better] / _DAMPING_FACTOR, _DAMPING_FLOOR)
        mu[moving & ~better] *= _DAMPING_FACTOR
        done = ~moving | (mu > _DAMPING_CAP)
        if better.any():
            x[better], y[better], jx[better], jy[better] = _jacobian(kernel, v[better])
            evaluations += 2 * int(better.sum())
        if done.any():
            polished[rows[done]], polished_best[rows[done]] = v[done], best[done]
            keep = ~done
            rows, v, best, mu, comps, x, y, jx, jy = (
                arr[keep] for arr in (rows, v, best, mu, comps, x, y, jx, jy))
    return polished, polished_best, evaluations


@dataclass
class ScanHit:
    vector: np.ndarray          # algebra coordinates, unit for the gram metric
    residual: float
    flags: dict
    alpha: float
    beta: float
    constant_curvature: bool
    curvature_value: float
    curvature_spread: float
    certificate: CurvatureCertificate | None = None     # on centerless solvable algebras only


SCAN_NOTE = "numeric scan over left-invariant line fields; not a proof"
RICCI_NOTE = ("Ricci certificate: Ric has {case}, where Ric restricted to the orthogonal plane "
              "is a multiple of the metric; each residual exceeds the hit tolerance by more than "
              "its rounding bound, so no conformal foliation by geodesics exists on any open set, "
              "invariant or not, and no non-constant complex-valued harmonic morphism on one; "
              "this decides this metric, not a parameter range")


@dataclass
class ScanResult:
    hits: list
    min_residual: float
    evaluations: int            # residuals actually evaluated: grid plus polish, or candidates
    note: str = SCAN_NOTE
    certified: bool = False     # the Ricci certificate decided it: a proof that there is no hit


# the Ricci certificate's stated constants; see ``_ricci_directions``
_RICCI_ROUNDING = 256.0     # b = 256 (eps sigma + smallest subnormal) bounds |computed - exact Ric|
_GAP_BAND = 16.0            # a gap <= b is zero, one >= 16 b decides, one between falls back
_LIPSCHITZ = 16.0           # |r(u) - r(w)| <= 16 |Gamma|_F |u - w| for unit u, w


def scan_3d(algebra: LieAlgebra, grid: int = 200, hit_tol: float = CLASSIFY_TOL,
            refine_starts: int = 16,
            curvature_tol: float = DEFAULT_TOLERANCES["curvature_constant"]) -> ScanResult:
    """Decide the conformal foliations by geodesics of a 3-d metric algebra.

    The Ricci certificate comes first, on every table: a unit field U
    tangent to a conformal foliation by geodesics, on any open set, satisfies
    the Riccati equation nabla_U A + A^2 = -R_U with A = theta I + omega J, so
    the trace-free part of Ric restricted to U^perp vanishes (Baird & Wood,
    *Harmonic Morphisms Between Riemannian Manifolds*, OUP 2003).  Ric is
    left-invariant, so on a metric that is not Einstein U takes values in the
    at most two admissible directions of ``_ricci_directions`` and, being
    continuous, is one of those left-invariant fields.  When each candidate's
    residual exceeds ``hit_tol`` by more than its stated error bound, there is
    no such foliation on any open set, invariant or not, and so no
    non-constant complex-valued harmonic morphism on one (its fibres form such
    a foliation where it submerses, a dense open set): the scan returns a
    ``certified`` result with no hit, the smallest candidate residual and one
    evaluation per candidate.

    ``grid`` and ``refine_starts`` must be integers of at least 1 (a
    ``bool`` is not one); either is checked before the path is chosen.

    The certificate's own bounds send every other case to the sampled search
    of ``_scan``: a non-finite table, both Ricci gaps within their rounding
    bound (Einstein, which in dimension 3 is constant curvature), a gap
    between that bound and the decision band, and a candidate at, below or
    near ``hit_tol``.  Hits therefore always come from ``_scan``, and
    ``curvature_tol`` reaches only their curvature verdict: no tolerance
    chooses the path.
    """
    if algebra.dim != 3:
        raise ValueError("scan_3d requires a 3-dimensional algebra")
    for name, value in (("grid", grid), ("refine_starts", refine_starts)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"scan_3d: {name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"scan_3d: {name} must be at least 1, got {value!r}")
    table = koszul(algebra)
    decided = _ricci_certificate(table, hit_tol)
    if decided is not None:
        return decided
    return _scan(table, grid, hit_tol, refine_starts, curvature_tol)


def _ricci_directions(table: ConnectionTable):
    """The admissible directions of a non-Einstein table and their direction error, or None.

    C = {u : Ric|u^perp is a multiple of the metric}.  With the eigenvalues
    rho_1 <= rho_2 <= rho_3 of Ric, eigenvectors q_i and gaps g_12, g_23,
    g_13 = g_12 + g_23 > 0, C is the lines of

        u = sqrt(g_12 / g_13) q_1 +- sqrt(g_23 / g_13) q_3

    (the normals of the circular sections of the Ricci quadric): one line
    when a gap is zero, the simple eigenvector.

    Rounding.  Each entry of Ric = sum_a R[a, b, c, a] is a sum of 27
    products of table entries, formed in at most 8 roundings, and the sum of
    their absolute values is at most sigma = 3 |Gamma|_F^2 + |f|_F |Gamma|_F
    (Cauchy-Schwarz over a and e, with a factor sqrt(3) in the term whose
    first factor does not depend on a), so the symmetrized Ric is within
    24 eps sigma of the table's exact Ricci tensor in norm.  Allowing
    64 eps |Ric| <= 192 eps sigma for ``eigh``'s backward error, the computed
    (rho_i, q_i) are exact for a symmetric matrix within
    b = 256 (eps sigma + smallest subnormal) of it.
    sigma bounds |Ric| but not conversely: Ric's entries may cancel, so b does
    not scale with max |rho|.  So every exact gap is within 2b of its computed
    value (Weyl).  A gap <= b counts as zero and one >= 16 b as decided; in
    between, or with both gaps zero (Einstein to rounding), this returns None.

    Direction error.  Davis-Kahan bounds the angle of q_i by b / (g_i - b)
    <= (16/15) b / g_i, with g_i its gap (g_12 for q_1, g_23 for q_3), so
    |q_i - q_i*| <= 1.51 b / g_i; a weight w = sqrt(g / g_13) moves by at
    most sqrt(9.6 b / g_13) as each gap moves by <= 3b (zeroing included)
    and g_13 >= 16 b.  Each candidate is therefore within

        delta = 1.6 b sum_g 1 / sqrt(g g_13) + 7 sqrt(b / g_13)

    of an exact one, the sum over the nonzero gaps.  The table itself is
    taken as exact, as the scan takes it.
    """
    gamma, f = table.gamma, table.frame_brackets
    if not (np.isfinite(gamma).all() and np.isfinite(f).all()):
        return None
    g_norm = float(np.linalg.norm(gamma))
    sigma = 3.0 * g_norm * g_norm + float(np.linalg.norm(f)) * g_norm
    finfo = np.finfo(float)
    b = _RICCI_ROUNDING * (finfo.eps * sigma + finfo.smallest_subnormal)
    ric = np.einsum("abca->bc", curvature(table))
    if not (math.isfinite(b) and np.isfinite(ric).all()):
        return None
    rho, q = np.linalg.eigh(0.5 * (ric + ric.T))
    gaps = np.diff(rho)                                     # g_12, g_23
    zero = gaps <= b
    if zero.all() or ((~zero) & (gaps < _GAP_BAND * b)).any():
        return None
    gaps[zero] = 0.0
    g13 = float(gaps.sum())
    w1, w3 = np.sqrt(gaps / g13)
    directions = np.array([w1 * q[:, 0] + w3 * q[:, 2], w1 * q[:, 0] - w3 * q[:, 2]])
    if zero.any():
        directions = directions[:1]
    delta = (1.6 * b * float(np.sum(1.0 / np.sqrt(gaps[~zero] * g13)))
             + 7.0 * math.sqrt(b / g13))
    return directions, delta


def _ricci_certificate(table: ConnectionTable, hit_tol: float) -> ScanResult | None:
    """The no-hit result the Ricci condition decides, or None when it decides nothing.

    Each candidate's residual is held against ``hit_tol`` plus its error
    bound L delta, with ``delta`` from ``_ricci_directions`` and the residual's
    Lipschitz bound L = 16 |Gamma|_F in the direction: along a great circle
    the geodesic part moves by at most 3 |Gamma|_F and the trace-free part by
    at most 8 |Gamma|_F per radian, and an arc is at most pi/2 times its
    chord.  The kernel's own rounding, tens of eps |Gamma|_F, lies far inside
    L delta, which is at least about 1e-5 |Gamma|_F.
    """
    found = _ricci_directions(table)
    if found is None:
        return None
    directions, delta = found
    candidate = residuals(table.gamma, directions)
    bound = _LIPSCHITZ * float(np.linalg.norm(table.gamma)) * delta
    if not all(r - bound > hit_tol for r in candidate.tolist()):     # a NaN decides nothing
        return None
    case = ("one repeated eigenvalue and so one admissible direction" if len(directions) == 1
            else "three distinct eigenvalues and so two admissible directions")
    return ScanResult([], float(candidate.min()), len(candidate), RICCI_NOTE.format(case=case),
                      certified=True)


def _scan(table: ConnectionTable, grid: int = 200, hit_tol: float = CLASSIFY_TOL,
          refine_starts: int = 16,
          curvature_tol: float = DEFAULT_TOLERANCES["curvature_constant"]) -> ScanResult:
    """Scan unit vertical directions for conformal foliations by geodesics.

    Coarse residuals come from a Fibonacci sphere grid; the most promising
    well-separated candidates are polished together by ``_polish``'s damped
    Gauss-Newton steps, and ``ScanResult.evaluations`` counts the residuals
    evaluated in both stages (a Jacobian counts two).
    A polished direction is a hit when its residual passes ``hit_tol`` by
    ``Check``'s rule, as the CLI's ``hit[i]:residual`` check does.  Hits are
    merged within 1e-3 radians (antipodes identified: a line field does not
    see the sign) and reported with (alpha, beta) from ``_adjoint_read`` and
    the algebra's exact constant-curvature verdict (tolerance ``curvature_tol``).
    A hit is totally geodesic and conformal by its residual, and Riemannian when
    also |alpha| <= ``hit_tol``.  A result without a hit is a numeric floor
    over the directions tried, not a proof: ``certified`` stays False.
    On a centerless solvable algebra each hit carries its direction's certificate
    (classify tolerance ``hit_tol``, met by the hit), from the hit's own data.  The
    curvature verdict, the center and the derived series are computed once, if
    there is a hit.
    """
    algebra = table.algebra
    candidates = fibonacci_sphere(grid)
    coarse = residuals(table.gamma, candidates)

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
    min_residual = float(np.minimum(coarse.min(), polished_resid.min()))     # a NaN stays NaN

    passed = [(v, r) for v, r in zip(polished, polished_resid.tolist())
              if Check("residual", r, hit_tol).passed]
    derived = None          # [g, g] when the hits are certified
    if passed:
        curvature_verdict = is_constant_curvature(algebra, curvature_tol, table)
        series = derived_series(algebra)
        if series[-1].dim == 0 and center(algebra).dim == 0:
            derived = series[1]
    hits, kept_frames = [], []
    merge_cos = math.cos(1e-3)
    for v, resid in passed:
        if any(min(1.0, abs(float(v @ k))) > merge_cos for k in kept_frames):
            continue
        v = _fix_signs(_unit_rows(v[None]))[0]     # first significant component > 0
        kept_frames.append(v)
        alpha, beta, _ = read = _adjoint_read(table, v)
        flags = {"totally_geodesic": True,
                 "riemannian": Check("conformal_vector_norm", abs(alpha), hit_tol).passed,
                 "conformal": True}
        certificate = None if derived is None else _certificate(
            table, derived, v, read, curvature_verdict, hit_tol, curvature_tol)
        hits.append(ScanHit(table.to_algebra_coords(v), resid, flags, alpha, beta,
                            *curvature_verdict, certificate))
    return ScanResult(hits, min_residual, grid + evaluations)


def _adjoint_read(table: ConnectionTable, v: np.ndarray):
    """ad_V on the plane orthogonal to a unit frame vector v, frame-free: (alpha, beta, [X, Y]).

    With f = ``table.frame_brackets``, P = I - v v^T, J_v u = v x u and
    s = P (v . f) P (s[b, c] = <[V, P X_b], P X_c>): alpha = tr s / 2, beta =
    |<s, J_v>| / 2, [X, Y]_c = 1/2 sum eps_abd v_d f_abc for orthonormal X x Y = v.
    For X, Y orthogonal to V, <[V, X], Y> = <nabla_V X, Y> + <V, nabla_X Y>
    (torsion-free, metric) and nabla_V is skew, so sym s = P S_v P, S_v the
    symmetrized connection along v (Milnor, Adv. Math. 21, 1976).  So |alpha| is
    ``classify``'s conformal-vector norm, and s - (alpha I +- beta J) is the
    trace-free part [[a, b], [b, -a]] of P S_v P, whose Frobenius norm
    sqrt(2 (a^2 + b^2)) is within ``residuals``: no entry exceeds
    residual / sqrt(2), so a hit needs no check of its adjoint structure.
    """
    f = table.frame_brackets
    p = _EYE3 - v[:, None] * v[None, :]
    s = p @ np.tensordot(v, f, axes=1) @ p
    alpha = 0.5 * np.trace(s)
    beta = 0.5 * abs(float(v @ (s - s.T)[_NEXT, _AFTER]))      # <s, J_v>, up to its sign
    bracket = 0.5 * v @ (f[_NEXT, _AFTER] - f[_AFTER, _NEXT])
    return float(alpha), beta, bracket


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

    ``v`` must be a finite nonzero vector of ``algebra.dim`` entries (else
    ``ValueError``), of any size: it is scaled by a power of two, which is
    exact, before it is normalised.  A failed hypothesis (dimension, center, solvability, the
    direction) raises ``StructureError`` naming it.  The direction hypothesis
    is the scan's hit rule, the residual passing ``classify_tol``, which is also
    the tolerance of ``horizontal_vectors_commute``; ``curvature_tol`` is that
    of the two curvature checks.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (algebra.dim,) or not (np.isfinite(v).all() and v.any()):
        raise ValueError(f"v must be a finite nonzero vector of {algebra.dim} entries, got {v!r}")
    if algebra.dim != 3:
        raise StructureError("hypotheses failed: not 3-dimensional")
    series = derived_series(algebra)
    failures = [name for name, failed in (("not centerless", center(algebra).dim),
                                          ("not solvable", series[-1].dim)) if failed]
    if failures:
        raise StructureError("hypotheses failed: " + ", ".join(failures))
    table = koszul(algebra)
    v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])     # exact: no under- or overflow in the norm
    v_frame = _fix_signs(_unit_rows(table.to_frame_coords(v)[None]))[0]    # a line has no sign
    residual = float(residuals(table.gamma, v_frame[None])[0])
    if not Check("residual", residual, classify_tol).passed:
        raise StructureError("hypotheses failed: direction is not a conformal foliation by "
                             f"geodesics (residual {residual!r}, tolerance {classify_tol!r})")
    return _certificate(table, series[1], v_frame, _adjoint_read(table, v_frame),
                        is_constant_curvature(algebra, curvature_tol, table),
                        classify_tol, curvature_tol)


def _certificate(table: ConnectionTable, derived: Subspace, v: np.ndarray, read,
                 curvature_verdict, classify_tol: float, curvature_tol: float):
    """The conclusion's checks from [g, g], a unit frame vector v, its ``_adjoint_read`` and the
    verdict; v's plane is [g, g] when dim [g, g] = 2 and [g, g] is orthogonal to v."""
    alpha, beta, bracket = read
    _, value, spread = curvature_verdict
    normal = table.algebra.gram @ table.to_algebra_coords(v)     # each unit row's distance
    plane = derived.dim == 2 and (np.abs(derived.basis @ normal).max()
                                  <= 1e-8 * np.linalg.norm(normal))
    checks = (
        Check("horizontal_vectors_commute",
              float(np.abs(table.to_algebra_coords(bracket)).max()), classify_tol),
        Check("horizontal_plane_is_derived_algebra", float(not plane), 0.0),
        Check("constant_sectional_curvature", spread, curvature_tol),
        Check("curvature_equals_minus_alpha_sq", abs(value + alpha * alpha), curvature_tol),
    )
    return CurvatureCertificate(alpha, beta, value, checks)
