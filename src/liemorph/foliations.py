"""Second fundamental forms of left-invariant splittings and the 3-d foliation decision."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (LieAlgebra, Subspace, _bracket_span, _derived_algebra, _fix_signs, center,
                      derived_series, orthocomplement, orthonormalize)
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
# 3-dimensional decision
# ---------------------------------------------------------------------------

def _unit_rows(v: np.ndarray) -> np.ndarray:
    """v over its norm along the last axis: the bits of ``np.linalg.norm``, without its wrapper."""
    return v / np.sqrt((v * v).sum(axis=-1))[..., None]


_EYE3 = np.eye(3)
# (v x x)_i = v_{i+1} x_{i+2} - v_{i+2} x_{i+1}, indices mod 3
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def residuals(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Conformal-plus-geodesic defect of the line fields span{v_k}, frame coordinates.

    ``gamma`` is a 3-d connection table (``ConnectionTable.gamma``) and ``v``
    an (N, 3) stack of nonzero directions.  With P = I - v v^T and
    S_v = sym(Gamma . v), the symmetrized horizontal second fundamental form
    of span{v}, the defect is

        sqrt(|P nabla_v v|^2 + ||P S_v P - tr(P S_v P) P / 2||_F^2):

    the fibres' geodesic curvature and the trace-free part of B_H, which
    vanish together exactly for a conformal foliation by geodesics.  No
    tangent frame is built: with the rows normalised, one (N, 9) @ (9, 6)
    product of v (x) v gives g = Gamma(v, v) and S_v v, and one (N, 3) @ (3, 10)
    product gives S_v and, in its last column, tr S_v.  For unit v,
    q = g . v = v^T S_v v, P S_v P = S_v - v (S_v v)^T - (S_v v) v^T + q v v^T and
    tr(P S_v P) = tr S_v - q.  The geodesic vector and the trace-free matrix
    stay explicit: |P S_v P|^2 - tr^2 / 2 would cancel near a hit.  Both are
    linear in the part of Gamma symmetric in its first two indices, and each
    is at most its Frobenius norm, so no residual exceeds sqrt(2) times it.
    """
    sym = 0.5 * (gamma + gamma.transpose(1, 0, 2))          # S_v[a, b] = sym[a, b, c] v_c
    quad = np.concatenate([gamma.reshape(9, 3), sym.transpose(1, 2, 0).reshape(9, 3)], axis=1)
    lin = np.concatenate([sym.transpose(2, 0, 1).reshape(3, 9),
                          np.einsum("aac->c", sym)[:, None]], axis=1)
    v = _unit_rows(v)
    vv = (v[:, :, None] * v[:, None, :]).reshape(-1, 9)
    gs = vv @ quad
    g, sv = gs[:, :3], gs[:, 3:]
    q = np.einsum("nc,nc->n", g, v)
    geodesic = g - q[:, None] * v
    s = v @ lin
    half_t = 0.5 * (s[:, 9] - q)
    w = v[:, :, None] * sv[:, None, :]
    free = (s[:, :9] - (w + w.transpose(0, 2, 1)).reshape(-1, 9)
            + (q + half_t)[:, None] * vv - half_t[:, None] * _EYE3.reshape(9))
    return np.sqrt(np.einsum("nc,nc->n", geodesic, geodesic) + np.einsum("nc,nc->n", free, free))


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


# the cases that decide a scan, in ``ScanResult.case``
CERTIFICATE, CANDIDATES, DERIVED_COMPLEMENT, EVERY_DIRECTION, UNDECIDED = (
    "certificate", "Ricci candidates", "[g, g]^perp", "every direction", "undecided")

HIT_NOTE = ("{case}: each hit is a direction scored there whose residual passes the hit "
            "tolerance, so its left-invariant line field is a conformal foliation by geodesics "
            "to within that tolerance")
RICCI_NOTE = ("Ricci certificate: Ric has {case}, where Ric restricted to the orthogonal plane "
              "is a multiple of the metric; each residual exceeds the hit tolerance by more than "
              "its rounding bound, so no conformal foliation by geodesics exists on any open set, "
              "invariant or not, and no non-constant complex-valued harmonic morphism on one; "
              "this decides this metric, not a parameter range")
EVERY_DIRECTION_NOTE = ("every direction: [g, g] is {derived} and the connection is skew to within "
                        "the hit tolerance (min_residual bounds the residual of every direction), "
                        "so every left-invariant line field is a conformal foliation by geodesics")
UNDECIDED_NOTE = "undecided: {reason}; neither a hit nor nonexistence is decided"


@dataclass
class ScanResult:
    hits: list
    min_residual: float         # over the directions scored; every direction's bound; or NaN
    evaluations: int            # residuals evaluated: the directions scored
    case: str                   # the case that decided: CERTIFICATE, ..., UNDECIDED
    note: str

    @property
    def certified(self) -> bool:
        """The Ricci certificate decided it: a proof that there is no hit."""
        return self.case == CERTIFICATE

    @property
    def found(self) -> bool:
        """A hit was reported, or every direction is one."""
        return bool(self.hits) or self.case == EVERY_DIRECTION


# the Ricci certificate's stated constants; see ``_ricci_directions``
_RICCI_ROUNDING = 256.0     # b = 256 (eps sigma + smallest subnormal) bounds |computed - exact Ric|
_GAP_BAND = 16.0            # a gap <= b is zero, one >= 16 b decides, one between is undecided
_LIPSCHITZ = 16.0           # |r(u) - r(w)| <= 16 |Gamma|_F |u - w| for unit u, w


def scan_3d(algebra: LieAlgebra, hit_tol: float = CLASSIFY_TOL,
            curvature_tol: float = DEFAULT_TOLERANCES["curvature_constant"]) -> ScanResult:
    """Decide the conformal foliations by geodesics of a 3-d metric algebra, with no search.

    A unit field U tangent to a conformal foliation by geodesics, on any open
    set, satisfies the Riccati equation nabla_U A + A^2 = -R_U with
    A = theta I + omega J, so the trace-free part of Ric restricted to U^perp
    vanishes (Baird & Wood, *Harmonic Morphisms Between Riemannian Manifolds*,
    OUP 2003).  Ric is left-invariant, so on a metric that is not Einstein U
    takes values in the at most two admissible directions of
    ``_ricci_directions`` and, being continuous, is one of those
    left-invariant fields.  The Ricci gaps alone choose the case, recorded in
    ``ScanResult.case``; no tolerance does:

    - Not Einstein, gaps decided: each candidate is scored once.  Those whose
      residual passes ``hit_tol`` by ``Check``'s rule are the hits
      (``CANDIDATES``).  With none, each residual is held against ``hit_tol``
      plus its error bound L delta, with ``delta`` from ``_ricci_directions``
      and the residual's Lipschitz bound L = 16 |Gamma|_F in the direction:
      along a great circle the geodesic part moves by at most 3 |Gamma|_F and
      the trace-free part by at most 8 |Gamma|_F per radian, and an arc is at
      most pi/2 times its chord.  The kernel's own rounding, tens of
      eps |Gamma|_F, lies far inside L delta, which is at least about
      1e-5 |Gamma|_F.  When each residual exceeds that, there is no such
      foliation on any open set, invariant or not, and so no non-constant
      complex-valued harmonic morphism on one (its fibres form such a
      foliation where it submerses, a dense open set): ``CERTIFICATE``.
      Otherwise ``UNDECIDED``.
    - Einstein to rounding (both gaps <= b): ``_einstein`` reads [g, g].
    - A non-finite table or Ricci tensor, or a gap in the band (b, 16 b):
      ``UNDECIDED``, with no direction scored and ``min_residual`` NaN.

    An undecided result has no hit and is not certified; its note says why.
    Each hit is read off the connection table by ``_hits``, and
    ``curvature_tol`` reaches only its curvature verdict.
    """
    if algebra.dim != 3:
        raise ValueError("scan_3d requires a 3-dimensional algebra")
    table = koszul(algebra)
    found = _ricci_directions(table)
    if isinstance(found, str):
        return _undecided(found)
    directions, delta = found
    if directions is None:
        return _einstein(table, hit_tol, curvature_tol)
    candidate = residuals(table.gamma, directions)
    min_residual, evaluations = float(candidate.min()), len(candidate)
    passed = [Check("residual", r, hit_tol).passed for r in candidate.tolist()]
    if any(passed):
        hits = _hits(table, _fix_signs(_unit_rows(directions[passed])), candidate[passed],
                     hit_tol, curvature_tol)
        return ScanResult(hits, min_residual, evaluations, CANDIDATES,
                          HIT_NOTE.format(case=CANDIDATES))
    bound = _LIPSCHITZ * float(np.linalg.norm(table.gamma)) * delta
    if all(r - bound > hit_tol for r in candidate.tolist()):     # a NaN decides nothing
        case = ("one repeated eigenvalue and so one admissible direction" if len(directions) == 1
                else "three distinct eigenvalues and so two admissible directions")
        return ScanResult([], min_residual, evaluations, CERTIFICATE,
                          RICCI_NOTE.format(case=case))
    return _undecided("a Ricci candidate's residual is within its error bound of the hit "
                      "tolerance", min_residual, evaluations)


def _undecided(reason: str, min_residual: float = math.nan, evaluations: int = 0) -> ScanResult:
    return ScanResult([], min_residual, evaluations, UNDECIDED,
                      UNDECIDED_NOTE.format(reason=reason))


def _ricci_directions(table: ConnectionTable):
    """The admissible directions of a table and their direction error, or why it is undecided.

    C = {u : Ric|u^perp is a multiple of the metric}.  With the eigenvalues
    rho_1 <= rho_2 <= rho_3 of Ric, eigenvectors q_i and gaps g_12, g_23,
    g_13 = g_12 + g_23 > 0, C is the lines of

        u = sqrt(g_12 / g_13) q_1 +- sqrt(g_23 / g_13) q_3

    (the normals of the circular sections of the Ricci quadric): one line
    when a gap is zero, the simple eigenvector.  Returns (directions, delta)
    then, (None, None) when both gaps are zero (Einstein to rounding, where C
    is every direction), and a reason string when the table or Ric is not
    finite or a gap is undecided.

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
    value (Weyl).  A gap <= b counts as zero and one >= 16 b as decided; one
    in between is undecided.

    Direction error.  Davis-Kahan bounds the angle of q_i by b / (g_i - b)
    <= (16/15) b / g_i, with g_i its gap (g_12 for q_1, g_23 for q_3), so
    |q_i - q_i*| <= 1.51 b / g_i; a weight w = sqrt(g / g_13) moves by at
    most sqrt(9.6 b / g_13) as each gap moves by <= 3b (zeroing included)
    and g_13 >= 16 b.  Each candidate is therefore within

        delta = 1.6 b sum_g 1 / sqrt(g g_13) + 7 sqrt(b / g_13)

    of an exact one, the sum over the nonzero gaps.  The table itself is
    taken as exact.
    """
    gamma, f = table.gamma, table.frame_brackets
    if not (np.isfinite(gamma).all() and np.isfinite(f).all()):
        return "the connection table is not finite"
    g_norm = float(np.linalg.norm(gamma))
    sigma = 3.0 * g_norm * g_norm + float(np.linalg.norm(f)) * g_norm
    finfo = np.finfo(float)
    b = _RICCI_ROUNDING * (finfo.eps * sigma + finfo.smallest_subnormal)
    ric = np.einsum("abca->bc", curvature(table))
    if not (math.isfinite(b) and np.isfinite(ric).all()):
        return "the Ricci tensor or its rounding bound is not finite"
    rho, q = np.linalg.eigh(0.5 * (ric + ric.T))
    gaps = np.diff(rho)                                     # g_12, g_23
    zero = gaps <= b
    if zero.all():
        return None, None
    if ((~zero) & (gaps < _GAP_BAND * b)).any():
        return "a Ricci gap lies between its rounding bound b and 16 b"
    gaps[zero] = 0.0
    g13 = float(gaps.sum())
    w1, w3 = np.sqrt(gaps / g13)
    directions = np.array([w1 * q[:, 0] + w3 * q[:, 2], w1 * q[:, 0] - w3 * q[:, 2]])
    if zero.any():
        directions = directions[:1]
    delta = (1.6 * b * float(np.sum(1.0 / np.sqrt(gaps[~zero] * g13)))
             + 7.0 * math.sqrt(b / g13))
    return directions, delta


def _einstein(table: ConnectionTable, hit_tol: float, curvature_tol: float) -> ScanResult:
    """Decide a table that is Einstein to rounding from [g, g].

    Exactly Einstein means constant curvature K in dimension 3, and Milnor's
    curvature formulas (Adv. Math. 21, 1976) leave three kinds of metric:

    - Unimodular.  In a Milnor frame [e_2, e_3] = l_1 e_1, [e_3, e_1] = l_2 e_2,
      [e_1, e_2] = l_3 e_3 (orthonormal), Ric is diagonal with entries
      2 m_2 m_3, 2 m_3 m_1, 2 m_1 m_2, where m_i = (l_1 + l_2 + l_3) / 2 - l_i.
      Each equals 2K.  K < 0 is impossible: (m_1 m_2 m_3)^2 = K^3.  K > 0 makes
      every m_i nonzero and so all equal, with l_1 = l_2 = l_3 != 0: su(2)
      with its round metric, [g, g] = g.  K = 0 makes two m_i zero, so
      (l_1, l_2, l_3) is (0, m, m) up to order: abelian when m = 0, else
      flat e(2), which is G3(0, m) below.
    - Not unimodular.  The unimodular kernel u is a 2-d, hence abelian, ideal;
      for a unit e_1 orthogonal to it, L = ad(e_1)|u has tr L = t != 0.  With
      S and A the symmetric and skew parts of L, Ric(e_1, e_1) = -tr S^2,
      Ric(e_1, u) = 0 and Ric|u = -t S + [A, S].  The trace-free part of
      Ric|u is -t S_0 + [A, S_0] = (-t I + 2a J) S_0 for A = a J, and
      det(-t I + 2a J) = t^2 + 4a^2 > 0 on the 2-d space of trace-free
      symmetric S_0, so Einstein forces S_0 = 0: L = (t/2) I + a J, the
      group G3(t/2, a) of curvature -t^2/4.

    So [g, g] = g gives round su(2), and [g, g] = 0 the flat abelian group:
    their connections are skew (nabla_X Y = [X, Y] / 2), and every direction
    is a hit.  dim [g, g] = 2 gives G3(alpha, beta) = R e_1 + u with
    L = alpha I + beta J (alpha = 0 is flat e(2)), [g, g] = u.  There, with
    nabla_{e_1} e_1 = 0, nabla_{e_1} X = beta J X, nabla_X e_1 = -alpha X and
    nabla_X Y = alpha <X, Y> e_1 on u, a unit U = c e_1 + w has
    nabla_U U = c (beta J - alpha) w + alpha |w|^2 e_1.  For alpha != 0 that
    vanishes only at w = 0.  For alpha = 0 it also vanishes at c = 0, but
    then X -> nabla_X U on U^perp = span(e_1, J w) is [[0, 0], [beta, 0]],
    whose symmetric part is trace-free and nonzero.  Either way
    U = e_1 = [g, g]^perp is the one hit, conformal with nabla_X e_1 = -alpha X.
    No Einstein metric has dim [g, g] = 1.

    A table Einstein to rounding need not be exactly Einstein, so each
    answer is scored, never assumed.  dim [g, g] = 2: [g, g]^perp is scored
    once; it is a hit when it passes ``hit_tol``, else undecided.
    [g, g] = 0 or g: every residual is at most sqrt(2) |sym Gamma|_F, the part
    of Gamma symmetric in its first two indices (see ``residuals``), and every
    direction is a hit when that bound passes ``hit_tol``, else undecided.
    dim [g, g] = 1: undecided.
    """
    derived = _derived_algebra(table.algebra)
    if derived.dim in (0, 3):
        twice_sym = table.gamma + table.gamma.transpose(1, 0, 2)
        bound = math.hypot(*twice_sym.ravel().tolist()) / math.sqrt(2.0)     # no underflow
        if Check("residual", bound, hit_tol).passed:
            return ScanResult([], bound, 0, EVERY_DIRECTION, EVERY_DIRECTION_NOTE.format(
                derived="0" if derived.dim == 0 else "g"))
        return _undecided(f"Einstein to rounding with dim [g, g] = {derived.dim}, but the "
                          "connection is not skew to within the hit tolerance", bound)
    if derived.dim == 1:
        return _undecided("Einstein to rounding with dim [g, g] = 1, which no Einstein metric has")
    a, b = table.to_frame_coords(derived.basis.T).T
    v = _fix_signs(_unit_rows(np.cross(a, b)[None]))
    r = residuals(table.gamma, v)
    if not Check("residual", float(r[0]), hit_tol).passed:
        return _undecided("Einstein to rounding, but [g, g]^perp, its only possible hit, does not "
                          "pass the hit tolerance", float(r[0]), 1)
    return ScanResult(_hits(table, v, r, hit_tol, curvature_tol), float(r[0]), 1,
                      DERIVED_COMPLEMENT, HIT_NOTE.format(case=DERIVED_COMPLEMENT))


def _hits(table: ConnectionTable, directions: np.ndarray, resid: np.ndarray, hit_tol: float,
          curvature_tol: float) -> list:
    """A ``ScanHit`` for each unit frame direction, sign fixed, whose residual passed ``hit_tol``.

    Each is read off the connection table by ``_adjoint_read``: totally
    geodesic and conformal by its residual, and Riemannian when also
    |alpha| <= ``hit_tol``; with the algebra's exact constant-curvature verdict
    (tolerance ``curvature_tol``), computed once.  On a centerless solvable
    algebra each hit carries its direction's certificate (classify tolerance
    ``hit_tol``, met by the hit).
    """
    algebra = table.algebra
    curvature_verdict = is_constant_curvature(algebra, curvature_tol, table)
    series = derived_series(algebra)
    derived = None
    if series[-1].dim == 0 and center(algebra).dim == 0:
        derived = series[1]
    hits = []
    for v, r in zip(directions, resid.tolist()):
        alpha, beta, _ = read = _adjoint_read(table, v)
        flags = {"totally_geodesic": True,
                 "riemannian": Check("conformal_vector_norm", abs(alpha), hit_tol).passed,
                 "conformal": True}
        certificate = None if derived is None else _certificate(
            table, derived, v, read, curvature_verdict, hit_tol, curvature_tol)
        hits.append(ScanHit(table.to_algebra_coords(v), r, flags, alpha, beta,
                            *curvature_verdict, certificate))
    return hits


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
