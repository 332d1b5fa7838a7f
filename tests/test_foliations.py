import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import LieAlgebra, Subspace, orthocomplement, span
from liemorph.errors import StructureError
from liemorph.foliations import (CANDIDATES, CERTIFICATE, DERIVED_COMPLEMENT, EVERY_DIRECTION,
                                 UNDECIDED, _LIPSCHITZ, DistributionSpec, _adjoint_read,
                                 _certificate, _ricci_directions, _unit_rows, classify,
                                 constant_curvature_certificate, residuals, scan_3d, second_forms)
from liemorph.geometry import curvature, curvature_operator, koszul
from test_batched_identities import rotation_block_by_loops, tangent_pairs


def so3():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1; c[1, 0, 2] = -1
    c[1, 2, 0] = 1; c[2, 1, 0] = -1
    c[2, 0, 1] = 1; c[0, 2, 1] = -1
    return LieAlgebra(c, np.eye(3))


def line(alg, v):
    return DistributionSpec(alg, span([np.asarray(v, float)], alg.dim))


def fibonacci_sphere(count):
    """Deterministic, roughly uniform unit vectors on S^2."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    k = np.arange(count)
    z = 1.0 - 2.0 * (k + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(k * golden), r * np.sin(k * golden), z], axis=1)


def cg_residual_with_frame(table, v_frame):
    """Reference: the conformal-plus-geodesic defect through an explicit tangent frame."""
    v = v_frame / np.linalg.norm(v_frame)
    x, y = (u[0] for u in tangent_pairs(v[None]))
    b_v = table.nabla(v, v)
    b_v = b_v - (b_v @ v) * v

    def sym(a, b):
        return 0.5 * (table.nabla(a, b) + table.nabla(b, a)) @ v

    bxx, byy, bxy = sym(x, x), sym(y, y), sym(x, y)
    mean = 0.5 * (bxx + byy)
    return math.sqrt(float(b_v @ b_v) + (bxx - mean) ** 2 + (byy - mean) ** 2 + 2.0 * bxy ** 2)


def einsum_residuals(gamma, v):
    """Reference: the defect through batched projections P S_v P, one einsum per term."""
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
# the reference's offsets (a, b) along the tangent pair (x, y), in trial order
_OFFSETS = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                     (_DIAG, _DIAG), (_DIAG, -_DIAG), (-_DIAG, _DIAG), (-_DIAG, -_DIAG)])
_OFFSET_X, _OFFSET_Y = _OFFSETS.T[:, :, None]
_POLISH_ROUNDS = 3


def three_round_polish(gamma, starts):
    """Reference: a pattern search on the sphere that runs three rounds per start in full.

    Each start moves to its first improving offset of step ``step`` along its
    tangent pair, or halves its step when none improves; a round starts at
    step 0.25 and ends when the step falls to 1e-13, and a start leaves after
    ``_POLISH_ROUNDS`` rounds, or after any round once its residual is below
    1e-13.
    """
    polished = _unit_rows(starts)
    polished_best = residuals(gamma, polished)
    # the active starts, compacted: their rows of ``polished`` and their state
    rows = np.arange(len(polished))
    v, best = polished.copy(), polished_best.copy()
    step = np.full(len(v), 0.25)
    rounds_left = np.full(len(v), _POLISH_ROUNDS)
    while len(rows):
        x, y = tangent_pairs(v)
        cand = _unit_rows(v[:, None] + step[:, None, None]
                          * (_OFFSET_X * x[:, None] + _OFFSET_Y * y[:, None]))
        r = residuals(gamma, cand.reshape(-1, 3)).reshape(len(v), len(_OFFSETS))
        improving = r < best[:, None]
        moved = improving.any(axis=1)
        first = improving.argmax(axis=1)[moved]
        v[moved] = cand[moved, first]
        best[moved] = r[moved, first]
        step[~moved] *= 0.5
        ended = ~(step > 1e-13)
        if ended.any():
            rounds_left[ended] -= 1
            step[ended] = 0.25
            done = ended & ((rounds_left == 0) | (best < 1e-13))
            if done.any():
                polished[rows[done]], polished_best[rows[done]] = v[done], best[done]
                keep = ~done
                rows, v, best, step, rounds_left = (
                    rows[keep], v[keep], best[keep], step[keep], rounds_left[keep])
    return polished, polished_best


def line_distance(u, w):
    """sin of the angle between the lines of the unit rows of u and w."""
    return np.linalg.norm(np.cross(u, w), axis=-1)


def reference_scan(gamma, hit_tol=1e-9, grid=200, starts=16):
    """Reference: the sampled search that ``scan_3d``'s decision replaced.

    The residuals of a Fibonacci grid; the ``starts`` best grid directions at
    least 0.3 rad apart (lines: antipodes identified), polished by
    ``three_round_polish``; the polished directions whose residual passes
    ``hit_tol``, merged within 1e-3 rad.  Returns the hits as unit frame rows
    and the smallest residual seen.
    """
    candidates = fibonacci_sphere(grid)
    coarse = residuals(gamma, candidates)
    chosen = []
    for index in np.argsort(coarse, kind="stable"):
        v = candidates[index]
        if all(abs(float(v @ s)) < math.cos(0.3) for s in chosen):
            chosen.append(v)
        if len(chosen) == starts:
            break
    polished, best = three_round_polish(gamma, np.array(chosen))
    hits = []
    for v, r in zip(polished, best.tolist()):
        if r <= hit_tol and all(line_distance(v, h) > math.sin(1e-3) for h in hits):
            hits.append(v)
    return np.array(hits).reshape(-1, 3), float(np.minimum(coarse.min(), best.min()))


def semidirect(a, gram):
    """R x_A R^2 with [e_0, e_j] = sum_i a[i - 1, j - 1] e_i and the metric ``gram``."""
    c = np.zeros((3, 3, 3))
    c[0, 1:, 1:] = np.asarray(a, float).T
    c[1:, 0] = -c[0, 1:]
    return LieAlgebra(c, np.asarray(gram, float))


SCAN_ALGEBRAS = {
    "G3(1,0.5)": lambda: lm.build_G3(1.0, 0.5)[0],
    "G3(0,1)": lambda: lm.build_G3(0.0, 1.0)[0],
    "G_alpha(0.5)": lambda: lm.build_Galpha(0.5)[0],
    "G_alpha(1)": lambda: lm.build_Galpha(1.0)[0],
    "G_alpha(2)": lambda: lm.build_Galpha(2.0)[0],
    "S2": lambda: lm.build_S(2)[0],
    # a generic metric, with no hit
    "R_A(R^2)": lambda: semidirect([[1.0, 0.5], [-2.0, 0.3]],
                                   [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.5]]),
}


def test_distribution_requires_involutive_vertical(built):
    alg, _ = built["N3"]
    # span{E12, E23} is not closed: [E12, E23] = E13
    with pytest.raises(StructureError, match="involutive"):
        DistributionSpec(alg, Subspace(3, np.eye(3)[[0, 2]]))


def test_center_foliation_has_vanishing_forms(built):
    # any central direction: both fundamental forms are identically zero
    cases = [("S2", np.array([1.0, 1.0, 0.0]) / np.sqrt(2)),
             ("H1", np.array([0.0, 0.0, 1.0]))]
    for name, v in cases:
        alg, _ = built[name]
        b_v, b_h = second_forms(line(alg, v))
        assert np.abs(b_v).max() < 1e-14, name
        assert np.abs(b_h).max() < 1e-14, name
        res = classify(line(alg, v))
        assert res.riemannian and res.totally_geodesic and res.conformal


def test_g3_vertical_e1_is_conformal_geodesic(built):
    alg, _ = built["G3"]  # alpha = 1, beta = 0.5
    b_v, b_h = second_forms(line(alg, [1.0, 0.0, 0.0]))
    assert np.abs(b_v).max() < 1e-14
    # B_H = <.,.> (x) (alpha e_1): diagonal entries alpha * e_1, off-diagonal 0
    np.testing.assert_allclose(b_h[0, 0], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(b_h[1, 1], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(b_h[0, 1], 0.0, atol=1e-12)
    res = classify(line(alg, [1.0, 0.0, 0.0]))
    assert res.conformal and res.totally_geodesic and not res.riemannian
    np.testing.assert_allclose(res.conformal_vector, [1.0, 0.0, 0.0], atol=1e-12)


def test_every_centered_builtin_center_direction_is_riemannian(built):
    # left translation of any central direction gives a totally geodesic
    # Riemannian foliation, whatever the metric
    for name, (alg, _) in built.items():
        centre = lm.center(alg)
        for v in centre.basis:
            res = classify(line(alg, v))
            assert res.riemannian and res.totally_geodesic, name


def test_scan_flat_group_hits_share_zero_scaling():
    # alpha = 0, beta = 1: the metric is flat, so conformal-geodesic line
    # fields abound; every reported hit must recover alpha = 0 and the same
    # constant (zero) curvature
    alg, _ = lm.build_G3(0.0, 1.0)
    result = scan_3d(alg)
    assert result.hits
    for h in result.hits:
        assert abs(h.alpha) < 1e-8
        assert h.constant_curvature and abs(h.curvature_value) < 1e-9


def test_scan_hits_use_the_scan_tolerances(built):
    alg, _ = built["H1"]
    # the centre line; the exact spread of H_1's curvature operator is 1
    hit = scan_3d(alg, hit_tol=1e-6, curvature_tol=0.5).hits[0]
    assert hit.curvature_spread == 1.0 and not hit.constant_curvature
    assert hit.flags == classify(line(alg, hit.vector), tol=1e-6).flags()
    assert scan_3d(alg, hit_tol=1e-6, curvature_tol=2.0).hits[0].constant_curvature


def test_the_horizontal_side_is_the_orthocomplement_and_not_an_argument(built):
    alg, _ = built["G3"]
    vertical = span([[1.0, 2.0, 0.0]], 3)
    with pytest.raises(TypeError):
        DistributionSpec(alg, vertical, horizontal=orthocomplement(alg, vertical))
    horizontal = DistributionSpec(alg, vertical).horizontal
    assert np.array_equal(horizontal.basis, orthocomplement(alg, vertical).basis)


def test_classify_passes_a_residual_exactly_at_tol_and_fails_nan(built):
    alg, _ = built["G3"]
    dist, table = line(alg, [0.3, 1.0, -0.5]), koszul(alg)
    r = classify(dist, table).residuals
    assert min(r.values()) > 0.0
    assert classify(dist, table, r["totally_geodesic"]).totally_geodesic
    assert classify(dist, table, r["conformal"]).conformal
    assert classify(dist, table, max(r["conformal"], r["conformal_vector_norm"])).riemannian
    nan_table = replace(table, gamma=np.full_like(table.gamma, np.nan))
    assert not any(classify(dist, nan_table, math.inf).flags().values())


@pytest.mark.parametrize("name, case", [("G_alpha(2)", CANDIDATES),
                                        ("G3(1,0.5)", DERIVED_COMPLEMENT)])
def test_a_residual_exactly_at_hit_tol_is_a_hit(name, case):
    alg = SCAN_ALGEBRAS[name]()
    tol = scan_3d(alg).min_residual
    assert 0.0 <= tol < math.inf
    result = scan_3d(alg, hit_tol=tol)
    assert result.case == case and result.found and not result.certified
    assert min(h.residual for h in result.hits) == tol     # the hit[i]:residual checks pass
    assert all(h.residual <= tol for h in result.hits)


def test_abelian_splitting_is_flat():
    alg = LieAlgebra(np.zeros((4, 4, 4)), np.eye(4))
    dist = DistributionSpec(alg, Subspace(4, np.eye(4)[:2]))
    b_v, b_h = second_forms(dist)
    assert np.abs(b_v).max() == 0.0 and np.abs(b_h).max() == 0.0


@pytest.mark.parametrize("k", [0, 3])
def test_splitting_with_an_empty_side(built, k):
    alg, _ = built["G3"]
    b_v, b_h = second_forms(DistributionSpec(alg, Subspace(3, np.eye(3)[:k])))
    assert b_v.shape == (k, k, 3) and b_h.shape == (3 - k, 3 - k, 3)
    assert not b_v.any() and not b_h.any()       # the empty side's projection is 0


def test_generic_splitting_of_n3_not_conformal(built):
    alg, _ = built["N3"]
    v = np.array([0.6, 0.8, 0.0])  # off-center line through E12/E13
    res = classify(line(alg, v))
    assert not res.conformal


def test_classify_flags_scale_invariant(built):
    alg, _ = built["G3"]
    for c in (0.25, 4.0):
        scaled = LieAlgebra(alg.structure_constants, c * np.eye(3))
        r1 = classify(line(alg, [1.0, 0, 0]))
        r2 = classify(line(scaled, [1.0, 0, 0]))
        assert r1.flags() == r2.flags()
        # the conformal vector scales with the metric, the direction does not
        np.testing.assert_allclose(
            r2.conformal_vector / np.linalg.norm(r2.conformal_vector),
            [1.0, 0, 0], atol=1e-12)


def test_scan_g3_recovers_alpha_beta(built):
    alg, _ = built["G3"]  # alpha = 1.0, beta = 0.5
    result = scan_3d(alg)
    assert len(result.hits) == 1
    hit = result.hits[0]
    np.testing.assert_allclose(np.abs(hit.vector), [1.0, 0.0, 0.0], atol=1e-8)
    assert abs(hit.alpha - 1.0) < 1e-8
    assert abs(hit.beta - 0.5) < 1e-8
    assert hit.flags["conformal"] and hit.flags["totally_geodesic"]
    assert hit.constant_curvature and abs(hit.curvature_value + 1.0) < 1e-7


@pytest.mark.parametrize("name", sorted(SCAN_ALGEBRAS))
def test_the_adjoint_structure_is_within_the_residual_over_sqrt2(name):
    """The loop oracle's block <[V, X_i], X_j> is alpha I + beta J within residual / sqrt(2).

    Every entry of the difference is an entry of the trace-free part of
    P S_v P (see ``_adjoint_read``), up to rounding: 64 eps (|f|_F + |Gamma|_F)
    cond(onb)^2 covers the kernel's rounding and the oracle's passage through
    algebra coordinates and the Gram matrix.
    """
    algebra = SCAN_ALGEBRAS[name]()
    table = koszul(algebra)
    v = _unit_rows(np.random.default_rng(17).standard_normal((500, 3)))
    rounding = (64.0 * np.finfo(float).eps * np.linalg.cond(table.onb) ** 2
                * (np.linalg.norm(table.frame_brackets) + np.linalg.norm(table.gamma)))
    distance = []
    for row in v:
        s = rotation_block_by_loops(algebra, table, row)
        alpha, beta, _ = _adjoint_read(table, row)
        beta = math.copysign(beta, s[0, 1] - s[1, 0])      # the sign of the pair's Y is free
        distance.append(np.abs(s - np.array([[alpha, beta], [-beta, alpha]])).max())
    distance = np.array(distance)
    assert (distance <= residuals(table.gamma, v) / math.sqrt(2.0) + rounding).all()
    assert distance.max() > 0.0


# min_residual found by the frame-based scalar search this scan replaced
GALPHA_MIN_RESIDUAL = {0.5: 0.46770717334674261, 1.0: 0.70710678118654757,
                       2.0: 0.93541434669348522}
# the smallest residual over the admissible Ricci directions, in closed form
# (alpha = 1 has one direction, the others two of equal residual)
GALPHA_CANDIDATE_RESIDUAL = {0.5: math.sqrt(11.0) / 4.0, 1.0: math.sqrt(2.0),
                             2.0: math.sqrt(11.0) / 2.0}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_scan_galpha_finds_nothing(alpha):
    alg, _ = lm.build_Galpha(alpha)
    searched, floor = reference_scan(koszul(alg).gamma)
    assert len(searched) == 0
    assert abs(floor - GALPHA_MIN_RESIDUAL[alpha]) < 1e-12
    result = scan_3d(alg)
    assert result.hits == [] and result.certified and result.case == CERTIFICATE
    assert abs(result.min_residual - GALPHA_CANDIDATE_RESIDUAL[alpha]) < 1e-12
    assert result.evaluations == (1 if alpha == 1.0 else 2)
    assert result.note.startswith("Ricci certificate") and "not a proof" not in result.note


# r(alpha)^2, the squared residual of G_alpha's Ricci candidates u+-, on each branch of the
# alpha line (alpha = 0 has a hit and alpha = -1 is Einstein; both are left out)
GALPHA_R2 = {
    "(0, 1]": lambda a: a * (1 + 4 * a - a * a) / 2,
    "[1, inf)": lambda a: (a * a + 4 * a - 1) / (2 * a),
    "(-inf, 0), not -1": lambda a: -a * (a * a - 6 * a + 1) / (2 * (1 - a) ** 2),
}
DYADIC_ALPHAS = [Fraction(n, 4) for n in (1, 2, 3, 4, 6, 8, 11, 16, -1, -2, -3, -6, -8, -12)]


def galpha_branch(alpha):
    return "(0, 1]" if 0 < alpha <= 1 else "[1, inf)" if alpha > 1 else "(-inf, 0), not -1"


def galpha_r2(alpha):
    assert alpha not in (0, -1)
    return GALPHA_R2[galpha_branch(alpha)](alpha)


def test_the_galpha_residual_closed_form_is_exact_on_every_branch():
    small = [Fraction(sign, 2 ** k) for k in range(1, 40, 3) for sign in (1, -1)]
    near_minus_one = [-1 + Fraction(sign, 2 ** k) for k in range(1, 40, 3) for sign in (1, -1)]
    alphas = DYADIC_ALPHAS + small + near_minus_one
    for alpha in alphas:
        assert galpha_r2(alpha) == alpha ** 2 * galpha_r2(1 / alpha), alpha     # the homothety
    assert GALPHA_R2["(0, 1]"](Fraction(1)) == GALPHA_R2["[1, inf)"](Fraction(1)) == 2
    grid = ([Fraction(k, 64) for k in range(1, 65)] + [1 + Fraction(k, 16) for k in range(161)]
            + [Fraction(-k, 16) for k in range(1, 161) if k != 16])
    for alpha in grid + alphas:
        assert galpha_r2(alpha) > 0, alpha
    assert galpha_r2(Fraction(1, 2)) == Fraction(11, 16) and galpha_r2(Fraction(-2)) == Fraction(17, 9)


@pytest.mark.parametrize("alpha", DYADIC_ALPHAS, ids=str)
def test_the_galpha_certificate_residual_is_the_closed_form(alpha):
    alg, _ = lm.build_Galpha(float(alpha))
    table = koszul(alg, np.eye(3))
    ric = np.einsum("abca->bc", curvature(table))
    a = float(alpha)
    assert np.abs(ric - np.diag([-(a * a + 1), a * (1 - a), a - 1])).max() <= 1e-13 * (a * a + 1)
    result = scan_3d(alg)
    assert result.case == CERTIFICATE and result.hits == []
    r2 = float(galpha_r2(alpha))
    assert abs(result.min_residual ** 2 - r2) <= 1e-12 * r2


@pytest.mark.parametrize("alpha", [Fraction(1, 2 ** 10), Fraction(-1, 2 ** 10)], ids=str)
def test_the_galpha_certificate_near_zero_is_within_its_bound_of_the_closed_form(alpha):
    alg, _ = lm.build_Galpha(float(alpha))
    result = scan_3d(alg)
    assert result.case == CERTIFICATE
    table = koszul(alg)
    _, delta = _ricci_directions(table)
    bound = _LIPSCHITZ * float(np.linalg.norm(table.gamma)) * delta
    assert abs(result.min_residual - math.sqrt(galpha_r2(alpha))) <= bound


@pytest.mark.parametrize("name", sorted(SCAN_ALGEBRAS))
def test_frame_free_residuals_match_the_frame_reference(name):
    table = koszul(SCAN_ALGEBRAS[name]())
    v = np.random.default_rng(3).standard_normal((2000, 3))
    want = [cg_residual_with_frame(table, row) for row in v]
    np.testing.assert_allclose(residuals(table.gamma, v), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", sorted(SCAN_ALGEBRAS))
def test_residual_kernel_matches_the_einsum_reference(name):
    gamma = koszul(SCAN_ALGEBRAS[name]()).gamma
    v = np.random.default_rng(5).standard_normal((2000, 3))
    got = residuals(gamma, v)
    np.testing.assert_allclose(got, einsum_residuals(gamma, v), rtol=0, atol=4e-15)
    for scale in (1e-150, 1e150):
        np.testing.assert_allclose(residuals(gamma, scale * v), got, rtol=0, atol=4e-15)


def test_residual_kernel_vanishes_at_the_g3_hit(built):
    gamma = koszul(built["G3"][0]).gamma
    assert residuals(gamma, np.array([[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])).max() <= 1e-14


@pytest.mark.parametrize("name", ["G_alpha(0.5)", "G3(1,0.5)"])
def test_a_nan_residual_is_no_hit_and_decides_nothing(name, monkeypatch):
    import liemorph.foliations as foliations_module

    def nan_residuals(gamma, v):
        return np.full(len(v), np.nan)

    monkeypatch.setattr(foliations_module, "residuals", nan_residuals)
    result = scan_3d(SCAN_ALGEBRAS[name]())      # a certificate, and a hit at e_1
    assert result.case == UNDECIDED and result.hits == [] and math.isnan(result.min_residual)
    assert not (result.found or result.certified) and result.note.startswith("undecided: ")


def test_scan_counts_its_residual_evaluations():
    # one per Ricci candidate, one for [g, g]^perp, none for every direction or a gap in the band
    counts = {"G_alpha(1)": 1, "G_alpha(0.5)": 2, "G3(1,0.5)": 1, "S2": 1, "R_A(R^2)": 2}
    for name, evaluations in counts.items():
        assert scan_3d(SCAN_ALGEBRAS[name]()).evaluations == evaluations, name
    assert scan_3d(so3()).evaluations == 0
    assert scan_3d(lm.build_Galpha(-1.0 + 1e-11)[0]).evaluations == 0


def test_the_scan_takes_no_grid():
    with pytest.raises(TypeError):
        scan_3d(SCAN_ALGEBRAS["G3(1,0.5)"](), grid=200)


@pytest.mark.parametrize("name", ["round su(2)", "R^3", "round su(2) general basis"])
def test_a_bi_invariant_metric_has_every_direction(name):
    """Round su(2) and R^3: every left-invariant line field is a conformal foliation by geodesics.

    The sampled reference finds hits that are not isolated: more than one
    line among its 16 starts, at least 0.3 rad apart.
    """
    algebra = {"round su(2)": so3, "R^3": lambda: LieAlgebra(np.zeros((3, 3, 3)), np.eye(3)),
               "round su(2) general basis": lambda: rebased(so3(), random_bases(3)["general"])
               }[name]()
    result = scan_3d(algebra)
    assert result.case == EVERY_DIRECTION and result.found and not result.certified
    assert result.hits == [] and result.evaluations == 0
    assert 0.0 <= result.min_residual <= 1e-14
    assert result.note.startswith("every direction: [g, g] is " + ("0" if "R" in name else "g"))
    gamma = koszul(algebra).gamma
    hits, _ = reference_scan(gamma)
    assert len(hits) > 1
    # the bound holds for every direction, up to the kernel's own rounding
    rounding = 64.0 * np.finfo(float).eps * np.linalg.norm(gamma)
    v = np.random.default_rng(29).standard_normal((500, 3))
    assert (residuals(gamma, v) <= result.min_residual + rounding).all()


def test_a_near_round_su2_beyond_the_hit_tolerance_is_undecided():
    # Einstein to rounding with [g, g] = g, but not bi-invariant: the Berger sphere's
    # other directions have residuals near 1e-6, so every direction would be a false hit
    result = scan_3d(milnor(1e8, 1e8, 1e8 * (1.0 + 1e-14)))
    assert result.case == UNDECIDED and result.hits == [] and result.min_residual > 1e-9
    assert "dim [g, g] = 3, but the connection is not skew" in result.note
    assert scan_3d(milnor(1e8, 1e8, 1e8)).case == EVERY_DIRECTION


@pytest.mark.parametrize("name, reason", [
    ("H1", "dim [g, g] = 1, which no Einstein metric has"),
    ("G_alpha(0.5)", "[g, g]^perp, its only possible hit, does not pass the hit tolerance")])
def test_a_table_einstein_only_to_rounding_is_scored_not_assumed(name, reason, monkeypatch):
    # with Ric read as Einstein, the answer the exact classification gives is still scored
    import liemorph.foliations as foliations_module
    monkeypatch.setattr(foliations_module, "_ricci_directions", lambda table: (None, None))
    algebra = {"H1": lambda: lm.build_H(1)[0], **SCAN_ALGEBRAS}[name]()
    result = scan_3d(algebra)
    assert result.case == UNDECIDED and result.hits == [] and reason in result.note


def test_scan_s2_center_hit(built):
    alg, _ = built["S2"]
    result = scan_3d(alg)
    centre = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    best = max(abs(float(h.vector @ centre)) for h in result.hits)
    assert best > 1.0 - 1e-10
    for h in result.hits:
        if abs(float(h.vector @ centre)) > 1.0 - 1e-10:
            assert h.flags["riemannian"] and h.flags["totally_geodesic"]


def test_scan_requires_dim_3(built):
    alg, _ = built["N4"]
    with pytest.raises(ValueError):
        scan_3d(alg)


def test_certificate_g3(built):
    alg, _ = built["G3"]
    cert = constant_curvature_certificate(alg, [1.0, 0.0, 0.0])
    assert cert.passed
    assert abs(cert.alpha - 1.0) < 1e-12
    assert abs(cert.beta - 0.5) < 1e-12
    assert abs(cert.curvature_value + 1.0) < 1e-10
    checks = {c.name: c for c in cert.checks}
    assert checks["horizontal_vectors_commute"].residual < 1e-12


@pytest.mark.parametrize("v", [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 0.0]],
                         ids=["zero", "nan", "inf", "short"])
def test_certificate_names_a_bad_v(built, v):
    # raised before any other work: no division by a zero norm, no rank decision on NaN
    with pytest.raises(ValueError, match="v must be a finite nonzero vector of 3 entries"):
        constant_curvature_certificate(built["G3"][0], v)


@pytest.mark.parametrize("scale", [1e-170, 1e200, 2.0 ** 1000, 2.0 ** -1000])
def test_certificate_normalises_v_of_any_size(built, scale):
    # a power-of-two scaling before the norm: no under- or overflow, and no bit moves
    alg, _ = built["G3"]
    want = constant_curvature_certificate(alg, [1.0, 0.0, 0.0])
    got = constant_curvature_certificate(alg, [scale, 0.0, 0.0])
    assert (got.alpha, got.beta, got.curvature_value) == (want.alpha, want.beta,
                                                         want.curvature_value)
    assert [(c.name, c.residual, c.passed) for c in got.checks] == \
        [(c.name, c.residual, c.passed) for c in want.checks]


def test_certificate_does_not_see_the_sign_of_v(built):
    alg, _ = built["G3"]
    plus = constant_curvature_certificate(alg, [1.0, 0.0, 0.0])
    minus = constant_curvature_certificate(alg, [-1.0, 0.0, 0.0])
    assert (minus.alpha, minus.beta) == (plus.alpha, plus.beta) == (1.0, 0.5)
    assert [c.residual for c in minus.checks] == [c.residual for c in plus.checks]


def count_calls(monkeypatch, names):
    """Record each call of the named functions, in every liemorph module that holds them."""
    import sys

    import liemorph.cli  # noqa: F401  (every module that binds the names is loaded)
    calls = []
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "liemorph"]
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


SCAN_JOB_CALLS = ("koszul", "classify", "derived_series", "center", "is_solvable",
                  "constant_curvature_certificate")


def test_certificate_reads_solvability_off_its_one_derived_series(tmp_path, monkeypatch):
    # the scan builds its one hit's certificate from the hit's own data: one
    # connection table, one derived series and one center per job, and no classify
    import liemorph.cli as cli_module
    calls = count_calls(monkeypatch, SCAN_JOB_CALLS)
    config = Path(__file__).resolve().parents[1] / "configs/foliation_scan_G3.json"
    out = tmp_path / "report.json"
    assert cli_module.main(["foliation-scan", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [hit["certificate_passed"] for hit in report["summary"]["hits"]] == [True]
    assert {name: calls.count(name) for name in SCAN_JOB_CALLS} == {
        "koszul": 1, "classify": 0, "derived_series": 1, "center": 1,
        "is_solvable": 0, "constant_curvature_certificate": 0}


def test_a_scan_without_hits_decides_no_structure(tmp_path, monkeypatch):
    import liemorph.cli as cli_module
    calls = count_calls(monkeypatch, SCAN_JOB_CALLS)
    config = Path(__file__).resolve().parents[1] / "configs/foliation_scan_G_alpha.json"
    assert cli_module.main(["foliation-scan", "--config", str(config),
                            "--out", str(tmp_path / "report.json")]) == 0
    assert calls == ["koszul"]


@pytest.mark.parametrize("name, hits", [("G_alpha(0.5)", 0), ("G3(1,0.5)", 1)])
def test_the_scan_decides_curvature_once(name, hits, monkeypatch):
    # the one verdict feeds the hits, and a scan without a hit never computes it
    algebra = SCAN_ALGEBRAS[name]()
    calls = count_calls(monkeypatch, ["is_constant_curvature"])
    result = scan_3d(algebra)
    assert len(result.hits) == hits
    assert len(calls) == (1 if hits else 0)


def test_no_tolerance_chooses_the_path():
    # a curvature tolerance that calls G_alpha(0.5) constant still leaves it to the certificate
    result = scan_3d(lm.build_Galpha(0.5)[0], curvature_tol=2.0)
    assert result.certified and result.hits == [] and result.evaluations == 2
    assert abs(result.min_residual - math.sqrt(11.0) / 4.0) < 1e-12
    result = scan_3d(lm.build_G3(1.0, 0.5)[0], curvature_tol=2.0)
    assert not result.certified
    assert [hit.certificate.passed for hit in result.hits] == [True]


CERTIFIED_SCANS = {
    "G3(1,0.5)": lambda: lm.build_G3(1.0, 0.5)[0],
    "G3(0.5,0)": lambda: lm.build_G3(0.5, 0.0)[0],
    "G3(0,1)": lambda: lm.build_G3(0.0, 1.0)[0],
    "G3(2,-3)": lambda: lm.build_G3(2.0, -3.0)[0],
    "G3(1,0.5), gram 4I": lambda: LieAlgebra(lm.build_G3(1.0, 0.5)[0].structure_constants,
                                             4.0 * np.eye(3)),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_SCANS))
def test_scan_certificate_is_the_public_certificate(name):
    alg = CERTIFIED_SCANS[name]()
    hit_tol, curvature_tol = 1e-9, 1e-7
    result = scan_3d(alg, hit_tol=hit_tol, curvature_tol=curvature_tol)
    assert result.hits
    for hit in result.hits:
        public = constant_curvature_certificate(alg, hit.vector, hit_tol, curvature_tol)
        scanned = hit.certificate
        assert [(c.name, c.residual, c.tol) for c in scanned.checks] == \
            [(c.name, c.residual, c.tol) for c in public.checks]
        assert (scanned.alpha, scanned.beta, scanned.curvature_value) == \
            (public.alpha, public.beta, public.curvature_value)


def plane_by_span(table, derived, v):
    """The span test the certificate's plane check replaced, on the tangent pair of frame v."""
    x, y = (table.to_algebra_coords(u[0]) for u in tangent_pairs(v[None]))
    return span([x, y], 3).equals(derived, 1e-8)


@pytest.mark.parametrize("name", sorted(CERTIFIED_SCANS))
def test_the_plane_test_decides_as_the_span_test(name):
    algebra = CERTIFIED_SCANS[name]()
    table, derived = koszul(algebra), lm.derived_series(algebra)[1]
    rng = np.random.default_rng(19)
    hits = scan_3d(algebra).hits
    assert hits
    for hit in hits:
        v = _unit_rows(table.to_frame_coords(hit.vector)[None])[0]
        tilt = np.cross(v, rng.standard_normal(3))
        decisions = []
        for w in _unit_rows(np.array([v, v + 1e-10 * tilt, v + 1e-6 * tilt,
                                      rng.standard_normal(3)])):
            checks = _certificate(table, derived, w, _adjoint_read(table, w),
                                  (True, 0.0, 0.0), 1e-9, 1e-7).checks
            plane, = (c.passed for c in checks if c.name == "horizontal_plane_is_derived_algebra")
            assert plane == plane_by_span(table, derived, w)
            decisions.append(plane)
        assert decisions == [True, True, False, False]


@pytest.mark.parametrize("name", ["S2", "H1", "Berger su(2)"])
def test_scan_hits_of_a_centered_or_unsolvable_algebra_carry_no_certificate(built, name):
    alg = milnor(2.0, 2.0, 1.0) if name == "Berger su(2)" else built[name][0]
    hits = scan_3d(alg).hits
    assert hits and all(hit.certificate is None for hit in hits)


def test_an_algebra_of_rounding_noise_has_every_direction():
    # the algebra is abelian to the structure predicates, so every direction is a
    # hit, and no hit is listed to carry a certificate
    base = lm.build_G3(1.0, 0.5)[0]
    alg = LieAlgebra(base.structure_constants * 1e-200, base.gram)
    result = scan_3d(alg)
    assert result.case == EVERY_DIRECTION and result.found and result.hits == []
    assert result.note.startswith("every direction: [g, g] is 0")


def test_certificate_rejects_centered_algebra(built):
    alg, _ = built["S2"]
    with pytest.raises(StructureError, match="centerless"):
        constant_curvature_certificate(alg, [1.0, 1.0, 0.0])


def test_certificate_rejects_nonsolvable():
    with pytest.raises(StructureError, match="solvable"):
        constant_curvature_certificate(so3(), [1.0, 0.0, 0.0])


def test_certificate_rejects_non_cg_direction(built):
    alg, _ = built["Ga1"]
    with pytest.raises(StructureError, match="conformal"):
        constant_curvature_certificate(alg, [1.0, 0.0, 0.0])


def milnor(l1, l2, l3):
    """Milnor's unimodular frame: [e_1, e_2] = l3 e_0, [e_2, e_0] = l1 e_1, [e_0, e_1] = l2 e_2.

    Orthonormal (Milnor, Adv. Math. 21, 1976): (2, 2, 1) is a Berger sphere,
    (1, 0, 0) Nil, (1, 1, -1) the universal cover of SL(2, R), (1, -1, 0) Sol
    and (2, 1, 0) the universal cover of E(2).
    """
    c = np.zeros((3, 3, 3))
    for (i, j, k), lam in zip(((1, 2, 0), (2, 0, 1), (0, 1, 2)), (l1, l2, l3)):
        c[i, j, k], c[j, i, k] = lam, -lam
    return LieAlgebra(c, np.eye(3))


def rebased(algebra, basis):
    """The same metric algebra in the basis e'_i = sum_j basis[i, j] e_j."""
    inverse = np.linalg.inv(basis)
    c = np.einsum("ia,jb,abm,mk->ijk", basis, basis, algebra.structure_constants, inverse)
    return LieAlgebra(c, basis @ algebra.gram @ basis.T)


def random_non_unimodular(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2))
    m = rng.standard_normal((3, 3))
    return semidirect(a, m @ m.T + np.eye(3))      # tr a != 0 almost surely


def random_bases(seed):
    """One random orthogonal and one random general basis change."""
    rng = np.random.default_rng(seed)
    orthogonal, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return {"orthogonal": orthogonal, "general": rng.standard_normal((3, 3)) + 2.0 * np.eye(3)}


MILNOR_FRAMES = {"Berger(2,2,1)": (2.0, 2.0, 1.0), "Nil(1,0,0)": (1.0, 0.0, 0.0),
                 "SL2(1,1,-1)": (1.0, 1.0, -1.0), "Sol(1,-1,0)": (1.0, -1.0, 0.0),
                 "E2(2,1,0)": (2.0, 1.0, 0.0)}
AGREEMENT_ALGEBRAS = {
    **SCAN_ALGEBRAS,
    **{f"Milnor {name}": (lambda lam=lam: milnor(*lam)) for name, lam in MILNOR_FRAMES.items()},
    **{f"non-unimodular seed {seed}": (lambda seed=seed: random_non_unimodular(seed))
       for seed in (1, 2, 3, 4)},
    **{f"{name} {kind} basis": (lambda build=build, kind=kind: rebased(
        build(), random_bases(7)[kind]))
       for name, build in (("G_alpha(0)", lambda: lm.build_Galpha(0.0)[0]),
                           ("G_alpha(1)", lambda: lm.build_Galpha(1.0)[0]),
                           ("S2", lambda: lm.build_S(2)[0]), ("H1", lambda: lm.build_H(1)[0]))
       for kind in ("orthogonal", "general")},
    **{f"G_alpha({alpha!r})": (lambda alpha=alpha: lm.build_Galpha(alpha)[0])
       for alpha in (-1.0 + 1e-6, -1.0 - 1e-6, 1e-3, -1e-3, 1.0 + 1e-9, 1.0 - 1e-9)},
    # the near-Einstein band: the curvature operator's spread falls below 1e-7
    # before the Ricci gaps reach their rounding bound
    **{f"G_alpha(-1 + 1e-{k})": (lambda k=k: lm.build_Galpha(-1.0 + 10.0 ** -k)[0])
       for k in range(7, 13)},
}
# the inputs whose Ricci gaps or candidates lie in the certificate's undecided bands
UNDECIDED_INPUTS = {f"G_alpha(-1 + 1e-{k})" for k in range(8, 13)}
# the Einstein inputs, whose one hit is [g, g]^perp
EINSTEIN_HITS = {"G3(1,0.5)", "G3(0,1)", "G_alpha(-1)"}
# the other inputs with a hit, a Ricci candidate
CANDIDATE_HITS = {"S2", "H1", "G_alpha(0)", "Milnor Berger(2,2,1)", "Milnor Nil(1,0,0)",
                  "Milnor SL2(1,1,-1)",
                  *(f"{name} {kind} basis" for name in ("G_alpha(0)", "S2", "H1")
                    for kind in ("orthogonal", "general"))}


def expected_case(name):
    return (UNDECIDED if name in UNDECIDED_INPUTS else DERIVED_COMPLEMENT if name in EINSTEIN_HITS
            else CANDIDATES if name in CANDIDATE_HITS else CERTIFICATE)


def eps_sigma(table):
    """eps sigma, sigma = 3 |Gamma|_F^2 + |f|_F |Gamma|_F: the unit of Ric's rounding bound."""
    g_norm = np.linalg.norm(table.gamma)
    return np.finfo(float).eps * (3.0 * g_norm ** 2
                                  + np.linalg.norm(table.frame_brackets) * g_norm)


@pytest.mark.parametrize("name", sorted(AGREEMENT_ALGEBRAS))
def test_the_curvature_operator_is_half_the_scalar_curvature_minus_ric(name):
    """spec(op) = scal/2 - spec(Ric) in dimension 3, where Lambda^2 is R^3 by the Hodge star.

    In an orthonormal Ricci eigenframe the plane orthogonal to q_k has
    sectional curvature scal/2 - rho_k, and op is diagonal there.  Each side
    is within b = 256 (eps sigma + smallest subnormal) of its exact value, as
    in ``_ricci_directions``: the op's entries are R's, formed as
    Ric's are, and ``eigvalsh`` adds its backward error; scal/2 is half a sum
    of three such entries.  So the two spectra agree within 3b.
    """
    table = koszul(AGREEMENT_ALGEBRAS[name]())
    r = curvature(table)
    ric = np.einsum("abca->bc", r)
    want = np.sort(0.5 * np.trace(ric) - np.linalg.eigvalsh(0.5 * (ric + ric.T)))
    bound = 3.0 * 256.0 * (eps_sigma(table) + np.finfo(float).smallest_subnormal)
    np.testing.assert_allclose(np.linalg.eigvalsh(curvature_operator(r)), want,
                               rtol=0, atol=bound)


def ricci_trace_free_on_planes(table, v):
    """|Ric restricted to v_k^perp minus its trace part|_F for each unit row v_k."""
    ric = np.einsum("abca->bc", curvature(table))
    x, y = tangent_pairs(v)
    h = np.stack([x, y], axis=1)                                   # (N, 2, 3)
    m = h @ (0.5 * (ric + ric.T)) @ h.transpose(0, 2, 1)
    half_trace = 0.5 * np.trace(m, axis1=1, axis2=2)
    return np.linalg.norm(m - half_trace[:, None, None] * np.eye(2), axis=(1, 2))


def riccati_bound(table, v):
    """(4 |Gamma|_F + r) r plus Ric's rounding, r the residual of each unit row v_k.

    For a unit left-invariant field U with kappa = nabla_U U and A X = nabla_X U
    on U^perp, A = theta I + omega J + A_0 with A_0 trace-free symmetric, the
    residual is r = sqrt(|kappa|^2 + |A_0|^2).  For X, Y in U^perp,

        <R(X, U) U, Y> = <nabla_X kappa, Y> - <[D, A] X, Y> - <A^2 X, Y> - <X, kappa><kappa, Y>,

    with D = P nabla_U on U^perp, which is skew, so D = e J and [D, A] = 2 e J A_0
    (J anticommutes with A_0).  This is the Riccati equation
    nabla_U A + A^2 = -R_U, plus the terms of a non-geodesic U.  The trace-free
    part of A^2 is 2 theta A_0, and in dimension 3 the trace-free part of
    Ric|U^perp is that of R_U.  With |e| <= |Gamma|_F, |theta| <= |Gamma|_F / sqrt(2)
    and |P nabla kappa| <= |Gamma|_F |kappa|, the trace-free part is at most
    |Gamma|_F (|kappa| + (2 + sqrt(2)) |A_0|) + |kappa|^2 / sqrt(2) <= (4 |Gamma|_F + r) r.
    So it vanishes on a conformal foliation by geodesics, where r = 0.
    """
    r = residuals(table.gamma, v)
    return (4.0 * np.linalg.norm(table.gamma) + r) * r + 256.0 * eps_sigma(table)


HIT_ALGEBRAS = {
    "G3(1,0.5)": lambda: lm.build_G3(1.0, 0.5)[0], "G3(0,1)": lambda: lm.build_G3(0.0, 1.0)[0],
    "S2": lambda: lm.build_S(2)[0], "H1": lambda: lm.build_H(1)[0],
    "G_alpha(0)": lambda: lm.build_Galpha(0.0)[0], "G_alpha(-1)": lambda: lm.build_Galpha(-1.0)[0],
    **{f"Milnor {name}": (lambda lam=MILNOR_FRAMES[name]: milnor(*lam))
       for name in ("Berger(2,2,1)", "Nil(1,0,0)", "SL2(1,1,-1)")},
}


@pytest.mark.parametrize("name", sorted(SCAN_ALGEBRAS.keys() | HIT_ALGEBRAS.keys()))
def test_hit_flags_are_the_classify_flags(name):
    # classify, over newly built subspaces, is the reference for the flags each hit reads off itself
    algebra = {**SCAN_ALGEBRAS, **HIT_ALGEBRAS}[name]()
    result = scan_3d(algebra)
    assert result.hits or result.certified
    for hit in result.hits:
        assert hit.flags == classify(line(algebra, hit.vector), tol=1e-9).flags()


@pytest.mark.parametrize("name", sorted(HIT_ALGEBRAS))
def test_ric_is_conformal_on_the_plane_of_every_hit(name):
    algebra = HIT_ALGEBRAS[name]()
    table = koszul(algebra)
    hits = scan_3d(algebra).hits
    assert hits
    v = _unit_rows(np.array([table.to_frame_coords(hit.vector) for hit in hits]))
    free, bound = ricci_trace_free_on_planes(table, v), riccati_bound(table, v)
    assert (free <= bound).all() and (bound < 1e-8).all()
    # the bound holds off the hits too, where it is far from zero
    v = _unit_rows(np.random.default_rng(2).standard_normal((500, 3)))
    assert (ricci_trace_free_on_planes(table, v) <= riccati_bound(table, v)).all()


def test_a_ricci_gap_inside_the_decision_band_is_undecided(monkeypatch):
    import liemorph.foliations as foliations_module
    alg = lm.build_Galpha(1.0 + 1e-9)[0]       # Ricci gaps 2 and 2e-9
    unit = eps_sigma(koszul(alg))
    gap = 2e-9
    # b inside (gap / 16, gap): undecided; b >= gap: the gap is zero, one direction
    for b, case, evaluations in ((gap / 4.0, UNDECIDED, 0), (2.0 * gap, CERTIFICATE, 1)):
        monkeypatch.setattr(foliations_module, "_RICCI_ROUNDING", b / unit)
        result = scan_3d(alg)
        assert (result.case, result.evaluations, result.hits) == (case, evaluations, [])
        assert ("a Ricci gap lies between its rounding bound b and 16 b" in result.note) == (
            case == UNDECIDED)


def test_a_candidate_near_hit_tol_is_undecided():
    alg = lm.build_Galpha(2.0)[0]
    candidate = scan_3d(alg).min_residual
    # the candidates exceed hit_tol, but not by their error bound: neither a hit nor a proof
    result = scan_3d(alg, hit_tol=candidate - 1e-9)
    assert result.case == UNDECIDED and not (result.found or result.certified)
    assert (result.min_residual, result.evaluations) == (candidate, 2)
    assert "within its error bound of the hit tolerance" in result.note


# G_alpha near alpha = 0 and alpha = -1: the sampled scan reported a hit (residual |alpha| and
# 7.07e-10) that the Ricci condition rules out; the candidates score 7.07e-6 and 1.0
FALSE_SEARCH_HITS = {1e-10: 7.07e-6, -1e-10: 7.07e-6, -1.0 + 1e-9: 1.0}


@pytest.mark.parametrize("alpha", sorted(FALSE_SEARCH_HITS))
def test_a_near_threshold_g_alpha_is_undecided_not_a_hit(alpha):
    algebra = lm.build_Galpha(alpha)[0]
    result = scan_3d(algebra)
    assert result.case == UNDECIDED and result.hits == []
    assert not (result.found or result.certified)
    assert result.min_residual == pytest.approx(FALSE_SEARCH_HITS[alpha], rel=1e-3)
    assert result.note == ("undecided: a Ricci candidate's residual is within its error bound "
                           "of the hit tolerance; neither a hit nor nonexistence is decided")
    # the sampled reference still finds its tolerance hit, far from both candidates
    hits, _ = reference_scan(koszul(algebra).gamma)
    assert len(hits) == 1


ORACLE_ALGEBRAS = {**AGREEMENT_ALGEBRAS, **HIT_ALGEBRAS,
                   **{f"R_A(R^2) seed {seed}": (lambda seed=seed: random_non_unimodular(seed))
                      for seed in range(100, 120)}}


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_the_decision_agrees_with_the_reference_search(name):
    """Outside the undecided bands, the hits are the sampled reference's, within 1e-7 rad."""
    algebra = ORACLE_ALGEBRAS[name]()
    table = koszul(algebra)
    result = scan_3d(algebra)
    assert result.case == expected_case(name)
    if result.case == UNDECIDED:
        assert result.hits == [] and not (result.found or result.certified)
        return
    want, floor = reference_scan(table.gamma)
    got = _unit_rows(np.array([table.to_frame_coords(h.vector)
                               for h in result.hits]).reshape(-1, 3))
    assert len(got) == len(want)
    for w in want:
        assert line_distance(got, w).min() <= 1e-7
    if result.certified:
        assert result.hits == [] and result.evaluations in (1, 2)
        # a candidate is one direction; the search's minimum is over all it tried
        assert result.min_residual >= floor - 1e-12


METAMORPHIC_ALGEBRAS = {"G3(1,0.5)": lambda: lm.build_G3(1.0, 0.5)[0],
                        "G_alpha(0.5)": lambda: lm.build_Galpha(0.5)[0],
                        "S2": lambda: lm.build_S(2)[0], "H1": lambda: lm.build_H(1)[0]}


@pytest.mark.parametrize("k", range(-20, 21))
@pytest.mark.parametrize("name", sorted(METAMORPHIC_ALGEBRAS))
def test_a_metric_scaled_by_a_power_of_four_scans_the_same_way(name, k):
    """gram 4^k scales the frame by 2^-k, Gamma by 2^-k and Ric by 4^-k, exactly; the Ricci
    gaps, their bound and the directions scale with them, so the scan decides the same case
    from the same directions, with residuals scaled by 2^-k."""
    base = METAMORPHIC_ALGEBRAS[name]()
    # not validated: positive-definiteness has an absolute floor, 1e-12, which refuses 4^-20 gram
    scaled = LieAlgebra(base.structure_constants, base.gram * 4.0 ** k, validate=False)
    want, got = scan_3d(base), scan_3d(scaled)
    assert (got.case, got.evaluations) == (want.case, want.evaluations)
    assert math.ldexp(got.min_residual, k) == want.min_residual
    assert len(got.hits) == len(want.hits) == (0 if want.certified else 1)
    for g, w in zip(got.hits, want.hits):
        np.testing.assert_array_equal(np.ldexp(g.vector, k), w.vector)
        assert math.ldexp(g.residual, k) == w.residual
