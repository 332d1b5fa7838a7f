import math
from pathlib import Path

import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import LieAlgebra, Subspace, span
from liemorph.errors import StructureError
from liemorph.foliations import (DistributionSpec, _polish, _tangent_pairs, classify,
                                 constant_curvature_certificate,
                                 fibonacci_sphere, residuals, scan_3d, second_forms)
from liemorph.geometry import koszul


def so3():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1; c[1, 0, 2] = -1
    c[1, 2, 0] = 1; c[2, 1, 0] = -1
    c[2, 0, 1] = 1; c[0, 2, 1] = -1
    return LieAlgebra(c, np.eye(3))


def line(alg, v):
    return DistributionSpec(alg, span([np.asarray(v, float)], alg.dim))


def cg_residual_with_frame(table, v_frame):
    """Reference: the conformal-plus-geodesic defect through an explicit tangent frame."""
    v = v_frame / np.linalg.norm(v_frame)
    x, y = (u[0] for u in _tangent_pairs(v[None]))
    b_v = table.nabla(v, v)
    b_v = b_v - (b_v @ v) * v

    def sym(a, b):
        return 0.5 * (table.nabla(a, b) + table.nabla(b, a)) @ v

    bxx, byy, bxy = sym(x, x), sym(y, y), sym(x, y)
    mean = 0.5 * (bxx + byy)
    return math.sqrt(float(b_v @ b_v) + (bxx - mean) ** 2 + (byy - mean) ** 2 + 2.0 * bxy ** 2)


SCAN_ALGEBRAS = {
    "G3(1,0.5)": lambda: lm.build_G3(1.0, 0.5)[0],
    "G3(0,1)": lambda: lm.build_G3(0.0, 1.0)[0],
    "G_alpha(0.5)": lambda: lm.build_Galpha(0.5)[0],
    "G_alpha(1)": lambda: lm.build_Galpha(1.0)[0],
    "G_alpha(2)": lambda: lm.build_Galpha(2.0)[0],
    "S2": lambda: lm.build_S(2)[0],
}


def test_distribution_requires_involutive_vertical(built):
    alg, _ = built["N3"]
    # span{E12, E23} is not closed: [E12, E23] = E13
    with pytest.raises(StructureError, match="involutive"):
        DistributionSpec(alg, Subspace(3, np.eye(3)[[0, 2]]))
    DistributionSpec(alg, Subspace(3, np.eye(3)[[0, 2]]), foliation=False)


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


def test_abelian_splitting_is_flat():
    alg = LieAlgebra(np.zeros((4, 4, 4)), np.eye(4))
    dist = DistributionSpec(alg, Subspace(4, np.eye(4)[:2]))
    b_v, b_h = second_forms(dist)
    assert np.abs(b_v).max() == 0.0 and np.abs(b_h).max() == 0.0


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


def test_fibonacci_sphere_is_unit():
    pts = fibonacci_sphere(50)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_scan_g3_recovers_alpha_beta(built):
    alg, _ = built["G3"]  # alpha = 1.0, beta = 0.5
    result = scan_3d(alg)
    assert len(result.hits) == 1
    hit = result.hits[0]
    np.testing.assert_allclose(np.abs(hit.vector), [1.0, 0.0, 0.0], atol=1e-8)
    assert abs(hit.alpha - 1.0) < 1e-8
    assert abs(hit.beta - 0.5) < 1e-8
    assert hit.adjoint_residual < 1e-8
    assert hit.flags["conformal"] and hit.flags["totally_geodesic"]
    assert hit.constant_curvature and abs(hit.curvature_value + 1.0) < 1e-7


# min_residual found by the frame-based scalar search this scan replaced
GALPHA_MIN_RESIDUAL = {0.5: 0.46770717334674261, 1.0: 0.70710678118654757,
                       2.0: 0.93541434669348522}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_scan_galpha_finds_nothing(alpha):
    alg, _ = lm.build_Galpha(alpha)
    result = scan_3d(alg)
    assert result.hits == []
    assert abs(result.min_residual - GALPHA_MIN_RESIDUAL[alpha]) < 1e-12
    assert "not a proof" in result.note


@pytest.mark.parametrize("name", sorted(SCAN_ALGEBRAS))
def test_frame_free_residuals_match_the_frame_reference(name):
    table = koszul(SCAN_ALGEBRAS[name]())
    v = np.random.default_rng(3).standard_normal((2000, 3))
    want = [cg_residual_with_frame(table, row) for row in v]
    np.testing.assert_allclose(residuals(table.gamma, v), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["G3(1,0.5)", "G_alpha(1)", "S2"])
def test_lockstep_polish_follows_each_start_alone(name):
    gamma = koszul(SCAN_ALGEBRAS[name]()).gamma
    starts = fibonacci_sphere(40)[::5]
    together, resid, evaluations = _polish(gamma, starts)
    total = 0
    for k, start in enumerate(starts):
        alone, r, n = _polish(gamma, start[None])
        np.testing.assert_array_equal(alone[0], together[k])
        assert r[0] == resid[k]
        total += n
    assert evaluations == total


def test_scan_counts_its_residual_evaluations():
    alg, _ = lm.build_Galpha(1.0)
    result = scan_3d(alg, grid=120, refine_starts=5)
    # the grid, one evaluation per start, then eight offsets per start and step;
    # no start gets below 1e-13, so each runs three rounds of at least 41
    # halvings from 0.25 down to 1e-13
    assert (result.evaluations - 120 - 5) % 8 == 0
    assert result.evaluations > 120 + 5 + 8 * 5 * 3 * 40
    assert scan_3d(alg, grid=120, refine_starts=5).evaluations == result.evaluations


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


def test_certificate_does_not_see_the_sign_of_v(built):
    alg, _ = built["G3"]
    plus = constant_curvature_certificate(alg, [1.0, 0.0, 0.0])
    minus = constant_curvature_certificate(alg, [-1.0, 0.0, 0.0])
    assert (minus.alpha, minus.beta) == (plus.alpha, plus.beta) == (1.0, 0.5)
    assert [c.residual for c in minus.checks] == [c.residual for c in plus.checks]


def test_certificate_reads_solvability_off_its_one_derived_series(tmp_path, monkeypatch):
    import liemorph.algebra as algebra_module
    import liemorph.cli as cli_module
    import liemorph.foliations as foliations_module
    calls = []

    def counted(module, name):      # a name the module does not hold is added, and never called
        original = getattr(module, name, None)
        monkeypatch.setattr(module, name, lambda *args, **kwargs:
                            calls.append(name) or original(*args, **kwargs), raising=False)

    counted(foliations_module, "derived_series")
    for module in (algebra_module, foliations_module):
        counted(module, "is_solvable")
    counted(cli_module, "constant_curvature_certificate")
    config = Path(__file__).resolve().parents[1] / "configs/foliation_scan_G3.json"
    assert cli_module.main(["foliation-scan", "--config", str(config),
                            "--out", str(tmp_path / "report.json")]) == 0
    certificates = calls.count("constant_curvature_certificate")
    assert certificates >= 1
    assert calls == ["constant_curvature_certificate", "derived_series"] * certificates


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
