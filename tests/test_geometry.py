import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import LieAlgebra
from liemorph.errors import StructureError
from liemorph.geometry import (curvature, curvature_symmetry_residuals,
                               gl_connection_term, is_constant_curvature,
                               koszul, random_planes, sectional, sectional_profile)


def flat(n):
    return LieAlgebra(np.zeros((n, n, n)), np.eye(n))


def test_koszul_nn_self_connection_vanishes(built):
    # nabla_{E_rs} E_rs = 0 on the strictly upper triangular algebras
    for name in ("N3", "N4"):
        alg, _ = built[name]
        table = koszul(alg)
        for a in range(alg.dim):
            np.testing.assert_allclose(table.gamma[a, a], 0.0, atol=1e-14, err_msg=name)


def test_koszul_abelian_is_zero():
    table = koszul(flat(3))
    np.testing.assert_array_equal(table.gamma, 0.0)


def test_koszul_h1_hand_values(built):
    alg, _ = built["H1"]
    table = koszul(alg)
    x, y, z = np.eye(3)
    np.testing.assert_allclose(table.nabla(x, x), 0.0, atol=1e-15)
    np.testing.assert_allclose(table.nabla(x, y), 0.5 * z, atol=1e-15)
    np.testing.assert_allclose(table.nabla(x, z), -0.5 * y, atol=1e-15)
    np.testing.assert_allclose(table.nabla(y, z), 0.5 * x, atol=1e-15)


def test_koszul_invariants_all_builtins(built):
    for name, (alg, _) in built.items():
        for check, resid in koszul(alg).invariant_residuals().items():
            assert resid < 1e-10, f"{name}: {check} = {resid}"


def test_koszul_requires_orthonormal_frame(built):
    alg, _ = built["N3"]
    with pytest.raises(StructureError):
        koszul(alg, 2.0 * np.eye(3))


def test_gl_connection_term_nn_vanishes(built):
    alg, real = built["N4"]
    for a in range(alg.dim):
        np.testing.assert_allclose(gl_connection_term(real, np.eye(alg.dim)[a]),
                                   0.0, atol=1e-14)


def test_gl_connection_term_s2_cases(built):
    alg, real = built["S2"]
    d1, d2, e12 = np.eye(3)
    np.testing.assert_allclose(gl_connection_term(real, d1), 0.0, atol=1e-14)
    # [E_12, E_21] = E_11 - E_22 lies inside the upper triangular algebra
    np.testing.assert_allclose(gl_connection_term(real, e12), d1 - d2, atol=1e-14)


def test_gl_agrees_with_koszul_where_applicable(built, rng):
    for name in ("N3", "N4", "H1", "H2", "K3", "K4", "S2", "S3"):
        alg, real = built[name]
        table = koszul(alg)
        for _ in range(5):
            x = rng.standard_normal(alg.dim)
            framed = table.to_frame_coords(x)
            via_koszul = table.to_algebra_coords(table.nabla(framed, framed))
            via_gl = gl_connection_term(real, x)
            assert np.abs(via_koszul - via_gl).max() < 1e-10, name


def test_gl_rejects_non_trace_gram(built):
    _, real = built["G3"]
    with pytest.raises(StructureError):
        gl_connection_term(real, np.array([1.0, 0.0, 0.0]))


def test_curvature_flat():
    table = koszul(flat(3))
    np.testing.assert_array_equal(curvature(table), 0.0)
    x, y = np.array([1.0, 0, 0]), np.array([0.3, 1.0, 0])
    assert sectional(curvature(table), x, y) == 0.0


def test_curvature_h1_hand_values(built):
    alg, _ = built["H1"]
    r = curvature(koszul(alg))
    x, y, z = np.eye(3)
    assert abs(sectional(r, x, y) - (-0.75)) < 1e-14
    assert abs(sectional(r, x, z) - 0.25) < 1e-14
    assert abs(sectional(r, y, z) - 0.25) < 1e-14


def test_curvature_symmetries(built):
    for name, (alg, _) in built.items():
        r = curvature(koszul(alg))
        for check, resid in curvature_symmetry_residuals(r).items():
            assert resid < 1e-9, f"{name}: {check} = {resid}"


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_g3_constant_curvature(alpha):
    alg, _ = lm.build_G3(alpha, 0.0)
    r = curvature(koszul(alg))
    for x, y in random_planes(3, 200, seed=11):
        assert abs(sectional(r, x, y) + alpha * alpha) < 1e-8


def test_sectional_scale_invariance(built, rng):
    alg, _ = built["G3"]
    r = curvature(koszul(alg))
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    assert abs(sectional(r, 2.0 * x, y) - sectional(r, x, y)) < 1e-12


def test_sectional_rejects_dependent_vectors(built):
    alg, _ = built["G3"]
    r = curvature(koszul(alg))
    x = np.array([1.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        sectional(r, x, 3.0 * x)


def test_is_constant_curvature_verdicts(built):
    alg, _ = built["G3"]
    ok, value, spread = is_constant_curvature(alg, 300, seed=2)
    assert ok and abs(value + 1.0) < 1e-10 and spread < 1e-7

    alg, _ = built["S2"]  # a flat factor times a hyperbolic plane: not constant
    ok, _, spread = is_constant_curvature(alg, 300, seed=2)
    assert not ok and spread > 0.1

    alg, _ = built["H1"]
    ok, _, _ = is_constant_curvature(alg, 300, seed=2)
    assert not ok


@pytest.mark.parametrize("name", ["G3", "Ga1", "DR", "H2", "S3", "N4"])
def test_sectional_profile_matches_per_plane_sectional(built, name):
    alg, _ = built[name]
    table = koszul(alg)
    r = curvature(table)
    values = [sectional(r, x, y) for x, y in random_planes(alg.dim, 300, seed=4)]
    np.testing.assert_allclose(sectional_profile(alg, 300, 4, table),
                               [min(values), max(values), np.mean(values)],
                               rtol=0, atol=1e-14)


def test_random_planes_are_orthonormal():
    for x, y in random_planes(4, 50, seed=8):
        assert abs(x @ x - 1) < 1e-12 and abs(y @ y - 1) < 1e-12
        assert abs(x @ y) < 1e-12
