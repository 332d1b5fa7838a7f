import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import derived_series, Subspace
from liemorph.errors import StructureError
from liemorph.groups import (build_damek_ricci, build_G3, build_K,
                             exp_matrix, sample_points)


def test_exp_nilpotent_exact_series():
    x = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    out = exp_matrix(x, 1.0)
    expected = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(out, expected)  # terminating series, exact


def test_exp_zero_time():
    np.testing.assert_array_equal(exp_matrix(np.ones((4, 4)), 0.0), np.eye(4))


def test_exp_diagonal_matches_galpha_display():
    alpha, t = 0.7, 1.3
    x = np.diag([alpha, -1.0, 0.0])
    out = exp_matrix(x, t)
    np.testing.assert_allclose(np.diag(out), [np.exp(alpha * t), np.exp(-t), 1.0],
                               rtol=1e-14)
    np.testing.assert_allclose(out, np.diag(np.diag(out)), atol=1e-15)


def test_exp_one_parameter_additivity(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        x = rng.standard_normal((n, n))
        s, t = rng.uniform(-1.5, 1.5, 2)
        if np.linalg.norm(x, 2) * (abs(s) + abs(t)) > 10:
            continue
        lhs = exp_matrix(x, s) @ exp_matrix(x, t)
        rhs = exp_matrix(x, s + t)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_exp_inverse_identity(rng):
    for _ in range(10):
        x = rng.standard_normal((4, 4))
        prod = exp_matrix(x, 0.8) @ exp_matrix(x, -0.8)
        assert np.abs(prod - np.eye(4)).max() < 1e-12 * max(1.0, np.linalg.norm(prod))


def test_exp_rejects_nonfinite():
    bad = np.array([[0.0, np.inf], [0.0, 0.0]])
    with pytest.raises(ValueError):
        exp_matrix(bad)


def test_sampling_is_deterministic(built):
    _, real = built["N4"]
    a = sample_points(real, 5, seed=31, scale=1.0)
    b = sample_points(real, 5, seed=31, scale=1.0)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa, pb)


def test_sampling_scale_zero_gives_identity(built):
    _, real = built["H2"]
    (p,) = sample_points(real, 1, seed=0, scale=0.0)
    np.testing.assert_array_equal(p, np.eye(real.ambient))


def test_sampling_count_validation(built):
    _, real = built["N3"]
    with pytest.raises(ValueError):
        sample_points(real, 0, seed=1)


def test_sampled_unipotent_points_have_unit_diagonal(built):
    _, real = built["N4"]
    for p in sample_points(real, 25, seed=9, scale=1.5):
        np.testing.assert_array_equal(np.diag(p), np.ones(4))
        assert abs(np.linalg.det(p) - 1.0) < 1e-12


def test_sampled_points_invertible(built):
    for name in ("S3", "G3", "Ga1"):
        _, real = built[name]
        for p in sample_points(real, 10, seed=4, scale=1.0):
            assert abs(np.linalg.det(p)) > 1e-8, name


def test_homomorphism_residuals(built):
    for name, (alg, real) in built.items():
        if real is None:
            continue
        assert real.homomorphism_residual() < 1e-10, name


def test_build_n3_bracket_table(built):
    alg, real = built["N3"]
    assert alg.dim == 3
    e12, e13, e23 = np.eye(3)
    np.testing.assert_allclose(alg.bracket(e12, e23), e13, atol=1e-15)
    np.testing.assert_allclose(alg.bracket(e12, e13), 0.0, atol=1e-15)


def test_build_h1_brackets(built):
    alg, _ = built["H1"]
    x, y, z = np.eye(3)
    np.testing.assert_allclose(alg.bracket(x, y), z, atol=1e-15)
    np.testing.assert_allclose(alg.bracket(x, z), 0.0, atol=1e-15)
    np.testing.assert_allclose(alg.bracket(y, z), 0.0, atol=1e-15)


def test_build_s2_center_is_scalar_matrices(built):
    alg, _ = built["S2"]
    z = lm.center(alg)
    assert z.dim == 1
    # basis order D_1, D_2, E_12; the scalars are D_1 + D_2
    assert z.contains(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_build_k_derived_algebra(n):
    alg, _ = build_K(n)
    derived = derived_series(alg)[1]
    assert derived.dim == n - 1
    assert derived.equals(Subspace(alg.dim, np.eye(alg.dim)[:n - 1]))


def test_build_g3_rejects_zero_pair():
    with pytest.raises(ValueError):
        build_G3(0.0, 0.0)


def test_galpha_eigenvalues(built):
    alg, _ = built["Ga1"]
    e1, e2, e3 = np.eye(3)
    np.testing.assert_allclose(alg.bracket(e1, e2), 1.0 * e2, atol=1e-15)
    np.testing.assert_allclose(alg.bracket(e1, e3), -e3, atol=1e-15)


def test_damek_ricci_structure(built):
    alg, real = built["DR"]
    assert real is None
    v1, v2, z, a = np.eye(4)
    np.testing.assert_array_equal(alg.bracket(a, v1), 0.5 * v1)
    np.testing.assert_array_equal(alg.bracket(a, v2), 0.5 * v2)
    np.testing.assert_array_equal(alg.bracket(a, z), z)
    np.testing.assert_array_equal(alg.bracket(v1, v2), z)


def test_damek_ricci_rejects_bad_j():
    with pytest.raises(StructureError, match="skew"):
        build_damek_ricci(2, 1, j_maps=[np.eye(2)])
    bad_scale = [np.array([[0.0, -2.0], [2.0, 0.0]])]
    with pytest.raises(StructureError, match="Clifford"):
        build_damek_ricci(2, 1, j_maps=bad_scale)
    with pytest.raises(ValueError):
        build_damek_ricci(4, 1)  # no default J for this shape


def test_damek_ricci_quaternionic_j_maps():
    # dim_v = 4, dim_z = 3: the standard quaternionic Clifford module
    i = np.array([[0., -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j = np.array([[0., 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    k = i @ j
    alg, _ = build_damek_ricci(4, 3, j_maps=[i, j, k])
    assert alg.dim == 8
    for check in alg.validation_report():
        assert check.residual <= check.tol, check.name


@pytest.mark.parametrize("name", ["N4", "H2", "K4", "S3", "G3"])
@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_batched_sampling_matches_sequential_products(built, name, scale):
    _, real = built[name]
    points = sample_points(real, 12, seed=11, scale=scale)
    rng = np.random.default_rng(11)
    for p in points:
        want = np.eye(real.ambient)
        for coeff, mat in zip(rng.uniform(-scale, scale, real.algebra.dim), real.rep):
            want = want @ exp_matrix(mat, float(coeff))
        np.testing.assert_array_equal(p, want)


def test_exp_batch_matches_scalar_calls(rng):
    x = rng.standard_normal((3, 3))
    ts = np.array([0.0, 0.3, -2.5, 7.0])
    batch = exp_matrix(x, ts)
    assert batch.shape == (4, 3, 3)
    for t, got in zip(ts, batch):
        np.testing.assert_array_equal(got, exp_matrix(x, float(t)))
    with pytest.raises(ValueError):
        exp_matrix(x, np.ones((2, 2)))


def test_sampling_overflow_is_a_structure_error(built):
    _, real = built["N4"]
    with pytest.raises(StructureError, match="non-finite"):
        sample_points(real, 3, seed=1, scale=1e120)
    with pytest.raises(StructureError, match="overflows"):
        sample_points(real, 3, seed=1, scale=1e308)
