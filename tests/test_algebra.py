import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import (LieAlgebra, Subspace, _bracket_span, center,
                              derived_series, full_space, is_abelian, is_nilpotent,
                              is_solvable, lower_central_series,
                              orthocomplement, orthonormalize, span)
from liemorph.errors import StructureError


def abelian(n):
    return LieAlgebra(np.zeros((n, n, n)), np.eye(n))


def so3():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1; c[1, 0, 2] = -1
    c[1, 2, 0] = 1; c[2, 1, 0] = -1
    c[2, 0, 1] = 1; c[0, 2, 1] = -1
    return LieAlgebra(c, np.eye(3))


def test_bracket_heisenberg(built):
    alg, _ = built["H1"]
    x, y, z = np.eye(3)
    np.testing.assert_allclose(alg.bracket(x, y), z, atol=1e-15)
    np.testing.assert_allclose(alg.bracket(y, x), -z, atol=1e-15)


def test_bracket_antisymmetry_random(built, rng):
    alg, _ = built["S3"]
    for _ in range(20):
        x = rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim)
        np.testing.assert_allclose(alg.bracket(x, x), 0.0, atol=1e-12)
        np.testing.assert_allclose(alg.bracket(x, y), -alg.bracket(y, x), atol=1e-12)


def test_bracket_g3_beta_zero():
    alg, _ = lm.build_G3(0.75, 0.0)
    e1, e2, _ = np.eye(3)
    np.testing.assert_allclose(alg.bracket(e1, e2), 0.75 * e2, atol=1e-15)


def test_bracket_dimension_mismatch(built):
    alg, _ = built["N3"]
    with pytest.raises(ValueError):
        alg.bracket(np.ones(2), np.ones(3))


def test_validation_rejects_broken_jacobi():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1; c[1, 0, 2] = -1
    c[0, 2, 0] = 1; c[2, 0, 0] = -1
    c[1, 2, 1] = 1; c[2, 1, 1] = -1
    with pytest.raises(StructureError, match="jacobi"):
        LieAlgebra(c, np.eye(3))
    report = LieAlgebra(c, np.eye(3), validate=False).validation_report()
    assert {c.name: c for c in report}["jacobi"].residual > 1.0


def test_validation_rejects_asymmetric_constants():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # missing the antisymmetric partner
    with pytest.raises(StructureError, match="antisymmetry"):
        LieAlgebra(c, np.eye(2))


def test_validation_rejects_bad_gram(built):
    alg, _ = built["H1"]
    with pytest.raises(StructureError, match="positive"):
        LieAlgebra(alg.structure_constants, -np.eye(3))


def test_builtin_jacobi_residuals(built):
    for name, (alg, _) in built.items():
        for check in alg.validation_report():
            assert check.residual <= check.tol, f"{name}: {check.name} residual {check.residual}"


def test_lower_central_series_n3(built):
    alg, _ = built["N3"]
    dims = [s.dim for s in lower_central_series(alg)]
    assert dims == [3, 1, 0]
    assert is_nilpotent(alg)


def tri(m):
    return max(m, 0) * (m + 1) // 2


def derived_dims_of_n(n):
    """Derived series of N_n: the matrices supported on superdiagonals >= 2^k."""
    dims, k = [], 1
    while k < n:
        dims.append(tri(n - k))
        k *= 2
    return dims + [0]


def assert_exact_structure(alg, real):
    """Integer constants and matrices: the Jacobi and homomorphism sums are exact."""
    assert {c.name: c.residual for c in alg.validation_report()}["jacobi"] == 0.0
    assert real.homomorphism_residual() == 0.0


@pytest.mark.parametrize("n", range(3, 15))
def test_series_of_n_closed_forms(n):
    alg, real = lm.build_N(n)
    assert_exact_structure(alg, real)
    # g^k is supported on superdiagonals >= k + 1
    lower = lower_central_series(alg)
    assert [s.dim for s in lower] == [tri(n - k) for k in range(1, n + 1)]
    assert [s.dim for s in derived_series(alg)] == derived_dims_of_n(n)
    assert lower[-1].dim == 0     # nilpotent, read off the series is_nilpotent would recompute


@pytest.mark.parametrize("n", range(2, 13))
def test_series_of_s_closed_forms(n):
    alg, real = lm.build_S(n)
    assert_exact_structure(alg, real)
    # [S_n, S_n] = [S_n, N_n] = N_n, after which the derived series is that of N_n
    assert [s.dim for s in lower_central_series(alg)] == [tri(n), tri(n - 1)]
    assert [s.dim for s in derived_series(alg)] == [tri(n)] + derived_dims_of_n(n)
    assert center(alg).dim == 1


def test_bracket_noise_spans_nothing():
    # The bases of the center and of the last nonzero g^k come out of SVDs, so
    # their brackets with g are rounding noise (~1e-16), not zero; the scale
    # floor of the rank decision keeps that noise from counting as directions.
    alg, _ = lm.build_N(10)
    last = lower_central_series(alg)[-2]
    z = center(alg)
    assert last.dim == z.dim == 1
    for sub in (last, z):
        assert _bracket_span(alg, np.eye(alg.dim), sub.basis).dim == 0


def test_series_abelian():
    alg = abelian(4)
    assert [s.dim for s in derived_series(alg)] == [4, 0]
    assert [s.dim for s in lower_central_series(alg)] == [4, 0]
    assert is_abelian(alg)


@pytest.mark.parametrize("n", [3, 4])
def test_derived_algebra_of_s_n_is_strictly_upper(n):
    alg, _ = lm.build_S(n)
    derived = derived_series(alg)[1]
    assert derived.dim == n * (n - 1) // 2
    # basis order is D_1..D_n then the E_rs block
    strictly_upper = Subspace(alg.dim, np.eye(alg.dim)[n:])
    assert derived.equals(strictly_upper)
    assert is_solvable(alg) and not is_nilpotent(alg)


def test_derived_equals_pairwise_bracket_span(built):
    for name in ("N4", "H2", "K4", "S3", "G3", "DR"):
        alg, _ = built[name]
        derived = derived_series(alg)[1]
        eye = np.eye(alg.dim)
        brackets = [alg.bracket(eye[i], eye[j])
                    for i in range(alg.dim) for j in range(i + 1, alg.dim)]
        assert derived.equals(span(brackets, alg.dim)), name


def test_center_heisenberg(built):
    for name, zdim in (("H1", 1), ("H2", 1)):
        alg, _ = built[name]
        z = center(alg)
        assert z.dim == zdim
        # the last basis vector is the central Z
        assert z.contains(np.eye(alg.dim)[-1])


def test_center_galpha_trivial(built):
    alg, _ = built["Ga1"]
    assert center(alg).dim == 0


def test_center_abelian_is_everything():
    alg = abelian(3)
    assert center(alg).dim == 3


@pytest.mark.parametrize("factor, center_dim, derived_dims, abelian_", [
    (1e-11, 3, [3, 0], True), (1e-12, 3, [3, 0], True), (1e-200, 3, [3, 0], True),
    (1e-9, 0, [3, 2, 0], False), (1.0, 0, [3, 2, 0], False)])
def test_structure_predicates_share_one_noise_floor(factor, center_dim, derived_dims, abelian_):
    # brackets below 1e-10 * max(1, max |c|) are rounding noise to the center,
    # the series and the abelian test alike
    base = lm.build_G3(1.0, 0.5)[0]
    alg = LieAlgebra(base.structure_constants * factor, base.gram)
    assert center(alg).dim == center_dim
    assert [s.dim for s in derived_series(alg)] == derived_dims
    assert is_abelian(alg) == abelian_


def test_so3_not_solvable():
    assert not is_solvable(so3())
    assert not is_nilpotent(so3())


def test_ad_trace_zero_on_nilpotent(built, rng):
    for name in ("N4", "H2", "K4"):
        alg, _ = built[name]
        for _ in range(10):
            assert alg.ad_trace(rng.standard_normal(alg.dim)) == 0.0, name


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ad_trace_diagonal_of_s_n(n):
    alg, _ = lm.build_S(n)
    for t in range(n):
        assert alg.ad_trace(np.eye(alg.dim)[t]) == float(n + 1 - 2 * (t + 1))
    assert alg.ad_trace(np.zeros(alg.dim)) == 0.0


def test_ad_trace_linearity(built, rng):
    alg, _ = built["S3"]
    for _ in range(25):
        x = rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim)
        lhs = alg.ad_trace(x + y)
        rhs = alg.ad_trace(x) + alg.ad_trace(y)
        assert abs(lhs - rhs) < 1e-12


def test_nonabelian_nilpotent_codimension_at_least_two(built):
    # the derived algebra of a non-abelian nilpotent algebra has codim >= 2
    for name in ("N3", "N4", "H1", "H2", "K3", "K4", "DR"):
        alg, _ = built[name]
        if not is_nilpotent(alg):
            continue
        assert alg.dim - derived_series(alg)[1].dim >= 2, name


def test_orthonormalize_identity_basis(built):
    alg, _ = built["N3"]
    out = orthonormalize(alg, full_space(alg))
    np.testing.assert_allclose(out.basis, np.eye(3), atol=1e-14)


def test_orthonormalize_hand_case():
    alg = abelian(2)
    out = orthonormalize(alg, Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]])))
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(out.basis[0], [s, s], atol=1e-14)
    # sign convention: first nonzero coefficient positive
    np.testing.assert_allclose(out.basis[1], [s, -s], atol=1e-14)


def test_orthonormalize_scaling():
    alg = abelian(3)
    out = orthonormalize(alg, Subspace(3, np.array([[2.0, 0.0, 0.0]])))
    np.testing.assert_allclose(out.basis, [[1.0, 0.0, 0.0]], atol=1e-15)


def test_orthonormalize_nontrivial_gram():
    gram = np.array([[2.0, 0.3], [0.3, 1.0]])
    alg = LieAlgebra(np.zeros((2, 2, 2)), gram)
    out = orthonormalize(alg, full_space(alg))
    np.testing.assert_allclose(out.basis @ gram @ out.basis.T, np.eye(2), atol=1e-12)


def test_orthonormalize_rank_deficient():
    alg = abelian(2)
    with pytest.raises(StructureError):
        orthonormalize(alg, Subspace(2, np.array([[1.0, 0.0], [1.0 + 1e-14, 0.0]])))


def test_orthocomplement(built):
    alg, _ = built["S2"]
    derived = derived_series(alg)[1]
    horiz = orthocomplement(alg, derived)
    assert horiz.dim == 2
    for h in horiz.basis:
        for b in derived.basis:
            assert abs(h @ alg.gram @ b) < 1e-12


def test_subspace_equality_tolerant():
    a = Subspace(3, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    b = Subspace(3, np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]))
    c = Subspace(3, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert a.equals(b)
    assert not a.equals(c)


@pytest.mark.parametrize("validate", [True, False])
def test_zero_dimensional_algebra_is_a_structure_error(validate):
    with pytest.raises(StructureError, match=r"d >= 1, got \(0, 0, 0\)"):
        LieAlgebra(np.zeros((0, 0, 0)), np.zeros((0, 0)), validate=validate)
