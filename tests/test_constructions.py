import numpy as np
import pytest

import liemorph as lm
from liemorph.constructions import (IsotropicBasis, bilinear,
                                    damek_ricci_root_graded,
                                    first_construction, max_isotropic,
                                    max_isotropic_orthogonal_to,
                                    restrict_to_xi_perp,
                                    second_construction_check, xi_vector)
from liemorph.errors import ConstructionError, StructureError
from liemorph.groups import sample_points
from liemorph.jets import verify_family


# ---------------------------------------------------------------------------
# isotropic subspaces
# ---------------------------------------------------------------------------

def test_max_isotropic_n2():
    w = max_isotropic(2)
    assert w.dim == 1
    np.testing.assert_array_equal(w.vectors[0], [1.0, 1.0j])
    assert bilinear(w.vectors[0], w.vectors[0]) == 0.0


def test_max_isotropic_n4_pairwise():
    w = max_isotropic(4)
    assert w.dim == 2
    for u in w.vectors:
        for v in w.vectors:
            assert abs(bilinear(u, v)) < 1e-14


def test_max_isotropic_n3_single():
    w = max_isotropic(3)
    assert w.dim == 1
    np.testing.assert_array_equal(w.vectors[0], [1.0, 1.0j, 0.0])


def test_max_isotropic_input_validation():
    with pytest.raises(ValueError):
        max_isotropic(1)
    with pytest.raises(StructureError):
        IsotropicBasis(2, np.array([[1.0, 0.0]]))  # (e1, e1) = 1 != 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_adapted_isotropic_is_maximal_and_survives_restriction(n, rng):
    xi = rng.standard_normal(n)
    w = max_isotropic_orthogonal_to(xi)
    assert w.dim == n // 2
    v = restrict_to_xi_perp(w, xi)
    assert v.dim == (n - 1) // 2
    for vec in v.vectors:
        assert abs(bilinear(vec, vec)) < 1e-10
        assert abs(bilinear(vec, xi)) < 1e-10


def test_restrict_zero_xi_is_identity():
    w = max_isotropic(4)
    v = restrict_to_xi_perp(w, np.zeros(4))
    assert v is w


def test_restrict_consecutive_pairs_n4():
    # the pairing values (w_j, xi) are nonzero for both vectors, but one
    # combination vanishes: the kernel is exactly 1-dimensional
    w = max_isotropic(4)
    xi = np.array([3.0, 1.0, -1.0, -3.0])
    v = restrict_to_xi_perp(w, xi)
    assert v.dim == 1
    vec = v.vectors[0]
    assert abs(bilinear(vec, vec)) < 1e-12
    assert abs(bilinear(vec, xi)) < 1e-12


def test_restrict_drops_exactly_one_dimension(rng):
    for n in (4, 6, 8):
        w = max_isotropic(n)
        xi = rng.standard_normal(n)
        if min(abs(w.vectors @ xi)) < 1e-3:
            continue
        assert restrict_to_xi_perp(w, xi).dim == w.dim - 1


# ---------------------------------------------------------------------------
# xi vectors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(3, [2.0, 0.0, -2.0]),
                                        (4, [3.0, 1.0, -1.0, -3.0]),
                                        (5, [4.0, 2.0, 0.0, -2.0, -4.0])])
def test_xi_vector_s_n(n, expected):
    alg, _ = lm.build_S(n)
    horizontal = np.eye(alg.dim)[:n]  # the diagonal directions
    np.testing.assert_array_equal(xi_vector(alg, horizontal), expected)


def test_xi_vector_vanishes_on_nilpotent(built):
    alg, real = built["H2"]
    horizontal = np.eye(alg.dim)[:4]  # X_1, X_2, Y_1, Y_2
    np.testing.assert_array_equal(xi_vector(alg, horizontal), np.zeros(4))


def test_xi_vector_abelian():
    alg = lm.LieAlgebra(np.zeros((3, 3, 3)), np.eye(3))
    np.testing.assert_array_equal(xi_vector(alg, np.eye(3)), np.zeros(3))


def test_xi_vector_rejects_bad_horizontal(built):
    alg, _ = built["S3"]
    with pytest.raises(StructureError):
        xi_vector(alg, np.eye(alg.dim)[: alg.dim])  # includes derived directions


# ---------------------------------------------------------------------------
# first construction
# ---------------------------------------------------------------------------

def test_first_construction_n3_is_the_superdiagonal_pairing(built, frames):
    alg, real = built["N3"]
    fc = first_construction(alg, real, "N")
    assert [repr(f) for f in fc.phi] == ["entry[0,1]", "entry[1,2]"]
    assert fc.complex_dim == 1
    np.testing.assert_array_equal(fc.restricted.vectors[0], [1.0, 1.0j])
    for p in sample_points(real, 10, seed=1, scale=1.0):
        want = p[0, 1] + 1.0j * p[1, 2]
        assert abs(fc.family[0].value(p) - want) < 1e-14


def test_first_construction_h1_is_x_plus_iy(built, frames):
    alg, real = built["H1"]
    fc = first_construction(alg, real, "H")
    for p in sample_points(real, 10, seed=1, scale=1.0):
        assert abs(fc.family[0].value(p) - (p[0, 1] + 1.0j * p[1, 2])) < 1e-14
    rep = verify_family(fc.family, sample_points(real, 100, seed=7, scale=1.0),
                        frames["H1"], tol=1e-8)
    assert rep.passed


@pytest.mark.parametrize("name,kind", [("N3", "N"), ("N4", "N"), ("H1", "H"),
                                       ("H2", "H"), ("K3", "K"), ("K4", "K"),
                                       ("S3", "S")])
def test_first_construction_families_verify(name, kind, built, frames):
    alg, real = built[name]
    fc = first_construction(alg, real, kind)
    assert fc.complex_dim >= 1
    pts = sample_points(real, 100, seed=7, scale=1.0)
    rep = verify_family(fc.family, pts, frames[name], tol=1e-8)
    assert rep.passed, f"{name}: worst {rep.worst}"


def test_first_construction_k4_map_value(built):
    alg, real = built["K4"]
    fc = first_construction(alg, real, "K")
    for p in sample_points(real, 10, seed=3, scale=1.0):
        want = np.sqrt(3.0) * p[0, 1] + 1.0j * p[3, 4]
        assert abs(fc.family[0].value(p) - want) < 1e-13


def test_first_construction_n4_components_are_riemannian_submersion(built, frames):
    # kappa(phi_k, phi_l) = delta_kl for the superdiagonal components
    alg, real = built["N4"]
    fc = first_construction(alg, real, "N")
    from liemorph.jets import kappa_matrix
    for p in sample_points(real, 50, seed=7, scale=1.0):
        km = kappa_matrix(fc.phi, p, frames["N4"]).real
        assert np.abs(km - np.eye(3)).max() < 1e-9


@pytest.mark.parametrize("n,dim_c", [(3, 1), (4, 1), (5, 2)])
def test_first_construction_s_n_dimensions(n, dim_c):
    alg, real = lm.build_S(n)
    fc = first_construction(alg, real, "S")
    assert fc.complex_dim == dim_c
    assert fc.real_dim == 2 * dim_c
    assert fc.real_dim >= 2


def test_first_construction_s2_fails_with_diagnostic(built):
    alg, real = built["S2"]
    with pytest.raises(ConstructionError, match="xi"):
        first_construction(alg, real, "S")


def test_first_construction_unknown_kind(built):
    alg, real = built["N3"]
    with pytest.raises(ValueError):
        first_construction(alg, real, "Q")


# ---------------------------------------------------------------------------
# second construction
# ---------------------------------------------------------------------------

def test_damek_ricci_graded_validates(built):
    graded = damek_ricci_root_graded(2, 1)
    for check in graded.validation_report():
        assert check.residual <= check.tol, check.name
    assert graded.beta_value(np.array([0.0, 0.0, 0.0, 2.0])) == 1.0


def test_damek_ricci_z_root_rejected():
    with pytest.raises(StructureError, match="beta_orthogonal_to_derived_n"):
        damek_ricci_root_graded(2, 1, beta_root="z")
    graded = damek_ricci_root_graded(2, 1, beta_root="z", validate=False)
    report = {c.name: c for c in graded.validation_report()}
    assert report["beta_orthogonal_to_derived_n"].residual > 0.5


def test_second_construction_dilation_and_minimality(rng):
    graded = damek_ricci_root_graded(2, 1)
    samples = [rng.uniform(-2.0, 2.0, 1) @ graded.a_space.basis for _ in range(20)]
    report = second_construction_check(graded, samples)
    assert all(c.passed for c in report)
    by_name = {c.name: c for c in report}
    assert by_name["dilation_matches_exp_2beta"].residual < 1e-9
    assert by_name["identity_fibre_mean_curvature"].residual < 1e-10


def test_second_construction_zero_sample_gives_unit_dilation():
    graded = damek_ricci_root_graded(2, 1)
    report = second_construction_check(graded, [np.zeros(4)])
    assert all(c.passed for c in report)
    by_name = {c.name: c for c in report}
    assert by_name["dilation_matches_exp_2beta"].residual < 1e-14


def test_second_construction_dilation_formula_explicit():
    # for V = t A and X in v: ||e^{ad V} X|| = e^{t/2} ||X||, so the squared
    # ratio is e^{2 * beta(V)} with beta(V) = t/2
    graded = damek_ricci_root_graded(2, 1)
    alg = graded.algebra
    t = 1.7
    v = t * graded.a_space.basis[0]
    big = lm.exp_matrix(alg.ad(v))
    x = np.eye(4)[0]
    ratio = (big @ x) @ alg.gram @ (big @ x)
    assert abs(ratio - np.exp(t)) < 1e-12


def test_second_construction_rank_one_iwasawa():
    # 2-d algebra [A, X] = X: hyperbolic-plane group, single root beta(A) = 1
    c = np.zeros((2, 2, 2))
    c[1, 0, 0] = 1.0
    c[0, 1, 0] = -1.0
    alg = lm.LieAlgebra(c, np.eye(2))
    graded = lm.RootGradedAlgebra(
        alg, lm.Subspace(2, np.eye(2)[1:]),
        (lm.RootSpace(np.array([1.0]), lm.Subspace(2, np.eye(2)[:1])),), 0)
    report = second_construction_check(graded, [np.array([0.0, s]) for s in (-1.0, 0.5)])
    assert all(c.passed for c in report)
