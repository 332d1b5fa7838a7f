import math

import numpy as np
import pytest

import liemorph as lm
from liemorph import jets
from liemorph.constructions import (IsotropicBasis, _phi_and_horizontal,
                                    damek_ricci_grading, damek_ricci_root_graded,
                                    first_construction,
                                    max_isotropic_orthogonal_to,
                                    second_construction_check, xi_vector)
from liemorph.errors import ConstructionError, StructureError
from liemorph.groups import sample_points
from liemorph.jets import verify_family


# ---------------------------------------------------------------------------
# isotropic subspaces
# ---------------------------------------------------------------------------

def test_max_isotropic_n2():
    w = max_isotropic_orthogonal_to(np.zeros(2))
    assert w.dim == 1
    np.testing.assert_array_equal(w.vectors[0], [1.0, 1.0j])
    assert w.vectors[0] @ w.vectors[0] == 0.0


def test_max_isotropic_n4_pairwise():
    w = max_isotropic_orthogonal_to(np.zeros(4))
    assert w.dim == 2
    for u in w.vectors:
        for v in w.vectors:
            assert abs(u @ v) < 1e-14


def test_max_isotropic_n3_single():
    w = max_isotropic_orthogonal_to(np.zeros(3))
    assert w.dim == 1
    np.testing.assert_array_equal(w.vectors[0], [1.0, 1.0j, 0.0])


def test_max_isotropic_input_validation():
    with pytest.raises(ValueError):
        max_isotropic_orthogonal_to(np.zeros(1))
    with pytest.raises(StructureError):
        IsotropicBasis(2, np.array([[1.0, 0.0]]))  # (e1, e1) = 1 != 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_adapted_isotropic_is_maximal_and_survives_restriction(n, rng):
    # maximal in xi-perp: floor((n-1)/2) vectors, each already orthogonal to xi
    xi = rng.standard_normal(n)
    v = max_isotropic_orthogonal_to(xi)
    assert v.dim == (n - 1) // 2
    for vec in v.vectors:
        assert abs(vec @ vec) < 1e-10
        assert abs(vec @ xi) < 1e-10


def test_restrict_zero_xi_is_identity():
    # a zero xi cuts nothing: the basis spans a maximal isotropic subspace of all of C^n
    for n in (2, 3, 4, 5):
        v = max_isotropic_orthogonal_to(np.zeros(n))
        want = np.zeros((n // 2, n), dtype=complex)
        want[range(n // 2), range(0, n - 1, 2)] = 1.0
        want[range(n // 2), range(1, n, 2)] = 1.0j
        assert v.vectors.tobytes() == want.tobytes()


def test_a_xi_at_or_below_the_floor_counts_as_zero():
    xi = np.array([3e-13, 4e-13, 0.0, 0.0])           # norm 5e-13 <= 1e-12
    w = max_isotropic_orthogonal_to(xi)
    assert np.array_equal(w.vectors, max_isotropic_orthogonal_to(np.zeros(4)).vectors)


@pytest.mark.parametrize("n", [4, 5])
def test_a_xi_of_norm_1e_6_counts_as_nonzero(n):
    # a norm far above the 1e-12 floor: xi counts as nonzero and cuts C^n to xi-perp
    xi = 1e-6 * np.arange(1.0, n + 1) / np.linalg.norm(np.arange(1.0, n + 1))
    w = max_isotropic_orthogonal_to(xi)
    assert w.dim == (n - 1) // 2
    for vec in w.vectors:
        assert abs(vec @ vec) < 1e-14
        assert abs(vec @ xi) < 1e-14 * np.linalg.norm(xi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_isotropic_input_raises_before_lapack(bad, monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("non-finite input reached LAPACK")

    for name in ("svd", "qr", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    with pytest.raises(StructureError, match="non-finite"):
        IsotropicBasis(3, [[bad, 1j, 0.0]])
    with pytest.raises(StructureError, match="non-finite"):
        IsotropicBasis(2, [[1.0, complex(0.0, bad)]])
    for xi in ([bad, 1.0, 0.0, 0.0], [bad, 0.0, 0.0]):
        with pytest.raises(StructureError, match="non-finite"):
            max_isotropic_orthogonal_to(xi)


def test_restrict_consecutive_pairs_n4():
    # S_4's xi: xi-perp is 3-dimensional, so one isotropic vector u_1 + i u_2
    xi = np.array([3.0, 1.0, -1.0, -3.0])
    v = max_isotropic_orthogonal_to(xi)
    assert v.dim == 1
    vec = v.vectors[0]
    assert abs(vec @ vec) < 1e-12
    assert abs(vec @ xi) < 1e-12


def test_restrict_drops_exactly_one_dimension(rng):
    # for even n a nonzero xi costs exactly one isotropic direction; for odd n none
    for n in (3, 4, 5, 6, 7, 8):
        xi = rng.standard_normal(n)
        drop = max_isotropic_orthogonal_to(np.zeros(n)).dim - max_isotropic_orthogonal_to(xi).dim
        assert drop == 1 - n % 2


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
    pts = sample_points(real, 50, seed=7, scale=1.0)
    kap = jets._frame_operators(fc.phi, pts, frames["N4"])[0].real
    assert np.abs(kap - np.eye(3)).max() < 1e-9


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


def test_first_construction_of_a_one_component_phi_fails_with_diagnostic():
    alg, real = lm.build_N(2)
    with pytest.raises(ConstructionError, match="1 component"):
        first_construction(alg, real, "N")


FAMILY_BUILDS = {
    **{f"S{n}": (lm.build_S, n, "S") for n in range(2, 13)},
    **{f"N{n}": (lm.build_N, n, "N") for n in range(3, 11)},
    **{f"H{n}": (lm.build_H, n, "H") for n in range(1, 5)},
    **{f"K{n}": (lm.build_K, n, "K") for n in range(3, 10)},
}


def w_then_restrict(xi):
    """The family basis by the older two-step recipe, kept here as a reference.

    A maximal isotropic W of C^n adapted to xi (for even n its last vector,
    u_0 + i u_{n-1}, pairs with xi to +-|xi|), then the combinations of W that
    pair with xi to zero, from an SVD of the pairing row, each scaled to a
    largest entry of 1.
    """
    n = len(xi)
    if np.linalg.norm(xi) <= 1e-12:
        w = np.zeros((n // 2, n), dtype=complex)
        w[range(n // 2), range(0, n - 1, 2)] = 1.0
        w[range(n // 2), range(1, n, 2)] = 1.0j
        return w
    q, _ = np.linalg.qr(np.concatenate([xi.reshape(-1, 1) / np.linalg.norm(xi), np.eye(n)],
                                       axis=1))
    u = q.T
    w = [u[1 + 2 * k] + 1.0j * u[2 + 2 * k] for k in range((n - 1) // 2)]
    if n % 2 == 0:
        w.append(u[0] + 1.0j * u[n - 1])
    w = np.array(w)
    pairings = w @ xi.astype(complex)
    if np.abs(pairings).max() <= 1e-12 * max(1.0, np.abs(xi).max()):
        return w
    _, _, vh = np.linalg.svd(pairings.reshape(1, -1))
    return np.array([v / v[np.argmax(np.abs(v))] for v in vh[1:].conj() @ w]).reshape(-1, n)


def complex_projector(rows):
    q, _ = np.linalg.qr(rows.T)
    return q @ q.conj().T


@pytest.mark.parametrize("name", sorted(FAMILY_BUILDS))
def test_the_family_matches_the_w_then_restrict_recipe(name):
    build, n, kind = FAMILY_BUILDS[name]
    alg, real = build(n)
    if name == "S2":    # xi != 0 and dim h = 2: both recipes are empty
        with pytest.raises(ConstructionError, match="xi"):
            first_construction(alg, real, kind)
        xi = xi_vector(alg, _phi_and_horizontal(alg, real, kind)[1])
        assert w_then_restrict(xi).shape == (0, 2)
        return
    fc = first_construction(alg, real, kind)
    got, want = fc.restricted.vectors, w_then_restrict(fc.xi)
    assert got.shape == want.shape and len(got) >= 1, name
    if not np.linalg.norm(fc.xi) or len(fc.xi) % 2:
        assert got.tobytes() == want.tobytes(), name
    assert np.abs(complex_projector(got) - complex_projector(want)).max() <= 1e-12, name


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


def test_beta_value_of_a_stack_matches_each_vector():
    graded = damek_ricci_root_graded(2, 1)
    stack = np.outer(np.linspace(-3.0, 3.0, 7), graded.a_space.basis[0])
    values = graded.beta_value(stack)
    assert values.shape == (7,)
    assert values.tolist() == [graded.beta_value(v) for v in stack]
    with pytest.raises(ValueError, match="abelian part"):
        graded.beta_value(np.vstack([stack, np.eye(4)[:1]]))


def test_damek_ricci_z_root_rejected():
    with pytest.raises(StructureError, match="beta_orthogonal_to_derived_n"):
        damek_ricci_root_graded(2, 1, beta_root="z")
    graded = damek_ricci_grading(lm.build_damek_ricci(2, 1)[0], 2, 1, "z", validate=False)
    report = {c.name: c for c in graded.validation_report()}
    assert report["beta_orthogonal_to_derived_n"].residual > 0.5


def test_second_construction_needs_a_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        second_construction_check(damek_ricci_root_graded(2, 1), [])
    with pytest.raises(ValueError, match="at least one sample"):
        second_construction_check(damek_ricci_root_graded(2, 1), iter(()))


@pytest.mark.parametrize("samples", [[np.zeros(3)], [np.zeros(4), np.zeros(3)],
                                     np.zeros((2, 4, 1)), np.zeros(4)],
                         ids=["short", "ragged", "three-d", "one vector"])
def test_second_construction_names_a_sample_of_the_wrong_shape(samples):
    with pytest.raises(ValueError, match=r"a_samples must be an \(N, 4\) array"):
        second_construction_check(damek_ricci_root_graded(2, 1), samples)


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


def product_exponential(graded, v):
    """e^{ad V} as the product of e^{t_p ad f_p} over the basis f_p of a, V = sum_p t_p f_p."""
    alg = graded.algebra
    big = np.eye(alg.dim)
    for f, t in zip(graded.a_space.basis, graded.a_coordinates(v)):
        big = big @ lm.exp_matrix(alg.ad(f), t)
    return big


def dilation_residual_per_sample(graded, samples):
    """Reference: the dilation defect one sample and one beta vector at a time."""
    alg, g = graded.algebra, graded.algebra.gram
    worst = 0.0
    for v in samples:
        target = math.exp(2.0 * graded.beta_value(v))
        big = product_exponential(graded, v)
        for x in lm.orthonormalize(alg, graded.beta.space).basis:
            image = big @ x
            ratio = float(image @ g @ image) / float(x @ g @ x)
            worst = max(worst, abs(ratio - target) / max(1.0, target))
    return worst


def s3_root_graded():
    """Upper triangular 3 x 3: a = the diagonal, beta the root of E_12."""
    alg, _ = lm.build_S(3)
    eye = np.eye(6)
    roots = tuple(lm.RootSpace(np.array(values), lm.Subspace(6, eye[[k]]))
                  for values, k in (([1.0, -1.0, 0.0], 3), ([1.0, 0.0, -1.0], 4),
                                    ([0.0, 1.0, -1.0], 5)))
    return lm.RootGradedAlgebra(alg, lm.Subspace(6, eye[:3]), roots, 0)


@pytest.mark.parametrize("graded", [damek_ricci_root_graded(2, 1), s3_root_graded()],
                         ids=["damek_ricci", "S3"])
def test_batched_dilation_matches_per_sample_reference(graded):
    rng = np.random.default_rng(9)
    samples = [rng.uniform(-4.0, 4.0, graded.a_space.dim) @ graded.a_space.basis
               for _ in range(300)]
    by_name = {c.name: c for c in second_construction_check(graded, samples)}
    assert by_name["dilation_matches_exp_2beta"].passed
    want = dilation_residual_per_sample(graded, samples)
    assert by_name["dilation_matches_exp_2beta"].residual == pytest.approx(want, rel=0, abs=1e-15)


@pytest.mark.parametrize("graded", [damek_ricci_root_graded(2, 1), s3_root_graded()],
                         ids=["damek_ricci", "S3"])
def test_product_exponential_matches_the_exponential_of_the_sum(graded):
    # a is abelian, so the product over its basis is e^{ad V} up to rounding: the
    # exponential of ||ad V|| <= 8 takes at most 4 squarings, each about doubling
    # the error, so 2^12 ulps of its largest entry bound the gap
    rng = np.random.default_rng(9)
    for v in rng.uniform(-4.0, 4.0, (300, graded.a_space.dim)) @ graded.a_space.basis:
        whole = lm.exp_matrix(graded.algebra.ad(v))
        gap = np.abs(product_exponential(graded, v) - whole).max()
        assert gap <= 2.0 ** 12 * np.finfo(float).eps * np.abs(whole).max()


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


def hand_written_horizontal(algebra, realization, kind):
    """The horizontal rows as they were listed per kind, before being read off d phi."""
    eye = np.eye(algebra.dim)
    ambient = realization.ambient
    if kind == "N":
        n = ambient
        entries = [(r, s) for r in range(n) for s in range(r + 1, n)]     # build_N's order
        horizontal = [eye[entries.index((k, k + 1))] for k in range(n - 1)]
    elif kind == "H":
        n = ambient - 2
        horizontal = [eye[k] for k in range(2 * n)]
    elif kind == "K":
        n = ambient - 1
        horizontal = [eye[n], eye[n - 1]]   # X, then Y_n
    else:
        horizontal = [eye[t] for t in range(ambient)]
    return np.array(horizontal, dtype=float)


FIRST_KINDS = ([("N", n) for n in range(2, 11)] + [("H", n) for n in range(1, 5)]
               + [("K", n) for n in range(2, 10)] + [("S", n) for n in range(2, 9)])


@pytest.mark.parametrize("kind, n", FIRST_KINDS)
def test_horizontal_rows_from_dphi_are_the_hand_written_rows(kind, n):
    alg, real = getattr(lm, f"build_{kind}")(n)
    fields, horizontal = _phi_and_horizontal(alg, real, kind)
    want = hand_written_horizontal(alg, real, kind)
    assert len(fields) == len(horizontal)
    assert horizontal.shape == want.shape and horizontal.tobytes() == want.tobytes()
