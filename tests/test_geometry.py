from dataclasses import replace

import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import LieAlgebra
from liemorph.errors import StructureError
from liemorph.geometry import (curvature, curvature_operator,
                               curvature_symmetry_residuals, gl_connection_term,
                               is_constant_curvature, koszul, random_planes,
                               sectional, sectional_profile)


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


@pytest.mark.parametrize("name", ["G3", "G_alpha(0.5)", "DR(2, 1)", "N6", "S4", "N10"])
def test_koszul_fixed_paths_match_the_searched_ones(name):
    """koszul's fixed contraction orders give the bits of optimize=True."""
    alg = {"G3": lambda: lm.build_G3(1.0, 0.5), "G_alpha(0.5)": lambda: lm.build_Galpha(0.5),
           "DR(2, 1)": lambda: lm.build_damek_ricci(2, 1), "N6": lambda: lm.build_N(6),
           "S4": lambda: lm.build_S(4), "N10": lambda: lm.build_N(10)}[name]()[0]
    cholesky = lm.orthonormal_basis(alg)
    rotation, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((alg.dim, alg.dim)))
    for onb in (cholesky, rotation @ cholesky):
        table = koszul(alg, onb)
        br = np.einsum("ai,bj,ijk->abk", onb, onb, alg.structure_constants, optimize=True)
        f = np.einsum("abk,kl,cl->abc", br, alg.gram, onb, optimize=True)
        assert np.array_equal(table.frame_brackets, f)
        assert np.array_equal(table.gamma, 0.5 * (f - f.transpose(2, 0, 1) + f.transpose(1, 2, 0)))


def test_koszul_requires_orthonormal_frame(built):
    alg, _ = built["N3"]
    with pytest.raises(StructureError):
        koszul(alg, 2.0 * np.eye(3))


def test_koszul_refuses_a_partial_or_nan_frame(built):
    alg, _ = built["S3"]
    onb = lm.orthonormal_basis(alg)
    for frame in (onb[:-1], np.full_like(onb, np.nan)):
        with pytest.raises(StructureError, match="orthonormal frame"):
            koszul(alg, frame)


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
    for x, y in zip(*random_planes(3, 200, seed=11)):
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
    assert is_constant_curvature(alg) == (True, -1.0, 0.0)

    alg, _ = built["S2"]  # a flat factor times a hyperbolic plane: not constant
    ok, _, spread = is_constant_curvature(alg)
    assert not ok and spread > 0.1

    alg, _ = built["H1"]
    ok, _, _ = is_constant_curvature(alg)
    assert not ok


@pytest.mark.parametrize("name", ["G3", "Ga1", "DR", "H2", "S3", "N4"])
def test_sectional_profile_matches_per_plane_sectional(built, name):
    alg, _ = built[name]
    table = koszul(alg)
    r = curvature(table)
    values = [sectional(r, x, y) for x, y in zip(*random_planes(alg.dim, 300, seed=4))]
    np.testing.assert_allclose(sectional_profile(alg, 300, 4, table),
                               [min(values), max(values), np.mean(values)],
                               rtol=0, atol=1e-14)


def test_random_planes_are_orthonormal():
    for x, y in zip(*random_planes(4, 50, seed=8)):
        assert abs(x @ x - 1) < 1e-12 and abs(y @ y - 1) < 1e-12
        assert abs(x @ y) < 1e-12


def planes_one_at_a_time(dim, count, rng):
    """The per-plane rejection loop: the oracle for ``random_planes``."""
    planes = []
    while len(planes) < count:
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        nx = np.linalg.norm(x)
        if nx < 1e-6:
            continue
        x = x / nx
        y_perp = y - (x @ y) * x
        ny = np.linalg.norm(y_perp)
        if ny == 0.0 or np.linalg.norm(y) / ny > 1e6:
            continue
        planes.append((x, y_perp / ny))
    return np.array([p[0] for p in planes]), np.array([p[1] for p in planes])


@pytest.mark.parametrize("dim, count", [(3, 2000), (4, 2000), (15, 200), (3, 200)])
@pytest.mark.parametrize("seed", [0, 3, 5000])
def test_random_planes_match_the_loop_bit_for_bit(dim, count, seed):
    x, y = random_planes(dim, count, seed)
    ox, oy = planes_one_at_a_time(dim, count, np.random.default_rng(seed))
    np.testing.assert_array_equal(x, ox)
    np.testing.assert_array_equal(y, oy)


class ScriptedNormals:
    """A generator whose standard normals are a fixed script, then a real stream."""

    def __init__(self, script, rest):
        self.script = list(script)
        self.rest = rest

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        head, self.script = self.script[:n], self.script[n:]
        return np.concatenate([head, self.rest.standard_normal(n - len(head))]).reshape(shape)


def test_random_planes_top_up_rejected_rows(monkeypatch):
    import liemorph.geometry as geometry
    # row 0: x = 0; row 1: y parallel to x; row 3: y a 1e-9 tilt off x
    script = [0.0, 0.0, 0.0, 1.0, 2.0, 3.0,
              1.0, 2.0, 2.0, 2.0, 4.0, 4.0,
              0.3, -1.2, 0.5, 0.7, 0.1, -0.4,
              1.0, 0.0, 0.0, 1.0, 1e-9, 0.0]
    real_rng = np.random.default_rng
    monkeypatch.setattr(geometry.np.random, "default_rng",
                        lambda seed: ScriptedNormals(script, real_rng(seed)))
    x, y = random_planes(3, 5, seed=9)
    ox, oy = planes_one_at_a_time(3, 5, ScriptedNormals(script, real_rng(9)))
    np.testing.assert_array_equal(x, ox)
    np.testing.assert_array_equal(y, oy)
    # three of the first four rows are rejected; the first plane is the third row
    assert len(x) == 5 and x[0] @ [0.3, -1.2, 0.5] > 0.99 * np.linalg.norm([0.3, -1.2, 0.5])


@pytest.mark.parametrize("dim", [0, 1])
def test_random_planes_need_two_dimensions(dim):
    with pytest.raises(ValueError, match="dim >= 2"):
        random_planes(dim, 5, seed=0)


def spectrum(alg):
    return np.linalg.eigvalsh(curvature_operator(curvature(koszul(alg))))


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (0.5, 0.0), (2.0, 1.0), (0.0, 1.0),
                                         (0.3, 0.7), (3.0, -2.0)])
def test_g3_operator_is_minus_alpha_sq(alpha, beta):
    alg, _ = lm.build_G3(alpha, beta)
    np.testing.assert_allclose(spectrum(alg), -alpha * alpha, rtol=0, atol=1e-14)
    ok, mean, spread = is_constant_curvature(alg)
    assert ok and spread == 0.0 and abs(mean + alpha * alpha) < 1e-14


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, -0.3])
def test_galpha_operator_closed_form(a):
    alg, _ = lm.build_Galpha(a)
    np.testing.assert_allclose(spectrum(alg), sorted([-a * a, -1.0, a]), rtol=0, atol=1e-14)
    ok, mean, spread = is_constant_curvature(alg)
    assert abs(mean + (a * a - a + 1.0) / 3.0) < 1e-15
    assert not ok and abs(spread - (max(a, -a * a, -1.0) - min(-a * a, -1.0))) < 1e-14


def test_h1_and_damek_ricci_operator_closed_forms(built):
    alg, _ = built["H1"]
    np.testing.assert_allclose(spectrum(alg), [-0.75, 0.25, 0.25], rtol=0, atol=1e-15)
    assert is_constant_curvature(alg) == (False, -1.0 / 12.0, 1.0)
    # complex hyperbolic plane: spectrum [-3/2, 0], mean -1/2, while the true
    # sectional range is [-1, -1/4]: above dimension 3 the spectrum is a bound
    alg, _ = built["DR"]
    eig = spectrum(alg)
    assert abs(eig[0] + 1.5) < 1e-14 and abs(eig[-1]) < 1e-14
    ok, mean, spread = is_constant_curvature(alg)
    assert not ok and abs(mean + 0.5) < 1e-15 and abs(spread - 1.5) < 1e-14


def test_operator_is_symmetric_and_gives_sectional_curvature(built, rng):
    for name, (alg, _) in built.items():
        r = curvature(koszul(alg))
        op = curvature_operator(r)
        assert op.shape == (alg.dim * (alg.dim - 1) // 2,) * 2, name
        np.testing.assert_allclose(op, op.T, rtol=0, atol=1e-13, err_msg=name)
        x, y = random_planes(alg.dim, 1, seed=5)
        a, b = np.triu_indices(alg.dim, 1)
        w = x[0, a] * y[0, b] - x[0, b] * y[0, a]
        assert abs(w @ op @ w - sectional(r, x[0], y[0])) < 1e-13, name


def test_sampled_planes_stay_inside_the_spectrum(built):
    for name, (alg, _) in built.items():
        eig = spectrum(alg)
        lo, hi, mean = sectional_profile(alg, 500, seed=6)
        assert eig[0] - 1e-12 <= lo and hi <= eig[-1] + 1e-12, name
        assert eig[0] - 1e-12 <= mean <= eig[-1] + 1e-12, name


def test_curvature_is_computed_once_per_table(built):
    table = koszul(built["G3"][0])
    r = curvature(table)
    assert curvature(table) is r
    assert not r.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_curvature_fails_the_spread(built, bad):
    alg, _ = built["G3"]
    table = koszul(alg)
    gamma = table.gamma.copy()
    gamma[0, 1, 2] = bad
    with np.errstate(invalid="ignore"):     # inf - inf inside the curvature tensor
        ok, _, spread = is_constant_curvature(alg, table=replace(table, gamma=gamma))
    assert not ok and np.isnan(spread)


def test_constant_curvature_needs_two_dimensions():
    with pytest.raises(ValueError, match="dim >= 2"):
        is_constant_curvature(flat(1))
