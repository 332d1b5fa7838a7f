import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liemorph as lm
from liemorph import jets
from liemorph.errors import DomainError, StructureError
from liemorph.geometry import koszul
from liemorph.groups import MatrixRealization, sample_points
from liemorph.jets import (Constant, CurveJet, FamilyReport, Frame, HolomorphicImage, Jet2,
                           LinearCombo, Polynomial, ScalarField, fd_check, holomorphic_post,
                           linear_combination, log_diag, matrix_entry, random_polynomial,
                           verify_family)


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Jet2 arithmetic
# ---------------------------------------------------------------------------

def poly_jet(coeffs):
    """Jet at s=0 of the polynomial sum coeffs[k] s^k."""
    c = list(coeffs) + [0.0, 0.0, 0.0]
    return Jet2(c[0], c[1], 2.0 * c[2])


def test_jet_product_rule(rng):
    for _ in range(20):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        prod = np.polynomial.polynomial.polymul(a, b)
        got = poly_jet(a) * poly_jet(b)
        want = poly_jet(prod)
        assert abs(got.v - want.v) < 1e-12
        assert abs(got.d1 - want.d1) < 1e-12
        assert abs(got.d2 - want.d2) < 1e-12


def test_jet_log_against_fd(rng):
    h = 1e-5
    for _ in range(10):
        a = rng.uniform(0.5, 2.0, 3)
        g = lambda s: np.log(np.polyval(a[::-1], s))
        got = poly_jet(a).log()
        assert rel_err(got.d1, (g(h) - g(-h)) / (2 * h)) < 1e-8
        assert rel_err(got.d2, (g(h) - 2 * g(0) + g(-h)) / h ** 2) < 1e-4


def test_jet_log_domain():
    with pytest.raises(DomainError):
        Jet2(-1.0, 0.0, 0.0).log()


# ---------------------------------------------------------------------------
# the batched jets and their oracles
# ---------------------------------------------------------------------------

def direction_mats(real, directions):
    """The realization's matrices of a stack of algebra vectors, (D, n, n)."""
    return np.tensordot(np.asarray(directions, dtype=float), real.rep, axes=1)


def test_derivs_n3_basic(built):
    alg, real = built["N3"]
    mats = direction_mats(real, [[1.0, 0.0, 0.0], np.zeros(3)])
    d1, d2 = jets._jets((matrix_entry(0, 1), matrix_entry(0, 2)), np.eye(3)[None], mats)
    assert d1.tolist() == [[[1.0, 0.0]], [[0.0, 0.0]]]       # (fields, points, directions)
    assert not d2.any()


def quadratic_interp_oracle(field, point, mat):
    """Exact 3-point interpolation of phi along the truncated quadratic curve.

    For matrix-entry fields the curve entry is a quadratic polynomial in s, so
    sampling at s = -1, 0, 1 recovers the derivatives without truncation error.
    """
    def at(s):
        return field.value(point + s * (point @ mat) + 0.5 * s * s * (point @ mat @ mat))
    return (at(1.0) - at(-1.0)) / 2.0, at(1.0) - 2.0 * at(0.0) + at(-1.0)


def test_derivs_match_symbolic_quadratic(built, rng):
    # entry fields and real linear combinations are quadratic along the curve
    for name in ("N4", "S3"):
        alg, real = built[name]
        pts = sample_points(real, 5, seed=21, scale=1.0)
        n = real.ambient
        fields = [matrix_entry(i, j) for i in range(n) for j in range(n)]
        fields.append(linear_combination([0.7, -1.3], [fields[1], fields[n]]))
        fields = fields[:: max(1, len(fields) // 7)]
        mats = direction_mats(real, rng.uniform(-1, 1, (3, alg.dim)))
        d1, d2 = jets._jets(fields, pts, mats)
        for k, f in enumerate(fields):
            for t, p in enumerate(pts):
                for a, mat in enumerate(mats):
                    want = quadratic_interp_oracle(f, p, mat)
                    assert abs(d1[k, t, a] - want[0]) < 1e-12
                    assert abs(d2[k, t, a] - want[1]) < 1e-12


def assert_jets_match_fd_check(fields, points, directions, real):
    """Each field's jet at point t along direction t against its finite differences."""
    d1, d2 = jets._jets(fields, points, direction_mats(real, directions))
    for k, f in enumerate(fields):
        for t, (p, x) in enumerate(zip(points, directions)):
            fd = fd_check(f, p, x, real)
            assert rel_err(d1[k, t, t], fd[0]) < 1e-6
            assert rel_err(d2[k, t, t], fd[1]) < 1e-6


def test_fd_check_matches_derivs_entry_fields(built, rng):
    alg, real = built["N4"]
    assert_jets_match_fd_check([matrix_entry(0, 2)], sample_points(real, 20, seed=5, scale=1.0),
                               rng.uniform(-1, 1, (20, alg.dim)), real)


def test_fd_check_matches_derivs_log_diag(built, rng):
    alg, real = built["S3"]
    assert_jets_match_fd_check([log_diag(i) for i in range(3)],
                               sample_points(real, 10, seed=6, scale=0.8),
                               rng.uniform(-1, 1, (10, alg.dim)), real)


def test_a_curve_forms_each_entry_jet_once(built, monkeypatch):
    from liemorph.jets import MatrixEntry, pairing
    _, real = built["S3"]
    formed = []
    original = MatrixEntry.eval_jet

    def counted(self, curve):
        formed.append((self.i, self.j))
        return original(self, curve)

    monkeypatch.setattr(MatrixEntry, "eval_jet", counted)
    curve = CurveJet.along(np.stack(sample_points(real, 5, seed=1)), real.rep)
    log, entry = log_diag(0), matrix_entry(0, 0)
    curve.jet(log)
    assert entry in curve._fields        # the log reads its entry through the curve's one memo
    for f in (entry, pairing([1.0, 2.0j], [log, entry])):
        curve.jet(f)
    assert formed == [(0, 0)]


def test_fd_check_constant_field(built):
    alg, real = built["N3"]
    fd = fd_check(Constant(4.2), np.eye(3), np.ones(3), real)
    assert fd == (0.0, 0.0)
    with pytest.raises(ValueError):
        fd_check(Constant(1.0), np.eye(3), np.ones(3), real, h=0.0)


def test_log_diag_domain_error(built):
    alg, real = built["S2"]
    with pytest.raises(DomainError):
        jets._jets((log_diag(0),), -np.eye(2)[None], direction_mats(real, [np.zeros(alg.dim)]))


# ---------------------------------------------------------------------------
# kappa / laplacian
# ---------------------------------------------------------------------------

def closed_form_kappa(p, i, j, k, l):
    """Independent oracle: delta_jl * sum_{max(i,k) <= r < l} x_ir x_kr."""
    if j != l:
        return 0.0
    return float(sum(p[i, r] * p[k, r] for r in range(max(i, k), l)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kappa_closed_form_oracle(n):
    alg, real = lm.build_N(n)
    frame = Frame.build(alg, real)
    entries = [(i, j) for i in range(n) for j in range(i + 1, n)]
    fields = [matrix_entry(i, j) for i, j in entries]
    pts = sample_points(real, 20, seed=n, scale=1.0)
    for p, km in zip(pts, jets._frame_operators(fields, pts, frame)[0].real):
        for a, (i, j) in enumerate(entries):
            for b, (k, l) in enumerate(entries):
                assert abs(km[a, b] - closed_form_kappa(p, i, j, k, l)) < 1e-9


def test_kappa_at_identity_n3(frames):
    kap, _ = jets._frame_operators((matrix_entry(0, 1),), np.eye(3)[None], frames["N3"])
    assert abs(kap[0, 0, 0] - 1.0) < 1e-14


def test_kappa_with_constant_vanishes(built, frames):
    alg, real = built["N4"]
    pts = sample_points(real, 5, seed=3, scale=1.0)
    kap, _ = jets._frame_operators((matrix_entry(0, 1), Constant(3.0)), pts, frames["N4"])
    assert (kap[:, 0, 1] == 0.0).all() and (kap[:, 1, 0] == 0.0).all()


def test_kappa_symmetry(built, frames, rng):
    alg, real = built["S3"]
    frame = frames["S3"]
    fields = (log_diag(0), matrix_entry(0, 2), log_diag(2))
    pts = sample_points(real, 10, seed=12, scale=0.7)
    kap = jets._frame_operators(fields, pts, frame)[0]
    reversed_kap = jets._frame_operators(fields[::-1], pts, frame)[0][:, ::-1, ::-1]
    assert np.abs(kap - kap.transpose(0, 2, 1)).max() < 1e-12
    assert np.abs(kap - reversed_kap).max() < 1e-12


def random_orthogonal(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def test_kappa_and_tau_basis_independence(built, rng):
    for name in ("N4", "S3"):
        alg, real = built[name]
        frame1 = Frame.build(alg, real)
        frame2 = Frame.build(alg, real, onb=random_orthogonal(alg.dim, rng) @ frame1.onb)
        fields = [matrix_entry(0, real.ambient - 1), matrix_entry(0, 1)]
        if name == "S3":
            fields.append(log_diag(1))
        pts = sample_points(real, 5, seed=77, scale=0.9)
        k1, t1 = jets._frame_operators(fields, pts, frame1)
        k2, t2 = jets._frame_operators(fields, pts, frame2)
        assert np.abs(k1 - k2).max() < 1e-10
        assert np.abs(t1 - t2).max() < 1e-10


REALIZED = {
    **{f"N{n}": (lm.build_N, (n,)) for n in range(2, 11)},
    **{f"H{n}": (lm.build_H, (n,)) for n in range(1, 5)},
    **{f"K{n}": (lm.build_K, (n,)) for n in range(2, 10)},
    **{f"S{n}": (lm.build_S, (n,)) for n in range(2, 9)},
    **{f"G3({a},{b})": (lm.build_G3, (a, b))
       for a, b in ((1.0, 0.5), (0.5, 0.0), (0.0, 1.0), (2.0, -3.0))},
    **{f"G_alpha({a})": (lm.build_Galpha, (a,)) for a in (-1.0, 0.0, 0.5, 1.0, 2.0)},
}


def koszul_tension(algebra, onb):
    """sum_a nabla_{X_a} X_a from the full connection table: the reference."""
    return np.einsum("aac->c", koszul(algebra, onb).gamma) @ onb


def trace_form_tension(algebra):
    """The tension T = sum_a nabla_{X_a} X_a as the gram-dual of the trace form (see ``Frame``)."""
    return np.linalg.solve(algebra.gram, np.einsum("ijj->i", algebra.structure_constants))


@pytest.mark.parametrize("name", sorted(REALIZED))
def test_trace_form_tension_is_the_koszul_trace_bit_for_bit(name):
    build, args = REALIZED[name]
    alg, real = build(*args)
    frame = Frame.build(alg, real)
    want = koszul_tension(alg, frame.onb)
    assert trace_form_tension(alg).tobytes() == want.tobytes()
    trace_form = np.einsum("ijj->i", alg.structure_constants)
    assert frame.traces.tobytes() == (frame.onb @ trace_form).tobytes()
    assert [m.tobytes() for m in frame.mats] == [real.matrix_of(v).tobytes() for v in frame.onb]


@pytest.mark.parametrize("seed", range(4))
def test_trace_form_tension_matches_koszul_under_random_grams_and_frames(seed):
    rng = np.random.default_rng(seed)
    for build, args in (REALIZED["S4"], REALIZED["G3(1.0,0.5)"], REALIZED["K5"],
                        REALIZED["H2"]):
        alg, real = build(*args)
        a = rng.normal(size=(alg.dim, alg.dim))
        alg = lm.LieAlgebra(alg.structure_constants, a @ a.T / alg.dim + np.eye(alg.dim))
        real = MatrixRealization(alg, real.rep)
        rotation = random_orthogonal(alg.dim, rng)
        for onb in (None, rotation @ lm.orthonormal_basis(alg)):
            frame = Frame.build(alg, real, onb)
            want = koszul_tension(alg, frame.onb)
            got = trace_form_tension(alg)
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def tension_curve_tau(fields, points, frame):
    """tau along the explicit tension curve: the frame's directions plus T as one more."""
    tension = frame.realization.matrix_of(trace_form_tension(frame.algebra))
    d1, d2 = jets._jets(fields, points, np.concatenate([frame.mats, tension[None]]))
    return (sum(d2[:, :, a] for a in range(len(frame.mats))) - d1[:, :, -1]).T


def drift_test_fields(real, rng):
    """Every matrix entry, a complex pairing of them and a polynomial image of two."""
    n = real.ambient
    entries = [matrix_entry(i, j) for i in range(n) for j in range(n)]
    pair = lm.pairing(rng.normal(size=len(entries)) + 1j * rng.normal(size=len(entries)),
                      entries)
    return tuple(entries) + (pair, holomorphic_post(random_polynomial(2, rng), (pair, entries[1])))


def assert_tau_matches_the_tension_curve(frame, fields, points, exact):
    got = jets._frame_operators(fields, points, frame)[1]
    want = tension_curve_tau(fields, points, frame)
    if exact:
        assert np.array_equal(got, want)
        assert np.abs(got).tobytes() == np.abs(want).tobytes()
    else:
        assert (np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))).all()


@pytest.mark.parametrize("name", sorted(REALIZED))
def test_the_traced_drift_is_the_tension_curve_derivative(name):
    alg, real = REALIZED[name][0](*REALIZED[name][1])
    frame = Frame.build(alg, real)
    rng = np.random.default_rng(11)
    fields = drift_test_fields(real, rng)
    points = sample_points(real, 20, seed=4, scale=1.0)
    nilpotent = name[0] in "NHK"        # trace form exactly 0: the same bits
    assert not nilpotent or not frame.traces.any()
    assert_tau_matches_the_tension_curve(frame, fields, points, exact=nilpotent)


@pytest.mark.parametrize("seed", range(4))
def test_the_traced_drift_is_the_tension_curve_derivative_under_random_frames(seed):
    rng = np.random.default_rng(seed)
    for build, args in (REALIZED["S4"], REALIZED["G3(1.0,0.5)"], REALIZED["G_alpha(2.0)"],
                        REALIZED["K5"], REALIZED["H2"]):
        alg, real = build(*args)
        a = rng.normal(size=(alg.dim, alg.dim))
        alg = lm.LieAlgebra(alg.structure_constants, a @ a.T / alg.dim + np.eye(alg.dim))
        real = MatrixRealization(alg, real.rep)
        frame = Frame.build(alg, real, random_orthogonal(alg.dim, rng) @ lm.orthonormal_basis(alg))
        points = sample_points(real, 10, seed=seed, scale=1.0)
        assert_tau_matches_the_tension_curve(frame, drift_test_fields(real, rng), points,
                                             exact=False)


def test_the_operators_evaluate_the_frame_directions_only(built, frames, monkeypatch):
    _, real = built["S3"]
    frame = frames["S3"]
    counts = []
    original = jets._jets

    def counted(fields, points, mats):
        counts.append(len(mats))
        return original(fields, points, mats)

    monkeypatch.setattr(jets, "_jets", counted)
    pts = sample_points(real, 5, seed=2, scale=0.8)
    verify_family([log_diag(0), matrix_entry(0, 2)], pts, frame)
    jets._frame_operators((log_diag(1),), pts[:1], frame)
    assert counts == [len(frame.mats)] * 2 == [built["S3"][0].dim] * 2


def test_a_frame_holds_one_read_only_matrix_stack(built, frames):
    for name in ("N4", "S3", "G3"):
        alg, real = built[name]
        mats = frames[name].mats
        assert type(mats) is np.ndarray
        assert mats.shape == (alg.dim, real.ambient, real.ambient)
        assert not mats.flags.writeable
        with pytest.raises(ValueError):
            mats[0, 0, 0] = 1.0


def test_frame_needs_an_orthonormal_frame_of_the_whole_algebra(built):
    alg, real = built["S3"]
    for onb in (2.0 * np.eye(alg.dim), np.eye(alg.dim)[:-1]):
        with pytest.raises(StructureError, match="orthonormal frame"):
            Frame.build(alg, real, onb)


@pytest.mark.parametrize("n", [3, 4])
def test_tau_vanishes_on_unipotent_entries(n):
    alg, real = lm.build_N(n)
    frame = Frame.build(alg, real)
    fields = [matrix_entry(i, j) for i in range(n) for j in range(i + 1, n)]
    pts = sample_points(real, 100, seed=42, scale=1.0)
    assert np.abs(jets._frame_operators(fields, pts, frame)[1]).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tau_of_log_diagonals_matches_trace_ad(n):
    # tau(t_k) = -(trace ad_{D_k}) = 2k - (n+1): the diagonal logs are *not*
    # harmonic on their own; only xi-orthogonal combinations are.  Both the
    # jet route and the finite-difference oracle agree on the value.
    alg, real = lm.build_S(n)
    frame = Frame.build(alg, real)
    pts = sample_points(real, 20, seed=8, scale=0.8)
    tau = jets._frame_operators([log_diag(k) for k in range(n)], pts, frame)[1]
    tension = trace_form_tension(alg)
    for k in range(n):
        expected = float(2 * (k + 1) - (n + 1))
        assert np.abs(tau[:, k] - expected).max() < 1e-9
        p = pts[0]
        fd_total = sum(fd_check(log_diag(k), p, row, real)[1] for row in frame.onb)
        fd_drift = fd_check(log_diag(k), p, tension, real)[0]
        assert rel_err(fd_total - fd_drift, expected) < 1e-6


def test_tau_constant_field(built, frames):
    assert not jets._frame_operators((Constant(2.5),), np.eye(3)[None], frames["N3"])[1].any()


# ---------------------------------------------------------------------------
# families and holomorphic composition
# ---------------------------------------------------------------------------

def n3_family(frame):
    return [lm.pairing([1.0, 1.0j], [matrix_entry(0, 1), matrix_entry(1, 2)])]


def test_verify_family_passes_for_n3(built, frames):
    alg, real = built["N3"]
    pts = sample_points(real, 100, seed=7, scale=1.0)
    rep = verify_family(n3_family(frames["N3"]), pts, frames["N3"], tol=1e-8)
    assert rep.passed and rep.worst < 1e-12


def test_verify_family_detects_conformality_failure(built, frames):
    alg, real = built["N3"]
    bad = [lm.pairing([1.0, 1.0j], [matrix_entry(0, 1), matrix_entry(0, 1)])]
    rep = verify_family(bad, [np.eye(3)], frames["N3"], tol=1e-8)
    assert not rep.passed
    assert [c.name for c in rep.checks] == ["tau[0]", "kappa[0,0]"]
    assert abs(rep.checks[1].residual - 2.0) < 1e-12  # kappa(phi, phi) = 2i at e


def test_verify_family_needs_points_and_fields(frames):
    with pytest.raises(ValueError, match="at least one point"):
        verify_family(n3_family(frames["N3"]), [], frames["N3"], tol=1e-8)
    with pytest.raises(ValueError, match="at least one field"):
        verify_family([], [np.eye(3)], frames["N3"], tol=1e-8)


def test_verify_family_names_points_of_the_wrong_shape(frames):
    family = n3_family(frames["N3"])
    # one (3, 3) matrix is not a stack of points: its rows are not points
    with pytest.raises(ValueError,
                       match=r"points must be a stack of \(3, 3\) matrices.*shape \(3, 3\)"):
        verify_family(family, np.eye(3), frames["N3"], tol=1e-8)


def test_verify_family_names_points_of_the_wrong_ambient_size(frames):
    family = n3_family(frames["N3"])
    with pytest.raises(ValueError,
                       match=r"points must be a stack of \(3, 3\) matrices.*\(1, 4, 4\)"):
        verify_family(family, [np.eye(4)], frames["N3"], tol=1e-8)
    with pytest.raises(ValueError, match=r"points must be a stack of \(3, 3\) matrices"):
        verify_family(family, [np.eye(3), np.eye(4)], frames["N3"], tol=1e-8)


def test_family_report_is_its_checks():
    assert [f.name for f in dataclasses.fields(FamilyReport)] == ["n_points", "checks"]


def test_holomorphic_identity_is_noop(built, frames):
    alg, real = built["N3"]
    fam = n3_family(frames["N3"])
    composed = holomorphic_post(Polynomial.from_dict({(1,): 1.0}), fam)
    for p in sample_points(real, 5, seed=2, scale=1.0):
        assert abs(composed.value(p) - fam[0].value(p)) < 1e-14


def test_holomorphic_constant_is_flat(built, frames):
    alg, real = built["N3"]
    composed = holomorphic_post(Polynomial.from_dict({(0,): 2.0 + 1.0j}),
                                n3_family(frames["N3"]))
    kap, tau = jets._frame_operators((composed,), sample_points(real, 3, seed=2, scale=1.0),
                                     frames["N3"])
    assert not kap.any() and not tau.any()


def test_product_post_composition_h2(built, frames):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    product = holomorphic_post(Polynomial.from_dict({(1, 1): 1.0}), fc.family)
    pts = sample_points(real, 100, seed=7, scale=1.0)
    rep = verify_family([product], pts, frames["H2"], tol=1e-8)
    assert rep.passed


def test_random_post_compositions_keep_family_property(built, frames, rng):
    # passing family + degree <= 3 polynomial coefficients in the unit disk
    # => composed family passes at 10x the base tolerance
    for name, kind in (("N4", "N"), ("H2", "H")):
        alg, real = built[name]
        fc = lm.first_construction(alg, real, kind)
        pts = sample_points(real, 50, seed=13, scale=1.0)
        base = verify_family(fc.family, pts, frames[name], tol=1e-8)
        assert base.passed
        n_fields = len(fc.family)
        for _ in range(5):
            polys = [random_polynomial(n_fields, rng) for _ in range(2)]
            fam = [holomorphic_post(q, fc.family) for q in polys]
            rep = verify_family(fam, pts, frames[name], tol=1e-7)
            assert rep.passed, name


def test_verify_family_equals_max_of_single_point_calls(built, frames, rng):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    fam = [holomorphic_post(random_polynomial(len(fc.family), rng), fc.family)
           for _ in range(2)]
    pts = sample_points(real, 30, seed=17, scale=1.0)
    rep = verify_family(fam, pts, frames["H2"], tol=1e-7)
    singles = [verify_family(fam, [p], frames["H2"], tol=1e-7) for p in pts]
    names = [c.name for c in rep.checks]
    assert all([c.name for c in s.checks] == names for s in singles)
    want = np.max([[c.residual for c in s.checks] for s in singles], axis=0)
    assert np.array([c.residual for c in rep.checks]).tobytes() == want.tobytes()
    assert rep.n_points == 30


def test_an_s3_image_of_the_family_is_the_max_of_single_point_calls_bit_for_bit(built, frames):
    # a polynomial's derivatives at a point do not depend on the points that come with it
    alg, real = built["S3"]
    fc = lm.first_construction(alg, real, "S")
    image = holomorphic_post(random_polynomial(1, np.random.default_rng(20240817)), fc.family)
    pts = sample_points(real, 30, seed=17, scale=1.0)
    rep = verify_family([image], pts, frames["S3"])
    singles = [verify_family([image], [p], frames["S3"]) for p in pts]
    want = np.max([[c.residual for c in s.checks] for s in singles], axis=0)
    assert np.array([c.residual for c in rep.checks]).tobytes() == want.tobytes()


def test_verify_family_on_s3_is_the_max_of_single_point_calls_bit_for_bit(built, frames, rng):
    alg, real = built["S3"]
    fc = lm.first_construction(alg, real, "S")
    fam = [*fc.family, log_diag(0), log_diag(2),
           lm.pairing(rng.normal(size=2) + 1j, [log_diag(1), matrix_entry(0, 2)])]
    pts = sample_points(real, 30, seed=17, scale=1.0)
    rep = verify_family(fam, pts, frames["S3"])
    singles = [verify_family(fam, [p], frames["S3"]) for p in pts]
    want = np.max([[c.residual for c in s.checks] for s in singles], axis=0)
    assert np.array([c.residual for c in rep.checks]).tobytes() == want.tobytes()
    assert rep.checks[1].residual == 2.0       # tau(log x_00) = -tr ad D_0: the drift is not 0


@functools.cache
def every_field_kind(name):
    """(frame, fields, points) on a REALIZED family.

    The fields are matrix entries, a log, a constant, a pairing, an image of a
    pairing and, where the family has a first construction, an image of it.
    """
    alg, real = REALIZED[name][0](*REALIZED[name][1])
    rng = np.random.default_rng(5)
    n = real.ambient
    entries = [matrix_entry(0, n - 1), matrix_entry(0, 1), matrix_entry(n - 1, n - 1)]
    pair = lm.pairing(rng.normal(size=3) + 1j * rng.normal(size=3), entries)
    fields = [*entries, log_diag(n - 1), Constant(0.3 - 0.4j), pair,
              holomorphic_post(random_polynomial(2, rng), (pair, entries[1]))]
    if name[0] in "NHKS" and name not in ("N2", "S2"):      # N_2 and S_2 have no family
        family = lm.first_construction(alg, real, name[0]).family
        fields.append(holomorphic_post(random_polynomial(len(family), rng), family))
    return Frame.build(alg, real), fields, sample_points(real, 12, seed=9, scale=1.0)


@pytest.mark.parametrize("name", sorted(REALIZED))
@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(cuts=st.sets(st.integers(1, 11), min_size=1, max_size=4))
def test_verify_family_is_the_max_over_any_split_of_its_points_bit_for_bit(name, cuts):
    frame, fields, pts = every_field_kind(name)
    whole = verify_family(fields, pts, frame)
    bounds = [0, *sorted(cuts), len(pts)]
    parts = [verify_family(fields, pts[a:b], frame) for a, b in zip(bounds, bounds[1:])]
    want = np.max([[c.residual for c in part.checks] for part in parts], axis=0)
    assert np.array([c.residual for c in whole.checks]).tobytes() == want.tobytes()


def test_log_diag_batch_with_one_bad_point_raises(built, frames):
    alg, real = built["S3"]
    pts = sample_points(real, 8, seed=3, scale=0.5)
    pts[5] = pts[5] @ np.diag([1.0, -1.0, 1.0])
    with pytest.raises(DomainError):
        verify_family([log_diag(1)], pts, frames["S3"])
    verify_family([log_diag(0), log_diag(2)], pts, frames["S3"])  # column 1 only


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_family_report_nonfinite_residuals_fail(bad, family_report):
    positions = [("tau", k) for k in range(2)] + [("kappa", (0, 0)), ("kappa", (0, 1)),
                                                   ("kappa", (1, 1))]
    for which, at in positions:
        residuals = {"tau": np.zeros(2), "kappa": np.zeros((2, 2))}
        residuals[which][at] = bad
        rep = family_report(residuals["tau"], residuals["kappa"])
        assert not rep.passed, (which, at)
        assert not np.isfinite(rep.worst), (which, at)
    assert family_report(np.zeros(2), np.zeros((2, 2))).passed


def test_family_report_reads_only_the_upper_triangle(family_report):
    upper = family_report(np.zeros(2), np.array([[0.0, np.nan], [0.0, 0.0]]))
    assert not upper.passed and math.isnan(upper.worst)
    lower = family_report(np.zeros(2), np.array([[1e-9, 0.0], [np.nan, 2e-9]]))
    assert lower.passed and lower.worst == 2e-9


# ---------------------------------------------------------------------------
# malformed polynomials
# ---------------------------------------------------------------------------

def test_polynomial_with_more_variables_than_fields_is_rejected(built):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    assert len(fc.family) == 2
    with pytest.raises(ValueError):
        holomorphic_post({(0, 0, 1): 1.0}, fc.family)
    with pytest.raises(ValueError):
        HolomorphicImage(Polynomial.from_dict({(0, 0, 1): 1.0}), fc.family)
    with pytest.raises(ValueError):
        Polynomial.from_dict({(0, 0, 1): 1.0})([1.0, 2.0])
    holomorphic_post({(0, 1): 1.0}, fc.family + fc.family)   # fewer variables is fine


@pytest.mark.parametrize("exponents", [(-1,), (1.5,), (1, -2), (2.0,)])
def test_polynomial_rejects_bad_exponents(exponents):
    with pytest.raises(ValueError):
        Polynomial.from_dict({exponents: 1.0})


# ---------------------------------------------------------------------------
# random_polynomial against its recursive one-draw-per-number form
# ---------------------------------------------------------------------------

def recursive_random_polynomial(n_vars, rng, max_degree=3):
    """The reference: recursive monomial enumeration, two scalar draws per term."""
    def extend(prefix, remaining, budget):
        if remaining == 0:
            return [tuple(prefix)]
        out = []
        for e in range(budget + 1):
            out.extend(extend(prefix + [e], remaining - 1, budget - e))
        return out
    terms = {}
    for mono in sorted(extend([], n_vars, max_degree)):
        r = math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        terms[mono] = complex(r * math.cos(theta), r * math.sin(theta))
    return Polynomial.from_dict(terms)


@pytest.mark.parametrize("seed", [0, 1, 5000])
def test_random_polynomial_matches_the_recursive_form_bit_for_bit(seed):
    for n_vars in range(1, 5):
        for max_degree in range(4):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                want = recursive_random_polynomial(n_vars, want_rng, max_degree)
                got = random_polynomial(n_vars, got_rng, max_degree)
                assert repr(got.terms) == repr(want.terms)   # float reprs round-trip: bits
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ---------------------------------------------------------------------------
# the chain rule of HolomorphicImage against Jet2 arithmetic
# ---------------------------------------------------------------------------

def frame_curve(name, built, frames, n_points=20, seed=3, scale=1.0):
    alg, real = built[name]
    frame = frames[name]
    pts = np.stack(sample_points(real, n_points, seed=seed, scale=scale))
    tension = real.matrix_of(trace_form_tension(alg))
    return CurveJet.along(pts, np.concatenate([frame.mats, tension[None]]))


def jet2_reference(image, curve):
    """F(phi_1, ..., phi_n) by Jet2 products on the sub-field jets."""
    out = image.poly([f.eval_jet(curve) for f in image.fields])
    return out if isinstance(out, Jet2) else Jet2(out, 0.0, 0.0)


def assert_jets_close(got, want, rtol=1e-12):
    for part in ("v", "d1", "d2"):
        a, b = np.broadcast_arrays(getattr(got, part), getattr(want, part))
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        assert float(np.abs(a - b).max(initial=0.0)) <= rtol * scale, part


@pytest.mark.parametrize("name, kind", [("N4", "N"), ("H2", "H")])
def test_chain_rule_matches_jet2_arithmetic(built, frames, rng, name, kind):
    alg, real = built[name]
    fc = lm.first_construction(alg, real, kind)
    curve = frame_curve(name, built, frames)
    for max_degree in range(5):
        for _ in range(3):
            image = holomorphic_post(random_polynomial(len(fc.family), rng, max_degree),
                                     fc.family)
            assert_jets_close(image.eval_jet(curve), jet2_reference(image, curve))


def test_chain_rule_on_constant_real_and_nested_sub_fields(built, frames, rng):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    curve = frame_curve("H2", built, frames)
    with_constant = holomorphic_post(random_polynomial(2, rng), (Constant(0.3 - 0.4j),
                                                                  fc.family[1]))
    inner = holomorphic_post(random_polynomial(2, rng), fc.family)
    nested = holomorphic_post(random_polynomial(3, rng), (inner, fc.family[0], fc.family[1]))
    all_constant = holomorphic_post(random_polynomial(2, rng), (Constant(0.5), Constant(1j)))
    for image in (with_constant, nested, all_constant):
        assert_jets_close(image.eval_jet(curve), jet2_reference(image, curve))

    s3 = frame_curve("S3", built, frames, scale=0.8)
    logs = tuple(log_diag(i) for i in range(3))
    image = holomorphic_post(random_polynomial(3, rng), logs)
    assert_jets_close(image.eval_jet(s3), jet2_reference(image, s3))


def test_chain_rule_of_empty_and_constant_polynomials(built, frames, rng):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    curve = frame_curve("H2", built, frames)
    empty = holomorphic_post(Polynomial(()), fc.family)
    jet = empty.eval_jet(curve)
    assert np.all(jet.v == 0) and np.all(jet.d1 == 0) and np.all(jet.d2 == 0)
    constant = holomorphic_post(random_polynomial(2, rng, max_degree=0), fc.family)
    c = constant.poly.terms[0][1]
    jet = constant.eval_jet(curve)
    assert np.all(jet.v == c) and np.all(jet.d1 == 0) and np.all(jet.d2 == 0)
    assert_jets_close(jet, jet2_reference(constant, curve))
    rep = verify_family([empty, constant], sample_points(real, 10, seed=1, scale=1.0),
                        frames["H2"])
    assert rep.passed and rep.worst == 0.0


def test_huge_coefficients_give_a_failing_nonfinite_residual(built, frames):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    image = holomorphic_post({(3, 0): 1e300, (1, 2): 1e300j}, fc.family)
    pts = sample_points(real, 10, seed=1, scale=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_family([image], pts, frames["H2"])
    assert not np.isfinite(rep.worst)
    assert not rep.passed


def test_an_inf_entry_gives_a_failing_nonfinite_residual(built, frames, rng):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    pts = sample_points(real, 5, seed=2, scale=1.0)
    pts[3] = pts[3].copy()
    pts[3][0, 1] = np.inf
    entry = fc.phi[0]
    assert entry == matrix_entry(0, 1)
    image = holomorphic_post(random_polynomial(2, rng), fc.family)
    for field in (entry, fc.family[0], image):
        with np.errstate(over="ignore", invalid="ignore"):
            rep = verify_family([field], pts, frames["H2"])
        assert not np.isfinite(rep.worst), field
        assert not rep.passed


def test_each_sub_field_is_evaluated_once_per_curve(built, frames, rng, monkeypatch):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    calls = []
    original = LinearCombo.eval_jet

    def counting(self, curve):
        calls.append((self, id(curve)))
        return original(self, curve)

    monkeypatch.setattr(LinearCombo, "eval_jet", counting)
    images = [holomorphic_post(random_polynomial(2, rng), fc.family) for _ in range(3)]
    pts = sample_points(real, 10, seed=4, scale=1.0)
    rep = verify_family(images + [fc.family[0]], pts, frames["H2"], tol=1e-7)
    assert rep.passed
    assert len(calls) == len(set(calls)) == len(fc.family)     # once each, on one curve
    assert {f for f, _ in calls} == set(fc.family)


@dataclass
class UnhashableField(ScalarField):
    """A field that compares by value but cannot be hashed (eq without frozen)."""

    inner: ScalarField
    is_complex = True

    def value(self, point):
        return self.inner.value(point)

    def eval_jet(self, curve):
        return curve.jet(self.inner)


def test_unhashable_fields_still_verify(built, frames, rng):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    wrapped = tuple(UnhashableField(f) for f in fc.family)
    with pytest.raises(TypeError):
        hash(wrapped[0])
    poly = random_polynomial(2, rng)
    pts = sample_points(real, 20, seed=5, scale=1.0)
    got = verify_family([holomorphic_post(poly, wrapped), wrapped[0]], pts, frames["H2"],
                        tol=1e-7)
    want = verify_family([holomorphic_post(poly, fc.family), fc.family[0]], pts,
                         frames["H2"], tol=1e-7)
    assert got.passed
    assert got.checks == want.checks


def test_scalar_times_jet_matches_the_jet_product(rng):
    jet = Jet2(rng.standard_normal((4, 1)), rng.standard_normal((4, 3)),
               rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    for c in (0.7, -2.5 + 0.25j, np.float64(3.0)):
        for got in (jet * c, c * jet):
            want = jet * Jet2(c, 0.0, 0.0)
            for part in ("v", "d1", "d2"):
                np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


# ---------------------------------------------------------------------------
# pairings, shared chain tables and cached hashes
# ---------------------------------------------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, kind", [("N4", "N"), ("H2", "H"), ("K4", "K")])
@pytest.mark.parametrize("n_points", [1, 7, 300])
def test_a_pairing_is_the_term_by_term_jet_sum_bit_for_bit(built, frames, rng, name, kind,
                                                           n_points):
    alg, real = built[name]
    fc = lm.first_construction(alg, real, kind)
    curve = frame_curve(name, built, frames, n_points=n_points)
    m = len(fc.phi)
    combos = list(fc.family) + [
        linear_combination(rng.standard_normal(m), fc.phi),
        lm.pairing(rng.standard_normal(m) + 1j * rng.standard_normal(m), fc.phi),
        linear_combination([0.5, -2.0 + 1j, 3.0], [fc.phi[0], Constant(0.25), fc.phi[-1]])]
    for combo in combos:
        want = Jet2(0.0, 0.0, 0.0)
        for c, f in zip(combo.coeffs, combo.fields):
            want = want + c * curve.jet(f)
        got = combo.eval_jet(curve)
        for part in ("v", "d1", "d2"):
            assert same_bits(getattr(got, part), getattr(want, part)), (combo, part)


def test_polynomials_with_the_same_monomials_share_one_table(built, frames, rng):
    from liemorph.jets import _chain_table
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    curve = frame_curve("H2", built, frames)
    p, q = random_polynomial(2, rng), random_polynomial(2, rng)
    assert [e for e, _ in p.terms] == [e for e, _ in q.terms] and p.terms != q.terms
    hits = _chain_table.cache_info().hits
    take, width, coeffs = p._chain
    assert q._chain[0] is take and q._chain[1] == width
    assert _chain_table.cache_info().hits >= hits + 1
    assert take.shape == (10, 2)        # 31 term-derivative pairs of degree <= 3 on 10 monomials
    assert not np.array_equal(coeffs, q._chain[2])
    for poly in (p, q):
        image = holomorphic_post(poly, fc.family)
        assert_jets_close(image.eval_jet(curve), jet2_reference(image, curve))


def test_equal_fields_hash_equal_on_every_call(built, rng):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    poly = random_polynomial(2, rng)

    def make():
        return [matrix_entry(0, 1), log_diag(1), Constant(0.5 - 1j),
                linear_combination([1.5, -2.0], fc.phi[:2]), lm.pairing([1.0, 1j], fc.phi[:2]),
                Polynomial(poly.terms), holomorphic_post(Polynomial(poly.terms), fc.family)]

    first, second = make(), make()
    for a, b in zip(first, second):
        assert a is not b and a == b
        h = hash(a)
        assert hash(a) == h == hash(b)
    assert first[-1] != holomorphic_post(random_polynomial(2, rng), fc.family)


class Counted:
    """Mixin counting the hashes of a number, so a test sees when a field re-hashes it."""

    hashes = 0

    def __hash__(self):
        Counted.hashes += 1
        return super().__hash__()


class CountedInt(Counted, int):
    pass


class CountedFloat(Counted, float):
    pass


def test_each_field_hashes_its_parts_only_once(built):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    one, half = CountedInt(1), CountedFloat(0.5)
    poly = Polynomial((((one, 0), half), ((0, 2), 1j)))
    fields = [matrix_entry(one, 2), log_diag(one), Constant(half),
              LinearCombo((half, -1.0), fc.phi[:2]), poly,
              holomorphic_post(Polynomial(poly.terms), fc.family)]
    for f in fields:
        Counted.hashes = 0
        h = hash(f)
        first = Counted.hashes
        assert first >= 1, f
        for _ in range(3):
            assert hash(f) == h
        assert Counted.hashes == first, f


def test_equal_images_on_one_curve_are_evaluated_once(built, frames, rng, monkeypatch):
    alg, real = built["H2"]
    fc = lm.first_construction(alg, real, "H")
    calls = []
    original = HolomorphicImage.eval_jet

    def counting(self, curve):
        calls.append(self)
        return original(self, curve)

    monkeypatch.setattr(HolomorphicImage, "eval_jet", counting)
    curve = frame_curve("H2", built, frames)
    poly = random_polynomial(2, rng)
    images = [holomorphic_post(Polynomial(poly.terms), fc.family) for _ in range(3)]
    jets = [curve.jet(image) for image in images]
    assert len(calls) == 1 and all(j is jets[0] for j in jets)
