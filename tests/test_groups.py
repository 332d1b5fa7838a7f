import math
import tracemalloc

import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import derived_series, Subspace
from liemorph.errors import StructureError
from liemorph import groups
from liemorph.groups import (MatrixRealization, _exp_stack, build_damek_ricci, build_G3,
                             build_Galpha, build_K, exp_matrix, sample_points)


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


JORDAN = np.diag([1.0, 1.0], 1)


@pytest.mark.parametrize("x", [JORDAN, np.diag([1.0, -1.0])], ids=["jordan", "diag"])
@pytest.mark.parametrize("power", [600, -600])
def test_exp_powers_scaled_once_neither_overflow_nor_underflow(x, power):
    # the powers of 2^power X are formed once; t = 2^-power brings them back exactly
    big = exp_matrix(2.0 ** power * x, 2.0 ** -power)
    assert big.tobytes() == exp_matrix(x, 1.0).tobytes()
    batch = exp_matrix(2.0 ** power * x, np.array([2.0 ** -power, 0.0]))
    assert batch[0].tobytes() == big.tobytes()


@pytest.mark.parametrize("t", [0.1, 0.7, -1.3, 3.0, 1e154, 1.3e154])
def test_exp_jordan_block_is_its_closed_form(t):
    # the terminating series, also where (t 2^e)^2 / 2 alone overflows but t^2 / 2 does not
    want = np.array([[1.0, t, t * t / 2.0], [0.0, 1.0, t], [0.0, 0.0, 1.0]])
    assert exp_matrix(JORDAN, t).tobytes() == want.tobytes()


def test_exp_nilpotent_series_is_summed_as_written():
    # e^{tN} of N = a E_01 + b E_12 is I + tN + (t^2 / 2) ab E_02: the powers of N times
    # t^m / m!, with no squaring, which would round the corner differently
    for a, b, t in np.random.default_rng(2).uniform(-3.0, 3.0, (50, 3)):
        out = exp_matrix(np.array([[0.0, a, 0.0], [0.0, 0.0, b], [0.0, 0.0, 0.0]]), t)
        assert (out[0, 1], out[1, 2]) == (t * a, t * b)
        assert out[0, 2] == t * t / 2.0 * (a * b)


def test_exp_tiny_entries_are_not_taken_for_nilpotent():
    # Y^12 underflows to zero, but Y^2 = 1e-60 I does not: e^{tY} has cosh(10) on its
    # diagonal.  ||tY|| = 1e31 is 1e30 times the spectral radius, and the ~105
    # squarings it asks for leave about 1e-7 of relative rounding
    y = np.array([[0.0, 1.0], [1e-60, 0.0]])
    out = exp_matrix(y, 1e31)
    np.testing.assert_allclose(np.diag(out), math.cosh(10.0), rtol=1e-6)
    np.testing.assert_allclose(out[0, 1], math.sinh(10.0) * 1e30, rtol=1e-6)


def test_exp_overflow_is_non_finite_without_a_warning():
    # once raised OverflowError from the squaring count of ||t X|| = inf
    out = exp_matrix(np.diag([1.0, 0.0]), 1e308)     # RuntimeWarnings are errors here
    assert not np.isfinite(out).all()
    out = exp_matrix(np.diag([1.0, 0.0]), np.array([1e308, 1.0]))
    assert not np.isfinite(out[0]).all()
    np.testing.assert_allclose(out[1], np.diag([math.e, 1.0]), rtol=1e-13)


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


@pytest.fixture(scope="module")
def realizations(built):
    """The shared realizations plus the benchmark's inputs N_10 and S_8."""
    return {**{name: real for name, (_, real) in built.items()},
            "N10": lm.build_N(10)[1], "S8": lm.build_S(8)[1]}


@pytest.mark.parametrize("name", ["N4", "H2", "K4", "S3", "G3", "N10", "S8"])
@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_batched_sampling_matches_sequential_products(realizations, name, scale):
    real = realizations[name]
    points = sample_points(real, 12, seed=11, scale=scale)
    assert type(points) is np.ndarray and points.shape == (12, real.ambient, real.ambient)
    rng = np.random.default_rng(11)
    for p in points:
        want = np.eye(real.ambient)
        for coeff, mat in zip(rng.uniform(-scale, scale, real.algebra.dim), real.rep):
            want = want @ exp_matrix(mat, float(coeff))
        np.testing.assert_array_equal(p, want)


@pytest.mark.parametrize("name", ["N10", "S8"])
def test_sampling_in_several_blocks_matches_sequential_products(realizations, name,
                                                                monkeypatch):
    # 40 points: a block holds max(2^15, 40 n^2) // (40 n^2) basis matrices, fewer than d
    real, count = realizations[name], 40
    slab = count * real.ambient ** 2
    step = max(groups._BLOCK_ENTRIES, slab) // slab
    calls = []
    monkeypatch.setattr(groups, "_exp_stack",
                        lambda xs, ts: calls.append(len(xs)) or _exp_stack(xs, ts))
    points = sample_points(real, count, seed=5, scale=2.0)
    assert calls == [step] * (real.algebra.dim // step) + [real.algebra.dim % step] * (
        real.algebra.dim % step > 0)
    assert len(calls) > 1
    rng = np.random.default_rng(5)
    for p in points:
        want = np.eye(real.ambient)
        for coeff, mat in zip(rng.uniform(-2.0, 2.0, real.algebra.dim), real.rep):
            want = want @ exp_matrix(mat, float(coeff))
        np.testing.assert_array_equal(p, want)


def test_sampling_memory_is_one_block_not_every_factor(realizations):
    # 5000 points of N_10: every factor at once would be d N n^2 = 45 slabs of N n^2
    # entries; one block at a time keeps the peak at a few slabs
    real, count = realizations["N10"], 5000
    slab_bytes = count * real.ambient ** 2 * 8
    tracemalloc.start()
    try:
        sample_points(real, count, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * slab_bytes


def _mixed_stack(n, rng):
    """A zero matrix, a unit, a Jordan block, a diagonal, a rotation and a generic matrix."""
    unit = np.zeros((n, n))
    unit[0, n - 1] = 1.0
    rotation = np.zeros((n, n))
    rotation[0, 1], rotation[1, 0] = -2.0, 2.0
    return np.stack([np.zeros((n, n)), unit, np.diag(np.ones(n - 1), 1),
                     np.diag(rng.uniform(-2.0, 2.0, n)), rotation, rng.standard_normal((n, n))])


@pytest.mark.parametrize("n", [3, 14])
def test_exp_stack_slices_are_their_own_calls(n, rng):
    # one stack of every kind; the last t row overflows the Jordan block (1e80 for
    # n = 14, whose series reaches t^13 / 13!, 1e200 for n = 3) and the diagonal (1e308)
    # and leaves the other slices bit-identical, with no warning
    xs = _mixed_stack(n, rng)
    ts = np.vstack([rng.uniform(-3.0, 3.0, (4, len(xs))), np.zeros(len(xs)),
                    [0.5, -1.0, 1e80 if n > 12 else 1e200, 1e308, 0.25, 0.1]])
    out = _exp_stack(xs, ts)
    assert out.shape == (len(xs), len(ts), n, n)
    for i, x in enumerate(xs):
        assert out[i].tobytes() == exp_matrix(x, ts[:, i]).tobytes(), i
        alone = np.stack([exp_matrix(x, t) for t in ts[:, i]])
        assert out[i].tobytes() == alone.tobytes(), i
    assert not np.isfinite(out[2, -1]).all() and not np.isfinite(out[3, -1]).all()
    assert np.isfinite(np.delete(out, [2, 3], axis=0)).all()
    assert np.isfinite(out[[2, 3], :-1]).all()


def test_exp_batch_matches_scalar_calls(rng):
    x = rng.standard_normal((3, 3))
    ts = np.array([0.0, 0.3, -2.5, 7.0])
    batch = exp_matrix(x, ts)
    assert batch.shape == (4, 3, 3)
    for t, got in zip(ts, batch):
        np.testing.assert_array_equal(got, exp_matrix(x, float(t)))
    with pytest.raises(ValueError):
        exp_matrix(x, np.ones((2, 2)))


def test_exp_batch_of_every_kind_matches_per_t_calls(built, rng):
    # nilpotent, diagonal, rotation-scaling and generic matrices, each over one batch of t
    alg, _ = built["DR"]
    mats = [alg.ad(v) for v in rng.uniform(-3.0, 3.0, (6, 4))] + [
        np.triu(rng.standard_normal((4, 4)), 1), np.diag([0.1, -2.0, 40.0, 0.0]),
        5.0 * rng.standard_normal((4, 4)), np.zeros((4, 4))]
    ts = np.array([1.0, -0.7, 0.0, 1e-300])
    for x in mats:
        batch = exp_matrix(x, ts)
        assert batch.tobytes() == np.stack([exp_matrix(x, t) for t in ts]).tobytes()
    with pytest.raises(ValueError):
        exp_matrix(np.stack(mats), 1.0)         # one matrix per call
    with pytest.raises(ValueError):
        exp_matrix(np.ones((3, 4)))
    with pytest.raises(ValueError, match="nonempty"):
        exp_matrix(np.zeros((0, 0)))


@pytest.mark.parametrize("x", [np.diag(np.ones(4), 1), np.diag([1.0, -1.0]),
                               np.array([[0.0, 1.0], [-1.0, 0.0]])],
                         ids=["jordan5", "diag", "rotation"])
def test_exp_huge_t_leaves_the_other_slices_alone(x):
    # t = 1e80 (s^m / m! past the float range on a nilpotent X) or 1e40 next to
    # ordinary t: every slice is still bit-identical to its own call
    for big in (1e80, 1e40):
        for t in (0.3, -2.0, 1e-5, 7.0):
            batch = exp_matrix(x, np.array([big, t]))
            assert batch[1].tobytes() == exp_matrix(x, t).tobytes()
            assert batch[0].tobytes() == exp_matrix(x, big).tobytes()


def test_exp_above_degree_12():
    # n = 14 > 12: nilpotency is read off a power up to Y^14, and only a nilpotent X
    # takes powers past Y^12
    rng = np.random.default_rng(7)
    n = 14
    nilpotent = np.triu(rng.standard_normal((n, n)), 1)
    out = exp_matrix(nilpotent, 1.0)
    assert np.array_equal(np.diag(out), np.ones(n))
    np.testing.assert_allclose(out, np.linalg.inv(exp_matrix(nilpotent, -1.0)),
                               rtol=1e-12, atol=1e-12)
    shift = np.diag(np.ones(n - 1), 1)          # e^{t N} has t^13 / 13! in its corner
    assert exp_matrix(shift, 2.0)[0, -1] == pytest.approx(2.0 ** 13 / math.factorial(13),
                                                          rel=1e-15)
    generic = rng.standard_normal((n, n)) / 4
    np.testing.assert_allclose(exp_matrix(generic, 1.0) @ exp_matrix(generic, -1.0),
                               np.eye(n), atol=1e-13)


def test_exp_a_cycle_whose_power_underflows_is_not_nilpotent():
    # Y^3 = 1e-400 I underflows to zero, but (tX)^3 = 0.1 I: e^{tX} has
    # sum_j 0.1^j / (3j)! = 1.01668 on its diagonal.  The ~440 squarings that
    # ||tX|| = 1e133 asks for leave about 4e-12 of rounding
    x = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e-200], [1e-200, 0.0, 0.0]])
    want = sum(0.1 ** j / math.factorial(3 * j) for j in range(10))
    np.testing.assert_allclose(np.diag(exp_matrix(x, 1e133)), want, rtol=1e-10)


def test_exp_a_chain_whose_power_underflows_keeps_its_terms():
    # nilpotent, but (Y^2)_02 = 1e-400 underflows to zero; e^{tX} has
    # t^2 / 2 * 1e-400 = 0.5 there and t^3 / 6 * 1e-400 in the corner
    out = exp_matrix(np.diag([1e-200, 1e-200, 1.0], 1), 1e200)
    assert out[0, 2] == pytest.approx(0.5, rel=1e-12)
    assert out[0, 3] == pytest.approx(1e200 / 6.0, rel=1e-12)


@pytest.mark.parametrize("count, scale, message", [
    (2.5, 1.0, "count must be an integer"), (3, math.nan, "scale must be"),
    (3, -1.0, "scale must be"), (3, math.inf, "scale must be")])
def test_sampling_argument_errors_name_the_argument(built, count, scale, message):
    _, real = built["N3"]
    with pytest.raises(ValueError, match=message):
        sample_points(real, count, seed=1, scale=scale)


def test_sampling_overflow_is_a_structure_error(built):
    _, real = built["N4"]
    with pytest.raises(StructureError, match="non-finite"):
        sample_points(real, 3, seed=1, scale=1e120)
    with pytest.raises(StructureError, match="overflows"):
        sample_points(real, 3, seed=1, scale=1e308)


@pytest.mark.parametrize("build", [lambda: build_Galpha(2.0), lambda: build_G3(1.0, 0.5)],
                         ids=["G_alpha(2)", "G3(1, 0.5)"])
def test_sampling_near_the_float_range_is_a_structure_error(build):
    # 2 * scale is finite, but e^{t X} is not
    with pytest.raises(StructureError, match="non-finite entries; reduce scale"):
        sample_points(build()[1], 50, seed=1, scale=8.9e307)


def test_realization_is_one_read_only_stack(built):
    alg, real = built["H2"]
    assert real.rep.shape == (alg.dim, real.ambient, real.ambient)
    assert not real.rep.flags.writeable
    mats = [np.array(m) for m in real.rep]
    again = MatrixRealization(alg, mats)
    mats[0][0, 1] = 7.0                 # the realization holds its own copy
    assert np.array_equal(again.rep, real.rep)
    assert np.array_equal(again.matrix_of(np.arange(alg.dim)),
                          sum(k * m for k, m in enumerate(real.rep)))


BAD_SHAPES = {
    "too few": (lambda mats: mats[:2], "need 3 matrices, got 2"),
    "too many": (lambda mats: mats + mats[:1], "need 3 matrices, got 4"),
    "non-square": (lambda mats: [m[:, :2] for m in mats], "share a square shape"),
    "ragged": (lambda mats: mats[:2] + [np.eye(4)], "share a square shape"),
    "vectors": (lambda mats: [m[0] for m in mats], "share a square shape"),
    "stacks": (lambda mats: [m[None] for m in mats], "share a square shape"),
}


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_realization_bad_shapes_are_structure_errors(built, case, closed):
    """The shape error is raised first, also where the brackets would not close."""
    alg, real = built["N3"]
    if not closed:      # 2c is a Lie algebra, but N3's matrices do not realize it
        alg = lm.LieAlgebra(2.0 * alg.structure_constants, alg.gram)
    reshape, message = BAD_SHAPES[case]
    with pytest.raises(StructureError, match=message):
        MatrixRealization(alg, reshape(list(real.rep)))
