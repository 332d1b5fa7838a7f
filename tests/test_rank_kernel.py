"""The compressed rank kernel of the structure layer against plain-SVD references.

Each reference is the form the kernel replaces: one dense SVD of the whole
bracket or center stack, the brackets formed by one einsum, and the sign fix as
a loop over rows.
"""

import numpy as np
import pytest

import liemorph as lm
from liemorph import constructions
from liemorph.algebra import (RANK_TOL, SUBSPACE_TOL, LieAlgebra, Subspace, _bracket_span,
                              _derived_algebra, _fix_signs, _rank_decision, _scale, _span_above, center,
                              derived_series,
                              full_space, lower_central_series, orthocomplement,
                              orthonormalize, span)
from liemorph.errors import StructureError

BUILTINS = {
    **{f"N{n}": (lm.build_N, (n,)) for n in range(4, 13)},
    **{f"S{n}": (lm.build_S, (n,)) for n in range(3, 9)},
    **{f"H{n}": (lm.build_H, (n,)) for n in (1, 2, 3)},
    **{f"K{n}": (lm.build_K, (n,)) for n in (3, 4, 5)},
    "G3": (lm.build_G3, (1.0, 0.5)),
    "G3_beta0": (lm.build_G3, (0.5, 0.0)),
    "G_alpha": (lm.build_Galpha, (-0.3,)),
    "DR": (lm.build_damek_ricci, (2, 1)),
}


@pytest.fixture(scope="module")
def algebras():
    return {name: build(*args)[0] for name, (build, args) in BUILTINS.items()}


def so3():
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    return LieAlgebra(c, np.eye(3))


def plain_rank_decision(stack, floor=0.0):
    """Singular values of the whole stack and the rows of vh above the rank floor."""
    if not stack.any():
        return np.zeros(0), np.zeros((0, stack.shape[1]))
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    return s, vh[:int(np.sum(s > max(RANK_TOL * s[0], floor)))]


def plain_center(alg):
    d = alg.dim
    stacked = alg.structure_constants.transpose(1, 2, 0).reshape(d * d, d)
    if not stacked.any():
        return full_space(alg)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    return Subspace(d, vh[int(np.sum(s > RANK_TOL * s[0])):])


def loop_fix_signs(rows):
    rows = np.array(rows, dtype=float)
    for r in rows:
        nz = np.nonzero(np.abs(r) > 1e-9 * max(1.0, float(np.abs(r).max())))[0]
        if nz.size and r[nz[0]] < 0:
            r *= -1.0
    return rows


def assert_same_decision(stack, floor, compressed_span):
    """Same dimension, mutual containment, singular values within 1e-12 of s[0].

    Both SVDs are backward stable, so the kept subspace can move by about
    eps * s[0] / gap, where gap separates the last kept singular value from the
    first dropped one (Wedin's theorem).  Containment is checked to 1e-13 * s[0]
    / gap, and never to less than SUBSPACE_TOL.
    """
    d = stack.shape[1]
    s_ref, basis_ref = plain_rank_decision(stack, floor)
    _, sv, _ = _rank_decision(stack, floor)
    s = np.zeros(len(s_ref))
    s[:len(sv)] = sv                          # the zero rows' singular values are 0
    if len(s_ref):
        np.testing.assert_allclose(s, s_ref, rtol=0.0, atol=1e-12 * s_ref[0])
    ref = Subspace(d, basis_ref)
    assert compressed_span.dim == ref.dim
    tol = SUBSPACE_TOL
    if 0 < ref.dim:
        gap = s_ref[ref.dim - 1] - (s_ref[ref.dim] if ref.dim < len(s_ref) else 0.0)
        tol = max(tol, 1e-13 * s_ref[0] / gap)
    assert compressed_span.equals(ref, tol)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_compressed_series_and_center_match_plain_svd(name, algebras):
    alg = algebras[name]
    c, d = alg.structure_constants, alg.dim
    floor = RANK_TOL * _scale(c)
    assert alg._c_scale == _scale(c)          # the floor the series and center use
    derived, lower = derived_series(alg), lower_central_series(alg)
    # every term brackets once more, the last one included: that is the step
    # which found the series stable
    pairs = [(t.basis, t.basis) for t in derived] + [(lower[0].basis, t.basis) for t in lower]
    for left, right in pairs:
        stack = np.einsum("ai,bj,ijk->abk", left, right, c, optimize=True).reshape(-1, d)
        assert_same_decision(stack, floor, _bracket_span(alg, left, right))
    stacked = c.transpose(1, 2, 0).reshape(d * d, d)
    assert_same_decision(stacked, 0.0, _span_above(stacked, d, 0.0))
    z, ref = center(alg), plain_center(alg)
    assert z.dim == ref.dim and z.equals(ref), name


@pytest.mark.parametrize("seed", range(8))
def test_compressed_random_tall_rank_deficient_stacks(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 16))
    rank = int(rng.integers(0, d))
    k = int(rng.integers(d + 1, 8 * d))
    stack = rng.standard_normal((k, rank)) @ rng.standard_normal((rank, d))
    stack *= 10.0 ** rng.uniform(-8.0, 8.0, size=(k, 1))
    stack[rng.random(k) < 0.3] = 0.0
    for floor in (0.0, RANK_TOL * _scale(stack)):
        assert_same_decision(stack, floor, _span_above(stack, d, floor))


@pytest.mark.parametrize("seed", range(8))
def test_compressed_noise_rows_near_the_floor(seed):
    # integer rows of rank 3, as structure constants give, plus noise rows whose
    # sizes straddle the floor RANK_TOL * scale by three decades each way
    rng = np.random.default_rng(seed)
    d = 9
    exact = rng.integers(-2, 3, size=(40, 3)) @ rng.integers(-2, 3, size=(3, d))
    noise = rng.standard_normal((12, d)) * 10.0 ** rng.uniform(-13.0, -7.0, size=(12, 1))
    stack = np.concatenate([exact, noise]).astype(float)
    floor = RANK_TOL * _scale(stack)
    assert_same_decision(stack, floor, _span_above(stack, d, floor))


def test_rank_decision_sees_only_nonzero_rows():
    stack = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    rank, s, vh = _rank_decision(stack)
    assert (rank, len(s), vh.shape) == (1, 1, (3, 3))
    rank, s, vh = _rank_decision(np.zeros((5, 3)))
    assert rank == 0 and len(s) == 0 and np.array_equal(vh, np.eye(3))


def test_fix_signs_is_bit_identical_to_the_row_loop(rng):
    random_rows = rng.standard_normal((30, 7)) * 10.0 ** rng.uniform(-12, 12, size=(30, 1))
    special = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [-0.0, -0.0, 0.0, -0.0],
        [-0.0, -1.0, 2.0, 0.0],
        [0.0, -0.0, 3.0, -1.0],
        [-1e-9, 2.0, 0.5, 0.0],             # exactly at the threshold: not significant
        [-1.0000001e-9, 1.0, 0.5, 0.0],     # just above it: significant, the row flips
        [-0.9999999e-9, -1.0, 0.5, 0.0],
        [-1e-10, 0.1, 0.0, 0.0],            # max below 1: the threshold is 1e-9
        [-2e-9, 0.1, 0.0, 0.0],
        [-3e-7, 300.0, -0.0, 1.0],          # threshold 3e-7
        [-3.1e-7, 300.0, -0.0, 1.0],
        [np.nan, -1.0, 2.0, 0.0],
        [np.inf, -1.0, 0.0, 0.0],
        [-np.inf, 1.0, 0.0, 0.0],
    ])
    for rows in (random_rows, -random_rows, special, np.zeros((3, 5)), np.zeros((0, 5))):
        expected, got = loop_fix_signs(rows), _fix_signs(rows)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def recording_derived_algebra(monkeypatch):
    seen = []

    def record(algebra):
        seen.append(_derived_algebra(algebra))
        return seen[-1]

    monkeypatch.setattr(constructions, "_derived_algebra", record)
    return seen


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_xi_vector_brackets_g_with_g_once(name, algebras, monkeypatch):
    alg = algebras[name]
    series = derived_series(alg)
    assert len(series) > 1
    horizontal = orthonormalize(alg, orthocomplement(alg, series[1])).basis
    seen = recording_derived_algebra(monkeypatch)
    xi = constructions.xi_vector(alg, horizontal)
    (derived,) = seen
    assert np.array_equal(derived.basis, series[1].basis), name
    # [g, g] read off c as (d^2, d) rows: the bits of contracting the identity with c twice
    eye = np.eye(alg.dim)
    assert np.array_equal(derived.basis, _bracket_span(alg, eye, eye).basis), name
    assert np.array_equal(xi, np.einsum("hi,ijj->h", horizontal, alg.structure_constants))


def test_xi_vector_of_a_perfect_algebra_uses_g(monkeypatch):
    alg = so3()
    seen = recording_derived_algebra(monkeypatch)
    assert constructions.xi_vector(alg, np.zeros((0, 3))).shape == (0,)
    assert seen[0].equals(full_space(alg))
    with pytest.raises(StructureError, match="not orthogonal to the derived algebra"):
        constructions.xi_vector(alg, [[1.0, 0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_span_of_nonfinite_vectors_raises(bad):
    # at a plain SVD the first hung in LAPACK and the second spanned nothing
    for vectors in ([[bad, 1, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1]], [[bad, 0, 0]]):
        with pytest.raises(StructureError, match="non-finite"):
            span(vectors, 3)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("decide", [center, derived_series, lower_central_series])
def test_nonfinite_structure_constant_raises(built, bad, decide):
    alg, _ = built["H1"]
    c = np.array(alg.structure_constants)
    c[0, 1, 2] = bad
    with pytest.raises(StructureError, match="non-finite"):
        decide(LieAlgebra(c, alg.gram, validate=False))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_subspace_rejects_nonfinite_basis(bad):
    with pytest.raises(StructureError, match="non-finite"):
        Subspace(3, [[bad, 0.0, 0.0]])
