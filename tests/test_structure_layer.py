"""The batched structure-constant layer against per-pair oracles.

Each oracle is the straightforward loop over basis pairs: one ``lstsq`` per
commutator, one residual per pair, one ``LieAlgebra.bracket`` per vector.
"""

import tracemalloc

import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import (LieAlgebra, _bracket_span, derived_series,
                              lower_central_series, span)
from liemorph.errors import StructureError
from liemorph.groups import MatrixRealization, _algebra_from_matrices

SMALL_BUILDS = {
    **{f"N{n}": (lm.build_N, (n,)) for n in range(2, 7)},
    **{f"H{n}": (lm.build_H, (n,)) for n in range(1, 4)},
    **{f"K{n}": (lm.build_K, (n,)) for n in range(2, 6)},
    **{f"S{n}": (lm.build_S, (n,)) for n in range(2, 6)},
    "G3": (lm.build_G3, (1.0, 0.5)),
    "G3_beta0": (lm.build_G3, (0.5, 0.0)),
    "G_alpha1": (lm.build_Galpha, (1.0,)),
    "G_alpha2": (lm.build_Galpha, (2.0,)),
    "G_alpha_neg": (lm.build_Galpha, (-0.3,)),
}


def per_pair_constants(mats):
    """One lstsq per pair i < j, the closure test and 1e-13 zeroing per pair."""
    d = len(mats)
    flat = np.stack([m.reshape(-1) for m in mats], axis=1)
    c = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            comm = (mats[i] @ mats[j] - mats[j] @ mats[i]).reshape(-1)
            coeff, *_ = np.linalg.lstsq(flat, comm, rcond=None)
            assert np.linalg.norm(flat @ coeff - comm) <= 1e-10 * max(1.0, np.linalg.norm(comm))
            coeff[np.abs(coeff) < 1e-13] = 0.0
            c[i, j] = coeff
            c[j, i] = -coeff
    return c


def per_pair_residual(realization):
    c = realization.algebra.structure_constants
    rep = realization.rep
    worst = 0.0
    for i, mi in enumerate(rep):
        for j, mj in enumerate(rep):
            expected = sum(c[i, j, k] * mk for k, mk in enumerate(rep))
            worst = max(worst, float(np.abs(mi @ mj - mj @ mi - expected).max()))
    return worst


@pytest.mark.parametrize("name", sorted(SMALL_BUILDS))
def test_one_solve_matches_per_pair_lstsq_exactly(name):
    build, args = SMALL_BUILDS[name]
    alg, real = build(*args)
    assert np.array_equal(alg.structure_constants, per_pair_constants(list(real.rep))), name


@pytest.mark.parametrize("name", ["N4", "H2", "K4", "S3", "G3"])
def test_homomorphism_residual_matches_per_pair_oracle(name, rng):
    build, args = SMALL_BUILDS[name]
    alg, real = build(*args)
    perturbed = tuple(m + 1e-3 * rng.standard_normal(m.shape) for m in real.rep)
    broken = MatrixRealization(alg, perturbed, validate=False)
    resid = broken.homomorphism_residual()
    assert resid > 1e-6
    assert resid == pytest.approx(per_pair_residual(broken), rel=1e-12, abs=0.0)
    with pytest.raises(StructureError, match="not a homomorphism"):
        MatrixRealization(alg, perturbed)


def test_nan_homomorphism_residual_fails_validation(built):
    alg, real = built["H1"]
    c = np.array(alg.structure_constants)
    c[0, 1, 2] = np.nan
    nan_alg = LieAlgebra(c, alg.gram, validate=False)
    assert np.isnan(MatrixRealization(nan_alg, real.rep, validate=False).homomorphism_residual())
    with pytest.raises(StructureError, match="not a homomorphism"):
        MatrixRealization(nan_alg, real.rep)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_matrix_entry_is_not_a_homomorphism(built, bad):
    # the residual must run before the rank test, which would call an inf entry a
    # linear dependence and fail to decompose a NaN one (LinAlgError)
    alg, real = built["N3"]
    rep = [np.array(m) for m in real.rep]
    rep[0][0, 1] = bad
    with pytest.raises(StructureError, match=r"not a homomorphism \(residual nan\)"):
        MatrixRealization(alg, tuple(rep))


def test_non_closed_basis_is_rejected():
    e12, e23 = np.zeros((3, 3)), np.zeros((3, 3))
    e12[0, 1] = e23[1, 2] = 1.0
    with pytest.raises(StructureError, match="not closed under the commutator"):
        _algebra_from_matrices([e12, e23])
    # closed once [E12, E23] = E13 is in the basis
    e13 = np.zeros((3, 3))
    e13[0, 2] = 1.0
    alg, _ = _algebra_from_matrices([e12, e23, e13])
    assert alg.dim == 3


@pytest.mark.parametrize("name", ["N4", "H2", "K4", "S3", "G3", "DR"])
def test_batched_bracket_span_matches_per_pair_brackets(name, built, rng):
    alg, _ = built[name]
    d = alg.dim
    derived = derived_series(alg)[1].basis
    cases = [(np.eye(d), np.eye(d)), (np.eye(d), derived),
             (rng.standard_normal((2, d)), rng.standard_normal((3, d)))]
    for left, right in cases:
        pairs = span([alg.bracket(x, y) for x in left for y in right], d)
        assert _bracket_span(alg, left, right).equals(pairs), name


def test_series_of_n12_fit_in_less_than_one_d4_tensor():
    tracemalloc.start()
    try:
        alg, _ = lm.build_N(12)
        lower_central_series(alg)
        derived_series(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = alg.dim
    assert d == 66
    assert peak < d ** 4 * 8      # one d^4 float64 tensor is 152 MB
