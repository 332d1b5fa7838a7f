"""The one representation residual behind the Jacobi check and the homomorphism residual.

``_representation_residual(c, rep)`` has two paths, a join of nonzero
entries and dense products over blocks of first indices.  On every builtin
the two agree bit for bit, on random dense data to rounding, and a
non-finite entry fails both.  Jacobi is the residual of the adjoint stack,
checked here against a direct einsum of the cyclic sum.  The rule that picks
the path runs on both of its sides.
"""

import math
import tracemalloc

import numpy as np
import pytest

import liemorph as lm
import liemorph.algebra as algebra_module
from liemorph.algebra import (LieAlgebra, _jacobi_residual, _join_residual,
                              _representation_residual)
from liemorph.checks import Check
from liemorph.groups import HOMOMORPHISM_TOL, MatrixRealization

BUILTINS = {
    **{f"N{n}": (lm.build_N, (n,)) for n in range(2, 11)},
    **{f"H{n}": (lm.build_H, (n,)) for n in range(1, 4)},
    **{f"K{n}": (lm.build_K, (n,)) for n in range(2, 7)},
    **{f"S{n}": (lm.build_S, (n,)) for n in range(2, 9)},
    "G3": (lm.build_G3, (1.0, 0.5)),
    "G3_beta0": (lm.build_G3, (0.5, 0.0)),
    "G3_alpha0": (lm.build_G3, (0.0, 1.0)),
    "G_alpha1": (lm.build_Galpha, (1.0,)),
    "G_alpha_half": (lm.build_Galpha, (0.5,)),
    "G_alpha_neg": (lm.build_Galpha, (-0.3,)),
    "DR": (lm.build_damek_ricci, (2, 1)),
}


def random_antisymmetric(d, rng):
    c = rng.standard_normal((d, d, d))
    return c - c.transpose(1, 0, 2)


def adjoint(c):
    return c.transpose(0, 2, 1)


def join_path(c, rep):
    """The residual by the join, whatever its size."""
    join = _join_residual
    with pytest.MonkeyPatch.context() as m:
        m.setattr(algebra_module, "_JOIN_MIN_WORK", 0)
        m.setattr(algebra_module, "_join_residual", lambda c, rep, budget: join(c, rep, math.inf))
        return _representation_residual(c, rep)


def dense_path(c, rep):
    """The residual by the dense products: the join declines."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(algebra_module, "_join_residual", lambda c, rep, budget: None)
        return _representation_residual(c, rep)


def both_paths(c, rep):
    return [join_path(c, rep), dense_path(c, rep)]


def cyclic_sum(c):
    """J[i,j,k,l]: the X_l coefficient of the Jacobi sum, as one einsum per term."""
    return (np.einsum("jkm,iml->ijkl", c, c) + np.einsum("kim,jml->ijkl", c, c)
            + np.einsum("ijm,kml->ijkl", c, c))


def perturbed_n10(rng):
    """N_10 with a few non-integer antisymmetric changes: sparse, and Jacobi fails."""
    c = np.array(lm.build_N(10)[0].structure_constants)
    for i, j, k in rng.integers(0, 45, (6, 3)):
        delta = 0.1 * rng.standard_normal()
        c[i, j, k] += delta
        c[j, i, k] -= delta
    return c


def joins(monkeypatch):
    """Record what each ``_join_residual`` call returns: None when the join declined."""
    results = []
    original = _join_residual
    monkeypatch.setattr(algebra_module, "_join_residual",
                        lambda *args: results.append(original(*args)) or results[-1])
    return results


@pytest.mark.parametrize("d", [3, 5, 8])
def test_jacobi_paths_agree_on_random_dense_constants(d, rng):
    c = random_antisymmetric(d, rng)
    direct = float(np.abs(cyclic_sum(c)).max())
    assert direct > 1.0
    for residual in [*both_paths(c, adjoint(c)), _jacobi_residual(c)]:
        assert residual == pytest.approx(direct, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d, n", [(3, 3), (5, 4), (8, 6), (12, 5)])
def test_paths_agree_on_random_dense_data(d, n, rng):
    c = random_antisymmetric(d, rng)
    rep = rng.standard_normal((d, n, n))
    join, dense = both_paths(c, rep)
    assert dense > 1.0
    assert join == pytest.approx(dense, rel=1e-14, abs=0.0)


def test_jacobi_paths_agree_on_perturbed_n10(rng):
    c = perturbed_n10(rng)
    join, dense = both_paths(c, adjoint(c))
    assert dense > 1e-3
    assert join == pytest.approx(dense, rel=1e-14, abs=0.0)
    assert _jacobi_residual(c) == join      # still sparse enough for the join


def test_the_residual_join_counts_each_pair_of_listings_once(monkeypatch):
    # c against the stack, and the stack against itself, which the budget and the
    # products share: one stable argsort each
    c = lm.build_N(10)[0].structure_constants
    counted = []
    original = algebra_module._partners
    monkeypatch.setattr(algebra_module, "_partners",
                        lambda x, xm, y, ym: counted.append((xm, ym)) or original(x, xm, y, ym))
    results = joins(monkeypatch)
    _jacobi_residual(c)
    assert len(results) == 1 and results[0] is not None        # the join ran
    assert sorted(counted) == [(2, 0), (2, 1)]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_residuals_are_bit_identical_on_both_paths(name):
    build, args = BUILTINS[name]
    alg, real = build(*args)
    c = alg.structure_constants
    join, dense = both_paths(c, adjoint(c))
    assert join == dense == _jacobi_residual(c), name
    if real is not None:
        join, dense = both_paths(c, np.stack(real.rep))
        assert join == dense == real.homomorphism_residual(), name


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["H1", "N4", "S3"])
def test_nonfinite_constant_fails_jacobi_on_both_paths(name, bad):
    build, args = BUILTINS[name]
    c = np.array(build(*args)[0].structure_constants)
    c[0, 1, 2] = bad
    for residual in [*both_paths(c, adjoint(c)), _jacobi_residual(c)]:
        assert np.isnan(residual) and not Check("jacobi", residual, 1e-12).passed
    report = {k.name: k for k in LieAlgebra(c, np.eye(len(c)), validate=False).validation_report()}
    assert np.isnan(report["jacobi"].residual) and not report["jacobi"].passed


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_entry_fails_the_homomorphism_residual_on_both_paths(bad):
    alg, real = lm.build_N(4)
    c, rep = np.array(alg.structure_constants), np.stack(real.rep)
    bad_c = c.copy()
    bad_c[0, 3, 5] = bad
    bad_rep = rep.copy()
    bad_rep[2, 3, 0] = bad
    for residual in both_paths(bad_c, rep) + both_paths(c, bad_rep):
        assert np.isnan(residual) and not Check("hom", residual, HOMOMORPHISM_TOL).passed


@pytest.mark.parametrize("name", ["N4", "H2", "K4", "S3", "G3", "N10"])
def test_homomorphism_paths_agree_with_one_perturbed_matrix(name, rng):
    build, args = BUILTINS[name]
    alg, real = build(*args)
    rep = np.stack(real.rep)
    rep[1] += 1e-3 * rng.standard_normal(rep[1].shape)
    c = alg.structure_constants
    join, dense = both_paths(c, rep)
    assert dense > 1e-6
    assert join == pytest.approx(dense, rel=1e-14, abs=0.0)
    assert _representation_residual(c, rep) == pytest.approx(dense, rel=1e-14, abs=0.0)


def test_jacobi_path_follows_the_product_count(monkeypatch, rng):
    n10, n5 = lm.build_N(10)[0], lm.build_N(5)[0]
    results = joins(monkeypatch)
    # N_10: 2 * 45^5 multiply-adds dense, 2520 entries joined against a 45^3 slab
    assert _jacobi_residual(n10.structure_constants) == 0.0
    assert results == [0.0]
    # N_5: 2 * 10^5 multiply-adds, under 2^19, so no join is tried
    assert _jacobi_residual(n5.structure_constants) == 0.0
    assert results == [0.0]
    # a dense tensor at d = 13: 2 d^5 >= 2^19, but the join would form 3 d^5 entries
    c = random_antisymmetric(13, rng)
    assert _jacobi_residual(c) == dense_path(c, adjoint(c))
    assert results == [0.0, None]


def test_homomorphism_path_follows_size_and_product_count(monkeypatch, rng):
    n10, n5 = lm.build_N(10), lm.build_N(5)
    results = joins(monkeypatch)
    # 45^2 10^2 (45 + 10) multiply-adds dense, 480 entries joined against 45 * 10^2
    assert MatrixRealization(n10[0], n10[1].rep).homomorphism_residual() == 0.0
    assert results == [0.0]
    # sparse but small: the dense products are cheaper than the join
    assert MatrixRealization(n5[0], n5[1].rep).homomorphism_residual() == 0.0
    assert results == [0.0]
    # large and dense: d n^4 products would exceed one d n^2 slab
    rep = rng.standard_normal((16, 12, 12))
    zero = LieAlgebra(np.zeros((16, 16, 16)), np.eye(16), validate=False)
    resid = _representation_residual(zero.structure_constants, rep)
    assert resid == dense_path(zero.structure_constants, rep)
    assert results == [0.0, None]


@pytest.mark.parametrize("name", ["H1", "K2", "S2", "G3", "G_alpha_neg", "DR"])
def test_three_and_four_dimensional_builtins_take_the_dense_path(name, monkeypatch):
    build, args = BUILTINS[name]
    alg, real = build(*args)
    results = joins(monkeypatch)
    assert _jacobi_residual(alg.structure_constants) == 0.0
    if real is not None:
        assert MatrixRealization(alg, real.rep).homomorphism_residual() == 0.0
    assert results == []


def test_dense_blocks_cover_every_first_index(rng):
    # d n^2 = 26100 entries per first index: blocks of two, the last of one.  c is
    # not antisymmetric, and its last row is large: the worst residual is in the last block.
    c = rng.standard_normal((29, 29, 29))
    c[28] *= 100.0
    rep = rng.standard_normal((29, 30, 30))
    direct = (np.einsum("iab,jbc->ijac", rep, rep) - np.einsum("jab,ibc->ijac", rep, rep)
              - np.einsum("ijk,kac->ijac", c, rep))
    assert dense_path(c, rep) == pytest.approx(float(np.abs(direct).max()), rel=1e-14, abs=0.0)


def test_dense_validation_stays_below_one_d4_tensor(rng):
    d = 40
    c = random_antisymmetric(d, rng)
    tracemalloc.start()
    try:
        report = LieAlgebra(c, np.eye(d), validate=False).validation_report()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not {k.name: k for k in report}["jacobi"].passed
    assert peak < d ** 4 * 8

