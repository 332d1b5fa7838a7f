"""The sparse (COO join) paths of the Jacobi check and the homomorphism residual.

The dense slab code stays as the reference: on random dense data the two
paths agree to rounding, on every builtin they agree bit for bit, and a
non-finite entry fails both.  The entry points pick a path from the join's
product count; both sides of that choice run here.
"""

import numpy as np
import pytest

import liemorph as lm
import liemorph.algebra as algebra_module
import liemorph.groups as groups_module
from liemorph.algebra import (LieAlgebra, _coo_max_abs, _jacobi_dense, _jacobi_residual,
                              _jacobi_sparse)
from liemorph.checks import Check
from liemorph.groups import (HOMOMORPHISM_TOL, MatrixRealization, _homomorphism_dense,
                             _homomorphism_sparse)

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


def perturbed_n10(rng):
    """N_10 with a few non-integer antisymmetric changes: sparse, and Jacobi fails."""
    c = np.array(lm.build_N(10)[0].structure_constants)
    for i, j, k in rng.integers(0, 45, (6, 3)):
        delta = 0.1 * rng.standard_normal()
        c[i, j, k] += delta
        c[j, i, k] -= delta
    return c


def counting(monkeypatch, module, name):
    """Record the calls of ``module.name`` in the returned list."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(name) or original(*args))
    return calls


@pytest.mark.parametrize("d", [3, 5, 8])
def test_jacobi_paths_agree_on_random_dense_constants(d, rng):
    c = random_antisymmetric(d, rng)
    dense, sparse = _jacobi_dense(c), _jacobi_sparse(c)
    assert dense > 1.0
    assert sparse == pytest.approx(dense, rel=1e-14, abs=0.0)


def test_jacobi_paths_agree_on_perturbed_n10(rng):
    c = perturbed_n10(rng)
    dense, sparse = _jacobi_dense(c), _jacobi_sparse(c)
    assert dense > 1e-3
    assert sparse == pytest.approx(dense, rel=1e-14, abs=0.0)
    assert _jacobi_residual(c) == sparse      # still sparse enough for the join


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_residuals_are_bit_identical_on_both_paths(name):
    build, args = BUILTINS[name]
    alg, real = build(*args)
    c = alg.structure_constants
    assert _jacobi_sparse(c) == _jacobi_dense(c), name
    if real is not None:
        rep = np.stack(real.rep)
        assert _homomorphism_sparse(c, rep) == _homomorphism_dense(c, rep), name


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["H1", "N4", "S3"])
def test_nonfinite_constant_fails_jacobi_on_both_paths(name, bad):
    build, args = BUILTINS[name]
    c = np.array(build(*args)[0].structure_constants)
    c[0, 1, 2] = bad
    tol = 1e-12
    with np.errstate(invalid="ignore"):         # inf * 0 inside the dense products
        residuals = [_jacobi_dense(c), _jacobi_sparse(c), _jacobi_residual(c)]
    for residual in residuals:
        assert np.isnan(residual) and not Check("jacobi", residual, tol).passed
    report = {k.name: k for k in LieAlgebra(c, np.eye(len(c)), validate=False).validation_report()}
    assert np.isnan(report["jacobi"].residual) and not report["jacobi"].passed


@pytest.mark.parametrize("name", ["N4", "H2", "K4", "S3", "G3", "N10"])
def test_homomorphism_paths_agree_with_one_perturbed_matrix(name, rng):
    build, args = BUILTINS[name]
    alg, real = build(*args)
    rep = np.stack(real.rep)
    rep[1] += 1e-3 * rng.standard_normal(rep[1].shape)
    c = alg.structure_constants
    dense, sparse = _homomorphism_dense(c, rep), _homomorphism_sparse(c, rep)
    assert dense > 1e-6
    assert sparse == pytest.approx(dense, rel=1e-14, abs=0.0)
    assert MatrixRealization(alg, tuple(rep), validate=False).homomorphism_residual() == \
        pytest.approx(dense, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_entry_fails_the_homomorphism_residual_on_both_paths(bad):
    alg, real = lm.build_N(4)
    c, rep = np.array(alg.structure_constants), np.stack(real.rep)
    bad_c = c.copy()
    bad_c[0, 3, 5] = bad
    bad_rep = rep.copy()
    bad_rep[2, 3, 0] = bad
    with np.errstate(invalid="ignore"):
        residuals = [path(cc, rr) for cc, rr in ((bad_c, rep), (c, bad_rep))
                     for path in (_homomorphism_dense, _homomorphism_sparse)]
    for residual in residuals:
        assert np.isnan(residual) and not Check("hom", residual, HOMOMORPHISM_TOL).passed


def test_jacobi_path_follows_the_product_count(monkeypatch, rng):
    dense_calls = counting(monkeypatch, algebra_module, "_jacobi_dense")
    assert _jacobi_residual(lm.build_N(10)[0].structure_constants) == 0.0
    assert dense_calls == []
    # a dense tensor: the join would form d^5 products, more than one d^3 slab
    c = random_antisymmetric(5, rng)
    assert _jacobi_sparse(c, budget=5 ** 3) is None
    assert _jacobi_residual(c) == _jacobi_dense(c)
    assert dense_calls == ["_jacobi_dense"]


def test_homomorphism_path_follows_size_and_product_count(monkeypatch, rng):
    n10, n5 = lm.build_N(10), lm.build_N(5)
    dense_calls = counting(monkeypatch, groups_module, "_homomorphism_dense")
    # 45^2 10^2 (45 + 10) multiply-adds dense, 480 entries joined
    assert MatrixRealization(n10[0], n10[1].rep).homomorphism_residual() == 0.0
    assert dense_calls == []
    # sparse but small: the dense products are cheaper than the join
    assert MatrixRealization(n5[0], n5[1].rep).homomorphism_residual() == 0.0
    assert dense_calls == ["_homomorphism_dense"]
    # large and dense: d n^4 products would exceed the d^2 n^2 entries of the dense array
    rep = rng.standard_normal((16, 12, 12))
    zero = LieAlgebra(np.zeros((16, 16, 16)), np.eye(16))
    assert _homomorphism_sparse(zero.structure_constants, rep, budget=16 ** 2 * 12 ** 2) is None
    resid = MatrixRealization(zero, tuple(rep), validate=False).homomorphism_residual()
    assert resid == _homomorphism_dense(zero.structure_constants, rep)
    assert dense_calls == ["_homomorphism_dense"] * 2


def test_join_sums_permuted_outputs_and_counts_before_forming():
    # x = e_0 (x) e_1 and y = e_1 (x) e_2 join on the shared letter to one product
    x = np.zeros((2, 2))
    y = np.zeros((2, 3))
    x[0, 1], y[1, 2] = 2.0, 3.0
    assert _coo_max_abs([("am,mb", x, y, ("ab",))]) == 6.0
    assert _coo_max_abs([("am,mb", x, y, ("ab", "-ab"))]) == 0.0
    assert _coo_max_abs([("am,mb", x, y, ("ab", "ab"))]) == 12.0
    assert _coo_max_abs([("am,mb", x, y, ("ab", "ab"))], budget=1) is None
    assert _coo_max_abs([("am,mb", x, np.zeros((2, 3)), ("ab",))], budget=0) == 0.0
