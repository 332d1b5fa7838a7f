"""The structure layer read off nonzero entries, against the dense code it replaced.

The matrix builders join the realization's nonzero entries instead of forming
every product M_i M_j; ``LieAlgebra`` lists the nonzeros of c once, and its
scale, its antisymmetry and Jacobi residuals, [g, g] and the center read that
listing.  The dense forms are kept here as oracles: on every builtin the
results are equal bit for bit, on random dense bases to rounding.
"""

import functools
import tracemalloc

import numpy as np
import pytest

import liemorph as lm
import liemorph.algebra as algebra_module
from liemorph.algebra import (RANK_TOL, LieAlgebra, Subspace, _descending_series, _fix_signs,
                              _rank_decision, _representation_residual, _scale, _span_above,
                              center, derived_series, full_space, is_abelian,
                              lower_central_series, span)
from liemorph.checks import Check
from liemorph.errors import StructureError
from liemorph.groups import MatrixRealization, _algebra_from_matrices

BUILTINS = {
    **{f"N{n}": (lm.build_N, (n,)) for n in range(2, 13)},
    **{f"H{n}": (lm.build_H, (n,)) for n in range(1, 6)},
    **{f"K{n}": (lm.build_K, (n,)) for n in range(2, 9)},
    **{f"S{n}": (lm.build_S, (n,)) for n in range(2, 10)},
    **{f"G3{ab}": (lm.build_G3, ab) for ab in [(1.0, 0.5), (0.7, 0.3), (0.0, 1.0), (0.5, 0.0),
                                               (1e-14, 1.0), (-7.0, -1e7), (1e-3, 1e3)]},
    **{f"G_alpha({a})": (lm.build_Galpha, (a,)) for a in (0.5, 1.0, -0.3, 1.7, 0.0, -1.0, 2.0)},
}
WITH_DR = {**BUILTINS, "DR(2,1)": (lm.build_damek_ricci, (2, 1))}


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def dense_constants(mats):
    """The dense builder: every M_i M_j in one product, the commutator stack, one projection."""
    mats = np.array(mats, dtype=float)
    d, n = mats.shape[:2]
    i, j = np.triu_indices(d, 1)
    comm = (mats.reshape(-1, n) @ mats.transpose(1, 0, 2).reshape(n, -1)).reshape(d, n, d, n)
    comm = (comm[i, :, j] - comm[j, :, i]).reshape(len(i), n * n)
    coeff = comm @ np.linalg.pinv(mats.reshape(d, -1))
    c = np.zeros((d, d, d))
    c[i, j] = coeff
    c[j, i] = -coeff
    return c


def dense_antisymmetry(c):
    with np.errstate(invalid="ignore"):
        return float(np.abs(c + c.transpose(1, 0, 2)).max())


def dense_derived(alg):
    c, d = alg.structure_constants, alg.dim
    return _span_above(c.reshape(-1, d), d, RANK_TOL * _scale(c))


def dense_center(alg):
    c, d = alg.structure_constants, alg.dim
    rank, _, vh = _rank_decision(c.transpose(1, 2, 0).reshape(d * d, d), RANK_TOL * _scale(c))
    return Subspace(d, _fix_signs(vh[rank:]))


def dense_path(c, rep):
    """The representation residual by dense products: the join declines."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(algebra_module, "_join_residual", lambda c, rep, budget: None)
        return _representation_residual(c, rep)


def two_product_residual(c, rep):
    """The dense residual as it was: M_i M_j and M_j M_i as two products."""
    return float(np.abs(rep[:, None] @ rep - rep @ rep[:, None]
                        - np.tensordot(c, rep, axes=(2, 0))).max())


# ---------------------------------------------------------------------------
# the join builder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_join_builder_is_the_dense_builder_bit_for_bit(name):
    build, args = BUILTINS[name]
    alg, real = build(*args)
    # bytes, so that signed zeros count
    assert bits(alg.structure_constants) == bits(dense_constants(real.rep)), name


@pytest.mark.parametrize("name, order", [("N5", "reversed"), ("S3", "reversed"),
                                         ("K4", "reversed"), ("N5", "shuffled"),
                                         ("S4", "shuffled"), ("H2", "shuffled")])
def test_join_builder_on_permuted_bases(name, order):
    # a permuted basis puts products on both sides of the diagonal: M_i M_j with i > j
    # is subtracted from the pair (j, i)
    build, args = BUILTINS[name]
    rep = build(*args)[1].rep
    perm = np.arange(len(rep))[::-1] if order == "reversed" else \
        np.random.default_rng(3).permutation(len(rep))
    mats = rep[perm]
    assert bits(_algebra_from_matrices(mats)[0].structure_constants) == bits(dense_constants(mats))


def mixed_basis(name, seed):
    """A random recombination of a builtin basis: closed, with dense matrices."""
    rng = np.random.default_rng(seed)
    build, args = BUILTINS[name]
    rep = build(*args)[1].rep
    d = len(rep)
    return np.einsum("ab,bjk->ajk", np.eye(d) + 0.3 * rng.normal(size=(d, d)), rep)


@pytest.mark.parametrize("name, seed", [("S3", 11), ("S3", 12), ("N4", 5), ("H2", 7), ("K3", 9),
                                        ("G3(1.0, 0.5)", 13)])
def test_join_builder_on_dense_bases_within_rounding(name, seed):
    # ("S3", 11) is the mixed basis of test_batched_identities.mixed_realization
    mats = mixed_basis(name, seed)
    oracle = dense_constants(mats)
    c = _algebra_from_matrices(mats)[0].structure_constants
    assert np.abs(c - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_build_n12_peak_stays_below_three_copies_of_c():
    # the dense product of N_12 alone is (66 * 12)^2 floats, 5 MB, against 2.3 MB for c
    tracemalloc.start()
    try:
        alg, _ = lm.build_N(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    c = alg.structure_constants
    assert c.shape == (66, 66, 66)
    assert peak < 3 * c.nbytes


# ---------------------------------------------------------------------------
# one listing of c
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WITH_DR))
def test_structure_layer_is_the_dense_scans_bit_for_bit(name):
    build, args = WITH_DR[name]
    alg = build(*args)[0]
    c = alg.structure_constants
    assert alg._c_scale == _scale(c)
    report = {k.name: k for k in alg.validation_report()}
    assert bits(report["antisymmetry"].residual) == bits(dense_antisymmetry(c))
    assert bits(report["jacobi"].residual) == bits(dense_path(c, c.transpose(0, 2, 1)))
    derived = dense_derived(alg)
    assert bits(alg._derived.basis) == bits(derived.basis)
    assert bits(center(alg).basis) == bits(dense_center(alg).basis)
    for got, want in ((derived_series(alg), _descending_series(alg, full_space(alg), derived)),
                      (lower_central_series(alg),
                       _descending_series(alg, full_space(alg), derived, c))):
        assert [bits(t.basis) for t in got] == [bits(t.basis) for t in want], name


def same_residuals(a, b):
    return np.array_equal([k.residual for k in a], [k.residual for k in b], equal_nan=True) \
        and [k.passed for k in a] == [k.passed for k in b]


def dense_report(c):
    """The validation checks as the dense scans computed them."""
    report = LieAlgebra(c, np.eye(len(c)), validate=False).validation_report()
    residuals = {"antisymmetry": dense_antisymmetry(c),
                 "jacobi": dense_path(c, c.transpose(0, 2, 1))}
    return [Check(k.name, residuals.get(k.name, k.residual), k.tol) for k in report]


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, -0.0])
@pytest.mark.parametrize("name", ["N4", "S3", "G3(0.7, 0.3)"])
@pytest.mark.parametrize("where", [(0, 1, 2), (2, 0, 1), (1, 1, 0)])
def test_special_entries_give_the_dense_checks(name, entry, where):
    build, args = BUILTINS[name]
    c = np.array(build(*args)[0].structure_constants)
    c[where] = entry
    got = LieAlgebra(c, np.eye(len(c)), validate=False)
    assert same_residuals(got.validation_report(), dense_report(c))
    assert got._c_scale == _scale(c)
    if np.isfinite(entry):
        assert bits(got._derived.basis) == bits(dense_derived(got).basis)
        assert bits(center(got).basis) == bits(dense_center(got).basis)
    else:
        for decide in (lambda a: a._derived, center, dense_derived, dense_center):
            with pytest.raises(StructureError, match="non-finite"):
                decide(LieAlgebra(c, np.eye(len(c)), validate=False))


def test_negative_zeros_are_not_listed():
    c = np.array(lm.build_S(4)[0].structure_constants)
    negative = np.where(c == 0.0, -0.0, c)
    a, b = (LieAlgebra(x, np.eye(len(c))) for x in (c, negative))
    assert [i.tobytes() for i in a._entries.index] == [i.tobytes() for i in b._entries.index]
    assert same_residuals(a.validation_report(), b.validation_report())
    assert same_residuals(b.validation_report(), dense_report(negative))
    assert bits(center(b).basis) == bits(dense_center(b).basis)
    assert bits(b._derived.basis) == bits(dense_derived(b).basis)


def counting_listings(monkeypatch):
    """Record the shape of every array whose nonzeros get listed."""
    shapes = []
    listing = algebra_module._Entries.index.func

    def counted(self):
        shapes.append(self.shape)
        return listing(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(algebra_module._Entries, "index")
    monkeypatch.setattr(algebra_module._Entries, "index", prop)
    return shapes


def test_c_is_listed_once_per_algebra(monkeypatch):
    alg, real = lm.build_N(10)
    c, rep = np.array(alg.structure_constants), np.array(real.rep)
    shapes = counting_listings(monkeypatch)
    fresh = LieAlgebra(c, np.eye(45))
    assert not is_abelian(fresh)
    center(fresh)
    derived_series(fresh)
    lower_central_series(fresh)
    assert shapes == [(45, 45, 45)]
    # the homomorphism residual reads the algebra's listing; only the matrices are listed
    MatrixRealization(fresh, rep)
    assert shapes == [(45, 45, 45), (45, 10, 10)]


# ---------------------------------------------------------------------------
# the dense path of the representation residual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["N4", "H2", "K4", "S3", "G3(0.7, 0.3)", "G_alpha(0.5)"])
def test_one_block_dense_path_is_the_two_product_form_bit_for_bit(name, rng):
    build, args = BUILTINS[name]
    alg, real = build(*args)
    c, rep = alg.structure_constants, real.rep
    noisy = rep + 1e-3 * rng.standard_normal(rep.shape)
    for stack in (rep, noisy, c.transpose(0, 2, 1)):
        assert bits(dense_path(c, stack)) == bits(two_product_residual(c, stack)), name


@pytest.mark.parametrize("name", ["N4", "S3", "N12"])
def test_a_defect_at_the_last_first_index_fails_the_dense_path(name):
    # antisymmetric data, with one constant of the last first index changed and its
    # partner not: only the pairs (d - 1, j) see it.  N_12 takes several blocks.
    build, args = BUILTINS[name]
    alg, real = build(*args)
    c = np.array(alg.structure_constants)
    d = len(c)
    assert dense_path(c, real.rep) == 0.0
    c[d - 1, 0, 1] += 1.0
    assert dense_path(c, real.rep) == 1.0      # |-M_1| at the pair (d - 1, 0)
    assert _representation_residual(c, real.rep) == 1.0


# ---------------------------------------------------------------------------
# orthonormal rows skip the rank decision
# ---------------------------------------------------------------------------

def counting_ranks(monkeypatch):
    calls = []
    rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda *args, **kwargs: calls.append(1) or rank(*args, **kwargs))
    return calls


def test_orthonormal_rows_take_no_rank_svd(monkeypatch, rng):
    alg = lm.build_N(6)[0]
    calls = counting_ranks(monkeypatch)
    Subspace(5, np.eye(5))
    Subspace(7, np.linalg.qr(rng.standard_normal((7, 7)))[0][:4])      # rows of a rotation
    spanned = span(rng.standard_normal((3, 6)), 6)
    derived_series(alg)
    center(alg)
    assert spanned.dim == 3 and calls == []
    Subspace(3, [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])       # independent, not orthonormal
    Subspace(3, [[1.0, 1e-9, 0.0], [0.0, 1.0, 0.0]])      # 1e-9 off: the rank decides
    assert len(calls) == 2


def test_nearly_orthonormal_dependent_rows_are_refused():
    # the d + 1 unit vertices of a regular simplex in R^d: every product of two is -1/d,
    # within 1e-2 of orthonormal at d = 101, and d + 1 vectors in R^d are dependent
    d = 101
    vertices = np.eye(d + 1) - 1.0 / (d + 1)
    frame = np.linalg.svd(vertices)[2][:d]           # an orthonormal basis of their span
    rows = vertices @ frame.T
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    gram = rows @ rows.T
    assert np.abs(gram - np.eye(d + 1)).max() == pytest.approx(1.0 / d, rel=1e-9)
    with pytest.raises(StructureError, match="linearly dependent"):
        Subspace(d, rows)


@pytest.mark.filterwarnings("error")
def test_huge_rows_take_the_rank_decision_without_a_warning():
    rows = np.array([[1e200, 1e200], [1e200, -1e200]])
    assert Subspace(2, rows).dim == 2
    with pytest.raises(StructureError, match="linearly dependent"):
        Subspace(2, [[1e200, 1e200], [1e200, 1e200]])
