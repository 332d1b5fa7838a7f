"""The batched structure-constant layer against per-pair oracles.

Each oracle is the straightforward loop over basis pairs: one ``lstsq`` per
commutator, one residual per pair, one ``LieAlgebra.bracket`` per vector.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import (LieAlgebra, Subspace, _bracket_span, derived_series, full_space,
                              is_abelian, lower_central_series, span)
from liemorph.errors import StructureError
from liemorph.groups import MatrixRealization, _algebra_from_matrices

SMALL_BUILDS = {
    **{f"N{n}": (lm.build_N, (n,)) for n in range(2, 7)},
    **{f"H{n}": (lm.build_H, (n,)) for n in range(1, 4)},
    **{f"K{n}": (lm.build_K, (n,)) for n in range(2, 6)},
    **{f"S{n}": (lm.build_S, (n,)) for n in range(2, 6)},
    "N10": (lm.build_N, (10,)),     # the structure_dims algebras
    "S8": (lm.build_S, (8,)),
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
    # uint64 views, so that signed zeros count
    assert np.array_equal(alg.structure_constants.view(np.uint64),
                          per_pair_constants(list(real.rep)).view(np.uint64)), name


def test_projection_keeps_a_genuine_constant_below_1e_13():
    alg, _ = lm.build_G3(1e-14, 1.0)
    assert list(alg.structure_constants[0, 1]) == [0.0, 1e-14, 1.0]


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (1e-3, 1e3), (-1.7, 1.0), (-7.0, -1e7),
                                         (1e-13, 7.0), (1.7, None), (-0.3, None)])
def test_g3_and_g_alpha_constants_are_the_closed_form(alpha, beta):
    # [e1, e2] = alpha e2 + beta e3, [e1, e3] = -beta e2 + alpha e3 for G3;
    # [e1, e2] = alpha e2, [e1, e3] = -e3 for G_alpha
    if beta is None:
        alg, _ = lm.build_Galpha(alpha)
        rows = [[0.0, alpha, 0.0], [0.0, 0.0, -1.0]]
    else:
        alg, _ = lm.build_G3(alpha, beta)
        rows = [[0.0, alpha, beta], [0.0, -beta, alpha]]
    exact = np.zeros((3, 3, 3))
    exact[0, 1:] = rows
    exact[1:, 0] = -exact[0, 1:]
    assert np.array_equal(alg.structure_constants, exact)


def test_projection_on_a_non_orthogonal_basis_matches_per_pair_lstsq():
    # the random basis of upper triangular 3 x 3 matrices that
    # test_batched_identities.mixed_realization uses
    rng = np.random.default_rng(11)
    _, s3 = lm.build_S(3)
    mats = np.einsum("ab,bjk->ajk", np.eye(6) + 0.3 * rng.normal(size=(6, 6)), s3.rep)
    c = _algebra_from_matrices(mats)[0].structure_constants
    oracle = per_pair_constants(list(mats))
    assert np.abs(c - oracle).max() <= 1e-12 * np.abs(oracle).max()


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
    with pytest.raises(StructureError,
                       match=r"realization is not a homomorphism \(residual 1\.000e\+00\)"):
        _algebra_from_matrices([e12, e23])
    # closed once [E12, E23] = E13 is in the basis
    e13 = np.zeros((3, 3))
    e13[0, 2] = 1.0
    alg, _ = _algebra_from_matrices([e12, e23, e13])
    assert alg.dim == 3


NONFINITE_BUILDS = """
import liemorph as lm
from liemorph.errors import StructureError
inf, nan = float("inf"), float("nan")
for build, args in [(lm.build_G3, (inf, 0.0)), (lm.build_G3, (1.0, inf)),
                    (lm.build_Galpha, (inf,)), (lm.build_G3, (nan, 0.0)),
                    (lm.build_Galpha, (nan,))]:
    try:
        build(*args)
        print("built")
    except StructureError:
        print("StructureError")
"""


def test_nonfinite_builder_input_raises_before_lapack():
    # in a subprocess with a timeout, so that a hang inside LAPACK fails this test
    proc = subprocess.run([sys.executable, "-c", NONFINITE_BUILDS],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["StructureError"] * 5
    assert proc.stderr == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, beta", [(1e300, 1e300), (1e150, 0.0),
                                         (1.7976931348623157e308, 0.0)])
def test_overflowing_builder_raises_without_a_warning(alpha, beta):
    with pytest.raises(StructureError):
        lm.build_G3(alpha, beta)


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


# ---------------------------------------------------------------------------
# one descending-series loop against the three loops it replaced
# ---------------------------------------------------------------------------

SERIES_BUILDS = {
    **{f"N{n}": (lm.build_N, (n,)) for n in range(2, 15)},
    **{f"H{n}": (lm.build_H, (n,)) for n in range(1, 8)},
    **{f"K{n}": (lm.build_K, (n,)) for n in range(2, 10)},
    **{f"S{n}": (lm.build_S, (n,)) for n in range(2, 13)},
    "G3": (lm.build_G3, (1.0, 0.5)),
    "G_alpha": (lm.build_Galpha, (-0.3,)),
    "DR(2,1)": (lm.build_damek_ricci, (2, 1)),
}


def loop_derived_series(alg):
    """Each term bracketed with itself, one contraction per term."""
    series = [full_space(alg)]
    while series[-1].dim > 0:
        nxt = _bracket_span(alg, series[-1].basis, series[-1].basis)
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def loop_lower_central_series(alg):
    """Each term bracketed with g, one contraction of g per term."""
    series = [full_space(alg)]
    while series[-1].dim > 0:
        nxt = _bracket_span(alg, series[0].basis, series[-1].basis)
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def loop_n_nilpotent(alg, n_basis):
    """The last term of n, [n, n], [n, [n, n]], ..., at most d + 1 steps."""
    current = span(n_basis, alg.dim)
    for _ in range(alg.dim + 1):
        if current.dim == 0:
            break
        nxt = _bracket_span(alg, n_basis, current.basis)
        if nxt.dim == current.dim:
            break
        current = nxt
    return float(current.dim)


@pytest.mark.parametrize("name", sorted(SERIES_BUILDS))
def test_one_series_loop_matches_the_per_series_loops_bit_for_bit(name):
    build, args = SERIES_BUILDS[name]
    alg = build(*args)[0]
    for got, want in ((derived_series(alg), loop_derived_series(alg)),
                      (lower_central_series(alg), loop_lower_central_series(alg))):
        assert len(got) == len(want), name
        assert all(np.array_equal(a.basis, b.basis) for a, b in zip(got, want)), name


def test_no_series_contracts_the_identity_with_c(monkeypatch):
    # [g, g] is c's rows and g's contraction is c itself: only the derived series'
    # later terms, each bracketed with itself, are contracted
    alg = lm.build_N(6)[0]
    calls = []
    tensordot = np.tensordot

    def counting_tensordot(*args, **kwargs):
        calls.append(1)
        return tensordot(*args, **kwargs)

    monkeypatch.setattr(np, "tensordot", counting_tensordot)
    lower = lower_central_series(alg)
    assert len(lower) == 6 and len(calls) == 0
    assert not is_abelian(alg) and len(calls) == 0
    derived = derived_series(alg)
    assert len(calls) == sum(t.dim > 0 for t in derived[1:])     # one per nonzero term after g


def s_n_diagonal_grading(n):
    """S_n = n + a with a the diagonal, one root e_r - e_s per entry E_rs."""
    alg = lm.build_S(n)[0]
    eye = np.eye(alg.dim)
    entries = [(r, s) for r in range(n) for s in range(r + 1, n)]     # build_S's order
    roots = tuple(lm.RootSpace(eye[r, :n] - eye[s, :n], Subspace(alg.dim, eye[n + k:n + k + 1]))
                  for k, (r, s) in enumerate(entries))
    return lm.RootGradedAlgebra(alg, Subspace(alg.dim, eye[:n]), roots, 0, validate=False)


def not_nilpotent_n():
    """n = span(x_1, x_2) with [x_1, x_2] = x_1, which is not nilpotent; a = span(f), f central."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0
    alg = LieAlgebra(c, np.eye(3))
    return lm.RootGradedAlgebra(alg, Subspace(3, np.eye(3)[2:]),
                                (lm.RootSpace(np.zeros(1), Subspace(3, np.eye(3)[:2])),), 0,
                                validate=False)


GRADED = {
    "DR(2,1) v": lambda: lm.damek_ricci_root_graded(2, 1, beta_root="v", validate=False),
    "DR(2,1) z": lambda: lm.damek_ricci_root_graded(2, 1, beta_root="z", validate=False),
    **{f"S{n} diagonal": (lambda n=n: s_n_diagonal_grading(n)) for n in range(2, 8)},
    "not nilpotent": not_nilpotent_n,
}


@pytest.mark.parametrize("name", sorted(GRADED))
def test_n_nilpotent_is_the_loop_verdict(name):
    graded = GRADED[name]()
    check = next(c for c in graded.validation_report() if c.name == "n_nilpotent")
    assert check.residual == loop_n_nilpotent(graded.algebra, graded.nilradical_basis())
    assert check.passed == (name != "not nilpotent")
