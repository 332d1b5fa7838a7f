"""Each batched structural identity against the per-pair bracket loop it replaced.

The loops below are the reference implementations: one ``LieAlgebra.bracket``,
``ConnectionTable.nabla`` or Gram pairing per pair of basis vectors.  The
inputs are perturbed, non-integer structure constants with a non-identity
Gram matrix, so the residuals being compared are nonzero.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import LieAlgebra, Subspace, span
from liemorph.checks import max_residual
from liemorph.constructions import (RootGradedAlgebra, RootSpace, _phi_and_horizontal,
                                    damek_ricci_root_graded, second_construction_check,
                                    xi_vector)
from liemorph.errors import StructureError
from liemorph.foliations import DistributionSpec, _adjoint_read, _unit_rows, second_forms
from liemorph.geometry import gl_connection_term, koszul
from liemorph.groups import DEFAULT_J, build_damek_ricci

QUATERNION_J = (np.array([[0., -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
                np.array([[0., 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]))
QUATERNION_J += (QUATERNION_J[0] @ QUATERNION_J[1],)


def spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d + np.eye(d)


def perturbed(algebra, rng, size=1e-3):
    """The algebra's constants plus noise, under a random positive-definite Gram matrix."""
    c = algebra.structure_constants + size * rng.normal(size=algebra.structure_constants.shape)
    return LieAlgebra(c, spd(rng, algebra.dim), validate=False)


def perturbed_grading(graded, rng):
    """Perturbed constants, Gram matrix, bases and root values: every condition fails a little."""
    alg = perturbed(graded.algebra, rng)
    d = alg.dim

    def jiggle(space):
        return Subspace(d, space.basis + 1e-3 * rng.normal(size=space.basis.shape))

    roots = tuple(RootSpace(r.values + 1e-3 * rng.normal(size=r.values.shape), jiggle(r.space))
                  for r in graded.roots)
    return RootGradedAlgebra(alg, jiggle(graded.a_space), roots, graded.beta_index,
                             validate=False)


def s3_grading():
    alg, _ = lm.build_S(3)
    eye = np.eye(6)
    roots = tuple(RootSpace(np.array(values), Subspace(6, eye[[k]]))
                  for values, k in (([1.0, -1.0, 0.0], 3), ([1.0, 0.0, -1.0], 4),
                                    ([0.0, 1.0, -1.0], 5)))
    return RootGradedAlgebra(alg, Subspace(6, eye[:3]), roots, 0)


GRADINGS = {
    "damek_ricci_2_1": lambda: damek_ricci_root_graded(2, 1),
    "damek_ricci_4_3": lambda: damek_ricci_root_graded(4, 3, QUATERNION_J),
    "S3": s3_grading,
}


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def root_graded_report_by_loops(graded):
    """The per-pair bracket loops of ``RootGradedAlgebra.validation_report``."""
    alg, g = graded.algebra, graded.algebra.gram
    a_basis, n_basis = graded.a_space.basis, graded.nilradical_basis()
    bracket = alg.bracket
    out = {
        "a_abelian": max_residual(float(np.abs(bracket(x, y)).max())
                                  for i, x in enumerate(a_basis) for y in a_basis[i + 1:]),
        "a_orthogonal_to_n": max_residual(abs(float(x @ g @ y))
                                          for x in a_basis for y in n_basis),
        "root_spaces_orthogonal": max_residual(
            abs(float(x @ g @ y))
            for i, ri in enumerate(graded.roots) for rj in graded.roots[i + 1:]
            for x in ri.space.basis for y in rj.space.basis),
        "root_relations": max_residual(
            float(np.abs(bracket(f, x) - root.values[i] * x).max())
            for root in graded.roots for i, f in enumerate(a_basis) for x in root.space.basis),
        "ad_a_self_adjoint": max_residual(
            abs(float(bracket(f, x) @ g @ y - x @ g @ bracket(f, y)))
            for f in a_basis for x in n_basis for y in n_basis),
    }
    nn = lm.algebra._bracket_span(alg, n_basis, n_basis)
    out["beta_orthogonal_to_derived_n"] = max_residual(
        abs(float(x @ g @ y)) for x in graded.beta.space.basis for y in nn.basis)
    sub_n = span(n_basis, alg.dim)
    closed = all(sub_n.contains(bracket(x, y)) for x in n_basis for y in n_basis)
    out["n_closed"] = 0.0 if closed else 1.0
    return out


def fibre_mean_curvature_by_loops(graded):
    alg, g = graded.algebra, graded.algebra.gram
    onb = [lm.orthonormalize(alg, r.space).basis
           for i, r in enumerate(graded.roots) if i != graded.beta_index]
    fibre = [*lm.orthonormalize(alg, graded.a_space).basis, *(e for b in onb for e in b)]
    return max_residual(abs(sum(float(alg.bracket(x, f) @ g @ f) for f in fibre))
                        for x in lm.orthonormalize(alg, graded.beta.space).basis)


def involutive_by_loops(algebra, vertical):
    return all(vertical.contains(algebra.bracket(x, y), 1e-10)
               for i, x in enumerate(vertical.basis) for y in vertical.basis[i + 1:])


def sym_nabla_by_loops(table, rows, proj):
    k = rows.shape[0]
    out = np.zeros((k, k, table.gamma.shape[0]))
    for i in range(k):
        for j in range(i, k):
            s = 0.5 * (table.nabla(rows[i], rows[j]) + table.nabla(rows[j], rows[i]))
            out[i, j] = out[j, i] = proj @ s
    return out


def tangent_pairs(v):
    """Deterministic orthonormal completion (x, v x x) of each unit row of an (N, 3) stack.

    x starts from the coordinate axis of the first smallest component, projected off v.
    """
    pick = np.abs(v).argmin(axis=1)
    x = _unit_rows(np.eye(3)[pick] - v[np.arange(len(v)), pick][:, None] * v)
    return x, np.cross(v, x)


def rotation_block_by_loops(algebra, table, v_frame):
    x, y = (u[0] for u in tangent_pairs(v_frame[None]))
    v_alg, x_alg, y_alg = (table.to_algebra_coords(u) for u in (v_frame, x, y))
    g = algebra.gram
    return np.array([[algebra.bracket(v_alg, a) @ g @ b for b in (x_alg, y_alg)]
                     for a in (x_alg, y_alg)])


def gl_connection_term_by_loops(realization, x):
    mats = realization.rep
    gram_rep = np.array([[float(np.sum(a * b)) for b in mats] for a in mats])
    m = realization.matrix_of(x)
    comm = m @ m.T - m.T @ m
    return np.linalg.solve(gram_rep, np.array([float(np.sum(comm * a)) for a in mats]))


def xi_vector_by_loops(algebra, horizontal_onb):
    """The pair loop of ``xi_vector``'s orthogonality test, then one ad trace per row."""
    derived = lm.derived_series(algebra)[1]
    g = algebra.gram
    for h in horizontal_onb:
        for b in derived.basis:
            if abs(h @ g @ b) > 1e-10 * max(1.0, float(np.abs(h).max()) * float(np.abs(b).max())):
                return None
    return np.array([algebra.ad_trace(h) for h in horizontal_onb])


def damek_ricci_constants_by_loops(dim_v, dim_z, j_maps):
    """The loop builder: its Clifford checks and fill, as constants or the raised message."""
    j_maps = [np.asarray(j, dtype=float) for j in j_maps]
    for m, j in enumerate(j_maps):
        if j.shape != (dim_v, dim_v):
            return f"J_{m} must be {dim_v} x {dim_v}"
        if float(np.abs(j + j.T).max()) > 1e-12:
            return f"failed Clifford identity: J_{m} is not skew-symmetric"
    for a in range(dim_z):
        for b in range(a, dim_z):
            anti = j_maps[a] @ j_maps[b] + j_maps[b] @ j_maps[a]
            target = -2.0 * np.eye(dim_v) if a == b else np.zeros((dim_v, dim_v))
            if float(np.abs(anti - target).max()) > 1e-12:
                return (f"failed Clifford identity: J_{a} J_{b} + J_{b} J_{a} != "
                        + ("-2 I" if a == b else "0"))
    d = dim_v + dim_z + 1
    ia = d - 1
    c = np.zeros((d, d, d))
    for i in range(dim_v):
        for j in range(dim_v):
            for m in range(dim_z):
                c[i, j, dim_v + m] = j_maps[m][j, i]
    for i in range(dim_v):
        c[ia, i, i] = 0.5
        c[i, ia, i] = -0.5
    for m in range(dim_z):
        c[ia, dim_v + m, dim_v + m] = 1.0
        c[dim_v + m, ia, dim_v + m] = -1.0
    return c


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GRADINGS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_root_graded_report_matches_the_loops(name, seed):
    graded = perturbed_grading(GRADINGS[name](), np.random.default_rng(seed))
    report = {c.name: c.residual for c in graded.validation_report()}
    no_pairs = {"a_abelian"} if graded.a_space.dim == 1 else set()
    for check, want in root_graded_report_by_loops(graded).items():
        if check not in {"n_closed", *no_pairs}:
            assert want > 0.0, check
        assert report[check] == pytest.approx(want, rel=1e-12, abs=0.0), check


@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_root_graded_report_matches_the_loops_unperturbed(name):
    graded = GRADINGS[name]()
    report = {c.name: c.residual for c in graded.validation_report()}
    assert report == {**report, **root_graded_report_by_loops(graded)}


def test_n_closed_agrees_with_the_loop_when_n_is_not_a_subalgebra():
    # take a 2-d "nilradical" of so(3): its bracket leaves it, and n_closed fails
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    alg = LieAlgebra(c, np.eye(3))
    eye = np.eye(3)
    graded = RootGradedAlgebra(alg, Subspace(3, eye[2:]),
                               (RootSpace(np.array([1.0]), Subspace(3, eye[:2])),), 0,
                               validate=False)
    report = {c.name: c.residual for c in graded.validation_report()}
    assert report["n_closed"] == root_graded_report_by_loops(graded)["n_closed"] == 1.0


@pytest.mark.parametrize("name", sorted(GRADINGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_fibre_mean_curvature_matches_the_loop(name, seed, monkeypatch):
    graded = perturbed_grading(GRADINGS[name](), np.random.default_rng(seed))
    # the perturbed grading fails its structure checks; skip them to reach the identity
    monkeypatch.setattr(RootGradedAlgebra, "validation_report", lambda self: [])
    checks = {c.name: c.residual
              for c in second_construction_check(graded, [graded.a_space.basis[0]])}
    want = fibre_mean_curvature_by_loops(graded)
    assert want > 0.0
    assert checks["identity_fibre_mean_curvature"] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_involutivity_matches_the_loop():
    rng = np.random.default_rng(5)
    h2, _ = lm.build_H(2)
    s3, _ = lm.build_S(3)
    cases = [(h2, np.eye(5)[[0, 2]]),            # [X_1, Y_1] = Z leaves the plane
             (h2, np.eye(5)[[0, 4]]),            # an abelian subalgebra
             (h2, np.eye(5)[[0, 2, 4]]),         # a Heisenberg subalgebra
             (s3, np.eye(6)[[0, 3]]),            # [D_1, E_12] = E_12
             (s3, np.eye(6)[[3, 5]]),            # [E_12, E_23] = E_13 leaves the plane
             (perturbed(h2, rng), rng.normal(size=(2, 5))),
             (perturbed(s3, rng), rng.normal(size=(3, 6)))]
    for algebra, rows in cases:
        vertical = Subspace(algebra.dim, rows)
        want = involutive_by_loops(algebra, vertical)
        try:
            DistributionSpec(algebra, vertical)
            got = True
        except StructureError as exc:
            assert "involutive" in str(exc)
            got = False
        assert got == want, rows


@pytest.mark.parametrize("builder", [lambda: lm.build_H(2), lambda: lm.build_S(3),
                                     lambda: lm.build_G3(1.0, 0.5)])
@pytest.mark.parametrize("k", [1, 2])
def test_second_forms_match_the_loop(builder, k):
    rng = np.random.default_rng(k)
    alg = perturbed(builder()[0], rng)
    # a random vertical plane (k = 2) is not involutive, so no DistributionSpec
    # holds it; second_forms reads only these three fields
    vertical = Subspace(alg.dim, rng.normal(size=(k, alg.dim)))
    dist = SimpleNamespace(algebra=alg, vertical=vertical,
                           horizontal=lm.algebra.orthocomplement(alg, vertical))
    table = koszul(alg)
    b_v, b_h = second_forms(dist, table)

    def frame_onb(space):
        return lm.orthonormalize(alg, space).basis @ alg.gram @ table.onb.T

    v_onb, h_onb = frame_onb(dist.vertical), frame_onb(dist.horizontal)
    p_v = v_onb.T @ v_onb
    for got, rows, proj in ((b_v, v_onb, np.eye(alg.dim) - p_v), (b_h, h_onb, p_v)):
        want = sym_nabla_by_loops(table, rows, proj)
        assert got.shape == want.shape == (len(rows), len(rows), alg.dim)
        assert np.abs(want).max() > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15 * np.abs(want).max())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rotation_scaling_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    c = perturbed(lm.build_G3(1.0, 0.5)[0], rng, size=0.1).structure_constants
    # antisymmetric, as a bracket is: the frame-free [X, Y] reads only that part of c
    alg = LieAlgebra(0.5 * (c - c.transpose(1, 0, 2)), spd(rng, 3), validate=False)
    table = koszul(alg)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    s = rotation_block_by_loops(alg, table, v)
    alpha, beta = 0.5 * (s[0, 0] + s[1, 1]), 0.5 * abs(s[0, 1] - s[1, 0])
    x, y = (table.to_algebra_coords(u[0]) for u in tangent_pairs(v[None]))      # x × y = v
    got_alpha, got_beta, bracket = _adjoint_read(table, v)
    assert alpha != 0.0 and beta != 0.0
    assert (got_alpha, got_beta) == pytest.approx((alpha, beta), rel=1e-12)
    np.testing.assert_allclose(table.to_algebra_coords(bracket), alg.bracket(x, y),
                               rtol=1e-12, atol=1e-15)


def mixed_realization(rng):
    """Upper triangular 3 x 3 matrices in a random basis, with its (non-identity) trace Gram."""
    _, s3 = lm.build_S(3)
    mats = np.einsum("ab,bjk->ajk", np.eye(6) + 0.3 * rng.normal(size=(6, 6)), np.stack(s3.rep))
    gram = np.einsum("ajk,bjk->ab", mats, mats)
    c = lm.groups._algebra_from_matrices(mats)[0].structure_constants
    return lm.MatrixRealization(LieAlgebra(c, gram), mats)


def test_gl_connection_term_stack_matches_the_loop():
    rng = np.random.default_rng(11)
    realization = mixed_realization(rng)
    assert np.abs(realization.algebra.gram - np.eye(6)).max() > 0.1
    x = rng.normal(size=(7, 6))
    got = gl_connection_term(realization, x)
    assert got.shape == (7, 6)
    for row, value in zip(x, got):
        want = gl_connection_term_by_loops(realization, row)
        np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(gl_connection_term(realization, row), value)
    with pytest.raises(ValueError):
        gl_connection_term(realization, np.zeros((2, 3)))


def test_gl_connection_term_stack_on_the_koszul_frame(built):
    for name in ("N4", "S3", "K4", "H2"):
        alg, real = built[name]
        table = koszul(alg)
        got = gl_connection_term(real, table.onb)
        want = [gl_connection_term_by_loops(real, row) for row in table.onb]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dim_v, j_maps", [(2, DEFAULT_J), (4, QUATERNION_J[:1]),
                                           (4, QUATERNION_J[:2]), (4, QUATERNION_J)])
def test_damek_ricci_constants_are_bit_identical_to_the_loop(dim_v, j_maps):
    alg, _ = build_damek_ricci(dim_v, len(j_maps), j_maps)
    want = damek_ricci_constants_by_loops(dim_v, len(j_maps), j_maps)
    assert alg.structure_constants.tobytes() == want.tobytes()


def test_damek_ricci_clifford_messages_match_the_loop():
    i, j, k = QUATERNION_J
    bad = [
        [np.eye(4), j, k],               # J_0 not skew
        [i, j, 2.0 * k],                 # J_2 J_2 != -2 I
        [i, i, k],                       # J_0 J_1 + J_1 J_0 != 0
        [i, np.zeros((3, 3)), k],        # J_1 of the wrong shape
        [np.eye(4), np.zeros((3, 3)), k],    # J_0 not skew before J_1's shape
        [np.zeros((3, 3)), np.eye(4), k],    # J_0's shape before J_1's skew part
        [i, j, np.full((4, 4), math.nan)],   # NaN passes the skew test, as in the loop
    ]
    for j_maps in bad:
        want = damek_ricci_constants_by_loops(4, 3, j_maps)
        if isinstance(want, str):
            with pytest.raises(StructureError) as info:
                build_damek_ricci(4, 3, j_maps)
            assert str(info.value) == want
        else:
            with pytest.raises(StructureError, match="invalid Lie algebra data"):
                build_damek_ricci(4, 3, j_maps)


@pytest.mark.parametrize("name", ["N4", "H2", "K3", "K4", "S2", "S3"])
def test_xi_vector_matches_the_loop(built, name):
    alg, real = built[name]
    horizontal = _phi_and_horizontal(alg, real, name[0])[1]
    assert np.array_equal(xi_vector(alg, horizontal), xi_vector_by_loops(alg, horizontal))
    # tilt one horizontal vector into [g, g]: both reject it
    tilted = horizontal + 1e-6 * lm.derived_series(alg)[1].basis[:1]
    assert xi_vector_by_loops(alg, tilted) is None
    with pytest.raises(StructureError, match="orthogonal to the derived algebra"):
        xi_vector(alg, tilted)
