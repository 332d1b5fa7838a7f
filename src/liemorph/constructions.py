"""The two harmonic-morphism constructions.

First construction: graded group epimorphisms G -> R^n paired with isotropic
vectors of C^n orthogonal to the trace-of-ad obstruction vector xi.  Second
construction: quotient maps S = N A -> N / M read off a root-graded solvable
algebra, checked through their dilation and minimal-fibre identities.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace

import numpy as np

from . import jets
from .algebra import LieAlgebra, Subspace, derived_series, orthonormalize, span
from .checks import DEFAULT_TOLERANCES, Check, max_residual
from .errors import ConstructionError, StructureError
from .groups import MatrixRealization, exp_matrix

ISOTROPY_TOL = 1e-12
ROOT_GRADED_TOL = 1e-10     # structural, for the root-graded conditions


def bilinear(u, v) -> complex:
    """Standard symmetric bilinear form sum_k u_k v_k on C^n (no conjugation)."""
    return complex(np.sum(np.asarray(u) * np.asarray(v)))


@dataclass(frozen=True)
class IsotropicBasis:
    """Vectors of C^ambient with all pairwise symmetric products zero."""

    ambient: int
    vectors: np.ndarray  # (k, ambient) complex rows
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        v = np.array(self.vectors, dtype=complex).reshape(-1, self.ambient)
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        if validate and v.shape[0]:
            scale = max(1.0, float(np.abs(v).max()) ** 2)
            prod = v @ v.T
            if float(np.abs(prod).max()) > ISOTROPY_TOL * scale:
                raise StructureError("vectors are not isotropic for the symmetric bilinear form")
            if np.linalg.matrix_rank(v, tol=1e-10 * max(1.0, float(np.abs(v).max()))) < v.shape[0]:
                raise StructureError("isotropic basis vectors are linearly dependent over C")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def max_isotropic(n: int) -> IsotropicBasis:
    """floor(n/2) vectors e_1 + i e_2, e_3 + i e_4, ... (consecutive-pair convention)."""
    if n < 2:
        raise ValueError("max_isotropic requires n >= 2")
    vecs = []
    for k in range(n // 2):
        w = np.zeros(n, dtype=complex)
        w[2 * k] = 1.0
        w[2 * k + 1] = 1.0j
        vecs.append(w)
    return IsotropicBasis(n, np.array(vecs))


def max_isotropic_orthogonal_to(xi) -> IsotropicBasis:
    """A maximal isotropic subspace of C^n adapted to a nonzero real vector xi.

    The first floor((n-1)/2) vectors are built from a real orthonormal basis of
    the hyperplane xi-perp, so they survive the xi-orthogonality restriction;
    for even n a final vector involving xi itself tops the dimension up to the
    maximal floor(n/2).
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[0]
    if n < 2:
        raise ValueError("ambient dimension must be >= 2")
    norm = np.linalg.norm(xi)
    if norm == 0.0:
        return max_isotropic(n)
    cols = np.concatenate([xi.reshape(-1, 1) / norm, np.eye(n)], axis=1)
    q, _ = np.linalg.qr(cols)
    u = q.T  # u[0] is +-xi/|xi|, the rest an orthonormal basis of the complement
    vecs = []
    for k in range((n - 1) // 2):
        vecs.append(u[1 + 2 * k] + 1.0j * u[2 + 2 * k])
    if n % 2 == 0:
        vecs.append(u[0] + 1.0j * u[n - 1])
    return IsotropicBasis(n, np.array(vecs))


def restrict_to_xi_perp(w: IsotropicBasis, xi) -> IsotropicBasis:
    """Basis of {v in span(W) : (v, xi) = 0}; any subspace of W stays isotropic."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (w.ambient,):
        raise ValueError(f"xi must have length {w.ambient}")
    if w.dim == 0 or float(np.abs(xi).max()) <= 1e-14:
        return w
    pairings = w.vectors @ xi  # (k,)
    if float(np.abs(pairings).max()) <= 1e-12 * max(1.0, float(np.abs(xi).max())):
        return w
    _, s, vh = np.linalg.svd(pairings.reshape(1, -1))
    rank = int(np.sum(s > 1e-12 * s[0]))
    kernel = vh[rank:].conj()  # rows c with sum_j c_j (w_j, xi) = 0
    vectors = kernel @ w.vectors
    # deterministic normalization: largest component becomes 1
    normed = []
    for v in vectors:
        pivot = v[np.argmax(np.abs(v))]
        normed.append(v / pivot)
    return IsotropicBasis(w.ambient, np.array(normed).reshape(-1, w.ambient))


def xi_vector(algebra: LieAlgebra, horizontal_onb) -> np.ndarray:
    """(trace ad_X) over an orthonormal basis of the orthocomplement of [g, g]."""
    horizontal_onb = np.asarray(horizontal_onb, dtype=float).reshape(-1, algebra.dim)
    series = derived_series(algebra)
    derived = series[1] if len(series) > 1 else series[0]  # [g,g] = g for perfect algebras
    g = algebra.gram
    for h in horizontal_onb:
        for b in derived.basis:
            if abs(h @ g @ b) > 1e-10 * max(1.0, float(np.abs(h).max()) * float(np.abs(b).max())):
                raise StructureError("horizontal basis is not orthogonal to the derived algebra")
    if horizontal_onb.shape[0] != algebra.dim - derived.dim:
        raise StructureError("horizontal basis does not span the orthocomplement of [g, g]")
    gram_h = horizontal_onb @ g @ horizontal_onb.T
    if float(np.abs(gram_h - np.eye(horizontal_onb.shape[0])).max()) > 1e-8:
        raise StructureError("horizontal basis is not orthonormal")
    return np.array([algebra.ad_trace(h) for h in horizontal_onb])


@dataclass(frozen=True)
class FirstConstruction:
    """Epimorphism components, obstruction vector, and the emitted complex family."""

    kind: str
    phi: tuple                   # real scalar fields, the R^n components
    horizontal: np.ndarray       # orthonormal horizontal basis, rows
    xi: np.ndarray
    isotropic: IsotropicBasis    # the maximal isotropic subspace used
    restricted: IsotropicBasis   # after the xi-orthogonality cut
    family: tuple                # complex scalar fields <Phi, v>

    @property
    def complex_dim(self) -> int:
        return self.restricted.dim

    @property
    def real_dim(self) -> int:
        return 2 * self.restricted.dim


def _phi_and_horizontal(algebra, realization, kind):
    from .groups import upper_entry_index

    eye = np.eye(algebra.dim)
    ambient = realization.ambient
    if kind == "N":
        n = ambient
        fields = [jets.matrix_entry(k, k + 1) for k in range(n - 1)]
        horizontal = [eye[upper_entry_index(n, k, k + 1)] for k in range(n - 1)]
    elif kind == "H":
        n = ambient - 2
        fields = [jets.matrix_entry(0, 1 + k) for k in range(n)]
        fields += [jets.matrix_entry(1 + k, n + 1) for k in range(n)]
        horizontal = [eye[k] for k in range(2 * n)]
    elif kind == "K":
        n = ambient - 1
        fields = [jets.linear_combination([math.sqrt(n - 1)], [jets.matrix_entry(0, 1)]),
                  jets.matrix_entry(n - 1, n)]
        horizontal = [eye[n], eye[n - 1]]   # X, then Y_n
    elif kind == "S":
        n = ambient
        fields = [jets.log_diag(t) for t in range(n)]
        horizontal = [eye[t] for t in range(n)]
    else:
        raise ValueError(f"unknown construction kind {kind!r}; expected N, H, K or S")
    return tuple(fields), np.array(horizontal, dtype=float)


def first_construction(algebra: LieAlgebra, realization: MatrixRealization,
                       kind: str) -> FirstConstruction:
    """Build the graded epimorphism Phi and its orthogonal harmonic family.

    Phi's components are coordinate reads of the group (matrix entries for the
    nilpotent kinds, logs of the diagonal for S).  The family pairs Phi with a
    maximal isotropic basis restricted to the xi-orthogonal subspace; when xi
    is nonzero the isotropic subspace is chosen adapted to xi so the
    restriction keeps as many directions as the geometry allows.
    """
    fields, horizontal = _phi_and_horizontal(algebra, realization, kind)
    xi = xi_vector(algebra, horizontal)
    m = len(fields)
    if np.linalg.norm(xi) <= 1e-12:
        w = max_isotropic(m)
    else:
        w = max_isotropic_orthogonal_to(xi)
    restricted = restrict_to_xi_perp(w, xi)
    if restricted.dim == 0:
        raise ConstructionError(
            f"kind {kind}: no isotropic directions survive the xi restriction "
            f"(xi = {xi.tolist()}, isotropic dim {w.dim})")
    family = tuple(jets.pairing(v, fields) for v in restricted.vectors)
    return FirstConstruction(kind, fields, horizontal, xi, w, restricted, family)


# ---------------------------------------------------------------------------
# second construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSpace:
    """A root of the abelian part: values on the a-basis, and its subspace of n."""

    values: np.ndarray     # alpha(f_i) per a-basis vector f_i
    space: Subspace

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True)
class RootGradedAlgebra:
    """s = n + a with n = sum of root spaces n_alpha and a distinguished root beta.

    The distinguished root space must be orthogonal to [n, n] and the adjoint
    action of a on n self-adjoint; ``validate`` checks every condition and
    names the one that fails.
    """

    algebra: LieAlgebra
    a_space: Subspace
    roots: tuple            # of RootSpace
    beta_index: int
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if not 0 <= self.beta_index < len(self.roots):
            raise StructureError("beta_index out of range")
        if validate:
            failed = [c.name for c in self.validation_report() if not c.passed]
            if failed:
                raise StructureError("invalid root-graded algebra: " + ", ".join(failed))

    @property
    def beta(self) -> RootSpace:
        return self.roots[self.beta_index]

    def nilradical_basis(self) -> np.ndarray:
        return np.concatenate([r.space.basis for r in self.roots], axis=0)

    def beta_value(self, v) -> float:
        """beta(V) for V given in algebra coordinates (must lie in a)."""
        v = np.asarray(v, dtype=float)
        coeff, *_ = np.linalg.lstsq(self.a_space.basis.T, v, rcond=None)
        resid = np.linalg.norm(self.a_space.basis.T @ coeff - v)
        if resid > 1e-9 * max(1.0, float(np.linalg.norm(v))):
            raise ValueError("vector does not lie in the abelian part a")
        return float(coeff @ self.beta.values)

    def validation_report(self) -> list[Check]:
        """One check per root-graded condition; tolerances are structural."""
        alg = self.algebra
        g = alg.gram
        a_basis = self.a_space.basis
        n_basis = self.nilradical_basis()
        bracket = alg.bracket
        report = []

        r = max_residual(float(np.abs(bracket(x, y)).max())
                         for i, x in enumerate(a_basis) for y in a_basis[i + 1:])
        report.append(Check("a_abelian", r, ROOT_GRADED_TOL))

        dims_ok = n_basis.shape[0] + a_basis.shape[0] == alg.dim
        report.append(Check("dimensions_fill_algebra", 0.0 if dims_ok else 1.0, 0.0))

        r = max_residual(abs(float(x @ g @ y)) for x in a_basis for y in n_basis)
        report.append(Check("a_orthogonal_to_n", r, ROOT_GRADED_TOL))

        r = max_residual(abs(float(x @ g @ y))
                         for i, ri in enumerate(self.roots) for rj in self.roots[i + 1:]
                         for x in ri.space.basis for y in rj.space.basis)
        report.append(Check("root_spaces_orthogonal", r, ROOT_GRADED_TOL))

        r = max_residual(float(np.abs(bracket(f, x) - root.values[i] * x).max())
                         for root in self.roots for i, f in enumerate(a_basis)
                         for x in root.space.basis)
        report.append(Check("root_relations", r, ROOT_GRADED_TOL))

        if np.all(np.isfinite(alg.structure_constants)):
            report += self._nilradical_checks(n_basis)
        else:   # their rank decisions (SVDs) fail on non-finite brackets
            report += [Check(name, math.nan, tol) for name, tol in
                       (("beta_orthogonal_to_derived_n", ROOT_GRADED_TOL),
                        ("n_closed", 0.0), ("n_nilpotent", 0.0))]

        r = max_residual(abs(float(bracket(f, x) @ g @ y - x @ g @ bracket(f, y)))
                         for f in a_basis for x in n_basis for y in n_basis)
        report.append(Check("ad_a_self_adjoint", r, ROOT_GRADED_TOL))
        return report

    def _nilradical_checks(self, n_basis) -> list[Check]:
        """beta orthogonal to [n, n], n closed, n nilpotent: rank decisions on brackets."""
        alg = self.algebra
        bracket = alg.bracket
        nn = span([bracket(x, y) for x in n_basis for y in n_basis], alg.dim)
        r = max_residual(abs(float(x @ alg.gram @ y))
                         for x in self.beta.space.basis for y in nn.basis)
        out = [Check("beta_orthogonal_to_derived_n", r, ROOT_GRADED_TOL)]

        sub_n = span(n_basis, alg.dim)
        closed = all(sub_n.contains(bracket(x, y)) for x in n_basis for y in n_basis)
        out.append(Check("n_closed", 0.0 if closed else 1.0, 0.0))

        current = sub_n
        for _ in range(alg.dim + 1):
            if current.dim == 0:
                break
            nxt = span([bracket(x, y) for x in n_basis for y in current.basis], alg.dim)
            if nxt.dim == current.dim:
                break
            current = nxt
        out.append(Check("n_nilpotent", float(current.dim), 0.0))
        return out


def damek_ricci_root_graded(dim_v: int, dim_z: int, j_maps=None,
                            beta_root: str = "v",
                            validate: bool = True) -> RootGradedAlgebra:
    """Root-graded view of the Damek-Ricci builder.

    The roots of ad_A on the nilradical are 1/2 (on v) and 1 (on z); the
    quotient construction needs the distinguished root space orthogonal to
    [n, n], which holds for the v-root and fails for the z-root.
    """
    from .groups import build_damek_ricci

    algebra, _ = build_damek_ricci(dim_v, dim_z, j_maps)
    d = algebra.dim
    v_basis = np.eye(d)[:dim_v]
    z_basis = np.eye(d)[dim_v:dim_v + dim_z]
    a_basis = np.eye(d)[d - 1:]
    roots = (RootSpace(np.array([0.5]), Subspace(d, v_basis)),
             RootSpace(np.array([1.0]), Subspace(d, z_basis)))
    if beta_root not in ("v", "z"):
        raise ValueError("beta_root must be 'v' or 'z'")
    return RootGradedAlgebra(algebra, Subspace(d, a_basis), roots,
                             0 if beta_root == "v" else 1, validate=validate)


def second_construction_check(graded: RootGradedAlgebra, a_samples,
                              dilation_tol: float = DEFAULT_TOLERANCES["dilation"],
                              minimality_tol: float = DEFAULT_TOLERANCES["minimality"],
                              ) -> list[Check]:
    """Verify the quotient map's dilation and minimal-fibre identities.

    For each sampled V in a and each X in an orthonormal basis of the beta
    root space, ||e^{ad V} X||^2 / ||X||^2 must equal e^{2 beta(V)}; and at the
    identity the mean-curvature pairing of the fibre against X must vanish:
    sum_i <[X, f_i], f_i> + sum_{alpha != beta, k} <[X, e_k^alpha], e_k^alpha> = 0.

    The checks of ``graded.validation_report()`` come first, named
    ``structure:<name>``; when one fails they are returned alone and the
    samples are not read.  A sample that is not finite, or whose e^{2 beta(V)}
    or e^{ad V} overflows, makes the dilation residual inf or NaN.
    """
    checks = [replace(c, name=f"structure:{c.name}") for c in graded.validation_report()]
    if not all(c.passed for c in checks):
        return checks
    alg = graded.algebra
    g = alg.gram

    beta_onb = orthonormalize(alg, graded.beta.space).basis
    a_onb = orthonormalize(alg, graded.a_space).basis
    other_onbs = [orthonormalize(alg, r.space).basis
                  for i, r in enumerate(graded.roots) if i != graded.beta_index]

    def dilation_defects(v):
        v = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(v)):
            return [math.nan]
        try:
            target = math.exp(2.0 * graded.beta_value(v))
        except OverflowError:
            return [math.inf]
        big = exp_matrix(alg.ad(v))
        out = []
        for x in beta_onb:
            image = big @ x
            ratio = float(image @ g @ image) / float(x @ g @ x)
            out.append(abs(ratio - target) / max(1.0, target))
        return out

    with np.errstate(over="ignore", invalid="ignore"):   # overflow ends as inf or NaN
        worst_dilation = max_residual(d for v in a_samples for d in dilation_defects(v))
    checks.append(Check("dilation_matches_exp_2beta", worst_dilation, dilation_tol))

    def fibre_mean_curvature(x):
        total = 0.0
        for f in a_onb:
            total += float(alg.bracket(x, f) @ g @ f)
        for onb in other_onbs:
            for e in onb:
                total += float(alg.bracket(x, e) @ g @ e)
        return abs(total)

    worst_min = max_residual(fibre_mean_curvature(x) for x in beta_onb)
    checks.append(Check("identity_fibre_mean_curvature", worst_min, minimality_tol))
    return checks
