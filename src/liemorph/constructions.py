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
from .algebra import (LieAlgebra, Subspace, _contract, _dependent, _derived_algebra,
                      _descending_series, _products_span, _scale, orthonormalize, span)
from .checks import DEFAULT_TOLERANCES, Check, _as_stack, max_residual
from .errors import ConstructionError, StructureError
from .groups import MatrixRealization, _exp_factors

ISOTROPY_TOL = 1e-12
ROOT_GRADED_TOL = 1e-10     # structural, for the root-graded conditions


@dataclass(frozen=True)
class IsotropicBasis:
    """Vectors of C^ambient with all pairwise symmetric products zero."""

    ambient: int
    vectors: np.ndarray  # (k, ambient) complex rows

    def __post_init__(self):
        v = np.array(self.vectors, dtype=complex).reshape(-1, self.ambient)
        if not np.isfinite(v).all():
            raise StructureError("isotropic basis has non-finite entries")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        if v.shape[0]:
            if float(np.abs(v @ v.T).max()) > ISOTROPY_TOL * _scale(v) ** 2:
                raise StructureError("vectors are not isotropic for the symmetric bilinear form")
            if _dependent(v):
                raise StructureError("isotropic basis vectors are linearly dependent over C")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def _xi_vanishes(xi) -> bool:
    """The one floor for xi = 0: norm <= 1e-12.  A non-finite xi raises StructureError."""
    if not np.isfinite(xi).all():
        raise StructureError("xi has non-finite entries")
    return float(np.linalg.norm(xi)) <= 1e-12


def max_isotropic_orthogonal_to(xi) -> IsotropicBasis:
    """A maximal isotropic basis of xi-perp in C^n, for a real vector xi.

    Consecutive pairs u_1 + i u_2, u_3 + i u_4, ... of a real orthonormal basis
    u_1, ..., u_{n-1} of xi-perp, read off the QR of [xi / |xi|, I]: floor((n-1)/2)
    vectors.  A xi that counts as zero leaves all of C^n: e_1 + i e_2,
    e_3 + i e_4, ... (floor(n/2) vectors).
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[0]
    if n < 2:
        raise ValueError("ambient dimension must be >= 2")
    if _xi_vanishes(xi):
        u = np.eye(n)
    else:
        cols = np.concatenate([xi.reshape(-1, 1) / np.linalg.norm(xi), np.eye(n)], axis=1)
        u = np.linalg.qr(cols)[0].T[1:]    # the QR's row 0 is +-xi/|xi|
    pairs = len(u) // 2
    return IsotropicBasis(n, u[0:2 * pairs:2] + 1.0j * u[1:2 * pairs:2])


def xi_vector(algebra: LieAlgebra, horizontal_onb) -> np.ndarray:
    """(trace ad_X) over an orthonormal basis of the orthocomplement of [g, g]."""
    horizontal_onb = np.asarray(horizontal_onb, dtype=float).reshape(-1, algebra.dim)
    derived = _derived_algebra(algebra)     # [g, g], all of g for a perfect algebra
    g = algebra.gram
    scales = np.outer(np.abs(horizontal_onb).max(axis=1), np.abs(derived.basis).max(axis=1))
    if np.any(np.abs(horizontal_onb @ g @ derived.basis.T) > 1e-10 * np.maximum(1.0, scales)):
        raise StructureError("horizontal basis is not orthogonal to the derived algebra")
    if horizontal_onb.shape[0] != algebra.dim - derived.dim:
        raise StructureError("horizontal basis does not span the orthocomplement of [g, g]")
    gram_h = horizontal_onb @ g @ horizontal_onb.T
    if float(np.abs(gram_h - np.eye(horizontal_onb.shape[0])).max(initial=0.0)) > 1e-8:
        raise StructureError("horizontal basis is not orthonormal")
    return np.einsum("hi,ijj->h", horizontal_onb, algebra.structure_constants)


@dataclass(frozen=True)
class FirstConstruction:
    """Epimorphism components, obstruction vector, and the emitted complex family."""

    kind: str
    phi: tuple                   # real scalar fields, the R^n components
    horizontal: np.ndarray       # orthonormal horizontal basis, rows
    xi: np.ndarray
    restricted: IsotropicBasis   # a maximal isotropic basis of xi-perp
    family: tuple                # complex scalar fields <Phi, v>

    @property
    def complex_dim(self) -> int:
        return self.restricted.dim

    @property
    def real_dim(self) -> int:
        return 2 * self.restricted.dim


def _phi_and_horizontal(algebra, realization, kind):
    """Phi's components, and as rows the gram-duals of their differentials at the identity.

    ``xi_vector`` checks that the rows are an orthonormal basis of [g, g]^perp.
    """
    ambient = realization.ambient
    if kind == "N":
        fields = [jets.matrix_entry(k, k + 1) for k in range(ambient - 1)]
    elif kind == "H":
        n = ambient - 2
        fields = [jets.matrix_entry(0, 1 + k) for k in range(n)]
        fields += [jets.matrix_entry(1 + k, n + 1) for k in range(n)]
    elif kind == "K":
        n = ambient - 1
        fields = [jets.linear_combination([math.sqrt(n - 1)], [jets.matrix_entry(0, 1)]),
                  jets.matrix_entry(n - 1, n)]
    elif kind == "S":
        fields = [jets.log_diag(t) for t in range(ambient)]
    else:
        raise ValueError(f"unknown construction kind {kind!r}; expected N, H, K or S")
    d1, _ = jets._jets(fields, np.eye(ambient)[None], realization.rep)   # (F, 1, d)
    return tuple(fields), np.linalg.solve(algebra.gram, d1[:, 0].real.T).T


def first_construction(algebra: LieAlgebra, realization: MatrixRealization,
                       kind: str) -> FirstConstruction:
    """Build the graded epimorphism Phi and its orthogonal harmonic family.

    Phi's components are coordinate reads of the group (matrix entries for the
    nilpotent kinds, logs of the diagonal for S).  The family pairs Phi with a
    maximal isotropic basis of xi-perp.  A Phi of fewer than 2 components, or a
    xi-perp with no isotropic direction (xi != 0 and 2 components), raises
    ConstructionError.
    """
    fields, horizontal = _phi_and_horizontal(algebra, realization, kind)
    if len(fields) < 2:
        raise ConstructionError(f"kind {kind}: Phi has {len(fields)} component(s); "
                                "an isotropic family needs at least 2")
    xi = xi_vector(algebra, horizontal)
    w = max_isotropic_orthogonal_to(xi)
    if w.dim == 0:
        raise ConstructionError(f"kind {kind}: xi-perp holds no isotropic direction "
                                f"(xi = {xi.tolist()}, {len(xi)} components)")
    family = tuple(jets.pairing(v, fields) for v in w.vectors)
    return FirstConstruction(kind, fields, horizontal, xi, w, family)


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
        for k, root in enumerate(self.roots):
            if root.values.shape != (self.a_space.dim,):
                raise StructureError(f"root {k}: values must have one entry per a-basis "
                                     f"vector ({self.a_space.dim}), got shape "
                                     f"{root.values.shape}")
        if validate:
            failed = [c.name for c in self.validation_report() if not c.passed]
            if failed:
                raise StructureError("invalid root-graded algebra: " + ", ".join(failed))

    @property
    def beta(self) -> RootSpace:
        return self.roots[self.beta_index]

    def nilradical_basis(self) -> np.ndarray:
        return np.concatenate([r.space.basis for r in self.roots], axis=0)

    def beta_value(self, v) -> float | np.ndarray:
        """beta(V) for V given in algebra coordinates (must lie in a).

        For an (N, d) stack of vectors, the array of their N values from one
        least-squares solve.
        """
        v = np.asarray(v, dtype=float)
        values = self.a_coordinates(v) @ self.beta.values
        return float(values) if v.ndim == 1 else values

    def a_coordinates(self, v) -> np.ndarray:
        """Coordinates of V in the basis of a, or their (N, dim a) array for an (N, d) stack.

        One least-squares solve; a V off a raises ``ValueError``.
        """
        v = np.asarray(v, dtype=float)
        basis = self.a_space.basis.T
        coeff, *_ = np.linalg.lstsq(basis, v.T, rcond=None)
        resid = np.linalg.norm(basis @ coeff - v.T, axis=0)
        if np.any(resid > 1e-9 * np.maximum(1.0, np.linalg.norm(v.T, axis=0))):
            raise ValueError("vector does not lie in the abelian part a")
        return coeff.T

    def validation_report(self) -> list[Check]:
        """One check per root-graded condition, from ad of the a-basis and Gram products."""
        alg = self.algebra
        g = alg.gram
        a_basis = self.a_space.basis
        n_basis = self.nilradical_basis()
        ad_a = alg.ad(a_basis)                                        # (k, d, d)
        on_a = ad_a @ a_basis.T                                       # [f_p, f_q] at [p, :, q]
        on_n = (ad_a @ n_basis.T).transpose(0, 2, 1)                  # [f_p, x_q] at [p, q]
        report = []

        i, j = np.triu_indices(len(a_basis), 1)
        report.append(Check("a_abelian", max_residual(np.abs(on_a[i, :, j]).ravel()),
                            ROOT_GRADED_TOL))

        dims_ok = n_basis.shape[0] + a_basis.shape[0] == alg.dim
        report.append(Check("dimensions_fill_algebra", 0.0 if dims_ok else 1.0, 0.0))

        r = max_residual(np.abs(a_basis @ g @ n_basis.T).ravel())
        report.append(Check("a_orthogonal_to_n", r, ROOT_GRADED_TOL))

        label = np.repeat(np.arange(len(self.roots)), [r.space.dim for r in self.roots])
        later = label[:, None] < label[None, :]
        r = max_residual(np.abs(n_basis @ g @ n_basis.T)[later])
        report.append(Check("root_spaces_orthogonal", r, ROOT_GRADED_TOL))

        values = np.concatenate([np.broadcast_to(root.values, (root.space.dim, len(root.values)))
                                 for root in self.roots]).T[:len(a_basis)]   # alpha_q(f_p)
        r = max_residual(np.abs(on_n - values[:, :, None] * n_basis).ravel())
        report.append(Check("root_relations", r, ROOT_GRADED_TOL))

        if np.all(np.isfinite(alg.structure_constants)):
            report += self._nilradical_checks(n_basis)
        else:   # their rank decisions (SVDs) fail on non-finite brackets
            report += [Check(name, math.nan, tol) for name, tol in
                       (("beta_orthogonal_to_derived_n", ROOT_GRADED_TOL),
                        ("n_closed", 0.0), ("n_nilpotent", 0.0))]

        # <[f, x_q], x_r> - <x_q, [f, x_r]>
        r = max_residual(np.abs(on_n @ g @ n_basis.T
                                - (n_basis @ g) @ on_n.transpose(0, 2, 1)).ravel())
        report.append(Check("ad_a_self_adjoint", r, ROOT_GRADED_TOL))
        return report

    def _nilradical_checks(self, n_basis) -> list[Check]:
        """beta orthogonal to [n, n], n closed, n nilpotent: rank decisions on brackets."""
        alg = self.algebra
        contracted = _contract(alg, n_basis)
        nn = _products_span(alg, n_basis, contracted)
        r = max_residual(np.abs(self.beta.space.basis @ alg.gram @ nn.basis.T).ravel())
        out = [Check("beta_orthogonal_to_derived_n", r, ROOT_GRADED_TOL)]

        sub_n = span(n_basis, alg.dim)
        out.append(Check("n_closed", 0.0 if sub_n.contains_all(nn) else 1.0, 0.0))

        # n, [n, n], [n, [n, n]], ...
        lower_central = _descending_series(alg, sub_n, nn, contracted)
        out.append(Check("n_nilpotent", float(lower_central[-1].dim), 0.0))
        return out


def damek_ricci_root_graded(dim_v: int, dim_z: int, j_maps=None,
                            beta_root: str = "v") -> RootGradedAlgebra:
    """Root-graded view of the Damek-Ricci builder.

    The roots of ad_A on the nilradical are 1/2 (on v) and 1 (on z); the
    quotient construction needs the distinguished root space orthogonal to
    [n, n], which holds for the v-root and fails for the z-root.
    """
    from .groups import build_damek_ricci

    algebra, _ = build_damek_ricci(dim_v, dim_z, j_maps)
    return damek_ricci_grading(algebra, dim_v, dim_z, beta_root)


def damek_ricci_grading(algebra: LieAlgebra, dim_v: int, dim_z: int,
                        beta_root: str = "v", validate: bool = True) -> RootGradedAlgebra:
    """The root grading of an algebra built by ``build_damek_ricci(dim_v, dim_z)``."""
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
    ``structure:<name>``; when one fails they are returned alone.
    ``a_samples`` is an (N, d) array (or a sequence of N vectors) of points
    of a in algebra coordinates; no samples, or samples of another shape,
    raise ``ValueError``.  A sample that is not finite, or whose e^{2 beta(V)}
    or e^{ad V} overflows, makes the dilation residual inf or NaN.

    One least-squares solve gives each sample's coordinates t_p in the basis
    f_p of a, which give beta(V) and, since a is abelian (the structure check
    ``a_abelian``), e^{ad V} = prod_p e^{t_p ad f_p}: the exponentials of every
    basis vector of a over all samples come from the stacked kernel, a block
    of basis vectors per call.
    """
    d = graded.algebra.dim
    shape = f"second_construction_check: a_samples must be an (N, {d}) array of samples of a"
    samples = _as_stack(a_samples, shape)
    if not len(samples):
        raise ValueError("second_construction_check needs at least one sample of a")
    if samples.ndim != 2 or samples.shape[1] != d:
        raise ValueError(f"{shape}, got an array of shape {samples.shape}")
    checks = [replace(c, name=f"structure:{c.name}") for c in graded.validation_report()]
    if not all(c.passed for c in checks):
        return checks
    alg = graded.algebra
    g = alg.gram

    beta_onb = orthonormalize(alg, graded.beta.space).basis
    a_onb = orthonormalize(alg, graded.a_space).basis
    other_onbs = [orthonormalize(alg, r.space).basis
                  for i, r in enumerate(graded.roots) if i != graded.beta_index]

    finite = np.all(np.isfinite(samples), axis=1)
    coords = graded.a_coordinates(np.where(finite[:, None], samples, 0.0))    # (N, dim a)
    # a non-finite sample's defect is NaN, an overflowing e^{2 beta(V)} one's inf
    defects = np.full((len(samples), len(beta_onb)), np.inf)
    defects[~finite] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):   # overflow ends as inf or NaN
        target = np.exp(2.0 * (coords @ graded.beta.values))
        ok = np.flatnonzero(finite & np.isfinite(target))
        x_norms = np.einsum("mi,ij,mj->m", beta_onb, g, beta_onb)
        images = beta_onb.T                                          # (d, |beta_onb|)
        for factor in _exp_factors(alg.ad(graded.a_space.basis)[::-1], coords[ok][:, ::-1]):
            images = factor @ images                                 # (ok, d, |beta_onb|)
        ratio = np.einsum("nim,ij,njm->nm", images, g, images) / x_norms
        t = target[ok, None]
        defects[ok] = np.abs(ratio - t) / np.maximum(1.0, t)
    worst_dilation = max_residual(defects.ravel())
    checks.append(Check("dilation_matches_exp_2beta", worst_dilation, dilation_tol))

    # sum over the fibre's orthonormal basis e_r of <[X_p, e_r], e_r>, for every X_p at once
    fibre = np.concatenate([a_onb, *other_onbs])
    mean_curvature = np.einsum("pkj,rj,rk->p", alg.ad(beta_onb), fibre, fibre @ g.T)
    worst_min = max_residual(np.abs(mean_curvature))
    checks.append(Check("identity_fibre_mean_curvature", worst_min, minimality_tol))
    return checks
