"""Second-order jets along curves s -> p exp(sX) and the operators they induce.

One evaluator serves every operator: a ``CurveJet`` stacks P points and D
direction matrices, and each field is evaluated once over all P x D curves,
with ``Jet2`` arithmetic running elementwise on (P, D) arrays (second-order
Taylor mode).  A ``HolomorphicImage`` F(phi) applies the second-order chain
rule to its sub-field jets instead, with F and its derivatives evaluated on
the (P, 1) values only, and ``CurveJet.jet`` evaluates each field once per
curve, however many images share it.  A field's hash is formed once, and
polynomials with the same exponents share one chain-rule table.
``verify_family`` puts all sample points and every frame direction into one
curve, and reads the laplacian's drift off their first derivatives (``Frame``);
``kappa``, ``laplacian``, ``kappa_matrix``, ``laplacian_values`` and
``derivs`` are views of the same evaluation at one point.

The curve jet uses the exact order-2 expansion p (I + sX + s^2 X^2 / 2); the
truncation introduces no error in the first or second derivative at s = 0, so
the only noise in kappa / laplacian values is rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .algebra import LieAlgebra, _orthonormal_frame
from .checks import DEFAULT_TOLERANCES, Check, _as_stack, max_residual
from .errors import DomainError
from .groups import MatrixRealization, exp_matrix


@dataclass(frozen=True)
class Jet2:
    """Value and first two derivatives of a scalar along a curve at s = 0.

    The parts are scalars or numpy arrays that broadcast together; every
    operation acts elementwise, so one jet can carry many curves.
    """

    v: complex
    d1: complex
    d2: complex

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2(other, 0.0, 0.0)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Jet2):     # a scalar or array factor: three products
            return Jet2(self.v * other, self.d1 * other, self.d2 * other)
        return Jet2(self.v * other.v,
                    self.d1 * other.v + self.v * other.d1,
                    self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2)

    __rmul__ = __mul__

    def log(self):
        v = np.asarray(self.v)
        if not np.iscomplexobj(v):
            bad = ~(v > 0)
            if bad.any():
                raise DomainError(f"log of non-positive value {v[bad].flat[0]}")
        u1 = self.d1 / self.v
        return Jet2(np.log(self.v), u1, self.d2 / self.v - u1 * u1)


@dataclass(frozen=True)
class CurveJet:
    """Entrywise 2-jets of s -> p exp(sM) for P stacked points and D directions.

    ``points`` is (P, n, n), ``mats`` the direction matrices M and ``squares``
    their squares M^2, both (D, n, n).  ``jet(f)``, the one memo, evaluates
    each hashable field once per curve, a matrix entry included.
    """

    points: np.ndarray
    mats: np.ndarray
    squares: np.ndarray
    _fields: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def along(cls, points, mats) -> "CurveJet":
        points = np.asarray(points, dtype=float)
        mats = np.asarray(mats, dtype=float)
        return cls(points, mats, mats @ mats)

    def jet(self, f: "ScalarField") -> Jet2:
        """``f.eval_jet(self)``, memoised per field; an unhashable field is not memoised."""
        try:
            jet = self._fields.get(f)
        except TypeError:
            return f.eval_jet(self)
        if jet is None:
            jet = self._fields[f] = f.eval_jet(self)
        return jet


def _hash_once(cls):
    """``dataclass(frozen=True)`` whose hash is formed on first use and kept.

    ``CurveJet.jet`` hashes a field on every lookup, and a field's hash
    recurses through its coefficients, polynomial and sub-fields.  Equality
    is the dataclass's own.
    """
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self):
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = fields_hash(self)
        return value

    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

class ScalarField:
    """A real- or complex-valued function on a matrix group."""

    is_complex = False

    def value(self, point: np.ndarray):
        raise NotImplementedError

    def eval_jet(self, curve: CurveJet) -> Jet2:
        raise NotImplementedError


@_hash_once
class MatrixEntry(ScalarField):
    """x -> x[i, j] (zero-based)."""

    i: int
    j: int

    def value(self, point):
        return float(point[self.i, self.j])

    def eval_jet(self, curve):
        """Value p[i, j], velocity (pM)[i, j] and acceleration (pM^2)[i, j] on all
        P x D curves, each a (P, D) array (the value is (P, 1) and broadcasts)."""
        row = curve.points[:, self.i, :]
        return Jet2(curve.points[:, self.i, self.j:self.j + 1],
                    row @ curve.mats[:, :, self.j].T, row @ curve.squares[:, :, self.j].T)

    def __repr__(self):
        return f"entry[{self.i},{self.j}]"


@_hash_once
class LogDiag(ScalarField):
    """x -> log x[i, i]; only defined where the diagonal entry is positive."""

    i: int

    def value(self, point):
        v = float(point[self.i, self.i])
        if v <= 0:
            raise DomainError(f"log_diag({self.i}): entry {v} is not positive")
        return math.log(v)

    def eval_jet(self, curve):
        return curve.jet(MatrixEntry(self.i, self.i)).log()

    def __repr__(self):
        return f"log_diag[{self.i}]"


@_hash_once
class Constant(ScalarField):
    c: complex

    @property
    def is_complex(self):
        return isinstance(self.c, complex)

    def value(self, point):
        return self.c

    def eval_jet(self, curve):
        return Jet2(self.c, 0.0, 0.0)

    def __repr__(self):
        return f"const[{self.c}]"


@_hash_once
class LinearCombo(ScalarField):
    """sum_k coeffs[k] * fields[k]; complex coefficients give a complex field."""

    coeffs: tuple
    fields: tuple

    @property
    def is_complex(self):
        return any(isinstance(c, complex) for c in self.coeffs) or any(
            f.is_complex for f in self.fields)

    def value(self, point):
        return sum(c * f.value(point) for c, f in zip(self.coeffs, self.fields))

    def eval_jet(self, curve):
        """Each part summed term by term in term order, from 0.0, with no jet per term."""
        v = d1 = d2 = 0.0
        for c, f in zip(self.coeffs, self.fields):
            jet = curve.jet(f)
            v, d1, d2 = v + c * jet.v, d1 + c * jet.d1, d2 + c * jet.d2
        return Jet2(v, d1, d2)

    def __repr__(self):
        terms = " + ".join(f"({c})*{f!r}" for c, f in zip(self.coeffs, self.fields))
        return f"combo[{terms}]"


@_hash_once
class Polynomial:
    """Polynomial in several complex variables: {exponent tuple: coefficient}."""

    terms: tuple  # of (exponents tuple, complex coefficient)

    def __post_init__(self):
        bad = [exponents for exponents, _ in self.terms for e in exponents
               if not (isinstance(e, (int, np.integer)) and e >= 0)]
        if bad:
            raise ValueError(f"exponents must be non-negative integers, got {bad[0]}")

    @classmethod
    def from_dict(cls, d: dict) -> "Polynomial":
        return cls(tuple(sorted(d.items())))

    @cached_property
    def n_vars(self) -> int:
        return max((len(e) for e, _ in self.terms), default=0)

    def __call__(self, args):
        args = list(args)
        if len(args) < self.n_vars:
            raise ValueError(f"a polynomial in {self.n_vars} variables got {len(args)} arguments")
        powers = [[arg] for arg in args]   # powers[k][e - 1] = args[k] ** e, by repeated products
        total = None
        for exponents, coeff in self.terms:
            term = coeff
            for arg, row, e in zip(args, powers, exponents):
                if e:
                    while len(row) < e:
                        row.append(row[-1] * arg)
                    term = term * row[e - 1]
            total = term if total is None else total + term
        return total if total is not None else 0.0

    @cached_property
    def _chain(self) -> tuple:
        """(take, width, coeffs): F, its gradient and its upper Hessian on monomials.

        Column c of ``coeffs`` is the derivative of order ``_derivative_orders``
        [c]: F, then d_k F for each k, then d_k d_l F for each k <= l (doubled
        when k < l, so each symmetric pair is summed once).  It is
        sum_m coeffs[m, c] times monomial m, whose powers ``take`` and
        ``width`` locate (see ``_chain_table``, shared by every polynomial with
        these exponents).
        """
        take, width, row, col, term, factors, columns = _chain_table(
            tuple(e for e, _ in self.terms))
        coeffs = np.zeros((len(take), columns), dtype=complex)
        coeffs[row, col] = np.array([c for _, c in self.terms], dtype=complex)[term] * factors
        return take, width, coeffs

    def derivatives(self, values: np.ndarray) -> np.ndarray:
        """F, d_k F and the doubled upper Hessian (see ``_chain``) at Q points.

        ``values`` is (Q, n), one column per variable; the result is complex,
        (Q, 1 + n + n(n+1)/2).  Each variable's powers are repeated products,
        as in ``__call__``, formed once in one table; each monomial is the
        product of its powers read from it.  Each point takes its own
        (1, M) @ (M, columns) product, so its sums do not depend on how many
        points come with it.
        """
        take, width, coeffs = self._chain
        powers = np.empty(values.shape + (width,), dtype=complex)       # (Q, n, width)
        powers[..., 0] = 1.0
        powers[..., 1] = values
        for e in range(2, width):
            np.multiply(powers[..., e - 1], values, out=powers[..., e])
        mono = powers.reshape(len(values), -1)[:, take].prod(axis=2)     # (Q, M)
        return (mono[:, None, :] @ coeffs)[:, 0]


@lru_cache(maxsize=32)
def _chain_table(exponents: tuple) -> tuple:
    """The integer part of ``Polynomial._chain`` for terms with these exponents.

    Since d^a z^e = falling(e, a) z^(e - a), term t gives z^(e_t - a), times
    that factor, to every derivative column of order a that does not vanish
    on it; equal monomials share one row.  Returns ``take``, each of the M
    distinct monomials as the (M, n) flat indices of its powers in a
    (Q, n, width) table of each variable's powers 0 .. width - 1, and
    ``width``; then, per non-vanishing (column, term) pair, its monomial row,
    column, term and factor; then the number of columns.
    """
    n = max((len(e) for e in exponents), default=0)
    exps = np.array([tuple(e) + (0,) * (n - len(e)) for e in exponents],
                    dtype=np.intp).reshape(len(exponents), n)
    orders, weights, _ = _derivative_orders(n)
    e = np.arange(exps.max(initial=0) + 1)
    falling = np.array([np.ones_like(e), e, e * (e - 1)])     # falling[a, e], a <= 2
    factors = falling[orders[:, None, :], exps].prod(axis=2) * weights[:, None]
    col, term = np.nonzero(factors)
    monomials, row = np.unique(exps[term] - orders[col], axis=0, return_inverse=True)
    width = max(2, len(e))
    table = (monomials + width * np.arange(n), width, row.reshape(-1), col, term,
             factors[col, term], len(orders))
    for part in table:
        if isinstance(part, np.ndarray):
            part.flags.writeable = False      # shared by every polynomial with these exponents
    return table


@cache
def _derivative_orders(n: int) -> tuple:
    """Orders of F, of each d_k F and of each d_k d_l F (k <= l) in n variables.

    Returns the (1 + n + n(n+1)/2, n) orders, each column's weight (2 for
    k < l, whose twin d_l d_k F is not listed, else 1) and the pairs (k, l).
    """
    eye = np.eye(n, dtype=np.intp)
    k, l = np.triu_indices(n)
    orders = np.concatenate([np.zeros((1, n), dtype=np.intp), eye, eye[k] + eye[l]])
    return orders, np.concatenate([np.ones(1 + n, dtype=np.intp), 2 - (k == l)]), (k, l)


@_hash_once
class HolomorphicImage(ScalarField):
    """F(phi_1, ..., phi_n) for a polynomial F and complex sub-fields phi_k."""

    poly: Polynomial
    fields: tuple

    is_complex = True

    def __post_init__(self):
        if self.poly.n_vars > len(self.fields):
            raise ValueError(f"a polynomial in {self.poly.n_vars} variables needs as many "
                             f"fields, got {len(self.fields)}")

    def value(self, point):
        return self.poly([complex(f.value(point)) for f in self.fields])

    def eval_jet(self, curve):
        """The second-order chain rule on the sub-field jets phi_k.

        F and its partial derivatives are evaluated on the sub-fields' values
        only; then d1 = sum_k F_k phi_k' and
        d2 = sum_k F_k phi_k'' + sum_{k,l} F_kl phi_k' phi_l'.
        """
        jets = [curve.jet(f) for f in self.fields]
        n = self.poly.n_vars
        values = [j.v for j in jets[:n]]
        shape = np.broadcast(*values).shape
        z = np.empty((n,) + shape, dtype=complex)
        for k, v in enumerate(values):
            z[k] = v
        derivs = self.poly.derivatives(z.reshape(n, math.prod(shape)).T)
        derivs = derivs.T.reshape((-1,) + shape)        # (columns, *value shape)
        d1 = d2 = 0.0
        for k in range(n):
            d1 = d1 + derivs[1 + k] * jets[k].d1
            d2 = d2 + derivs[1 + k] * jets[k].d2
        for hess, k, l in zip(derivs[1 + n:], *_derivative_orders(n)[2]):    # k <= l, as in _chain
            d2 = d2 + hess * (jets[k].d1 * jets[l].d1)
        return Jet2(derivs[0], d1, d2)

    def __repr__(self):
        return f"poly_image[{len(self.poly.terms)} terms of {len(self.fields)} fields]"


def matrix_entry(i: int, j: int) -> MatrixEntry:
    return MatrixEntry(i, j)


def log_diag(i: int) -> LogDiag:
    return LogDiag(i)


def linear_combination(coeffs, fields) -> LinearCombo:
    coeffs = tuple(complex(c) if isinstance(c, complex) else float(c) for c in coeffs)
    return LinearCombo(coeffs, tuple(fields))


def pairing(v, fields) -> LinearCombo:
    """<Phi(x), v> for the standard symmetric bilinear pairing on C^n."""
    return LinearCombo(tuple(complex(c) for c in v), tuple(fields))


def holomorphic_post(poly: Polynomial | dict, fields) -> HolomorphicImage:
    """Post-compose a family of complex fields with a holomorphic polynomial."""
    if isinstance(poly, dict):
        poly = Polynomial.from_dict(poly)
    return HolomorphicImage(poly, tuple(fields))


def identity_polynomial(k: int, n_vars: int) -> Polynomial:
    e = [0] * n_vars
    e[k] = 1
    return Polynomial.from_dict({tuple(e): 1.0})


def random_polynomial(n_vars: int, rng: np.random.Generator, max_degree: int = 3) -> Polynomial:
    """All monomials of total degree <= max_degree, coefficients uniform in the unit disk.

    Monomials in lexicographic order; each takes two uniforms u, v from one
    draw and gets the coefficient sqrt(u) e^(2 pi i v).
    """
    monomials = [e for e in itertools.product(range(max_degree + 1), repeat=n_vars)
                 if sum(e) <= max_degree]
    u = rng.uniform(size=2 * len(monomials)).tolist()
    terms = {}
    for mono, r2, t in zip(monomials, u[::2], u[1::2]):
        r = math.sqrt(r2)
        theta = 2.0 * math.pi * t
        terms[mono] = complex(r * math.cos(theta), r * math.sin(theta))
    return Polynomial.from_dict(terms)


# ---------------------------------------------------------------------------
# frames and differential operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """Orthonormal left-invariant frame X_a as one read-only (d, n, n) stack, and its traces.

    ``traces[a]`` is tr ad X_a.  By Koszul, <T, Z> = sum_a <[Z, X_a], X_a> = tr ad_Z for
    the tension T = sum_a nabla_{X_a} X_a (Milnor, Adv. Math. 21, 1976), so T = sum_a
    traces[a] X_a; ``tension`` is T in algebra coordinates.  The laplacian of a field is
    sum_a X_a^2(phi) minus its drift T(phi) = sum_a traces[a] X_a(phi).
    """

    algebra: LieAlgebra
    realization: MatrixRealization
    onb: np.ndarray
    mats: np.ndarray
    traces: np.ndarray
    tension: np.ndarray

    @classmethod
    def build(cls, algebra: LieAlgebra, realization: MatrixRealization, onb=None) -> "Frame":
        onb = _orthonormal_frame(algebra, onb)
        mats = np.tensordot(onb, realization.rep, axes=1)
        mats.flags.writeable = False
        trace_form = np.einsum("ijj->i", algebra.structure_constants)
        return cls(algebra, realization, onb, mats, onb @ trace_form,
                   np.linalg.solve(algebra.gram, trace_form))


def _jets(fields, points, mats) -> tuple:
    """(d1, d2): derivatives of each field along every point and direction.

    Both are complex arrays of shape (fields, P, D) for P points and D
    direction matrices; every field is evaluated once on one ``CurveJet``.
    """
    curve = CurveJet.along(points, mats)
    d1, d2 = np.empty((2, len(fields), len(curve.points), len(curve.mats)), dtype=complex)
    for k, f in enumerate(fields):
        jet = curve.jet(f)
        d1[k], d2[k] = jet.d1, jet.d2
    return d1, d2


def _frame_operators(fields, points, frame: Frame) -> tuple:
    """(kappa, tau) at every point, (P, F, F) and (P, F) complex; tau's drift as in ``Frame``."""
    d1, d2 = _jets(fields, points, frame.mats)
    grad = d1.transpose(1, 0, 2)                          # (P, F, D)
    terms = d2 - d1 * frame.traces                        # X_a^2(phi) - traces[a] X_a(phi)
    # direction by direction, so tau keeps the rounding of a one-point sum
    tau = sum(terms[:, :, a] for a in range(len(frame.mats)))
    return grad @ grad.transpose(0, 2, 1), tau.T


def _one_point(point) -> np.ndarray:
    return np.asarray(point, dtype=float)[None]


def derivs(field: ScalarField, point: np.ndarray, direction,
           realization: MatrixRealization) -> tuple:
    """(X(phi)(p), X^2(phi)(p)) along the algebra vector ``direction``."""
    mat = realization.matrix_of(direction)
    d1, d2 = _jets((field,), _one_point(point), mat[None])
    first, second = complex(d1[0, 0, 0]), complex(d2[0, 0, 0])
    return (first, second) if field.is_complex else (first.real, second.real)


def fd_check(field: ScalarField, point: np.ndarray, direction,
             realization: MatrixRealization, h: float = 1e-4) -> tuple:
    """Central finite differences of s -> phi(p exp(sX)); the independent oracle."""
    if h <= 0:
        raise ValueError("h must be positive")
    mat = realization.matrix_of(direction)
    point = np.asarray(point, float)
    f_plus = field.value(point @ exp_matrix(mat, h))
    f_zero = field.value(point)
    f_minus = field.value(point @ exp_matrix(mat, -h))
    return (f_plus - f_minus) / (2.0 * h), (f_plus - 2.0 * f_zero + f_minus) / (h * h)


def kappa(phi: ScalarField, psi: ScalarField, point, frame: Frame):
    """kappa(phi, psi) = sum over the frame of X(phi) X(psi), complex bilinear."""
    out = complex(kappa_matrix((phi, psi), point, frame)[0, 1])
    return out if (phi.is_complex or psi.is_complex) else out.real


def laplacian(phi: ScalarField, point, frame: Frame):
    """tau(phi) = sum_a X_a^2(phi) - (sum_a nabla_{X_a} X_a)(phi)."""
    out = complex(laplacian_values((phi,), point, frame)[0])
    return out if phi.is_complex else out.real


def kappa_matrix(fields, point, frame: Frame) -> np.ndarray:
    return _frame_operators(tuple(fields), _one_point(point), frame)[0][0]


def laplacian_values(fields, point, frame: Frame) -> np.ndarray:
    return _frame_operators(tuple(fields), _one_point(point), frame)[1][0]


@dataclass(frozen=True)
class FamilyReport:
    """The family's checks: tau[k] per field, then kappa[k,l] per pair k <= l.

    Each residual is the worst over the ``n_points`` sample points.
    """

    n_points: int
    checks: tuple       # of Check

    @property
    def worst(self) -> float:
        """Largest residual; a NaN or inf residual is returned as it is."""
        return max_residual(c.residual for c in self.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_family(fields, points, frame: Frame,
                  tol: float = DEFAULT_TOLERANCES["family"]) -> FamilyReport:
    """Check tau(phi) = 0 and kappa(phi, psi) = 0 for all pairs, including phi = psi.

    kappa(phi, phi) = 0 for a complex field is exactly horizontal weak
    conformality, so a passing family is a family of harmonic morphisms.
    All points are evaluated together (see ``CurveJet``); ``points`` must be
    a non-empty stack of (n, n) matrices, n the realization's ambient size.
    No fields, or points of any other shape, raise ``ValueError``.
    """
    fields = tuple(fields)
    if not fields:
        raise ValueError("verify_family needs at least one field")
    size = frame.realization.ambient
    shape = f"verify_family: points must be a stack of ({size}, {size}) matrices"
    points = _as_stack(points, shape)
    if not len(points):
        raise ValueError("verify_family needs at least one point")
    if points.shape[1:] != (size, size):
        raise ValueError(f"{shape}, got an array of shape {points.shape}")
    kap, tau = _frame_operators(fields, points, frame)
    tau, kap = np.abs(tau).max(axis=0), np.abs(kap).max(axis=0)
    n = len(fields)
    checks = [Check(f"tau[{k}]", tau[k], tol) for k in range(n)]
    checks += [Check(f"kappa[{k},{l}]", kap[k, l], tol) for k in range(n) for l in range(k, n)]
    return FamilyReport(len(points), tuple(checks))
