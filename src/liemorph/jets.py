"""Second-order jets along curves s -> p exp(sX) and the operators they induce.

One evaluator serves every operator: a ``CurveJet`` stacks P points and D
direction matrices, and each field is evaluated once over all P x D curves,
with ``Jet2`` arithmetic running elementwise on (P, D) arrays (second-order
Taylor mode).  ``verify_family`` puts all sample points and every frame
direction plus the tension drift into one curve; ``kappa``, ``laplacian``,
``kappa_matrix``, ``laplacian_values`` and ``derivs`` are views of the same
evaluation at one point.

The curve jet uses the exact order-2 expansion p (I + sX + s^2 X^2 / 2); the
truncation introduces no error in the first or second derivative at s = 0, so
the only noise in kappa / laplacian values is rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra, orthonormal_basis
from .errors import DomainError
from .geometry import ConnectionTable, koszul
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

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return Jet2(self.v * o.v,
                    self.d1 * o.v + self.v * o.d1,
                    self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if np.any(o.v == 0):
            raise ZeroDivisionError("division by a jet with zero value")
        w = self.v / o.v
        w1 = (self.d1 - w * o.d1) / o.v
        w2 = (self.d2 - 2.0 * w1 * o.d1 - w * o.d2) / o.v
        return Jet2(w, w1, w2)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("jet powers must be non-negative integers")
        out = Jet2(1.0, 0.0, 0.0)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def log(self):
        v = np.asarray(self.v)
        if not np.iscomplexobj(v):
            bad = ~(v > 0)
            if bad.any():
                raise DomainError(f"log of non-positive value {v[bad].flat[0]}")
        u1 = self.d1 / self.v
        return Jet2(np.log(self.v), u1, self.d2 / self.v - u1 * u1)

    def exp(self):
        ev = np.exp(self.v)
        return Jet2(ev, ev * self.d1, ev * (self.d2 + self.d1 * self.d1))


@dataclass(frozen=True)
class CurveJet:
    """Entrywise 2-jets of s -> p exp(sM) for P stacked points and D directions.

    ``points`` is (P, n, n), ``mats`` the direction matrices M and ``squares``
    their squares M^2, both (D, n, n).  ``entry(i, j)`` is the jet of x[i, j]
    on all P x D curves: value p[i, j], velocity (pM)[i, j] and acceleration
    (pM^2)[i, j], each a (P, D) array (the value is (P, 1) and broadcasts).
    Only the requested entries are formed, and each one once.
    """

    points: np.ndarray
    mats: np.ndarray
    squares: np.ndarray
    _entries: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def along(cls, points, mats) -> "CurveJet":
        points = np.asarray(points, dtype=float)
        mats = np.asarray(mats, dtype=float)
        return cls(points, mats, mats @ mats)

    def entry(self, i: int, j: int) -> Jet2:
        jet = self._entries.get((i, j))
        if jet is None:
            row = self.points[:, i, :]
            jet = Jet2(self.points[:, i, j:j + 1], row @ self.mats[:, :, j].T,
                       row @ self.squares[:, :, j].T)
            self._entries[(i, j)] = jet
        return jet


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


@dataclass(frozen=True)
class MatrixEntry(ScalarField):
    """x -> x[i, j] (zero-based)."""

    i: int
    j: int

    def value(self, point):
        return float(point[self.i, self.j])

    def eval_jet(self, curve):
        return curve.entry(self.i, self.j)

    def __repr__(self):
        return f"entry[{self.i},{self.j}]"


@dataclass(frozen=True)
class LogDiag(ScalarField):
    """x -> log x[i, i]; only defined where the diagonal entry is positive."""

    i: int

    def value(self, point):
        v = float(point[self.i, self.i])
        if v <= 0:
            raise DomainError(f"log_diag({self.i}): entry {v} is not positive")
        return math.log(v)

    def eval_jet(self, curve):
        return curve.entry(self.i, self.i).log()

    def __repr__(self):
        return f"log_diag[{self.i}]"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        out = Jet2(0.0, 0.0, 0.0)
        for c, f in zip(self.coeffs, self.fields):
            out = out + c * f.eval_jet(curve)
        return out

    def __repr__(self):
        terms = " + ".join(f"({c})*{f!r}" for c, f in zip(self.coeffs, self.fields))
        return f"combo[{terms}]"


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in several complex variables: {exponent tuple: coefficient}."""

    terms: tuple  # of (exponents tuple, complex coefficient)

    @classmethod
    def from_dict(cls, d: dict) -> "Polynomial":
        return cls(tuple(sorted(d.items())))

    @property
    def n_vars(self) -> int:
        return max((len(e) for e, _ in self.terms), default=0)

    def __call__(self, args):
        args = list(args)
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


@dataclass(frozen=True)
class HolomorphicImage(ScalarField):
    """F(phi_1, ..., phi_n) for a polynomial F and complex sub-fields phi_k."""

    poly: Polynomial
    fields: tuple

    is_complex = True

    def value(self, point):
        return self.poly([complex(f.value(point)) for f in self.fields])

    def eval_jet(self, curve):
        jets = [f.eval_jet(curve) for f in self.fields]
        out = self.poly(jets)
        if not isinstance(out, Jet2):
            out = Jet2(out, 0.0, 0.0)
        return out

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
    """All monomials of total degree <= max_degree, coefficients uniform in the unit disk."""
    exponents = [()]
    def extend(prefix, remaining, budget):
        if remaining == 0:
            return [tuple(prefix)]
        out = []
        for e in range(budget + 1):
            out.extend(extend(prefix + [e], remaining - 1, budget - e))
        return out
    monomials = extend([], n_vars, max_degree)
    terms = {}
    for mono in sorted(monomials):
        r = math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        terms[mono] = complex(r * math.cos(theta), r * math.sin(theta))
    return Polynomial.from_dict(terms)


# ---------------------------------------------------------------------------
# frames and differential operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """Orthonormal left-invariant frame on a matrix group, with connection data.

    ``tension`` is sum_a nabla_{X_a} X_a in algebra coordinates; the laplacian
    of a field is sum_a X_a^2(phi) minus the derivative along this vector.
    """

    algebra: LieAlgebra
    realization: MatrixRealization
    onb: np.ndarray
    mats: tuple
    connection: ConnectionTable
    tension: np.ndarray
    tension_mat: np.ndarray

    @classmethod
    def build(cls, algebra: LieAlgebra, realization: MatrixRealization,
              onb=None) -> "Frame":
        if onb is None:
            onb = orthonormal_basis(algebra)
        onb = np.asarray(onb, dtype=float)
        table = koszul(algebra, onb)
        mats = tuple(realization.matrix_of(v) for v in onb)
        tension_frame = np.einsum("aac->c", table.gamma)
        tension = tension_frame @ onb
        return cls(algebra, realization, onb, mats, table, tension,
                   realization.matrix_of(tension))


def _jets(fields, points, mats) -> tuple:
    """(d1, d2): derivatives of each field along every point and direction.

    Both are complex arrays of shape (fields, P, D) for P points and D
    direction matrices; every field is evaluated once on one ``CurveJet``.
    """
    curve = CurveJet.along(points, mats)
    shape = (len(fields), len(curve.points), len(curve.mats))
    d1 = np.empty(shape, dtype=complex)
    d2 = np.empty(shape, dtype=complex)
    for k, f in enumerate(fields):
        jet = f.eval_jet(curve)
        d1[k] = jet.d1
        d2[k] = jet.d2
    return d1, d2


def _frame_operators(fields, points, frame: Frame) -> tuple:
    """(kappa, tau) at every point: (P, F, F) and (P, F) complex arrays.

    The directions are the frame and, last, the tension vector, whose first
    derivative is the drift term of the laplacian.
    """
    d1, d2 = _jets(fields, points, frame.mats + (frame.tension_mat,))
    grad = d1[:, :, :-1].transpose(1, 0, 2)               # (P, F, D)
    kap = grad @ grad.transpose(0, 2, 1)
    # direction by direction, so tau keeps the rounding of a one-point sum
    tau = sum(d2[:, :, a] for a in range(d2.shape[2] - 1)) - d1[:, :, -1]
    return kap, tau.T


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


@dataclass
class FamilyReport:
    """Worst-case residuals of the orthogonal-harmonic-family conditions."""

    n_fields: int
    n_points: int
    tol: float
    tau_max: np.ndarray     # per field
    kappa_max: np.ndarray   # per ordered pair (k, l), k <= l, upper triangle
    warnings: list = field(default_factory=list)

    @property
    def worst(self) -> float:
        """Largest residual; a NaN or inf residual is returned as it is."""
        parts = [0.0]
        if self.tau_max.size:
            parts.append(self.tau_max.max())
        if self.kappa_max.size:
            parts.append(np.triu(self.kappa_max).max())
        return float(np.max(parts))

    @property
    def passed(self) -> bool:
        worst = self.worst
        return math.isfinite(worst) and worst < self.tol


def verify_family(fields, points, frame: Frame, tol: float = 1e-8) -> FamilyReport:
    """Check tau(phi) = 0 and kappa(phi, psi) = 0 for all pairs, including phi = psi.

    kappa(phi, phi) = 0 for a complex field is exactly horizontal weak
    conformality, so a passing family is a family of harmonic morphisms.
    All points are evaluated together (see ``CurveJet``).
    """
    fields = tuple(fields)
    if not fields:
        raise ValueError("verify_family needs at least one field")
    n = len(fields)
    points = list(points)
    if not points:
        return FamilyReport(n, 0, tol, np.zeros(n), np.zeros((n, n)),
                            ["no sample points supplied; the check is vacuous"])
    kap, tau = _frame_operators(fields, np.stack(points), frame)
    return FamilyReport(n, len(points), tol, np.abs(tau).max(axis=0),
                        np.abs(kap).max(axis=0))
