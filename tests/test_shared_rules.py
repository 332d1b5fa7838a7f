"""Rules with one owner: the stack reader, the linear-independence test, the
report's number formatting; and a package that imports neither scipy nor sympy."""

import ast
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import liemorph as lm
from liemorph.algebra import Subspace
from liemorph.checks import max_residual
from liemorph.cli import _stringify, load_config, run
from liemorph.constructions import (IsotropicBasis, damek_ricci_root_graded, first_construction,
                                    second_construction_check)
from liemorph.errors import StructureError
from liemorph.groups import MatrixRealization, sample_points
from liemorph.jets import verify_family

ROOT = Path(__file__).resolve().parents[1]

# the forms a stack of points, samples or residuals may come in
FORMS = {"list": list, "tuple": tuple, "generator": lambda a: (x for x in a),
         "ndarray": np.asarray}


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# one stack reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("form", sorted(FORMS))
def test_verify_family_reads_every_form_of_the_points_alike(built, frames, form):
    algebra, real = built["N4"]
    family = first_construction(algebra, real, "N").family
    points = sample_points(real, 40, seed=3, scale=1.0)
    want = verify_family(family, points, frames["N4"])
    got = verify_family(family, FORMS[form](points), frames["N4"])
    assert got.n_points == want.n_points == 40
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    assert bits([c.residual for c in got.checks]) == bits([c.residual for c in want.checks])


@pytest.mark.parametrize("form", sorted(FORMS))
def test_second_construction_reads_every_form_of_the_samples_alike(form):
    graded = damek_ricci_root_graded(2, 1)
    samples = np.random.default_rng(8).uniform(-2.0, 2.0, (25, 1)) @ graded.a_space.basis
    want = second_construction_check(graded, samples)
    got = second_construction_check(graded, FORMS[form](samples))
    assert [c.name for c in got] == [c.name for c in want]
    assert bits([c.residual for c in got]) == bits([c.residual for c in want])


@pytest.mark.parametrize("form", sorted(FORMS))
def test_max_residual_reads_every_form_alike(form):
    rng = np.random.default_rng(9)
    values = rng.random(300) * 10.0 ** rng.integers(-300, 300, 300)
    got = max_residual(FORMS[form](values))
    assert type(got) is float and bits(got) == bits(values.max())
    with_nan = np.array([1.0, math.nan, 2.0])
    assert math.isnan(max_residual(FORMS[form](with_nan)))


@pytest.mark.parametrize("form", ["list", "generator"])
def test_a_ragged_stack_raises_naming_its_argument(built, frames, form):
    algebra, real = built["N4"]
    family = first_construction(algebra, real, "N").family
    with pytest.raises(ValueError, match=r"points must be a stack of \(4, 4\) matrices \("):
        verify_family(family, FORMS[form]([np.eye(4), np.eye(5)]), frames["N4"])
    with pytest.raises(ValueError, match=r"a_samples must be an \(N, 4\) array .* \("):
        second_construction_check(damek_ricci_root_graded(2, 1),
                                  FORMS[form]([np.zeros(4), np.zeros(3)]))
    with pytest.raises(ValueError, match=r"max_residual"):
        max_residual(FORMS[form]([np.zeros(2), np.zeros(3)]))


# ---------------------------------------------------------------------------
# one linear-independence test
# ---------------------------------------------------------------------------

def _subspace(rows):
    return Subspace(rows.shape[1], rows)


def _realization(rows):
    """Diagonal matrices, one per row: an abelian algebra's realization."""
    k = len(rows)
    return MatrixRealization(lm.LieAlgebra(np.zeros((k, k, k)), np.eye(k)),
                             np.array([np.diag(r) for r in rows]))


def _isotropic(rows):
    """Each row r as (r_1, i r_1, r_2, i r_2, ...): isotropic, independent exactly when r is."""
    vectors = (rows[:, :, None] * [1.0, 1.0j]).reshape(len(rows), -1)
    return IsotropicBasis(vectors.shape[1], vectors)


@pytest.mark.parametrize("build", [_subspace, _realization, _isotropic],
                         ids=["Subspace", "MatrixRealization", "IsotropicBasis"])
@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_every_basis_decides_independence_alike(build, scale):
    def rows(eps):
        return scale * np.array([[1.0, 0.0], [1.0, eps]])

    with pytest.raises(StructureError, match="linearly dependent"):
        build(rows(1e-11))
    build(rows(1e-9))


# ---------------------------------------------------------------------------
# report numbers formatted in one place
# ---------------------------------------------------------------------------

def old_fmt(x):
    return f"{float(x):.17g}"


def old_fmt_complex(z):
    z = complex(z)
    return f"{old_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{old_fmt(abs(z.imag))}j"


@pytest.mark.parametrize("value, want", [
    (0.1, old_fmt(0.1)),
    (-0.0, old_fmt(-0.0)),
    (math.inf, old_fmt(math.inf)),
    (math.nan, old_fmt(math.nan)),
    (np.float64(1.0) / 3.0, old_fmt(1.0 / 3.0)),
    (np.float32(0.1), old_fmt(np.float32(0.1))),
    (complex(1.5, -2.0), old_fmt_complex(complex(1.5, -2.0))),
    (complex(0.25, -0.0), old_fmt_complex(complex(0.25, -0.0))),
    (np.complex128(1e-300 + 3j), old_fmt_complex(1e-300 + 3j)),
    (np.array([0.1, -2.0, math.inf]), [old_fmt(x) for x in (0.1, -2.0, math.inf)]),
    (np.array([[1 + 2j, -3j], [0.5, 0]]),
     [[old_fmt_complex(z) for z in row] for row in ([1 + 2j, -3j], [0.5, 0])]),
    (np.zeros((0, 3), dtype=complex), []),
    (7, 7),
    (np.int64(7), 7),
    (True, True),
    (np.bool_(False), False),
    ("0.1", "0.1"),
    (None, None),
    ({"a": {"b": [0.1, (2.5, "x")], "c": 3}, "d": np.array([1.0])},
     {"a": {"b": [old_fmt(0.1), [old_fmt(2.5), "x"]], "c": 3}, "d": [old_fmt(1.0)]}),
], ids=lambda v: type(v).__name__)
def test_stringify_gives_the_old_strings(value, want):
    got = _stringify(value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("config", ["configs/verify_family_N4.json",
                                    "configs/second_construction_damek_ricci.json",
                                    "configs/foliation_scan_G3.json", "configs/curvature_G3.json"])
def test_a_report_holds_no_float_but_its_wall_time(config):
    path = ROOT / config
    report = run(load_config(json.loads(path.read_text(encoding="utf-8"))["kind"], str(path)))
    assert type(report.pop("wall_time_s")) is float

    def walk(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, list):
            for item in obj:
                walk(item)
        else:
            assert obj is None or isinstance(obj, (str, int, bool)), obj

    walk(report)


# ---------------------------------------------------------------------------
# non-finite data fails every check it enters, with a finite tolerance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_nonfinite_gram_fails_its_checks_with_finite_tolerances(bad):
    gram = np.eye(2)
    gram[0, 0] = bad
    c = np.zeros((2, 2, 2))
    c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = {ch.name: ch for ch in lm.LieAlgebra(c, gram, validate=False).validation_report()}
    assert not report["gram_symmetric"].passed
    assert not report["gram_positive_definite"].passed
    assert all(math.isfinite(ch.tol) for ch in report.values())


def test_the_norm_of_a_nan_vector_is_nan(built):
    algebra, _ = built["G3"]
    assert math.isnan(algebra.norm([math.nan, 0.0, 0.0]))
    assert algebra.norm([0.0, 0.0, 0.0]) == 0.0
    plane = lm.LieAlgebra(np.zeros((2, 2, 2)), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)     # inf * 0 is NaN, never a warning
        for v in ([math.inf, 0.0], [math.inf, math.inf], [math.nan, 0.0], [-math.inf, 1.0]):
            assert math.isnan(plane.norm(v)), v
            assert math.isnan(plane.inner(v, v)), v


# ---------------------------------------------------------------------------
# no scipy or sympy
# ---------------------------------------------------------------------------

def test_the_package_imports_neither_scipy_nor_sympy():
    modules = sorted(p.stem for p in (ROOT / "src" / "liemorph").glob("*.py")
                     if p.stem != "__init__")
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('liemorph.' + name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy')))\n"
            "print(sorted(m for m in sys.modules if m.startswith('liemorph.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    found, imported = proc.stdout.splitlines()
    assert found == "[]"
    assert set(ast.literal_eval(imported)) >= {f"liemorph.{name}" for name in modules}
