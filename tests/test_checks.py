"""The one verdict type, the tolerance table, and NaN/inf on every residual path."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liemorph as lm
from liemorph.checks import DEFAULT_TOLERANCES, Check, max_residual
from liemorph.constructions import (RootGradedAlgebra, damek_ricci_root_graded,
                                    second_construction_check)
from liemorph.foliations import constant_curvature_certificate
from liemorph.jets import FamilyReport, verify_family

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
SETTINGS = settings(max_examples=40, deadline=None, database=None)


@pytest.mark.parametrize("residual, tol, passed", [
    (0.0, 0.0, True),
    (1e-9, 1e-9, True),          # equality passes
    (2e-9, 1e-9, False),
    (math.nan, 1.0, False),
    (math.inf, math.inf, False),
    (-math.inf, 1.0, False),
])
def test_pass_rule_is_finite_and_at_most_tol(residual, tol, passed):
    assert Check("c", residual, tol).passed is passed


def test_check_is_frozen_and_stores_floats():
    c = Check("c", np.float64(1.0), 2)
    assert type(c.residual) is float and type(c.tol) is float
    with pytest.raises(AttributeError):
        c.residual = 0.0


def test_max_residual_keeps_nan():
    assert max_residual([]) == 0.0
    assert max_residual([1.0, 3.0, 2.0]) == 3.0
    assert math.isnan(max_residual([0.0, math.nan, 1.0]))
    assert max_residual([1.0, math.inf]) == math.inf


@pytest.mark.parametrize("fn, param, name", [
    (second_construction_check, "dilation_tol", "dilation"),
    (second_construction_check, "minimality_tol", "minimality"),
    (constant_curvature_certificate, "classify_tol", "classify"),
    (constant_curvature_certificate, "curvature_tol", "curvature_constant"),
    (verify_family, "tol", "family"),
])
def test_library_tolerances_default_from_the_table(fn, param, name):
    assert inspect.signature(fn).parameters[param].default == DEFAULT_TOLERANCES[name]


def test_certificate_tolerances_are_arguments(built):
    alg, _ = built["G3"]
    cert = constant_curvature_certificate(alg, [1.0, 0.0, 0.0], classify_tol=2e-9,
                                          curvature_tol=3e-7)
    tols = {c.name: c.tol for c in cert.checks}
    assert tols == {"horizontal_vectors_commute": 2e-9,
                    "horizontal_plane_is_derived_algebra": 0.0,
                    "constant_sectional_curvature": 3e-7,
                    "curvature_equals_minus_alpha_sq": 3e-7}


def test_second_construction_tolerances_are_arguments():
    graded = damek_ricci_root_graded(2, 1)
    checks = second_construction_check(graded, [np.zeros(4)], dilation_tol=1e-3,
                                       minimality_tol=1e-4)
    tols = {c.name: c.tol for c in checks}
    assert tols["dilation_matches_exp_2beta"] == 1e-3
    assert tols["identity_fibre_mean_curvature"] == 1e-4


# ---------------------------------------------------------------------------
# a NaN or inf injected into each producer's residual path fails its check
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@SETTINGS
@given(index=st.tuples(*[st.integers(0, 2)] * 3), bad=NONFINITE)
def test_nonfinite_structure_constant_fails_validation(index, bad):
    alg, _ = lm.build_G3(1.0, 0.5)
    c = np.array(alg.structure_constants)
    c[index] = bad
    report = lm.LieAlgebra(c, alg.gram, validate=False).validation_report()
    assert not all(check.passed for check in report)
    with pytest.raises(lm.StructureError):
        lm.LieAlgebra(c, alg.gram)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@SETTINGS
@given(index=st.tuples(*[st.integers(0, 3)] * 3), bad=NONFINITE)
def test_nonfinite_structure_constant_fails_root_graded_validation(index, bad):
    graded = damek_ricci_root_graded(2, 1)
    c = np.array(graded.algebra.structure_constants)
    c[index] = bad
    algebra = lm.LieAlgebra(c, graded.algebra.gram, validate=False)
    broken = RootGradedAlgebra(algebra, graded.a_space, graded.roots, graded.beta_index,
                               validate=False)
    assert not all(check.passed for check in broken.validation_report())
    checks = second_construction_check(broken, [np.zeros(4)])
    assert all(check.name.startswith("structure:") for check in checks)
    assert not all(check.passed for check in checks)


@SETTINGS
@given(sample=st.integers(0, 4), component=st.integers(0, 3), bad=NONFINITE)
def test_nonfinite_sample_fails_dilation(sample, component, bad):
    graded = damek_ricci_root_graded(2, 1)
    samples = [np.array([0.0, 0.0, 0.0, t]) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    samples[sample][component] = bad
    failing = [c.name for c in second_construction_check(graded, samples) if not c.passed]
    assert failing == ["dilation_matches_exp_2beta"]


def test_overflowing_sample_fails_dilation():
    graded = damek_ricci_root_graded(2, 1)
    checks = {c.name: c for c in second_construction_check(graded, [np.array([0, 0, 0, 1500.0])])}
    assert not math.isfinite(checks["dilation_matches_exp_2beta"].residual)
    assert not checks["dilation_matches_exp_2beta"].passed
    assert checks["identity_fibre_mean_curvature"].passed


@SETTINGS
@given(n=st.integers(1, 3), data=st.data(), bad=st.sampled_from([math.nan, math.inf]))
def test_nonfinite_family_residual_fails(n, data, bad):
    tau, kappa = np.zeros(n), np.zeros((n, n))
    if data.draw(st.booleans(), label="in tau"):
        tau[data.draw(st.integers(0, n - 1), label="k")] = bad
    else:
        k = data.draw(st.integers(0, n - 1), label="k")
        kappa[k, data.draw(st.integers(k, n - 1), label="l")] = bad
    report = FamilyReport(n, 1, 1e-8, tau, kappa)
    assert not report.passed
    assert not all(c.passed for c in report.checks())


def test_family_report_passes_at_the_tolerance():
    tau = np.array([1e-8, 0.0])
    kappa = np.array([[0.0, 1e-8], [0.0, 1e-8]])
    report = FamilyReport(2, 1, 1e-8, tau, kappa)
    assert report.passed
    assert [c.name for c in report.checks()] == ["tau[0]", "tau[1]", "kappa[0,0]",
                                                 "kappa[0,1]", "kappa[1,1]"]
    assert not FamilyReport(2, 1, 1e-8, 2 * tau, kappa).passed
