import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import liemorph as lm
from liemorph.checks import DEFAULT_TOLERANCES
from liemorph.cli import ConfigError, load_config, main

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
# shipped configs whose job is expected to fail a check
FAILING_CONFIGS = {"check_algebra_inline_bad_jacobi.json"}


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def base_config(tmp_path, kind, out_name="report.json", **extra):
    payload = {
        "kind": kind,
        "sampling": {"count": 50, "seed": 7},
        "out": str(tmp_path / out_name),
    }
    payload.update(extra)
    return write_config(tmp_path / "job.json", payload), str(tmp_path / out_name)


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_verify_family_n4_passes(tmp_path, capsys):
    cfg, out = base_config(tmp_path, "verify-family",
                           builtin={"name": "N", "params": {"n": 4}})
    assert main(["verify-family", "--config", cfg]) == 0
    report = read_report(out)
    assert report["overall_pass"]
    for check in report["checks"]:
        assert check["pass"]
        assert float(check["max_residual"]) < 1e-9
    names = {c["name"] for c in report["checks"]}
    assert "tau[0]" in names and "kappa[0,0]" in names
    assert report["summary"]["family_complex_dim"] == 1  # floor(3/2) vectors for 3 components


def test_verify_family_n5_has_pair_records(tmp_path):
    cfg, out = base_config(tmp_path, "verify-family",
                           builtin={"name": "N", "params": {"n": 5}})
    assert main(["verify-family", "--config", cfg]) == 0
    report = read_report(out)
    names = {c["name"] for c in report["checks"]}
    assert {"tau[0]", "tau[1]", "kappa[0,1]", "kappa[1,1]"} <= names


def test_construct_s3(tmp_path):
    cfg, out = base_config(tmp_path, "construct",
                           builtin={"name": "S", "params": {"n": 3}})
    assert main(["construct", "--config", cfg]) == 0
    report = read_report(out)
    assert report["summary"]["xi"] == ["2", "0", "-2"]
    assert report["summary"]["family_real_dim"] == 2


def test_construct_s2_reports_empty_family(tmp_path):
    cfg, out = base_config(tmp_path, "construct",
                           builtin={"name": "S", "params": {"n": 2}})
    assert main(["construct", "--config", cfg]) == 1
    report = read_report(out)
    assert not report["overall_pass"]
    assert "error" in report["summary"]


@pytest.mark.parametrize("kind", ["verify-family", "construct"])
def test_n2_reports_an_empty_family(tmp_path, kind):
    # phi has one component, and C^1 holds no nonzero isotropic vector
    cfg, out = base_config(tmp_path, kind, builtin={"name": "N", "params": {"n": 2}})
    assert main([kind, "--config", cfg]) == 1
    report = read_report(out)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("family_nonempty", False)]
    assert "1 component" in report["summary"]["error"]


@pytest.mark.parametrize("kind", ["verify-family", "construct"])
def test_sampling_overflow_is_a_failing_check(tmp_path, kind):
    cfg, out = base_config(tmp_path, kind, builtin={"name": "N", "params": {"n": 6}},
                           sampling={"count": 5, "seed": 1, "scale": 1e80})
    assert main([kind, "--config", cfg]) == 1
    report = read_report(out)
    assert not report["overall_pass"]
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failing == ["sample_points_finite"]
    assert "non-finite" in report["summary"]["error"]


@pytest.mark.parametrize("scale", [1500, 1e308])
def test_second_construction_overflow_is_a_failing_check(tmp_path, scale):
    cfg, out = base_config(tmp_path, "second-construction",
                           builtin={"name": "damek_ricci", "params": {"dim_v": 2, "dim_z": 1}},
                           sampling={"count": 20, "seed": 5, "scale": scale})
    assert main(["second-construction", "--config", cfg]) == 1
    report = read_report(out)
    assert not report["overall_pass"]
    failing = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failing] == ["dilation_matches_exp_2beta"]
    assert failing[0]["max_residual"] in ("inf", "nan")
    assert "overflows" in report["summary"]["error"]
    assert report["summary"]["samples"] == 20


def test_curvature_g3_expected_value(tmp_path):
    cfg, out = base_config(tmp_path, "curvature",
                           builtin={"name": "G3", "params": {"alpha": 1.0, "beta": 0.5}},
                           options={"planes": 200, "expect_constant": True,
                                    "expect_value": -1.0})
    assert main(["curvature", "--config", cfg]) == 0
    report = read_report(out)
    names = {c["name"] for c in report["checks"]}
    assert {"connection:torsion_free", "curvature:first_bianchi",
            "sectional_spread", "sectional_value"} <= names
    assert abs(float(report["summary"]["sectional_mean"]) + 1.0) < 1e-8


def test_curvature_includes_gl_cross_check_for_trace_metric(tmp_path):
    cfg, out = base_config(tmp_path, "curvature",
                           builtin={"name": "S", "params": {"n": 3}})
    assert main(["curvature", "--config", cfg]) == 0
    names = {c["name"] for c in read_report(out)["checks"]}
    assert "gl_vs_koszul" in names


def test_check_algebra_bad_jacobi_exits_1(tmp_path):
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1; c[1, 0, 2] = -1
    c[0, 2, 0] = 1; c[2, 0, 0] = -1
    c[1, 2, 1] = 1; c[2, 1, 1] = -1
    cfg, out = base_config(tmp_path, "check-algebra",
                           inline={"structure_constants": c.tolist(),
                                   "gram": np.eye(3).tolist()})
    assert main(["check-algebra", "--config", cfg]) == 1
    report = read_report(out)
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failing == ["jacobi"]
    assert not report["overall_pass"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan],
                         ids=["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("field, index, failing", [
    ("gram", (0, 0), {"gram_symmetric", "gram_positive_definite"}),
    ("structure_constants", (0, 1, 2), {"antisymmetry", "jacobi"})])
def test_nonfinite_inline_data_fails_its_checks_with_a_report(tmp_path, bad, field, index,
                                                              failing):
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0          # the Heisenberg algebra
    data = {"structure_constants": c, "gram": np.eye(3)}
    data[field][index] = bad
    cfg, out = base_config(tmp_path, "check-algebra",
                           inline={k: v.tolist() for k, v in data.items()})
    assert ("NaN" if math.isnan(bad) else "Infinity") in Path(cfg).read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check-algebra", "--config", cfg]) == 1
    checks = {c["name"]: c for c in read_report(out)["checks"]}
    assert not any(checks[name]["pass"] for name in failing)
    assert all(math.isfinite(float(c["tolerance"])) for c in checks.values())


def test_an_overflowing_jacobi_join_fails_its_check_with_a_report(tmp_path):
    # N_6 scaled by 1e200: d = 15, so Jacobi takes the join, and its products overflow
    c = np.array(lm.build_N(6)[0].structure_constants) * 1e200
    cfg, out = base_config(tmp_path, "check-algebra",
                           inline={"structure_constants": c.tolist(),
                                   "gram": np.eye(len(c)).tolist()})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check-algebra", "--config", cfg]) == 1
    checks = {c["name"]: c for c in read_report(out)["checks"]}
    assert not checks["jacobi"]["pass"]
    assert checks["jacobi"]["max_residual"] == "nan"


def test_check_algebra_builtin_summary(tmp_path):
    cfg, out = base_config(tmp_path, "check-algebra",
                           builtin={"name": "H", "params": {"n": 2}})
    assert main(["check-algebra", "--config", cfg]) == 0
    summary = read_report(out)["summary"]
    assert summary["nilpotent"] and summary["solvable"] and not summary["abelian"]
    assert summary["center_dim"] == 1
    assert summary["lower_central_series_dims"] == [5, 1, 0]


def test_second_construction_jobs(tmp_path):
    cfg, out = base_config(tmp_path, "second-construction",
                           builtin={"name": "damek_ricci",
                                    "params": {"dim_v": 2, "dim_z": 1}})
    assert main(["second-construction", "--config", cfg]) == 0
    report = read_report(out)
    names = {c["name"] for c in report["checks"]}
    assert "dilation_matches_exp_2beta" in names

    cfg, out = base_config(tmp_path, "second-construction", out_name="rz.json",
                           builtin={"name": "damek_ricci",
                                    "params": {"dim_v": 2, "dim_z": 1}},
                           options={"beta_root": "z"})
    assert main(["second-construction", "--config", cfg]) == 1
    failing = [c["name"] for c in read_report(out)["checks"] if not c["pass"]]
    assert failing == ["structure:beta_orthogonal_to_derived_n"]


def test_second_construction_inline_iwasawa(tmp_path):
    c = np.zeros((2, 2, 2))
    c[1, 0, 0] = 1.0
    c[0, 1, 0] = -1.0
    cfg, out = base_config(
        tmp_path, "second-construction",
        inline_root_graded={"structure_constants": c.tolist(),
                            "a_indices": [1],
                            "roots": [{"values": [1.0], "indices": [0]}],
                            "beta": 0})
    assert main(["second-construction", "--config", cfg]) == 0
    assert read_report(out)["overall_pass"]


def iwasawa_rank_one(tmp_path, **changes):
    """The shipped rank-one Iwasawa config with ``changes`` merged into its top level."""
    shipped = Path(__file__).resolve().parents[1] / "configs/second_construction_iwasawa_rank_one.json"
    payload = json.loads(shipped.read_text(encoding="utf-8"))
    payload.update(changes, out=str(tmp_path / "unwritten.json"))
    return write_config(tmp_path / "iwasawa.json", payload)


def test_root_values_shorter_than_a_is_a_config_error(tmp_path, capsys):
    cfg = iwasawa_rank_one(tmp_path)
    graded = json.loads(Path(cfg).read_text(encoding="utf-8"))["inline_root_graded"]
    graded["roots"] = [{"values": [], "indices": [0]}]
    cfg = iwasawa_rank_one(tmp_path, inline_root_graded=graded)
    assert main(["second-construction", "--config", cfg]) == 2
    assert "root 0: values must have one entry per a-basis vector" in capsys.readouterr().err
    assert not (tmp_path / "unwritten.json").exists()


def test_beta_root_on_an_inline_source_is_a_config_error(tmp_path, capsys):
    cfg = iwasawa_rank_one(tmp_path, options={"beta_root": "z"})
    assert main(["second-construction", "--config", cfg]) == 2
    assert "inline_root_graded.beta" in capsys.readouterr().err
    assert not (tmp_path / "unwritten.json").exists()


def test_foliation_scan_expectations(tmp_path):
    cfg, out = base_config(tmp_path, "foliation-scan",
                           builtin={"name": "G_alpha", "params": {"alpha": 1.0}},
                           options={"expect_hits": False})
    assert main(["foliation-scan", "--config", cfg]) == 0
    report = read_report(out)
    assert report["summary"]["hits"] == []
    assert float(report["summary"]["min_residual"]) > 1e-3

    cfg, out = base_config(tmp_path, "foliation-scan", out_name="g3.json",
                           builtin={"name": "G3", "params": {"alpha": 1.0, "beta": 0.5}},
                           options={"expect_hits": True})
    assert main(["foliation-scan", "--config", cfg]) == 0
    report = read_report(out)
    hit = report["summary"]["hits"][0]
    assert abs(float(hit["alpha"]) - 1.0) < 1e-8
    assert abs(float(hit["beta"]) - 0.5) < 1e-8
    assert hit["certificate_passed"]


def test_tolerance_override(tmp_path):
    cfg, out = base_config(tmp_path, "verify-family",
                           builtin={"name": "N", "params": {"n": 3}})
    assert main(["verify-family", "--config", cfg, "--tol", "family=1e-12"]) == 0
    report = read_report(out)
    assert report["checks"][1]["tolerance"] == "9.9999999999999998e-13"


def test_main_keeps_nothing_from_an_earlier_call(tmp_path):
    import liemorph.cli as cli_module
    # the parser is built once per process, and each call starts from its defaults
    assert cli_module._parser() is cli_module._parser()
    assert cli_module.build_parser() is not cli_module._parser()
    cfg, out = base_config(tmp_path, "curvature",
                           builtin={"name": "G3", "params": {"alpha": 1.0, "beta": 0.5}})
    first = tmp_path / "first.json"
    assert main(["curvature", "--config", cfg, "--tol", "connection=1e-6",
                 "--seed", "11", "--out", str(first)]) == 0
    assert main(["curvature", "--config", cfg]) == 0
    echo = read_report(first)["job"]
    assert (echo["tolerances"], echo["sampling"]["seed"], echo["out"]) == (
        {"connection": "9.9999999999999995e-07"}, 11, str(first))
    echo = read_report(out)["job"]
    assert (echo["tolerances"], echo["sampling"]["seed"], echo["out"]) == ({}, 7, out)


def test_a_nan_scan_residual_fails_the_nonexistence_floor(tmp_path, monkeypatch, capsys):
    import dataclasses

    import liemorph.cli as cli_module
    import liemorph.foliations as foliations_module
    scan, koszul = foliations_module.scan_3d, foliations_module.koszul

    def nan_table(algebra):
        table = koszul(algebra)
        return dataclasses.replace(table, gamma=np.full_like(table.gamma, np.nan))

    def scan_on_a_nonfinite_gamma(algebra, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(foliations_module, "koszul", nan_table)
            return scan(algebra, **kwargs)

    monkeypatch.setattr(cli_module, "scan_3d", scan_on_a_nonfinite_gamma)
    cfg, out = base_config(tmp_path, "foliation-scan",
                           builtin={"name": "G_alpha", "params": {"alpha": 1.0}},
                           options={"expect_hits": False})
    assert main(["foliation-scan", "--config", cfg]) == 1
    report = read_report(out)
    assert report["summary"]["hits"] == [] and report["summary"]["min_residual"] == "nan"
    check, = (c for c in report["checks"] if c["name"] == "nonexistence_certified")
    assert not check["pass"]
    assert "FAIL nonexistence_certified" in capsys.readouterr().out


@pytest.mark.parametrize("alpha", [1e-7, -1e-7, 1e-6])
def test_a_certified_nonexistence_passes_however_small_its_residual(tmp_path, alpha):
    # the candidate residual is about 0.707 sqrt|alpha|, far below any sampled margin
    cfg, out = base_config(tmp_path, "foliation-scan",
                           builtin={"name": "G_alpha", "params": {"alpha": alpha}},
                           options={"expect_hits": False})
    assert main(["foliation-scan", "--config", cfg]) == 0
    check, = (c for c in read_report(out)["checks"] if c["name"] == "nonexistence_certified")
    assert check["pass"] and check["max_residual"] == check["tolerance"] == "0"


def test_a_grid_option_is_a_config_error(tmp_path, capsys):
    # the scan samples nothing, so a grid is an unknown option, named in the error
    cfg, out = base_config(tmp_path, "foliation-scan",
                           builtin={"name": "G_alpha", "params": {"alpha": 1.0}},
                           options={"grid": 200, "expect_hits": False})
    assert main(["foliation-scan", "--config", cfg]) == 2
    assert "options.grid: unknown field" in capsys.readouterr().err
    assert not Path(out).exists()


@pytest.mark.parametrize("expect", [True, False])
@pytest.mark.parametrize("alpha", [1e-10, -1e-10, -1.0 + 1e-9])
def test_an_undecided_scan_fails_either_expectation(tmp_path, capsys, alpha, expect):
    # the Ricci candidates lie within their error bound of the hit tolerance
    cfg, out = base_config(tmp_path, "foliation-scan",
                           builtin={"name": "G_alpha", "params": {"alpha": alpha}},
                           options={"expect_hits": expect})
    assert main(["foliation-scan", "--config", cfg]) == 1
    summary = read_report(out)["summary"]
    assert summary["hits"] == [] and summary["note"].startswith("undecided: ")
    name = "found_conformal_geodesic_foliation" if expect else "nonexistence_certified"
    assert f"FAIL {name}" in capsys.readouterr().out


def test_an_uncertified_scan_fails_expected_nonexistence(tmp_path, capsys):
    cfg, out = base_config(tmp_path, "foliation-scan",
                           builtin={"name": "G3", "params": {"alpha": 1.0, "beta": 0.5}},
                           options={"expect_hits": False})
    assert main(["foliation-scan", "--config", cfg]) == 1
    report = read_report(out)
    assert report["summary"]["hits"] and "grid" not in report["summary"]
    assert "FAIL nonexistence_certified" in capsys.readouterr().out


def test_the_nonexistence_floor_is_no_tolerance(tmp_path):
    cfg, out = base_config(tmp_path, "foliation-scan",
                           builtin={"name": "G_alpha", "params": {"alpha": 1.0}},
                           options={"expect_hits": False},
                           tolerances={"nonexistence_floor": 1e-3})
    assert main(["foliation-scan", "--config", cfg]) == 2
    cfg, out = base_config(tmp_path, "foliation-scan",
                           builtin={"name": "G_alpha", "params": {"alpha": 1.0}},
                           options={"expect_hits": False})
    assert main(["foliation-scan", "--config", cfg, "--tol", "nonexistence_floor=1e-3"]) == 2
    assert not Path(out).exists()


def test_the_adjoint_structure_is_no_tolerance(tmp_path):
    # a hit's adjoint structure is implied by its residual, so no tolerance reaches it
    g3 = {"name": "G3", "params": {"alpha": 1.0, "beta": 0.5}}
    cfg, out = base_config(tmp_path, "foliation-scan", builtin=g3,
                           options={"expect_hits": True},
                           tolerances={"adjoint_structure": 1e-8})
    assert main(["foliation-scan", "--config", cfg]) == 2
    cfg, out = base_config(tmp_path, "foliation-scan", builtin=g3,
                           options={"expect_hits": True})
    assert main(["foliation-scan", "--config", cfg, "--tol", "adjoint_structure=1e-8"]) == 2
    assert not Path(out).exists()


# a shipped config on which each tolerance name reaches at least one check
TOLERANCE_CONFIGS = {
    "family": "verify_family_N4.json",
    "classify": "foliation_scan_G3.json",
    "connection": "curvature_G3.json",
    "curvature_symmetry": "curvature_G3.json",
    "curvature_constant": "curvature_G3.json",
    "expected_value": "curvature_G3.json",
    "dilation": "second_construction_damek_ricci.json",
    "minimality": "second_construction_damek_ricci.json",
}


@pytest.mark.parametrize("name", sorted(DEFAULT_TOLERANCES))
def test_every_tolerance_reaches_a_report_check(tmp_path, name):
    assert TOLERANCE_CONFIGS.keys() == DEFAULT_TOLERANCES.keys()
    config = next(p for p in SHIPPED_CONFIGS if p.name == TOLERANCE_CONFIGS[name])
    value = 1.2345678901234567e-4       # no default and no other check's tolerance
    out = tmp_path / "report.json"
    kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
    assert main([kind, "--config", str(config), "--tol", f"{name}={value!r}",
                 "--out", str(out)]) in (0, 1)
    assert any(float(c["tolerance"]) == value for c in read_report(out)["checks"])


def test_the_readme_tolerance_table_lists_exactly_the_tolerance_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| name | default | checks |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [re.match(r"\| `(\w+)` \| ([^ |]+) \|", line).groups() for line in table.splitlines()]
    assert {name: float(default) for name, default in rows} == DEFAULT_TOLERANCES
    assert len(rows) == len(DEFAULT_TOLERANCES)


def test_an_unexpected_exception_exits_3_with_its_traceback(tmp_path, monkeypatch, capsys):
    import liemorph.cli as cli_module

    def crash(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli_module._JOBS, "curvature", crash)
    cfg, out = base_config(tmp_path, "curvature",
                           builtin={"name": "G3", "params": {"alpha": 1.0, "beta": 0.5}})
    assert main(["curvature", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err
    assert not Path(out).exists()


def test_config_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify-family", "--config", str(bad)]) == 2

    cfg = write_config(tmp_path / "noseed.json",
                       {"kind": "verify-family",
                        "builtin": {"name": "N", "params": {"n": 3}},
                        "sampling": {"count": 10}})
    assert main(["verify-family", "--config", cfg]) == 2  # seed is mandatory

    cfg = write_config(tmp_path / "twosrc.json",
                       {"kind": "check-algebra",
                        "builtin": {"name": "N", "params": {"n": 3}},
                        "inline": {"structure_constants": []},
                        "sampling": {"seed": 1}})
    assert main(["check-algebra", "--config", cfg]) == 2

    cfg = write_config(tmp_path / "wrongkind.json",
                       {"kind": "curvature",
                        "builtin": {"name": "N", "params": {"n": 3}},
                        "sampling": {"seed": 1}})
    assert main(["verify-family", "--config", cfg]) == 2

    cfg = write_config(tmp_path / "badtol.json",
                       {"kind": "verify-family",
                        "builtin": {"name": "N", "params": {"n": 3}},
                        "sampling": {"seed": 1},
                        "tolerances": {"nope": 1e-9}})
    assert main(["verify-family", "--config", cfg]) == 2

    cfg = write_config(tmp_path / "ok.json",
                       {"kind": "verify-family",
                        "builtin": {"name": "N", "params": {"n": 3}},
                        "sampling": {"seed": 1}})
    for value in ("inf", "nan", "-inf"):
        assert main(["verify-family", "--config", cfg, "--tol", f"family={value}"]) == 2

    for value in (float("nan"), float("inf")):
        cfg = write_config(tmp_path / "badscale.json",
                           {"kind": "verify-family",
                            "builtin": {"name": "N", "params": {"n": 3}},
                            "sampling": {"seed": 1, "scale": value}})
        assert main(["verify-family", "--config", cfg]) == 2
        cfg = write_config(tmp_path / "badtolvalue.json",
                           {"kind": "second-construction",
                            "builtin": {"name": "damek_ricci",
                                        "params": {"dim_v": 2, "dim_z": 1}},
                            "sampling": {"seed": 1},
                            "tolerances": {"dilation": value}})
        assert main(["second-construction", "--config", cfg]) == 2

    # JSON true/false are not numbers, although Python's bool is an int
    for sampling in ({"seed": 1, "count": True}, {"seed": 1, "scale": True},
                     {"seed": True}, {"seed": False}):
        cfg = write_config(tmp_path / "boolsampling.json",
                           {"kind": "verify-family",
                            "builtin": {"name": "N", "params": {"n": 3}},
                            "sampling": sampling})
        assert main(["verify-family", "--config", cfg]) == 2, sampling
    for name in ("family", "dilation"):
        cfg = write_config(tmp_path / "booltol.json",
                           {"kind": "verify-family",
                            "builtin": {"name": "N", "params": {"n": 3}},
                            "sampling": {"seed": 1},
                            "tolerances": {name: True}})
        assert main(["verify-family", "--config", cfg]) == 2, name

    # one builtin path: declared parameter types, no unknown names, no coercion
    damek_ricci = {"name": "damek_ricci", "params": {"dim_v": 2, "dim_z": 1}}
    bad_sources = [
        ("second-construction", {"builtin": "damek_ricci"}),
        ("second-construction", {"builtin": {**damek_ricci,
                                             "params": {"dim_v": 2, "dim_z": 1, "bogus": 3}}}),
        ("second-construction", {"builtin": {**damek_ricci,
                                             "params": {"dim_v": 2.7, "dim_z": 1}}}),
        ("second-construction", {"inline_root_graded": {
            "structure_constants": [[[0.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            "a_indices": [1], "roots": [{"values": [1.0], "indices": [0]}], "beta": 0.5}}),
        ("second-construction", {"inline": {"structure_constants": [[[0.0]]]}}),
        ("check-algebra", {"builtin": {"name": "N", "params": {"n": 2.5}}}),
        ("check-algebra", {"builtin": {"name": "N", "params": {"n": "3"}}}),
        ("check-algebra", {"builtin": {"name": "N", "params": [3]}}),
        ("check-algebra", {"inline": [[[0.0]]]}),
        ("curvature", {"builtin": {"name": "G3", "params": {"alpha": True}}}),
        ("curvature", {"builtin": {"name": "G3", "params": {"alpha": 1.0, "beta": "0"}}}),
        ("curvature", {"builtin": {"name": "damek_ricci",
                                   "params": {"dim_v": 2.7, "dim_z": 1}}}),
    ]
    # options: known names per kind, booleans for expect_*, a finite expect_value
    g_alpha = {"builtin": {"name": "G_alpha", "params": {"alpha": 1.0}}}
    g3 = {"builtin": {"name": "G3", "params": {"alpha": 1.0, "beta": 0.5}}}
    bad_options = [
        ("foliation-scan", g_alpha, {"expect_hit": True}),
        ("foliation-scan", g_alpha, {"expect_hits": "yes"}),
        ("foliation-scan", g_alpha, {"expect_hits": 1}),
        ("foliation-scan", g_alpha, {"grid": 5}),
        ("foliation-scan", g_alpha, {"grid": 200.0}),
        ("curvature", g3, {"expect_costant": True}),
        ("curvature", g3, {"expect_value": -1.0}),
        ("curvature", g3, {"expect_constant": False, "expect_value": -1.0}),
        ("curvature", g3, {"expect_constant": True, "expect_value": "abc"}),
        ("curvature", g3, {"expect_constant": True, "expect_value": True}),
        ("curvature", g3, {"expect_constant": "true"}),
        ("curvature", g3, {"planes": 1}),
        ("curvature", g3, {"grid": 200}),
        ("second-construction", {"builtin": damek_ricci}, {"beta_root": "w"}),
        ("check-algebra", {"builtin": {"name": "N", "params": {"n": 3}}}, {"expect_hits": True}),
    ]
    cases = [(kind, source, {}) for kind, source in bad_sources] + bad_options
    for kind, source, options in cases:
        cfg = write_config(tmp_path / "badsource.json",
                           {"kind": kind, **source, "sampling": {"seed": 1},
                            "options": options, "out": str(tmp_path / "unwritten.json")})
        assert main([kind, "--config", cfg]) == 2, (source, options)
        assert not (tmp_path / "unwritten.json").exists()
    with open(tmp_path / "nan.json", "w", encoding="utf-8") as fh:   # JSON's NaN extension
        fh.write('{"kind": "curvature", "builtin": {"name": "G3", "params": {"alpha": 1.0}}, '
                 '"sampling": {"seed": 1}, '
                 '"options": {"expect_constant": true, "expect_value": NaN}}')
    assert main(["curvature", "--config", str(tmp_path / "nan.json")]) == 2


N4 = {"name": "N", "params": {"n": 4}}
PLANE = [[[0.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]     # [e_1, e_0] = e_0
ROOT_GRADED = {"structure_constants": PLANE, "a_indices": [1],
               "roots": [{"values": [1.0], "indices": [0]}], "beta": 0}


def root_graded(**changes):
    """The plane as a root-graded source, with ``changes`` to it or to its one root."""
    root = {k: changes.pop(k) for k in ("values", "indices") if k in changes}
    return {"builtin": None, "inline_root_graded": {
        **ROOT_GRADED, "roots": [{**ROOT_GRADED["roots"][0], **root}], **changes}}


@pytest.mark.parametrize("kind, changes, argv, field", [
    # each of these ran, on a default or a dropped value, or ended in a traceback
    ("verify-family", {"tolerance": {"family": 1e-30}}, [], "tolerance"),
    ("verify-family", {"sampling": {"seed": 1, "cont": 3}}, [], "sampling.cont"),
    ("check-algebra", {"builtin": None, "inline": {"structure_constants": PLANE,
                                                   "grm": [[2.0, 0.0], [0.0, 1.0]]}},
     [], "inline.grm"),
    ("check-algebra", {"builtin": {**N4, "extra": 1}}, [], "builtin.extra"),
    ("verify-family", {"tolerances": [1, 2]}, [], "tolerances"),
    ("verify-family", {"tolerances": "ab"}, [], "tolerances"),
    ("verify-family", {"out": ["a"]}, [], "out"),
    ("verify-family", {"sampling": {"seed": -1}}, [], "sampling.seed"),
    ("verify-family", {}, ["--seed", "-3"], "sampling.seed"),
    ("verify-family", {}, ["--out", ""], "out"),
    ("check-algebra", {"sampling": {"seed": -1}}, [], "sampling.seed"),
    ("second-construction", {"builtin": None, "inline_root_graded": {
        "structure_constants": PLANE, "a_indices": [1],
        "roots": [{"values": [1.0], "indices": [0], "valus": [1.0]}], "beta": 0}},
     [], "inline_root_graded.roots[0].valus"),
    # each of these ran to a verdict: an index wrapped around or a boolean mask picked
    # the rows, a boolean or a string was read as a number, a null as NaN
    ("second-construction", root_graded(a_indices=[-1]), [], "inline_root_graded.a_indices"),
    ("second-construction", root_graded(indices=[-2]), [],
     "inline_root_graded.roots[0].indices"),
    ("second-construction", root_graded(a_indices=[False, True]), [],
     "inline_root_graded.a_indices"),
    ("second-construction", root_graded(indices=[True, False]), [],
     "inline_root_graded.roots[0].indices"),
    ("second-construction", root_graded(indices=[0.0]), [],
     "inline_root_graded.roots[0].indices"),
    ("second-construction", root_graded(a_indices=1), [], "inline_root_graded.a_indices"),
    ("second-construction", root_graded(values=[True]), [],
     "inline_root_graded.roots[0].values"),
    ("second-construction", root_graded(gram=[[True, False], [False, True]]), [],
     "inline_root_graded.gram"),
    ("check-algebra", {"builtin": None, "inline": {
        "structure_constants": [[[False, False], [-1.0, False]], [[True, 0.0], [0.0, 0.0]]]}},
     [], "inline.structure_constants"),
    ("check-algebra", {"builtin": None, "inline": {"structure_constants": PLANE,
                                                   "gram": [[1.0, None], [0.0, 1.0]]}},
     [], "inline.gram"),
    ("check-algebra", {"builtin": None, "inline": {"structure_constants": PLANE,
                                                   "gram": [["1.0", 0.0], [0.0, 1.0]]}},
     [], "inline.gram"),
], ids=["misspelled_tolerances", "misspelled_sampling_field", "misspelled_gram",
        "builtin_extra_field", "tolerances_list", "tolerances_string", "out_list",
        "negative_config_seed", "negative_seed_flag", "empty_out_flag",
        "negative_seed_check_algebra",
        "unknown_root_field", "negative_a_index", "negative_root_index", "boolean_a_indices",
        "boolean_root_indices", "float_root_index", "scalar_a_indices", "boolean_root_value",
        "boolean_gram", "boolean_structure_constants", "null_in_gram", "string_in_gram"])
def test_a_field_that_fails_its_table_is_a_config_error(tmp_path, capsys, kind, changes,
                                                        argv, field):
    payload = {"kind": kind, "builtin": N4, "sampling": {"seed": 1},
               "out": str(tmp_path / "unwritten.json"), **changes}
    cfg = write_config(tmp_path / "job.json",
                       {k: v for k, v in payload.items() if v is not None})
    assert main([kind, "--config", cfg, *argv]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "unwritten.json").exists()


@pytest.mark.parametrize("kind, source, field", [
    ("check-algebra", {"builtin": {"params": {"n": 4}}}, "builtin.name"),
    ("check-algebra", {"inline": {"gram": [[1.0, 0.0], [0.0, 1.0]]}},
     "inline.structure_constants"),
    *(("second-construction",
       {"inline_root_graded": {k: v for k, v in ROOT_GRADED.items() if k != name}},
       f"inline_root_graded.{name}") for name in ROOT_GRADED),
    *(("second-construction",
       {"inline_root_graded": {**ROOT_GRADED, "roots": [
           {k: v for k, v in ROOT_GRADED["roots"][0].items() if k != name}]}},
       f"inline_root_graded.roots[0].{name}") for name in ("values", "indices")),
])
def test_a_missing_required_field_is_decided_at_load_time(tmp_path, capsys, kind, source,
                                                          field):
    cfg = write_config(tmp_path / "job.json", {"kind": kind, **source, "sampling": {"seed": 1},
                                               "out": str(tmp_path / "unwritten.json")})
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: required field missing$"):
        load_config(kind, cfg)
    assert main([kind, "--config", cfg]) == 2
    assert f"config error: {field}: required field missing" in capsys.readouterr().err
    assert not (tmp_path / "unwritten.json").exists()


@pytest.mark.parametrize("where", ["directory", "missing_parent", "file_parent"])
def test_an_unwritable_out_fails_before_the_job_runs(tmp_path, monkeypatch, capsys, where):
    import liemorph.cli as cli_module

    def crash(config):
        raise RuntimeError("the job ran")

    monkeypatch.setitem(cli_module._JOBS, "verify-family", crash)
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = {"directory": tmp_path, "missing_parent": tmp_path / "missing" / "report.json",
           "file_parent": tmp_path / "file" / "report.json"}[where]
    config = str(Path(__file__).resolve().parents[1] / "configs" / "verify_family_N4.json")
    before = sorted(tmp_path.rglob("*"))
    assert main(["verify-family", "--config", config, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out: cannot write the report to ")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_a_numeric_out_is_a_config_error_not_a_descriptor(tmp_path):
    # in a subprocess: "out": 7 used to open descriptor 7 for the report
    cfg = write_config(tmp_path / "job.json", {"kind": "check-algebra", "builtin": N4,
                                               "sampling": {"seed": 1}, "out": 7})
    proc = subprocess.run([sys.executable, "-m", "liemorph.cli", "check-algebra",
                           "--config", cfg], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "config error: out: " in proc.stderr and "report written" not in proc.stdout
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_foliation_scan_summary_follows_curvature_tol(tmp_path):
    # H_1's centre line is a hit, and the exact spread of its curvature operator is 1
    cfg, out = base_config(tmp_path, "foliation-scan",
                           builtin={"name": "H", "params": {"n": 1}},
                           options={"expect_hits": True})
    assert main(["foliation-scan", "--config", cfg, "--tol", "curvature_constant=2"]) == 0
    assert read_report(out)["summary"]["hits"][0]["constant_curvature"] is True

    assert main(["foliation-scan", "--config", cfg, "--tol", "curvature_constant=0.5"]) == 0
    assert read_report(out)["summary"]["hits"][0]["constant_curvature"] is False


def test_curvature_job_rejects_dimension_below_two(tmp_path):
    cfg, out = base_config(tmp_path, "curvature",
                           inline={"structure_constants": [[[0.0]]], "gram": [[1.0]]})
    assert main(["curvature", "--config", cfg]) == 2
    assert not Path(out).exists()


def test_curvature_checks_read_the_exact_operator(tmp_path):
    # H_1: the sampled spread of 200 planes is below the exact spread 1, and the
    # sampled mean is off the exact mean -1/12; the checks carry the exact values
    cfg, out = base_config(tmp_path, "curvature",
                           builtin={"name": "H", "params": {"n": 1}},
                           options={"planes": 200, "expect_constant": True,
                                    "expect_value": 0.0})
    assert main(["curvature", "--config", cfg, "--tol", "curvature_constant=2",
                 "--tol", "expected_value=0.1"]) == 0
    report = read_report(out)
    checks = {c["name"]: c for c in report["checks"]}
    assert float(checks["sectional_spread"]["max_residual"]) == 1.0
    assert float(checks["sectional_value"]["max_residual"]) == 1.0 / 12.0
    assert float(report["summary"]["sectional_spread"]) < 1.0


def test_curvature_job_evaluates_the_tensor_once(tmp_path, monkeypatch):
    # curvature_G3 runs the symmetry checks, the sampled profile and the
    # exact constant-curvature verdict on one connection table
    from functools import cached_property

    from liemorph.geometry import ConnectionTable
    calls = []
    tensor = ConnectionTable._curvature.func
    counted = cached_property(lambda table: calls.append(table) or tensor(table))
    counted.__set_name__(ConnectionTable, "_curvature")
    monkeypatch.setattr(ConnectionTable, "_curvature", counted)
    config = next(p for p in SHIPPED_CONFIGS if p.name == "curvature_G3.json")
    assert main(["curvature", "--config", str(config),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1


def test_check_algebra_validates_once(tmp_path, monkeypatch):
    import liemorph.algebra as algebra_module
    calls = []
    jacobi = algebra_module._jacobi_residual
    monkeypatch.setattr(algebra_module, "_jacobi_residual",
                        lambda c: calls.append(c.shape) or jacobi(c))
    cfg, _ = base_config(tmp_path, "check-algebra",
                         builtin={"name": "N", "params": {"n": 10}})
    assert main(["check-algebra", "--config", cfg]) == 0
    assert calls == [(45, 45, 45)]


@pytest.mark.parametrize("name, n", [("N", 10), ("S", 8)])
def test_check_algebra_computes_each_series_once(tmp_path, monkeypatch, name, n):
    import liemorph.algebra as algebra_module
    import liemorph.cli as cli_module
    calls = []
    for fn in ("derived_series", "lower_central_series"):
        original = getattr(algebra_module, fn)

        def counted(algebra, fn=fn, original=original):
            calls.append(fn)
            return original(algebra)

        monkeypatch.setattr(algebra_module, fn, counted)
        monkeypatch.setattr(cli_module, fn, counted)
    cfg, out = base_config(tmp_path, "check-algebra", builtin={"name": name, "params": {"n": n}})
    assert main(["check-algebra", "--config", cfg]) == 0
    assert sorted(calls) == ["derived_series", "lower_central_series"]
    summary = read_report(out)["summary"]
    assert summary["solvable"] is True and summary["nilpotent"] is (name == "N")


@pytest.mark.parametrize("kind, builtin, tables", [
    ("verify-family", {"name": "N", "params": {"n": 4}}, 0),
    ("verify-family", {"name": "S", "params": {"n": 3}}, 0),
    ("construct", {"name": "K", "params": {"n": 4}}, 0),
    ("curvature", {"name": "S", "params": {"n": 3}}, 1),
])
def test_family_jobs_build_no_connection_table(tmp_path, monkeypatch, kind, builtin, tables):
    # the frame's tension is the gram-dual of the trace form, read off the constants;
    # the curvature job is the control that the count sees a table when one is built
    import sys
    import liemorph.geometry as geometry_module
    calls = []
    original = geometry_module.koszul

    def counted(*args, **kwargs):
        calls.append(args[0].dim)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "liemorph" and getattr(module, "koszul", None) is original:
            monkeypatch.setattr(module, "koszul", counted)
    cfg, _ = base_config(tmp_path, kind, builtin=builtin)
    assert main([kind, "--config", cfg]) == 0
    assert len(calls) == tables


@pytest.mark.parametrize("scale", [2.0, 0.0])
@pytest.mark.parametrize("source", ["damek_ricci", "s3"])
def test_a_samples_are_one_draw_of_the_per_sample_stream(tmp_path, source, scale):
    from liemorph.cli import _a_samples, _root_graded_from_config
    if source == "damek_ricci":
        extra = {"builtin": {"name": "damek_ricci", "params": {"dim_v": 2, "dim_z": 1}}}
    else:
        alg, _ = __import__("liemorph").build_S(3)
        extra = {"inline_root_graded": {
            "structure_constants": alg.structure_constants.tolist(), "a_indices": [0, 1, 2],
            "roots": [{"values": [1.0, -1.0, 0.0], "indices": [3]}], "beta": 0}}
    payload = {"kind": "second-construction",
               "sampling": {"count": 2000, "seed": 5, "scale": scale}, **extra}
    config = load_config("second-construction", write_config(tmp_path / "c.json", payload))
    graded = _root_graded_from_config(config)
    rng = np.random.default_rng(config.seed)
    loop = [rng.uniform(-scale, scale, graded.a_space.dim) @ graded.a_space.basis
            for _ in range(config.count)]
    assert np.array_equal(_a_samples(graded, config), loop)


def test_check_algebra_decides_the_derived_algebra_once(tmp_path, monkeypatch):
    # both series start from the algebra's one [g, g]: 13 rank decisions on N_10, not 14
    import liemorph.algebra as algebra_module
    shapes = []
    decide = algebra_module._rank_decision
    monkeypatch.setattr(algebra_module, "_rank_decision",
                        lambda stack, floor=0.0: shapes.append(stack.shape) or decide(stack, floor))
    cfg, _ = base_config(tmp_path, "check-algebra", builtin={"name": "N", "params": {"n": 10}})
    assert main(["check-algebra", "--config", cfg]) == 0
    assert len(shapes) == 13


def test_check_algebra_n10_series(tmp_path):
    cfg, out = base_config(tmp_path, "check-algebra",
                           builtin={"name": "N", "params": {"n": 10}})
    assert main(["check-algebra", "--config", cfg]) == 0
    summary = read_report(out)["summary"]
    assert summary["lower_central_series_dims"] == [45, 36, 28, 21, 15, 10, 6, 3, 1, 0]
    assert summary["derived_series_dims"] == [45, 36, 21, 3, 0]
    assert summary["nilpotent"] and summary["center_dim"] == 1


def test_load_config_seed_override(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "construct",
                        "builtin": {"name": "N", "params": {"n": 3}},
                        "sampling": {"count": 5, "seed": 1}})
    config = load_config("construct", cfg, seed_override=99)
    assert config.seed == 99


def test_list_builtins(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("N(", "H(", "K(", "S(", "G3(", "G_alpha(", "damek_ricci("):
        assert name in out


def report_bodies_of_two_runs(tmp_path, kind, builtin):
    """Report bytes of two runs of one job, without the wall-time line."""
    cfg, out = base_config(tmp_path, kind, builtin=builtin)
    bodies = []
    for run_idx in range(2):
        assert main([kind, "--config", cfg]) == 0
        with open(out, "rb") as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if b"wall_time_s" not in ln]
        bodies.append(b"\n".join(lines))
    return bodies


def test_reports_are_deterministic(tmp_path):
    bodies = report_bodies_of_two_runs(tmp_path, "verify-family",
                                       {"name": "N", "params": {"n": 4}})
    assert bodies[0] == bodies[1]


def test_foliation_scan_reports_are_deterministic(tmp_path):
    bodies = report_bodies_of_two_runs(tmp_path, "foliation-scan",
                                       {"name": "G3", "params": {"alpha": 1.0, "beta": 0.5}})
    assert bodies[0] == bodies[1]
    assert b"evaluations" not in bodies[0]


def test_cli_subprocess_roundtrip(tmp_path):
    cfg, out = base_config(tmp_path, "check-algebra",
                           builtin={"name": "N", "params": {"n": 3}})
    proc = subprocess.run([sys.executable, "-m", "liemorph.cli",
                           "check-algebra", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert read_report(out)["overall_pass"]


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_exit_status(tmp_path, config):
    kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
    status = main([kind, "--config", str(config), "--out", str(tmp_path / "report.json")])
    assert status == (1 if config.name in FAILING_CONFIGS else 0)
    assert read_report(tmp_path / "report.json")["overall_pass"] == (status == 0)
