import json
import subprocess
import sys

import numpy as np
import pytest

from liemorph.cli import load_config, main


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


def test_reports_are_deterministic(tmp_path):
    cfg, out = base_config(tmp_path, "verify-family",
                           builtin={"name": "N", "params": {"n": 4}})
    bodies = []
    for run_idx in range(2):
        assert main(["verify-family", "--config", cfg]) == 0
        with open(out, "rb") as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if b"wall_time_s" not in ln]
        bodies.append(b"\n".join(lines))
    assert bodies[0] == bodies[1]


def test_cli_subprocess_roundtrip(tmp_path):
    cfg, out = base_config(tmp_path, "check-algebra",
                           builtin={"name": "N", "params": {"n": 3}})
    proc = subprocess.run([sys.executable, "-m", "liemorph.cli",
                           "check-algebra", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert read_report(out)["overall_pass"]
