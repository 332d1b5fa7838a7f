"""``tools/report_digest.py --against`` on two small hand-written digest files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"


@pytest.fixture(scope="module")
def report_digest():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_digest(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


BASE = ["configs/a.json 1 0 " + "1" * 64,
        "configs/a.json 5000 0 " + "2" * 64,
        "configs/bad.json 1 1 " + "3" * 64]


def test_identical_digests_print_only_the_total(tmp_path, capsys, report_digest):
    old = write_digest(tmp_path / "old.txt", BASE)
    rows = report_digest.read_digest(write_digest(tmp_path / "new.txt", BASE))
    assert report_digest.compare(rows, old) == 0
    assert capsys.readouterr().out.splitlines() == [
        "differing: 0 of 3 reports, exit-status changes: 0"]


def test_byte_changes_alone_exit_0(tmp_path, capsys, report_digest):
    old = write_digest(tmp_path / "old.txt", BASE)
    changed = [BASE[0], "configs/a.json 5000 0 " + "f" * 64, BASE[2]]
    rows = report_digest.read_digest(write_digest(tmp_path / "new.txt", changed))
    assert report_digest.compare(rows, old) == 0
    assert capsys.readouterr().out.splitlines() == [
        "report bytes differ: configs/a.json seed 5000",
        "differing: 1 of 3 reports, exit-status changes: 0"]


def test_status_changes_and_missing_reports_exit_1(tmp_path, capsys, report_digest):
    old = write_digest(tmp_path / "old.txt", BASE)
    changed = [BASE[0], "configs/bad.json 1 0 " + "3" * 64, "configs/new.json 1 0 -"]
    rows = report_digest.read_digest(write_digest(tmp_path / "new.txt", changed))
    assert report_digest.compare(rows, old) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only in FILE: configs/a.json seed 5000",
        "exit status differs: configs/bad.json seed 1: 1 -> 0",
        "only in the new run: configs/new.json seed 1",
        "differing: 3 of 4 reports, exit-status changes: 1"]


def sectioned(path, seed, status, **hashes):
    return f"{path} {seed} {status} " + " ".join(f"{k}={v * 64}" for k, v in sorted(hashes.items()))


SECTIONS = {"checks": "a", "environment": "b", "job": "c", "overall_pass": "d", "summary": "e"}


def test_a_differing_report_names_its_sections(tmp_path, capsys, report_digest):
    old = write_digest(tmp_path / "old.txt", [
        sectioned("configs/a.json", 1, 0, **SECTIONS),
        sectioned("configs/a.json", 5000, 0, **SECTIONS),
        sectioned("configs/b.json", 1, 1, **SECTIONS)])
    new = [sectioned("configs/a.json", 1, 0, **SECTIONS),
           sectioned("configs/a.json", 5000, 0, **{**SECTIONS, "summary": "f"}),
           sectioned("configs/b.json", 1, 1, **{**SECTIONS, "checks": "0", "overall_pass": "1"})]
    rows = report_digest.read_digest(write_digest(tmp_path / "new.txt", new))
    assert report_digest.compare(rows, old) == 0
    assert capsys.readouterr().out.splitlines() == [
        "report bytes differ: configs/a.json seed 5000 (summary)",
        "report bytes differ: configs/b.json seed 1 (checks, overall_pass)",
        "differing: 2 of 3 reports, exit-status changes: 0"]


def test_digest_hashes_each_section_without_wall_time_or_out(tmp_path, report_digest):
    report = {"job": {"kind": "curvature", "out": "a.json"}, "environment": {"seed": 1},
              "checks": [], "summary": {"note": "x"}, "overall_pass": True, "wall_time_s": 0.5}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    first = report_digest.sections(report_digest.digest(path))
    assert sorted(first) == ["checks", "environment", "job", "overall_pass", "summary"]
    report.update(wall_time_s=9.0, job={"kind": "curvature", "out": "b.json"})
    report["summary"]["note"] = "y"
    path.write_text(json.dumps(report), encoding="utf-8")
    second = report_digest.sections(report_digest.digest(path))
    assert [name for name in first if first[name] != second[name]] == ["summary"]
    assert report_digest.digest(tmp_path / "missing.json") == "-"
