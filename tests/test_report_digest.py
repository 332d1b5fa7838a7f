"""``tools/report_digest.py --against`` on two small hand-written digest files."""

import importlib.util
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
