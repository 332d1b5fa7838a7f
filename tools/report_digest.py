"""Digest every shipped config's report, to compare two checkouts report by report.

    python tools/report_digest.py ROOT --seeds 1 5000 > digest.txt
    python tools/report_digest.py ROOT --seeds 1 5000 --against digest.txt

Runs each config under ``ROOT/configs/`` and ``ROOT/benchmarks/configs/`` once
per seed through ``liemorph.cli.main``, imported from ``ROOT/src``, with the
report written to a temporary directory.  Prints one line per report: the
config path relative to ROOT, the seed, the exit status, and one
``SECTION=SHA-256`` per top-level section of the report (``job`` without
``out``, ``environment``, ``checks``, ``summary``, ``overall_pass``; the wall
time is left out), or ``-`` when no report was written.  An exception that
escapes ``main`` is recorded as the status ``raised:<type>``.

With ``--against FILE`` (an earlier output of this script) it also lists the
reports whose digest differs, each with the sections that differ, as in
``report bytes differ: configs/x.json seed 1 (summary)``; it ends with the line
``differing: K of N reports, exit-status changes: M``, and exits 1 when some
exit status differs, or a report is missing on one side; differing bytes
alone exit 0.  A hash with no ``SECTION=`` covers a section with no name.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

CONFIG_DIRS = ("configs", "benchmarks/configs")


def digest(report_path: Path) -> str:
    """``SECTION=SHA-256`` for each top-level section of the report, or ``-`` for none."""
    if not report_path.exists():
        return "-"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report.pop("wall_time_s", None)
    report.get("job", {}).pop("out", None)
    return " ".join(
        f"{name}={hashlib.sha256(json.dumps(part, sort_keys=True).encode()).hexdigest()}"
        for name, part in sorted(report.items()))


def run_all(root: Path, seeds) -> list[tuple[str, int, str, str]]:
    sys.path.insert(0, str(root / "src"))
    from liemorph.cli import main

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(p for d in CONFIG_DIRS for p in (root / d).glob("*.json")):
            kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
            for seed in seeds:
                out = Path(tmp) / "report.json"
                out.unlink(missing_ok=True)
                argv = [kind, "--config", str(config), "--seed", str(seed), "--out", str(out)]
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        status = str(main(argv))
                except Exception as exc:     # a traceback is a status of its own
                    status = f"raised:{type(exc).__name__}"
                    traceback.print_exc()
                rows.append((config.relative_to(root).as_posix(), seed, status, digest(out)))
    return rows


def read_digest(path: Path) -> list[tuple[str, int, str, str]]:
    """The rows of an earlier output of this script."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        config, seed, status, sha = line.split(maxsplit=3)
        rows.append((config, int(seed), status, sha))
    return rows


def sections(sha: str) -> dict[str, str]:
    """A digest's hashes by section name; a bare hash is the section ``""``."""
    return {name: value for name, _, value in (token.rpartition("=") for token in sha.split())}


def differing_sections(old: str, new: str) -> list[str]:
    """The named sections whose hashes differ, or are on one side only."""
    old, new = sections(old), sections(new)
    return sorted(name for name in set(old) | set(new) if name and old.get(name) != new.get(name))


def compare(rows, against: Path) -> int:
    """Print the differences from an earlier digest; 1 if an exit status differs.

    The last line is the total: ``differing: K of N reports, exit-status
    changes: M``, so a run with no differences still prints one line.
    """
    old = {(path, seed): (status, sha) for path, seed, status, sha in read_digest(against)}
    new = {(path, seed): (status, sha) for path, seed, status, sha in rows}
    keys = sorted(set(old) | set(new))
    differing = status_changes = 0
    failed = False
    for key in keys:
        label = f"{key[0]} seed {key[1]}"
        if key not in old or key not in new:
            print(f"only in {'the new run' if key in new else 'FILE'}: {label}")
            failed = True
        elif old[key][0] != new[key][0]:
            print(f"exit status differs: {label}: {old[key][0]} -> {new[key][0]}")
            failed = True
            status_changes += 1
        elif old[key][1] != new[key][1]:
            names = differing_sections(old[key][1], new[key][1])
            print(f"report bytes differ: {label}" + (f" ({', '.join(names)})" if names else ""))
        else:
            continue
        differing += 1
    print(f"differing: {differing} of {len(keys)} reports, exit-status changes: {status_changes}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="checkout whose src/ and configs are used")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--against", type=Path, default=None,
                        help="earlier digest to compare with")
    args = parser.parse_args(argv)
    rows = run_all(args.root.resolve(), args.seeds)
    if args.against is None:
        for path, seed, status, sha in rows:
            print(f"{path} {seed} {status} {sha}")
        return 0
    return compare(rows, args.against)


if __name__ == "__main__":
    sys.exit(main())
