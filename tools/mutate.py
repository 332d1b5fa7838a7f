"""Run Tier-1 against a fixed list of mutants, to see whether the tests can be fooled.

    python tools/mutate.py

Each mutant is one text replacement (file, old, new) in the source.  Every
``old`` must occur exactly once in its file, or the tool exits with status 2
before running anything.  For each mutant the checkout, without ``.git``, is
copied to a temporary directory, the replacement is applied there, and Tier-1
runs with ``-x -q --continue-on-collection-errors``.  One line per mutant
reports ``killed`` with the first failing test, or ``survived``.  A mutant that
breaks a test module's import-time setup is a collection error, which ``-x``
stops at without running a test; such a mutant runs Tier-1 again without
``-x``, so that its line names a test too.  The exit status is 0 whatever
survives; the list and its results are recorded in CHANGES.md.  Standard
library only.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    ("the laplacian's drift with its sign flipped", "src/liemorph/jets.py",
     "terms = d2 - d1 * frame.traces", "terms = d2 + d1 * frame.traces"),
    ("the frame's traces taken as the raw trace form", "src/liemorph/jets.py",
     "onb @ trace_form,", "trace_form,"),
    ("the frame operators dropping the last frame direction", "src/liemorph/jets.py",
     "    d1, d2 = _jets(fields, points, frame.mats)\n"
     "    grad = d1.transpose(1, 0, 2)                          # (P, F, D)\n"
     "    terms = d2 - d1 * frame.traces                        # X_a^2(phi) - traces[a] X_a(phi)\n"
     "    # direction by direction, so tau keeps the rounding of a one-point sum\n"
     "    tau = sum(terms[:, :, a] for a in range(len(frame.mats)))",
     "    d1, d2 = _jets(fields, points, frame.mats[:-1])\n"
     "    grad = d1.transpose(1, 0, 2)                          # (P, F, D)\n"
     "    terms = d2 - d1 * frame.traces[:-1]                   # X_a^2(phi) - traces[a] X_a(phi)\n"
     "    # direction by direction, so tau keeps the rounding of a one-point sum\n"
     "    tau = sum(terms[:, :, a] for a in range(len(frame.mats) - 1))"),
    ("the Einstein branch scoring a vector of [g, g] instead of its complement",
     "src/liemorph/foliations.py",
     "v = _fix_signs(_unit_rows(np.cross(a, b)[None]))", "v = _fix_signs(_unit_rows(a[None]))"),
    ("the Ricci candidates u+- built from q_2 instead of q_3", "src/liemorph/foliations.py",
     "w1 * q[:, 0] + w3 * q[:, 2], w1 * q[:, 0] - w3 * q[:, 2]",
     "w1 * q[:, 0] + w3 * q[:, 1], w1 * q[:, 0] - w3 * q[:, 1]"),
    ("the join builder adding M_j M_i, i > j, with its sign flipped", "src/liemorph/groups.py",
     "np.where(i < j, prod, -prod)", "np.where(i < j, prod, prod)"),
    ("the antisymmetry partner of c[i, j, k] taken as c[i, k, j]", "src/liemorph/algebra.py",
     "entries.values + c[j, i, k]", "entries.values + c[i, k, j]"),
    ("rows within 1e-2 of orthonormal skipping the rank decision", "src/liemorph/algebra.py",
     "np.eye(len(rows))).max() <= 1e-10", "np.eye(len(rows))).max() <= 1e-2"),
)

FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)
FIRST_TEST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+::\S+)", re.MULTILINE)


def check_mutants() -> list[str]:
    """Why each mutant that does not apply exactly once fails to."""
    problems = []
    for name, path, old, _ in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: its text occurs {count} times in {path}, not once")
    return problems


def run_mutant(path: str, old: str, new: str) -> str:
    """``killed: <first failing test>`` or ``survived``, for Tier-1 on a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        target = copy / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src")
        tier1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"]
        done = subprocess.run([*tier1, "-x"], cwd=copy, env=env, capture_output=True, text=True)
        if done.returncode != 0 and not FIRST_TEST_FAILURE.search(done.stdout):
            done = subprocess.run(tier1, cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived"
    failure = FIRST_TEST_FAILURE.search(done.stdout) or FIRST_FAILURE.search(done.stdout)
    return f"killed: {failure.group(1) if failure else f'pytest exit status {done.returncode}'}"


def main() -> int:
    problems = check_mutants()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    for name, path, old, new in MUTANTS:
        print(f"{name} ({path}): {run_mutant(path, old, new)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
