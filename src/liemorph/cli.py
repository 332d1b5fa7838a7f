"""Declarative job runner: a JSON config in, a machine-readable report out.

Reports serialize every floating-point quantity as a decimal string with 17
significant digits so identical runs produce identical bytes; the wall-time
field is the single non-deterministic entry.  Exit status: 0 all checks pass,
1 some check failed (report still written), 2 the config did not validate,
3 an unexpected exception (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, catalog
from .algebra import LieAlgebra, Subspace, center, derived_series, lower_central_series
from .catalog import _is_finite, _is_int
from .checks import DEFAULT_TOLERANCES, Check
from .constructions import (RootGradedAlgebra, RootSpace, damek_ricci_grading,
                            first_construction, second_construction_check)
from .errors import ConstructionError, StructureError
from .foliations import scan_3d
from .geometry import (curvature, curvature_symmetry_residuals,
                       gl_connection_term, is_constant_curvature, koszul,
                       sectional_profile)
from .groups import HOMOMORPHISM_TOL, sample_points
from .jets import Frame, verify_family


class ConfigError(Exception):
    """Raised for malformed configs; maps to exit status 2."""


def fmt(x) -> str:
    """Decimal string with 17 significant digits; keeps reports diff-able."""
    return f"{float(x):.17g}"


def as_dict(check: Check) -> dict:
    return {"name": check.name, "max_residual": check.residual,
            "tolerance": check.tol, "pass": check.passed}


@dataclass
class JobConfig:
    kind: str
    algebra_source: dict
    count: int = 100
    seed: int | None = None
    scale: float = 1.0
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    out: str = "liemorph_report.json"

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def echo(self) -> dict:
        return {
            "kind": self.kind,
            "algebra": self.algebra_source,
            "sampling": {"count": self.count, "seed": self.seed, "scale": float(self.scale)},
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "options": self.options,
            "out": self.out,
        }


def _stringify(obj):
    """``obj`` as the report holds it: floats ``fmt``-ed, complex numbers as a+bj, numpy
    scalars and arrays read as the Python numbers and lists they hold, containers walked."""
    if isinstance(obj, (str, int)) or obj is None:      # bool is an int
        return obj
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _stringify(obj.tolist())
    if isinstance(obj, complex):
        return f"{fmt(obj.real)}{'+' if obj.imag >= 0 else '-'}{fmt(abs(obj.imag))}j"
    return obj


@dataclass(frozen=True)
class _Required:
    """A field its object must hold, checked by ``rule`` like any other field."""

    rule: object


# Each config object's fields, by name: a (test, wanted) pair, the table of a
# nested object, a one-table list for a list of objects, or None for a value
# that the job checks where it reads it; any of these wrapped in _Required
# when the field must be present.
_INLINE = {"structure_constants": _Required(None), "gram": None}
_CONFIG_FIELDS = {
    "builtin": {"name": _Required((lambda v: isinstance(v, str), "a string")),
                "params": (lambda v: isinstance(v, dict), "an object")},
    "inline": _INLINE,
    "inline_root_graded": {**_INLINE, "a_indices": _Required(None),
                           "roots": _Required([{"values": _Required(None),
                                                "indices": _Required(None)}]),
                           "beta": _Required((_is_int, "an integer"))},
    "sampling": {"count": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
                 "scale": (lambda v: _is_finite(v) and v >= 0, "a finite non-negative number"),
                 "seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer")},
    "tolerances": {name: (lambda v: _is_finite(v) and v > 0, "a finite positive number")
                   for name in DEFAULT_TOLERANCES},
    "out": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
}
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_OPTION_FIELDS = {
    "foliation-scan": {"expect_hits": _FLAG},
    "curvature": {"planes": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
                  "expect_constant": _FLAG, "expect_value": (_is_finite, "a finite number")},
    "second-construction": {"beta_root": (lambda v: v in ("v", "z"), '"v" or "z"')},
}


def _check_fields(section: str, value, table: dict) -> None:
    """Raise ConfigError naming ``section.field`` unless ``value`` is an object that
    holds every required field of ``table`` and only fields of ``table``, each one
    passing its rule."""
    if not isinstance(value, dict):
        raise ConfigError(f"{section or 'top level'}: must be an object")
    prefix = f"{section}." if section else ""
    for name, rule in table.items():
        if isinstance(rule, _Required) and name not in value:
            raise ConfigError(f"{prefix}{name}: required field missing")
    for name, v in value.items():
        where = prefix + name
        if name not in table:
            raise ConfigError(f"{where}: unknown field (known: {sorted(table) or 'none'})")
        rule = table[name]
        if isinstance(rule, _Required):
            rule = rule.rule
        if isinstance(rule, dict):
            _check_fields(where, v, rule)
        elif isinstance(rule, list):
            if not isinstance(v, list):
                raise ConfigError(f"{where}: must be a list")
            for i, item in enumerate(v):
                _check_fields(f"{where}[{i}]", item, rule[0])
        elif rule is not None and not rule[0](v):
            raise ConfigError(f"{where}: must be {rule[1]}")


def load_config(kind: str, path: str, seed_override=None, out_override=None,
                tol_overrides=None) -> JobConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if kind not in JOB_KINDS:
        raise ConfigError(f"kind: unknown job kind {kind!r}")
    fields = {"kind": (lambda v: v == kind, f"{kind!r}, the subcommand"), **_CONFIG_FIELDS,
              "options": _OPTION_FIELDS.get(kind, {})}
    _check_fields("", raw, fields)
    # --seed, --tol and --out values pass the same tables as the config's own
    _check_fields("", {"sampling": {} if seed_override is None else {"seed": seed_override},
                       "tolerances": tol_overrides or {},
                       **({} if out_override is None else {"out": out_override})}, fields)

    sources = [k for k in ("builtin", "inline", "inline_root_graded") if k in raw]
    if len(sources) != 1:
        raise ConfigError("algebra: exactly one of 'builtin', 'inline', "
                          "'inline_root_graded' is required")
    sampling = raw.get("sampling", {})
    seed = seed_override if seed_override is not None else sampling.get("seed")
    if seed is None:
        raise ConfigError("sampling.seed: required (determinism is part of the contract); "
                          "set it in the config or pass --seed")
    options = raw.get("options", {})
    if "expect_value" in options and options.get("expect_constant") is not True:
        raise ConfigError("options.expect_value: needs expect_constant true")
    out = out_override if out_override is not None else raw.get("out", "liemorph_report.json")
    return JobConfig(kind, {sources[0]: raw[sources[0]]}, sampling.get("count", 100), seed,
                     float(sampling.get("scale", 1.0)),
                     {**raw.get("tolerances", {}), **(tol_overrides or {})}, options, out)


def _load_algebra(config: JobConfig, need_realization: bool = False,
                  validate: bool = True):
    """(algebra, realization or None, name): a builtin's name, or the inline source's key."""
    src = config.algebra_source
    if "builtin" in src:
        entry = src["builtin"]
        try:
            algebra, realization = catalog.build(entry["name"], entry.get("params", {}))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"builtin: {exc}") from exc
        if need_realization and realization is None:
            raise ConfigError(f"builtin {entry['name']}: job kind {config.kind} "
                              "needs a matrix realization")
        return algebra, realization, entry["name"]
    (key, entry), = src.items()
    if (key == "inline_root_graded") != (config.kind == "second-construction"):
        raise ConfigError(f"job kind {config.kind} does not accept the algebra source {key}")
    if need_realization:
        raise ConfigError(f"inline algebras have no matrix realization; "
                          f"job kind {config.kind} needs one")
    try:
        c = np.asarray(entry["structure_constants"], dtype=float)
        gram = np.asarray(entry.get("gram", np.eye(c.shape[0])), dtype=float)
        algebra = LieAlgebra(c, gram, validate=validate)
    except (KeyError, TypeError, ValueError, IndexError, StructureError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return algebra, None, key


# ---------------------------------------------------------------------------
# job implementations
# ---------------------------------------------------------------------------

def _job_check_algebra(config: JobConfig):
    algebra, realization, name = _load_algebra(config, validate=False)
    checks = algebra.validation_report()
    if realization is not None:
        checks.append(Check("realization_homomorphism",
                            realization.homomorphism_residual(), HOMOMORPHISM_TOL))
    summary = {"builtin": name, "dim": algebra.dim}
    structurally_ok = all(c.passed for c in checks)
    if structurally_ok:
        derived, lower = derived_series(algebra), lower_central_series(algebra)
        summary.update({
            "derived_series_dims": [s.dim for s in derived],
            "lower_central_series_dims": [s.dim for s in lower],
            "center_dim": center(algebra).dim,
            "solvable": derived[-1].dim == 0,
            "nilpotent": lower[-1].dim == 0,
            # [g, g] = 0, read off the series (one term: [g, g] = g)
            "abelian": derived[min(1, len(derived) - 1)].dim == 0,
        })
    return checks, summary


def _family_summary(construction):
    return {
        "kind": construction.kind,
        "xi": construction.xi,
        "phi_components": [repr(f) for f in construction.phi],
        "isotropic_dim": len(construction.xi) // 2,     # of C^dim h, before the xi-perp cut
        "family_complex_dim": construction.complex_dim,
        "family_real_dim": construction.real_dim,
        "family_vectors": construction.restricted.vectors,
    }


def _family_job(config: JobConfig, per_residual: bool):
    """construct and verify-family: build the family, sample points, verify.

    ``per_residual`` reports one check per tau and kappa entry (verify-family)
    instead of the single worst residual (construct).  A sample that
    overflows ends as the failing check ``sample_points_finite``.
    """
    algebra, realization, name = _load_algebra(config, need_realization=True)
    spec = catalog.BY_NAME.get(name)
    if spec is None or spec.construction_kind is None:
        raise ConfigError(f"builtin {name}: no first construction is defined for it")
    frame = Frame.build(algebra, realization)
    try:
        construction = first_construction(algebra, realization, spec.construction_kind)
    except ConstructionError as exc:
        return [Check("family_nonempty", 1.0, 0.0)], {"error": str(exc)}
    checks = [Check("family_nonempty", 0.0, 0.0)]
    summary = _family_summary(construction)
    try:
        points = sample_points(realization, config.count, config.seed, config.scale)
    except StructureError as exc:
        summary["error"] = str(exc)
        return checks + [Check("sample_points_finite", 1.0, 0.0)], summary
    tol = config.tol("family")
    report = verify_family(construction.family, points, frame, tol)
    if not per_residual:
        return checks + [Check("family_verification", report.worst, tol)], summary
    summary["points"] = report.n_points
    return checks + list(report.checks), summary


def _root_graded_from_config(config: JobConfig) -> RootGradedAlgebra:
    algebra, _, name = _load_algebra(config)
    if name == "damek_ricci":
        params = config.algebra_source["builtin"]["params"]
        return damek_ricci_grading(algebra, params["dim_v"], params["dim_z"],
                                   beta_root=config.options.get("beta_root", "v"), validate=False)
    if name != "inline_root_graded":
        raise ConfigError("second-construction: builtin must be damek_ricci "
                          "(or use inline_root_graded)")
    if "beta_root" in config.options:
        raise ConfigError("options.beta_root: applies to the damek_ricci builtin only; "
                          "an inline_root_graded source names its distinguished root "
                          "by inline_root_graded.beta")
    entry = config.algebra_source[name]
    try:
        d = algebra.dim
        eye = np.eye(d)
        a_space = Subspace(d, eye[list(entry["a_indices"])])
        roots = tuple(RootSpace(np.asarray(r["values"], float), Subspace(d, eye[list(r["indices"])]))
                      for r in entry["roots"])
        return RootGradedAlgebra(algebra, a_space, roots, entry["beta"], validate=False)
    except (KeyError, TypeError, ValueError, IndexError, StructureError) as exc:
        raise ConfigError(f"inline_root_graded: {exc}") from exc


def _a_samples(graded: RootGradedAlgebra, config: JobConfig) -> np.ndarray:
    """config.count points of a in algebra coordinates from one U[-scale, scale] draw.

    Sample k uses the stream positions of the k-th of ``count`` single-sample
    draws.  A range too wide for a float gives non-finite samples, which fail
    the dilation check.
    """
    if not math.isfinite(2.0 * config.scale):
        return np.full((config.count, graded.algebra.dim), math.inf)
    rng = np.random.default_rng(config.seed)
    return rng.uniform(-config.scale, config.scale,
                       (config.count, graded.a_space.dim)) @ graded.a_space.basis


def _job_second_construction(config: JobConfig):
    """Structure checks, then the dilation and minimality checks.

    When a structure check fails the library returns the structure checks
    alone.  A dilation residual that is not finite (a sample or its
    exponential overflowed) fails, with the reason in ``summary.error``.
    """
    graded = _root_graded_from_config(config)
    summary = {
        "roots": [{"values": r.values, "dim": r.space.dim} for r in graded.roots],
        "beta_index": graded.beta_index,
        "a_dim": graded.a_space.dim,
    }
    checks = second_construction_check(graded, _a_samples(graded, config),
                                       dilation_tol=config.tol("dilation"),
                                       minimality_tol=config.tol("minimality"))
    dilation = next((c for c in checks if c.name == "dilation_matches_exp_2beta"), None)
    if dilation is None:
        return checks, summary
    summary["samples"] = config.count
    if not math.isfinite(dilation.residual):
        summary["error"] = (f"dilation residual is not finite: a sample of a or its "
                            f"exponential overflows at sampling.scale {fmt(config.scale)}; "
                            "reduce scale")
    return checks, summary


def _job_foliation_scan(config: JobConfig):
    algebra, _, name = _load_algebra(config)
    if algebra.dim != 3:
        raise ConfigError(f"foliation-scan: algebra must be 3-dimensional, got dim {algebra.dim}")
    result = scan_3d(algebra, hit_tol=config.tol("classify"),
                     curvature_tol=config.tol("curvature_constant"))
    checks, hits_summary = [], []
    for i, hit in enumerate(result.hits):
        checks.append(Check(f"hit[{i}]:residual", hit.residual, config.tol("classify")))
        entry = {
            "vector": hit.vector,
            "flags": hit.flags,
            "alpha": hit.alpha,
            "beta": hit.beta,
            "constant_curvature": hit.constant_curvature,
            "curvature_value": hit.curvature_value,
        }
        if hit.certificate is not None:      # the algebra is centerless and solvable
            checks += [replace(c, name=f"hit[{i}]:certificate:{c.name}")
                       for c in hit.certificate.checks]
            entry["certificate_passed"] = hit.certificate.passed
        hits_summary.append(entry)
    expect = config.options.get("expect_hits")
    if expect is True:
        checks.append(Check("found_conformal_geodesic_foliation",
                            0.0 if result.found else 1.0, 0.0))
    elif expect is False:       # only the Ricci certificate proves that there is none
        checks.append(Check("nonexistence_certified", 0.0 if result.certified else 1.0, 0.0))
    return checks, {"builtin": name, "hits": hits_summary,
                    "min_residual": result.min_residual, "note": result.note}


def _job_curvature(config: JobConfig):
    """The verdicts read the exact curvature operator; the sampled profile only describes."""
    algebra, realization, name = _load_algebra(config)
    if algebra.dim < 2:
        raise ConfigError(f"curvature: algebra must have dimension >= 2, got dim {algebra.dim}")
    table = koszul(algebra)
    checks = [Check(f"connection:{n}", r, config.tol("connection"))
              for n, r in table.invariant_residuals().items()]
    r = curvature(table)
    checks += [Check(f"curvature:{n}", resid, config.tol("curvature_symmetry"))
               for n, resid in curvature_symmetry_residuals(r).items()]
    if realization is not None:
        try:
            via_gl = gl_connection_term(realization, table.onb)
            via_koszul = table.to_algebra_coords(np.einsum("aac->ac", table.gamma))
            checks.append(Check("gl_vs_koszul", float(np.abs(via_gl - via_koszul).max()),
                                config.tol("connection")))
        except StructureError:
            pass  # gram is not the trace metric; the shortcut does not apply
    planes = config.options.get("planes", 200)
    lo, hi, mean = sectional_profile(algebra, planes, config.seed, table)
    summary = {"builtin": name, "planes": planes,
               "sectional_min": lo, "sectional_max": hi,
               "sectional_mean": mean, "sectional_spread": hi - lo}
    if config.options.get("expect_constant"):
        tol = config.tol("curvature_constant")
        _, value, spread = is_constant_curvature(algebra, tol, table)
        checks.append(Check("sectional_spread", spread, tol))
        if "expect_value" in config.options:
            checks.append(Check("sectional_value", abs(value - config.options["expect_value"]),
                                config.tol("expected_value")))
    return checks, summary


_JOBS = {
    "check-algebra": _job_check_algebra,
    "construct": lambda config: _family_job(config, per_residual=False),
    "verify-family": lambda config: _family_job(config, per_residual=True),
    "second-construction": _job_second_construction,
    "foliation-scan": _job_foliation_scan,
    "curvature": _job_curvature,
}
JOB_KINDS = tuple(_JOBS)


def run(config: JobConfig) -> dict:
    """Execute one job and return the report dictionary (deterministic but for wall time)."""
    start = time.perf_counter()
    checks, summary = _JOBS[config.kind](config)
    report = _stringify({       # every number of the report but its wall time
        "job": config.echo(),
        "environment": {"package": "liemorph", "version": __version__,
                        "seed": config.seed},
        "checks": [as_dict(c) for c in checks],
        "summary": summary,
        "overall_pass": all(c.passed for c in checks),
    })
    report["wall_time_s"] = time.perf_counter() - start
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liemorph",
        description="Construct and numerically verify harmonic morphisms and "
                    "conformal foliations on matrix Lie groups.")
    parser.add_argument("--list", action="store_true", dest="list_builtins",
                        help="list the built-in algebras/groups and exit")
    sub = parser.add_subparsers(dest="command")
    for kind in JOB_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} job")
        p.add_argument("--config", required=True, help="path to the JSON job config")
        p.add_argument("--seed", type=int, default=None, help="override sampling.seed")
        p.add_argument("--out", default=None, help="override the report output path")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and kept for the process.

    ``parse_args`` starts every call from the defaults, so nothing one call
    parses reaches the next.
    """
    return build_parser()


def _parse_tol_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--tol {pair!r}: expected NAME=VALUE")
        name, _, value = pair.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol {pair!r}: {value!r} is not a number") from exc
    return out


def _check_writable(path: str) -> None:
    """Raise ConfigError, before any work is done, when the report could not be
    written to ``path``.  It only looks: no file is created or opened."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"{parent!r} is not a directory"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise ConfigError(f"out: cannot write the report to {path!r}: {problem}")


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_builtins:
        for row in catalog.list_builtins():
            params = ", ".join(
                f"{p['name']}: {p['type']}" + (f" ({p['constraint']})" if p["constraint"] else "")
                for p in row["params"])
            print(f"{row['name']}({params})")
            print(f"    {row['description']}")
        return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        print("error: a job subcommand or --list is required", file=sys.stderr)
        return 2
    try:
        config = load_config(args.command, args.config, args.seed, args.out,
                             _parse_tol_overrides(args.tol))
        _check_writable(config.out)
        report = run(config)
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(render_report(report))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:       # a crash is not a failing check: status 3, not 1
        traceback.print_exc()
        return 3
    n_pass = sum(1 for c in report["checks"] if c["pass"])
    status = "PASS" if report["overall_pass"] else "FAIL"
    print(f"{config.kind}: {status} ({n_pass}/{len(report['checks'])} checks passed)")
    for c in report["checks"]:
        if not c["pass"]:
            print(f"  FAIL {c['name']}: residual {c['max_residual']} "
                  f"> tolerance {c['tolerance']}")
    print(f"report written to {config.out}")
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
