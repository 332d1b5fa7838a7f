"""Declarative job runner: a JSON config in, a machine-readable report out.

Reports serialize every floating-point quantity as a decimal string with 17
significant digits so identical runs produce identical bytes; the wall-time
field is the single non-deterministic entry.  Exit status: 0 all checks pass,
1 some check failed (report still written), 2 the config did not validate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, catalog
from .algebra import (LieAlgebra, Subspace, center, derived_series, is_abelian,
                      is_nilpotent, is_solvable, lower_central_series)
from .checks import DEFAULT_TOLERANCES, Check
from .constructions import (RootGradedAlgebra, RootSpace,
                            damek_ricci_root_graded, first_construction,
                            second_construction_check)
from .errors import ConstructionError, StructureError
from .foliations import constant_curvature_certificate, scan_3d
from .geometry import (curvature, curvature_symmetry_residuals,
                       gl_connection_term, koszul, sectional_profile)
from .groups import HOMOMORPHISM_TOL, sample_points
from .jets import Frame, verify_family

JOB_KINDS = ("check-algebra", "construct", "verify-family",
             "second-construction", "foliation-scan", "curvature")

class ConfigError(Exception):
    """Raised for malformed configs; maps to exit status 2."""


def fmt(x) -> str:
    """Decimal string with 17 significant digits; keeps reports diff-able."""
    return f"{float(x):.17g}"


def as_dict(check: Check) -> dict:
    return {"name": check.name, "max_residual": fmt(check.residual),
            "tolerance": fmt(check.tol), "pass": check.passed}


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
            "algebra": _stringify(self.algebra_source),
            "sampling": {"count": self.count, "seed": self.seed, "scale": fmt(self.scale)},
            "tolerances": {k: fmt(v) for k, v in sorted(self.tolerances.items())},
            "options": _stringify(self.options),
            "out": self.out,
        }


def _stringify(obj):
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    return obj


def load_config(kind: str, path: str, seed_override=None, out_override=None,
                tol_overrides=None) -> JobConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    cfg_kind = raw.get("kind", kind)
    if cfg_kind != kind:
        raise ConfigError(f"kind: config says {cfg_kind!r} but the subcommand is {kind!r}")
    if kind not in JOB_KINDS:
        raise ConfigError(f"kind: unknown job kind {kind!r}")

    sources = [k for k in ("builtin", "inline", "inline_root_graded") if k in raw]
    if len(sources) != 1:
        raise ConfigError("algebra: exactly one of 'builtin', 'inline', "
                          "'inline_root_graded' is required")
    source_key = sources[0]
    algebra_source = {source_key: raw[source_key]}

    sampling = raw.get("sampling", {})
    if not isinstance(sampling, dict):
        raise ConfigError("sampling: must be an object")
    count = sampling.get("count", 100)
    if not isinstance(count, int) or count < 1:
        raise ConfigError("sampling.count: must be a positive integer")
    scale = sampling.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or not math.isfinite(scale) or scale < 0:
        raise ConfigError("sampling.scale: must be a finite non-negative number")
    seed = seed_override if seed_override is not None else sampling.get("seed")
    if seed is None:
        raise ConfigError("sampling.seed: required (determinism is part of the contract); "
                          "set it in the config or pass --seed")
    if not isinstance(seed, int):
        raise ConfigError("sampling.seed: must be an integer")

    tolerances = dict(raw.get("tolerances", {}))
    for name, value in (tol_overrides or {}).items():
        tolerances[name] = value
    for name, value in tolerances.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"tolerances.{name}: unknown tolerance "
                              f"(known: {sorted(DEFAULT_TOLERANCES)})")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
            raise ConfigError(f"tolerances.{name}: must be a finite positive number")

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options: must be an object")
    out = out_override if out_override is not None else raw.get("out", "liemorph_report.json")
    return JobConfig(kind, algebra_source, count, seed, float(scale),
                     tolerances, options, out)


def _load_algebra(config: JobConfig, need_realization: bool = False,
                  validate: bool = True):
    src = config.algebra_source
    if "builtin" in src:
        entry = src["builtin"]
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError("builtin: expected {'name': ..., 'params': {...}}")
        try:
            algebra, realization = catalog.build(entry["name"], entry.get("params", {}))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"builtin: {exc}") from exc
        if need_realization and realization is None:
            raise ConfigError(f"builtin {entry['name']}: job kind {config.kind} "
                              "needs a matrix realization")
        return algebra, realization, entry["name"]
    if "inline" in src:
        entry = src["inline"]
        try:
            c = np.asarray(entry["structure_constants"], dtype=float)
            gram = np.asarray(entry.get("gram", np.eye(c.shape[0])), dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"inline: {exc}") from exc
        if need_realization:
            raise ConfigError(f"inline algebras have no matrix realization; "
                              f"job kind {config.kind} needs one")
        try:
            algebra = LieAlgebra(c, gram, validate=validate)
        except StructureError as exc:
            raise ConfigError(f"inline: {exc}") from exc
        return algebra, None, "inline"
    raise ConfigError(f"job kind {config.kind} does not accept this algebra source")


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
        summary.update({
            "derived_series_dims": [s.dim for s in derived_series(algebra)],
            "lower_central_series_dims": [s.dim for s in lower_central_series(algebra)],
            "center_dim": center(algebra).dim,
            "solvable": is_solvable(algebra),
            "nilpotent": is_nilpotent(algebra),
            "abelian": is_abelian(algebra),
        })
    return checks, summary


def _family_summary(construction):
    return {
        "kind": construction.kind,
        "xi": [fmt(x) for x in construction.xi],
        "phi_components": [repr(f) for f in construction.phi],
        "isotropic_dim": construction.isotropic.dim,
        "family_complex_dim": construction.complex_dim,
        "family_real_dim": construction.real_dim,
        "family_vectors": [[_fmt_complex(z) for z in v]
                           for v in construction.restricted.vectors],
    }


def _fmt_complex(z) -> str:
    z = complex(z)
    return f"{fmt(z.real)}{'+' if z.imag >= 0 else '-'}{fmt(abs(z.imag))}j"


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
    return checks + report.checks(), summary


def _root_graded_from_config(config: JobConfig) -> RootGradedAlgebra:
    src = config.algebra_source
    if "builtin" in src:
        entry = src["builtin"]
        if entry.get("name") != "damek_ricci":
            raise ConfigError("second-construction: builtin must be damek_ricci "
                              "(or use inline_root_graded)")
        params = entry.get("params", {})
        try:
            return damek_ricci_root_graded(
                int(params["dim_v"]), int(params["dim_z"]),
                beta_root=config.options.get("beta_root", "v"), validate=False)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"builtin damek_ricci: {exc}") from exc
    entry = src.get("inline_root_graded")
    if entry is None:
        raise ConfigError("second-construction needs builtin damek_ricci or inline_root_graded")
    try:
        c = np.asarray(entry["structure_constants"], dtype=float)
        gram = np.asarray(entry.get("gram", np.eye(c.shape[0])), dtype=float)
        algebra = LieAlgebra(c, gram)
        d = algebra.dim
        eye = np.eye(d)
        a_space = Subspace(d, eye[list(entry["a_indices"])])
        roots = tuple(RootSpace(np.asarray(r["values"], float), Subspace(d, eye[list(r["indices"])]))
                      for r in entry["roots"])
        return RootGradedAlgebra(algebra, a_space, roots, int(entry["beta"]), validate=False)
    except (KeyError, TypeError, ValueError, IndexError, StructureError) as exc:
        raise ConfigError(f"inline_root_graded: {exc}") from exc


def _a_samples(graded: RootGradedAlgebra, config: JobConfig) -> list:
    """config.count points of a in algebra coordinates, coefficients ~ U[-scale, scale].

    A range too wide for a float gives non-finite samples, which fail the
    dilation check.
    """
    if not math.isfinite(2.0 * config.scale):
        return [np.full(graded.algebra.dim, math.inf)] * config.count
    rng = np.random.default_rng(config.seed)
    return [rng.uniform(-config.scale, config.scale, graded.a_space.dim)
            @ graded.a_space.basis for _ in range(config.count)]


def _job_second_construction(config: JobConfig):
    """Structure checks, then the dilation and minimality checks.

    When a structure check fails the library returns the structure checks
    alone.  A dilation residual that is not finite (a sample or its
    exponential overflowed) fails, with the reason in ``summary.error``.
    """
    graded = _root_graded_from_config(config)
    summary = {
        "roots": [{"values": [fmt(v) for v in r.values], "dim": r.space.dim}
                  for r in graded.roots],
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
    grid = config.options.get("grid", 200)
    if not isinstance(grid, int) or grid < 10:
        raise ConfigError("options.grid: must be an integer >= 10")
    result = scan_3d(algebra, grid=grid, hit_tol=config.tol("classify"),
                     curvature_seed=config.seed)
    checks = []
    hits_summary = []
    centerless_solvable = center(algebra).dim == 0 and is_solvable(algebra)
    for i, hit in enumerate(result.hits):
        checks.append(Check(f"hit[{i}]:residual", hit.residual, config.tol("classify")))
        checks.append(Check(f"hit[{i}]:adjoint_structure", hit.adjoint_residual,
                            config.tol("adjoint_structure")))
        entry = {
            "vector": [fmt(v) for v in hit.vector],
            "flags": hit.flags,
            "alpha": fmt(hit.alpha),
            "beta": fmt(hit.beta),
            "constant_curvature": hit.constant_curvature,
            "curvature_value": fmt(hit.curvature_value),
        }
        if centerless_solvable:
            cert = constant_curvature_certificate(
                algebra, hit.vector, curvature_seed=config.seed,
                classify_tol=config.tol("classify"),
                curvature_tol=config.tol("curvature_constant"))
            checks += [replace(c, name=f"hit[{i}]:certificate:{c.name}") for c in cert.checks]
            entry["certificate_passed"] = cert.passed
        hits_summary.append(entry)
    expect = config.options.get("expect_hits")
    if expect is True:
        checks.append(Check("found_conformal_geodesic_foliation",
                            0.0 if result.hits else 1.0, 0.0))
    elif expect is False:
        floor = config.tol("nonexistence_floor")
        shortfall = max(0.0, floor - result.min_residual) if result.hits == [] else floor
        checks.append(Check("min_residual_exceeds_floor", shortfall, 0.0))
    summary = {
        "builtin": name,
        "grid": grid,
        "hits": hits_summary,
        "min_residual": fmt(result.min_residual),
        "note": result.note,
    }
    return checks, summary


def _job_curvature(config: JobConfig):
    algebra, realization, name = _load_algebra(config)
    table = koszul(algebra)
    checks = [Check(f"connection:{n}", r, config.tol("connection"))
              for n, r in table.invariant_residuals().items()]
    r = curvature(table)
    checks += [Check(f"curvature:{n}", resid, config.tol("curvature_symmetry"))
               for n, resid in curvature_symmetry_residuals(r).items()]
    if realization is not None:
        try:
            worst = 0.0
            for a, row in enumerate(table.onb):
                via_gl = gl_connection_term(realization, row)
                via_koszul = table.to_algebra_coords(table.gamma[a, a])
                worst = max(worst, float(np.abs(via_gl - via_koszul).max()))
            checks.append(Check("gl_vs_koszul", worst, config.tol("connection")))
        except StructureError:
            pass  # gram is not the trace metric; the shortcut does not apply
    planes = config.options.get("planes", 200)
    if not isinstance(planes, int) or planes < 2:
        raise ConfigError("options.planes: must be an integer >= 2")
    lo, hi, mean = sectional_profile(algebra, planes, config.seed, table)
    spread = hi - lo
    summary = {"builtin": name, "planes": planes,
               "sectional_min": fmt(lo), "sectional_max": fmt(hi),
               "sectional_mean": fmt(mean), "sectional_spread": fmt(spread)}
    if config.options.get("expect_constant"):
        checks.append(Check("sectional_spread", spread, config.tol("curvature_constant")))
        if "expect_value" in config.options:
            target = float(config.options["expect_value"])
            checks.append(Check("sectional_value", abs(mean - target),
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


def run(config: JobConfig) -> dict:
    """Execute one job and return the report dictionary (deterministic but for wall time)."""
    start = time.perf_counter()
    checks, summary = _JOBS[config.kind](config)
    overall = all(c.passed for c in checks)
    return {
        "job": config.echo(),
        "environment": {"package": "liemorph", "version": __version__,
                        "seed": config.seed},
        "checks": [as_dict(c) for c in checks],
        "summary": summary,
        "overall_pass": overall,
        "wall_time_s": time.perf_counter() - start,
    }


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


def main(argv=None) -> int:
    parser = build_parser()
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
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    with open(config.out, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
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
