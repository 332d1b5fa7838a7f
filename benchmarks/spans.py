"""Per-layer spans and work counters, installed around liemorph's public functions.

Nothing here edits the package: ``Tracer.install`` swaps each listed function
for a wrapper in every ``liemorph`` namespace that holds it (``cli`` binds names
with ``from .x import y``, so patching only the defining module would miss
those calls) and ``Tracer.uninstall`` puts the originals back.

A span's self time is its duration minus the time of the spans it encloses;
the self times of all spans in a pass plus ``trace.unattributed_s`` equal the
pass's wall time.  Public helpers that are not listed count toward the self
time of the span that calls them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute) -> metric that receives the call's self time.
SPANS = {
    ("liemorph.catalog", "build"): "catalog.build_s",
    **{("liemorph.groups", f"build_{g}"): "catalog.build_s"
       for g in ("N", "H", "K", "S", "G3", "Galpha", "damek_ricci")},
    ("liemorph.algebra", "LieAlgebra.validation_report"): "algebra.validate_s",
    **{("liemorph.algebra", f): "algebra.series_s"
       for f in ("derived_series", "lower_central_series", "center",
                 "is_solvable", "is_nilpotent")},
    ("liemorph.groups", "MatrixRealization.homomorphism_residual"): "groups.homomorphism_s",
    ("liemorph.groups", "sample_points"): "groups.sample_s",
    ("liemorph.geometry", "koszul"): "geometry.koszul_s",
    ("liemorph.geometry", "curvature"): "geometry.curvature_s",
    ("liemorph.geometry", "sectional_profile"): "geometry.sectional_s",
    ("liemorph.jets", "Frame.build"): "jets.frame_s",
    ("liemorph.jets", "verify_family"): "jets.verify_s",
    ("liemorph.constructions", "first_construction"): "constructions.first_s",
    ("liemorph.constructions", "second_construction_check"): "constructions.second_s",
    ("liemorph.foliations", "scan_3d"): "foliations.scan_s",
    ("liemorph.foliations", "constant_curvature_certificate"): "foliations.certificate_s",
    ("liemorph.foliations", "classify"): "foliations.classify_s",
    ("liemorph.cli", "load_config"): "cli.load_config_s",
    ("liemorph.cli", "run"): "cli.run_self_s",
    ("liemorph.cli", "render_report"): "cli.render_s",
    # main's own time is argument parsing, writing the report and printing it.
    ("liemorph.cli", "main"): "cli.render_s",
}


# (module, attribute) -> counters, each with the work of one call computed from the
# call's bound arguments and result; no function means the counter adds 1 per call.
COUNTERS = {
    ("liemorph.algebra", "LieAlgebra.bracket"): (("algebra.bracket_calls", None),),
    ("liemorph.groups", "exp_matrix"): (("groups.exp_calls", None),),
    ("liemorph.groups", "sample_points"): (("groups.points", lambda a, r: a["count"]),),
    ("liemorph.geometry", "koszul"): (("geometry.koszul_calls", None),),
    ("liemorph.geometry", "sectional_profile"): (
        ("geometry.sectional_planes", lambda a, r: a["n_planes"]),),
    ("liemorph.jets", "verify_family"): ((
        "jets.jet_evals",
        lambda a, r: len(a["points"]) * (len(a["frame"].mats) + 1) * len(a["fields"])),),
    ("liemorph.constructions", "second_construction_check"): (
        ("constructions.second_samples", lambda a, r: len(a["a_samples"])),),
    ("liemorph.foliations", "scan_3d"): (("foliations.scan_calls", None),
                                         ("foliations.hits", lambda a, r: len(r.hits))),
    ("liemorph.cli", "run"): (("cli.checks", lambda a, r: len(r["checks"])),),
}

TIME_METRICS = sorted(set(SPANS.values()))
COUNT_METRICS = sorted({name for counters in COUNTERS.values() for name, _ in counters})


class Tracer:
    """Collects self times and counters while installed; one instance per run."""

    def __init__(self):
        self._patches = []        # (owner, name, original) in install order
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []          # time spent in enclosed spans, one entry per open span

    def reset(self):
        """Zero the totals; the installed wrappers keep writing to the same objects."""
        self.self_s.clear()
        self.counts.clear()
        self._stack.clear()

    def snapshot(self) -> dict:
        out = {m: self.self_s[m] for m in TIME_METRICS}
        out.update({m: self.counts[m] for m in COUNT_METRICS})
        return out

    def _wrap(self, key, fn):
        metric = SPANS.get(key)
        counters = COUNTERS.get(key, ())
        signature = inspect.signature(fn)
        stack, self_s, counts = self._stack, self.self_s, self.counts

        def count(args, kwargs, result):
            bound = None
            for name, work in counters:
                if work is None:
                    counts[name] += 1
                    continue
                if bound is None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                counts[name] += work(bound.arguments, result)

        def wrapper(*args, **kwargs):
            if metric is None:
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = stack.pop()
                self_s[metric] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for key in sorted(set(SPANS) | set(COUNTERS)):
            owner, name, original = _resolve(*key)
            fn = original.__func__ if isinstance(original, classmethod) else original
            wrapper = self._wrap(key, fn)
            if isinstance(original, classmethod):
                self._patch(owner, name, classmethod(wrapper))
            elif isinstance(owner, type):
                self._patch(owner, name, wrapper)
            else:
                # every liemorph namespace that bound the function, the defining one included
                for module in _liemorph_modules():
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, wrapper)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _liemorph_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "liemorph" or n.startswith("liemorph."))]


def _resolve(module_name, attr):
    """(owner, name, original) where owner is the module or the class that holds it."""
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name, vars(owner)[name]
