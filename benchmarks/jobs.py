"""The benchmark's workloads: fixed job lists with the verdict each job must reach.

A CLI job runs one ``liemorph`` subcommand on a config file; its verdict is the
exit status of ``liemorph.cli.main``.  A library job does what the CLI cannot
express through the public package API and returns its own exit-style status.
Config paths are relative to the repository root.  No config here carries a
seed: every job takes the workload seed, through ``--seed`` for CLI jobs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    kind: str | None = None         # CLI subcommand; None for a library job
    config: str | None = None       # CLI config path
    expect_exit: int = 0            # 0 pass, 1 a check fails
    extra_args: tuple = ()          # further CLI arguments, such as --tol overrides
    library: object = None          # callable(liemorph, seed) -> (status, detail)
    families: int = 0               # families verified, for family_points_per_s
    points: int = 0                 # sample points per family (library jobs)


def h2_post_compositions(lm, seed: int):
    """20 pairs of random degree-3 holomorphic post-compositions of the H_2 family.

    The input of acceptance criterion 5: every pair must verify over 100 points
    at tol 1e-7.  Points use ``seed`` and the polynomials ``seed + 1``.
    """
    import numpy as np

    algebra, realization = lm.build_H(2)
    frame = lm.Frame.build(algebra, realization)
    construction = lm.first_construction(algebra, realization, "H")
    points = lm.sample_points(realization, 100, seed=seed, scale=1.0)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    passed = True
    for _ in range(20):
        polys = [lm.random_polynomial(len(construction.family), rng, max_degree=3)
                 for _ in range(2)]
        family = [lm.holomorphic_post(q, construction.family) for q in polys]
        report = lm.verify_family(family, points, frame, tol=1e-7)
        passed &= report.passed
        worst = max(worst, report.worst)
    return (0 if passed else 1), f"worst residual {worst:.3e}"


def _bench(name):
    return f"benchmarks/configs/{name}.json"


def _shipped(name):
    return f"configs/{name}.json"


WORKLOADS = {
    # Many cheap points on small algebras: jets.verify_family dominates.
    "family_points": (
        Job("verify_family_N4", "verify-family", _shipped("verify_family_N4"), families=1),
        Job("verify_family_N5", "verify-family", _bench("verify_family_N5"), families=1),
        Job("verify_family_H2", "verify-family", _bench("verify_family_H2"), families=1),
        Job("verify_family_S3", "verify-family", _bench("verify_family_S3"), families=1),
        Job("verify_family_K4", "verify-family", _bench("verify_family_K4"), families=1),
        Job("h2_post_compositions", library=h2_post_compositions, families=20, points=100),
    ),
    # Few points on large algebras, plus a failing verdict: the structure
    # layers (algebra, groups.build_*, koszul, first_construction) dominate.
    "structure_dims": (
        Job("check_algebra_N10", "check-algebra", _bench("check_algebra_N10")),
        Job("check_algebra_S8", "check-algebra", _bench("check_algebra_S8")),
        Job("verify_family_N10", "verify-family", _bench("verify_family_N10"), families=1),
        Job("verify_family_S8", "verify-family", _bench("verify_family_S8"), families=1),
        Job("curvature_N6", "curvature", _bench("curvature_N6")),
        Job("check_algebra_bad_jacobi", "check-algebra",
            _shipped("check_algebra_inline_bad_jacobi"), expect_exit=1),
    ),
    # Three-dimensional geometry without jets: foliations.scan_3d dominates.
    "foliation_scan": (
        Job("foliation_scan_G3", "foliation-scan", _shipped("foliation_scan_G3")),
        Job("foliation_scan_G_alpha_1", "foliation-scan", _shipped("foliation_scan_G_alpha")),
        Job("foliation_scan_G_alpha_0.5", "foliation-scan", _bench("foliation_scan_G_alpha_0.5")),
        Job("foliation_scan_G_alpha_2", "foliation-scan", _bench("foliation_scan_G_alpha_2")),
        Job("curvature_G3", "curvature", _shipped("curvature_G3")),
        Job("curvature_G_alpha_1", "curvature", _bench("curvature_G_alpha_1")),
        Job("curvature_damek_ricci", "curvature", _bench("curvature_damek_ricci")),
        Job("second_construction_damek_ricci", "second-construction",
            _shipped("second_construction_damek_ricci")),
        Job("second_construction_iwasawa", "second-construction",
            _shipped("second_construction_iwasawa_rank_one")),
        Job("second_construction_damek_ricci_2000", "second-construction",
            _bench("second_construction_damek_ricci_2000")),
    ),
}

# The calibration kernel of each workload (calibrate.KERNELS): the one whose
# operation mix tracked the workload's jobs best over fast and slow host states.
CALIBRATION = {"family_points": "objects", "structure_dims": "mixed", "foliation_scan": "mixed"}
