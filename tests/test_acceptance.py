"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the package defaults.
"""

import json

import numpy as np

import liemorph as lm
from liemorph.cli import main as cli_main
from liemorph.constructions import (damek_ricci_root_graded, first_construction,
                                    second_construction_check)
from liemorph.errors import StructureError
from liemorph.foliations import (DistributionSpec, classify,
                                 constant_curvature_certificate, scan_3d)
from liemorph.geometry import (curvature, gl_connection_term, koszul,
                               random_planes, sectional)
from liemorph.groups import sample_points
from liemorph.jets import (Frame, derivs, fd_check, holomorphic_post,
                           kappa_matrix, laplacian_values, log_diag,
                           matrix_entry, random_polynomial, verify_family)


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def closed_form_kappa(p, i, j, k, l):
    if j != l:
        return 0.0
    return float(sum(p[i, r] * p[k, r] for r in range(max(i, k), l)))


def test_criterion_1_closed_form_oracle():
    """kappa(x_ij, x_kl) matches the closed form and tau(x_ij) = 0 on N_n."""
    worst_kappa = 0.0
    worst_tau = 0.0
    for n in (3, 4, 5, 6):
        alg, real = lm.build_N(n)
        frame = Frame.build(alg, real)
        entries = [(i, j) for i in range(n) for j in range(i + 1, n)]
        fields = [matrix_entry(i, j) for i, j in entries]
        for p in sample_points(real, 50, seed=1000 + n, scale=1.0):
            km = kappa_matrix(fields, p, frame).real
            worst_tau = max(worst_tau, float(np.abs(laplacian_values(fields, p, frame)).max()))
            for a, (i, j) in enumerate(entries):
                for b, (k, l) in enumerate(entries):
                    worst_kappa = max(worst_kappa,
                                      abs(km[a, b] - closed_form_kappa(p, i, j, k, l)))
    ok = worst_kappa < 1e-9 and worst_tau < 1e-9
    report("criterion 1: closed-form kappa/tau oracle on N_3..N_6", ok,
           f"kappa {worst_kappa:.2e}, tau {worst_tau:.2e}")


def test_criterion_2_superdiagonal_components():
    """The N_n epimorphism components satisfy kappa = delta and tau = 0."""
    worst = 0.0
    for n in (3, 4, 5):
        alg, real = lm.build_N(n)
        frame = Frame.build(alg, real)
        fc = first_construction(alg, real, "N")
        eye = np.eye(n - 1)
        for p in sample_points(real, 100, seed=2000 + n, scale=1.0):
            km = kappa_matrix(fc.phi, p, frame).real
            worst = max(worst, float(np.abs(km - eye).max()))
            worst = max(worst, float(np.abs(laplacian_values(fc.phi, p, frame)).max()))
    report("criterion 2: N_n components are an orthonormal harmonic system",
           worst < 1e-9, f"worst {worst:.2e}")


def test_criterion_3_solvable_group_families():
    """xi on S_n is exactly ((n+1)-2, ..., (n+1)-2n); families verify."""
    ok = True
    details = []
    for n in (3, 4, 5):
        alg, real = lm.build_S(n)
        fc = first_construction(alg, real, "S")
        expected = [float(n + 1 - 2 * t) for t in range(1, n + 1)]
        ok &= list(fc.xi) == expected
        ok &= fc.real_dim >= 2
        frame = Frame.build(alg, real)
        pts = sample_points(real, 100, seed=3000 + n, scale=1.0)
        rep = verify_family(fc.family, pts, frame, tol=1e-8)
        ok &= rep.passed
        details.append(f"S_{n}: dimC {fc.complex_dim}, worst {rep.worst:.2e}")
    report("criterion 3: S_n obstruction vector and restricted families", ok,
           "; ".join(details))


def test_criterion_4_nilpotent_traces_and_small_maps():
    """trace ad = 0 exactly on the nilpotent algebras; the 3-d Heisenberg map
    x + iy and the one-generator map sqrt(n-1) x + i y_n verify."""
    rng = np.random.default_rng(4100)
    ok = True
    for builder in (lm.build_N(4), lm.build_H(2), lm.build_K(4)):
        alg, _ = builder
        for _ in range(20):
            ok &= alg.ad_trace(rng.standard_normal(alg.dim)) == 0.0
    worst = 0.0
    for (alg, real), kind in ((lm.build_H(1), "H"), (lm.build_K(4), "K"),
                              (lm.build_K(3), "K")):
        frame = Frame.build(alg, real)
        fc = first_construction(alg, real, kind)
        pts = sample_points(real, 100, seed=4200, scale=1.0)
        rep = verify_family(fc.family, pts, frame, tol=1e-8)
        ok &= rep.passed
        worst = max(worst, rep.worst)
    report("criterion 4: nilpotent traces vanish; H_1 and K_n maps verify",
           ok, f"family worst {worst:.2e}")


def test_criterion_5_holomorphic_post_compositions():
    """20 random polynomial post-compositions of the H_2 family pass at 1e-7."""
    alg, real = lm.build_H(2)
    frame = Frame.build(alg, real)
    fc = first_construction(alg, real, "H")
    pts = sample_points(real, 100, seed=5000, scale=1.0)
    rng = np.random.default_rng(5001)
    worst = 0.0
    for _ in range(20):
        polys = [random_polynomial(len(fc.family), rng, max_degree=3) for _ in range(2)]
        fam = [holomorphic_post(q, fc.family) for q in polys]
        rep = verify_family(fam, pts, frame, tol=1e-7)
        worst = max(worst, rep.worst)
    report("criterion 5: random holomorphic post-compositions stay harmonic",
           worst < 1e-7, f"worst {worst:.2e}")


def test_criterion_6_second_construction():
    """Damek-Ricci dilation e^{2 beta(V)}, minimal identity fibre, z-root rejected."""
    graded = damek_ricci_root_graded(2, 1)
    rng = np.random.default_rng(6000)
    samples = [rng.uniform(-2.0, 2.0, 1) @ graded.a_space.basis for _ in range(20)]
    rep = second_construction_check(graded, samples)
    by_name = {c.name: c for c in rep}
    dil = by_name["dilation_matches_exp_2beta"].residual
    minim = by_name["identity_fibre_mean_curvature"].residual
    try:
        damek_ricci_root_graded(2, 1, beta_root="z")
        rejected = False
    except StructureError as exc:
        rejected = "beta_orthogonal_to_derived_n" in str(exc)
    ok = dil < 1e-9 and minim < 1e-10 and rejected
    report("criterion 6: quotient-map dilation and minimality; z-root rejected",
           ok, f"dilation {dil:.2e}, minimality {minim:.2e}")


def test_criterion_7_constant_curvature_values():
    """Sectional curvature of the rotation-scaling groups is -alpha^2."""
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.0, 1.0):
            alg, _ = lm.build_G3(alpha, beta)
            r = curvature(koszul(alg))
            for x, y in random_planes(3, 200, seed=7000):
                worst = max(worst, abs(sectional(r, x, y) + alpha * alpha))
    report("criterion 7: sectional curvature equals -alpha^2 on all G3 builders",
           worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_8_foliation_pipeline():
    """Scan finds the e_1 foliation on G3, nothing on g_alpha; s_2 center is
    a Riemannian foliation by geodesics."""
    ok = True
    details = []
    alg, _ = lm.build_G3(1.0, 0.5)
    res = scan_3d(alg)
    hit = next((h for h in res.hits if abs(abs(h.vector[0]) - 1.0) < 1e-6), None)
    ok &= hit is not None
    if hit:
        ok &= abs(hit.alpha - 1.0) < 1e-8 and abs(hit.beta - 0.5) < 1e-8
        cert = constant_curvature_certificate(alg, hit.vector)
        ok &= cert.passed
        details.append(f"G3 hit alpha {hit.alpha:.9f} beta {hit.beta:.9f}")
    for alpha in (0.5, 1.0, 2.0):
        alg, _ = lm.build_Galpha(alpha)
        res = scan_3d(alg)
        ok &= res.hits == [] and res.min_residual > 1e-3
        details.append(f"g_{alpha}: floor {res.min_residual:.3f}")
    alg, _ = lm.build_S(2)
    centre = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    flags = classify(DistributionSpec(alg, lm.span([centre], 3))).flags()
    ok &= flags["riemannian"] and flags["totally_geodesic"]
    report("criterion 8: 3-d scan pipeline", ok, "; ".join(details))


def test_criterion_9_numerics_cross_validation():
    """Finite differences agree with jets; connection tables satisfy their
    invariants; the trace-metric shortcut matches the Koszul table."""
    rng = np.random.default_rng(9000)
    cases = [lm.build_N(4), lm.build_S(3), lm.build_H(2), lm.build_K(4),
             lm.build_G3(1.0, 0.5)]
    triples = 0
    worst_fd = 0.0
    while triples < 200:
        alg, real = cases[triples % len(cases)]
        (p,) = sample_points(real, 1, seed=9100 + triples, scale=0.8)
        n = real.ambient
        choice = triples % 3
        if choice == 0:
            f = matrix_entry(int(rng.integers(n)), int(rng.integers(n)))
        elif choice == 1:
            f = matrix_entry(0, n - 1)
        else:
            f = log_diag(int(rng.integers(n))) if np.all(np.diag(p) > 0) \
                else matrix_entry(0, 1)
        x = rng.uniform(-1.0, 1.0, alg.dim)
        d = derivs(f, p, x, real)
        fd = fd_check(f, p, x, real)
        for a, b in zip(d, fd):
            worst_fd = max(worst_fd, abs(a - b) / max(1.0, abs(a), abs(b)))
        triples += 1

    worst_conn = 0.0
    builders = {"N3": lm.build_N(3), "N4": lm.build_N(4), "H1": lm.build_H(1),
                "H2": lm.build_H(2), "K3": lm.build_K(3), "K4": lm.build_K(4),
                "S2": lm.build_S(2), "S3": lm.build_S(3),
                "G3": lm.build_G3(1.0, 0.5), "Ga": lm.build_Galpha(1.0),
                "DR": lm.build_damek_ricci(2, 1)}
    worst_gl = 0.0
    for name, (alg, real) in builders.items():
        table = koszul(alg)
        worst_conn = max(worst_conn, max(table.invariant_residuals().values()))
        if real is None:
            continue
        try:
            for a, row in enumerate(table.onb):
                diff = gl_connection_term(real, row) - table.to_algebra_coords(table.gamma[a, a])
                worst_gl = max(worst_gl, float(np.abs(diff).max()))
        except StructureError:
            pass  # gram differs from the trace metric; shortcut not applicable
    ok = worst_fd < 1e-6 and worst_conn < 1e-10 and worst_gl < 1e-10
    report("criterion 9: numerics cross-validation", ok,
           f"fd {worst_fd:.2e}, connection {worst_conn:.2e}, gl {worst_gl:.2e}")


def test_criterion_10_deterministic_reports(tmp_path):
    """Two runs of the job suite produce byte-identical reports modulo wall time."""
    jobs = [
        ("verify-family", {"builtin": {"name": "N", "params": {"n": 4}},
                           "sampling": {"count": 100, "seed": 7}}),
        ("check-algebra", {"builtin": {"name": "H", "params": {"n": 2}},
                           "sampling": {"seed": 7}}),
        ("second-construction", {"builtin": {"name": "damek_ricci",
                                             "params": {"dim_v": 2, "dim_z": 1}},
                                 "sampling": {"count": 20, "seed": 7, "scale": 2.0}}),
        ("curvature", {"builtin": {"name": "G3", "params": {"alpha": 1.0, "beta": 0.5}},
                       "sampling": {"seed": 7},
                       "options": {"planes": 200, "expect_constant": True,
                                   "expect_value": -1.0}}),
    ]
    ok = True
    for i, (kind, payload) in enumerate(jobs):
        payload = dict(payload, kind=kind, out=str(tmp_path / f"r{i}.json"))
        cfg = tmp_path / f"job{i}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        bodies = []
        for _ in range(2):
            code = cli_main([kind, "--config", str(cfg)])
            ok &= code == 0
            raw = (tmp_path / f"r{i}.json").read_bytes()
            bodies.append(b"\n".join(ln for ln in raw.splitlines()
                                     if b"wall_time_s" not in ln))
        ok &= bodies[0] == bodies[1]
    report("criterion 10: byte-identical reports modulo wall time", ok)
