"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) and then asserts every sub-check.
"""
import json
import time

import numpy as np

import hardylab as hl
from hardylab import cli
from hardylab.sequences import _default_starts, _power_iteration_lq
from conftest import factorization_error, interior_panel


def _criterion(number: int, label: str, checks):
    ok = all(bool(c) for c, _ in checks)
    detail = "; ".join(d for _, d in checks)
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    failed = [d for c, d in checks if not c]
    assert ok, f"criterion {number} failed: {failed}"


def _random_interior(dom, count, rmax, seed):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        v = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
        scale = np.max(np.abs(v)) if dom.kind == hl.BIDISC else np.linalg.norm(v)
        pts.append(rmax * rng.uniform(0.1, 1.0) ** 0.5 * v / scale)
    return pts


def _monomial_residuals(dom, rule, a, max_degree=8):
    """max over monomials of degree <= max_degree of |<f, k_a> - f(a)|."""
    u = rule.weights * np.conj(hl.kernel_matrix([a], rule.nodes, dom)[0])
    worst = 0.0
    if dom.n == 1:
        z = rule.nodes[:, 0]
        t = u.copy()
        for k in range(max_degree + 1):
            worst = max(worst, abs(t.sum() - a[0] ** k))
            if k < max_degree:
                t *= z
    else:
        z1, z2 = rule.nodes[:, 0], rule.nodes[:, 1]
        ti = u.copy()
        for i in range(max_degree + 1):
            t = ti.copy()
            for j in range(max_degree + 1 - i):
                worst = max(worst, abs(t.sum() - a[0] ** i * a[1] ** j))
                if j < max_degree - i:
                    t *= z2
            if i < max_degree:
                ti *= z1
    return worst


def test_criterion_01_reproducing_property():
    t0 = time.perf_counter()
    setups = [
        (hl.Domain(hl.DISC), hl.build_quadrature(hl.Domain(hl.DISC), 1024)),
        (hl.Domain(hl.BALL2), hl.build_quadrature(hl.Domain(hl.BALL2), 16, angular=256)),
        (hl.Domain(hl.BIDISC), hl.build_quadrature(hl.Domain(hl.BIDISC), 256)),
    ]
    worst = {}
    for dom, rule in setups:
        worst[dom.kind] = max(
            _monomial_residuals(dom, rule, dom.point(a))
            for a in _random_interior(dom, 25, 0.9, seed=101)
        )
    elapsed = time.perf_counter() - t0
    _criterion(1, "reproducing property", [
        *[(worst[k] < 1e-8, f"{k} worst residual {worst[k]:.2e}") for k in worst],
        (elapsed < 30.0, f"runtime {elapsed:.1f}s < 30s"),
    ])


def test_criterion_02_closed_form_identities():
    checks = []
    for kind in (hl.DISC, hl.BALL2, hl.BIDISC):
        dom = hl.Domain(kind)
        cache = hl.NormCache(dom)
        rel = 0.0
        for a in _random_interior(dom, 8, 0.9, seed=7) + [dom.point([0.9] + [0.0] * (dom.n - 1))]:
            a = dom.point(a)
            diag = hl.kernel_matrix([a], [a], dom)[0, 0].real
            rel = max(rel, abs(cache.norm(a, 2.0) ** 2 - diag) / diag)
        checks.append((rel < 1e-10, f"{kind} ||k||_2^2 vs k_a(a) rel {rel:.2e}"))
    rule = hl.build_quadrature(hl.Domain(hl.BALL2), 16)
    moment = hl.rule_power(rule.nodes[:, 0], rule.weights, 4.0)
    checks.append((abs(moment - 1.0 / 3.0) < 1e-12, f"ball moment err {abs(moment - 1/3):.2e}"))
    _criterion(2, "closed-form identities", checks)


def test_criterion_03_structural_hypothesis_scans():
    disc = hl.Domain(hl.DISC)
    cache = hl.NormCache(disc)
    grid = [np.array([r], dtype=complex) for r in np.linspace(0.0, 0.95, 21)]
    scan2 = hl.sh_q_scan(disc, 2.0, grid, cache)
    q2_dev = max(abs(r - 1.0) for _, r in scan2.ratios)
    checks = [(q2_dev <= 1e-10, f"q=2 ratios within {q2_dev:.2e} of 1")]
    for q in (4.0 / 3.0, 4.0):
        scan = hl.sh_q_scan(disc, q, grid, cache)
        over = max(r for _, r in scan.ratios)
        checks.append((over <= 1.0 + 1e-10, f"q={q:.3g} Hoelder side max {over:.12f}"))
        checks.append((scan.extremum > 0.0, f"q={q:.3g} alpha-hat {scan.extremum:.6f} > 0"))
        checks.append((scan.worst_residual < 1e-8,
                       f"q={q:.3g} convergence residual {scan.worst_residual:.2e}"))
    _criterion(3, "structural-hypothesis scans", checks)


def test_criterion_04_khintchine_exact():
    rng = np.random.default_rng(23)
    dev = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dev = max(dev, abs(hl.khintchine_ratio(x, 2.0)[0] - 1.0))
    pair, _ = hl.khintchine_ratio(np.array([1.0, 1.0]), 4.0)
    _criterion(4, "Khintchine ratios", [
        (dev <= 1e-12, f"q=2 max deviation {dev:.2e} over 100 vectors"),
        (abs(pair - 2.0) <= 1e-12, f"(1,1) at q=4 -> {pair}"),
    ])


def test_criterion_05_extension_correctness():
    t0 = time.perf_counter()
    disc = hl.Domain(hl.DISC)
    pts = [0.0, 0.62, -0.62, 0.62j, -0.62j, 0.9]
    seq = hl.PointSequence.create(disc, pts)
    min_sep = min(hl.gleason_distance(seq[i], seq[j], disc)
                  for i in range(6) for j in range(i + 1, 6))
    rule = hl.build_quadrature(disc, 1024)
    dual = hl.dual_system(seq, 2.0, "gram2")
    rng = np.random.default_rng(55)
    nu = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    h, rep = hl.build_extension(dual, nu, 1.0, rule)

    nu2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    h2, _ = hl.build_extension(dual, nu2, 1.0, rule)
    h12, _ = hl.build_extension(dual, nu + nu2, 1.0, rule)
    hs, _ = hl.build_extension(dual, (1.5 - 0.5j) * nu, 1.0, rule)
    panel = interior_panel(disc, 20, 99)
    v1, v2 = h(panel), h2(panel)
    scale = np.max(np.abs(v1)) + np.max(np.abs(v2))
    lin_gap = np.max(np.abs(h12(panel) - v1 - v2)) / scale
    hom_gap = np.max(np.abs(hs(panel) - (1.5 - 0.5j) * v1)) / scale

    # the Hoelder chain is asserted inside verify_norm_bound at slack 1e-8
    vrep = hl.verify_norm_bound(dual, 1.0, rule, batch=16, seed=5)
    elapsed = time.perf_counter() - t0
    _criterion(5, "extension correctness", [
        (min_sep >= 0.5, f"gleason separation {min_sep:.3f} >= 0.5"),
        (rep.max_rel_residual < 1e-8, f"interpolation residual {rep.max_rel_residual:.2e}"),
        (lin_gap < 1e-10, f"additivity {lin_gap:.2e}"),
        (hom_gap < 1e-10, f"homogeneity {hom_gap:.2e}"),
        (vrep.details["worst_chain_margin"] >= -1e-8,
         f"Hoelder chain margin {vrep.details['worst_chain_margin']:.2e}"),
        (elapsed < 60.0, f"runtime {elapsed:.1f}s < 60s"),
    ])


def test_criterion_06_factorization_identity():
    disc = hl.Domain(hl.DISC)
    pts = (0.8 * np.arange(1, 11) / 10.0 * np.exp(2.39996j * np.arange(1, 11))).tolist()
    seq = hl.PointSequence.create(disc, pts)
    rule = hl.build_quadrature(disc, 512)
    dual = hl.dual_system(seq, 2.0, "gram2")
    rng = np.random.default_rng(6)
    nu = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    err = factorization_error(dual, nu, 1.0, rule)
    _criterion(6, "randomized factorization identity", [
        (err < 1e-10, f"N=10, all 2^10 sign patterns, 40 points, max relative error {err:.2e}"),
    ])


def test_criterion_07_dual_systems():
    disc = hl.Domain(hl.DISC)
    ring = hl.PointSequence.create(disc, list(0.8 * np.exp(2j * np.pi * np.arange(20) / 20)))
    disc_dual = hl.dual_system(ring, 2.0, "gram2")

    ball = hl.Domain(hl.BALL2)
    pb = []
    for m in range(20):
        psi = np.pi / 2 * ((m % 4) + 0.5) / 4
        pb.append([0.75 * np.cos(psi) * np.exp(0.3j * np.pi * m),
                   0.75 * np.sin(psi) * np.exp(0.7j * np.pi * m)])
    ball_seq = hl.PointSequence.create(ball, pb)
    ball_dual = hl.dual_system(ball_seq, 2.0, "gram2")

    pts = [0.0, 0.5, 0.8j, -0.4]
    seq = hl.PointSequence.create(disc, pts)
    bl = hl.dual_system(seq, np.inf, "blaschke")
    rule = hl.build_quadrature(disc, 1024)
    sup_gap = 0.0
    rho = bl.values(rule.nodes)
    for i in range(len(seq)):
        node_sup = np.max(np.abs(rho[i]))
        prod = 1.0
        for j in range(len(seq)):
            if j != i:
                prod *= hl.gleason_distance(seq[i], seq[j], disc)
        sup_gap = max(sup_gap, abs(node_sup - 1.0 / prod) / (1.0 / prod))
    _criterion(7, "dual systems", [
        (disc_dual.delta_residual() < 1e-9,
         f"disc N=20 gram delta {disc_dual.delta_residual():.2e}"),
        (ball_dual.delta_residual() < 1e-9,
         f"ball N=20 gram delta {ball_dual.delta_residual():.2e}"),
        (bl.delta_residual() < 1e-12, f"Blaschke delta {bl.delta_residual():.2e}"),
        (sup_gap < 1e-3, f"Blaschke sup vs 1/|B_a(a)| gap {sup_gap:.2e}"),
    ])


def test_criterion_08_carleson_consistency():
    disc = hl.Domain(hl.DISC)
    rule = hl.build_quadrature(disc, 512)
    single = hl.PointSequence.create(disc, [0.6j])
    checks = []
    converged = True
    for q in (1.0, 2.0, 4.0):
        rep = hl.carleson_constant(single, q, rule, seed=0)
        checks.append((abs(rep.d_q - 1.0) < 1e-12, f"single-point D_{q:g} = {rep.d_q:.14f}"))
        converged = converged and rep.details.get("converged", True)
    rng = np.random.default_rng(31)
    gap = 0.0
    weak_worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 7))
        pts = []
        while len(pts) < n:
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            if abs(z) < 0.85 and all(abs(z - w) > 0.05 for w in pts):
                pts.append(z)
        seq = hl.PointSequence.create(disc, pts)
        spectral = hl.carleson_constant(seq, 2.0, rule)
        power, _, _, power_converged = _power_iteration_lq(
            hl.normalized_kernel_matrix(seq, 2.0, rule), rule.weights, 2.0,
            _default_starts(len(seq), 8, trial), 5000)
        gap = max(gap, spectral.d_q - power)
        converged = converged and all(power_converged)
        weak_worst = max(weak_worst, hl.weak_carleson_constant(seq, 2.0, rule).weak_d_q)
    checks.append((gap < 1e-8, f"q=2 power-iteration within {gap:.2e} of spectral"))
    checks.append((weak_worst <= 1.0 + 1e-10, f"weak 2-Carleson max {weak_worst:.12f}"))
    checks.append((converged, "every power iteration stopped on its rtol test"))
    _criterion(8, "Carleson consistency", checks)


def test_criterion_09_p_le_2_expectation_bound():
    # verify_norm_bound asserts on every target: l2 <= lp at every node (slack
    # 1e-12), E||f||_p^p <= K_f sum_a |x_a|^p ||rho_a||_p^p (slack 1e-8) and,
    # at p = 2, the orthogonality identity within 1e-10; returning is passing
    disc = hl.Domain(hl.DISC)
    rule = hl.build_quadrature(disc, 512)
    seq = hl.PointSequence.create(disc, [0.6, -0.6])
    rep2 = hl.verify_norm_bound(hl.dual_system(seq, 2.0, "gram2"), 1.0, rule, batch=8, seed=9)
    rep15 = hl.verify_norm_bound(hl.dual_system(seq, 1.5, "collocation"), 1.0, rule,
                                 batch=8, seed=9)
    k2, k15 = rep2.details["khintchine_factor_f"], rep15.details["khintchine_factor_f"]
    _criterion(9, "p <= 2 expectation bound", [
        (abs(k2 - 1.0) <= 1e-12, f"p=2, {rep2.details['targets_tested']} targets: "
                                 f"K_f - 1 = {k2 - 1.0:.2e} (orthogonality at every node)"),
        (k15 <= 1.0 + 1e-12, f"p=1.5, {rep15.details['targets_tested']} targets: "
                             f"K_f = {k15:.15f} <= 1 (Jensen)"),
    ])


def test_criterion_10_inf_route():
    disc = hl.Domain(hl.DISC)
    rule = hl.build_quadrature(disc, 512)
    seq = hl.PointSequence.create(disc, [0.0, 0.5, 0.8j])
    dinf = hl.dual_system(seq, np.inf, "blaschke")
    weak = hl.weak_carleson_constant(seq, 2.0, rule)
    out = hl.dual_expectation_bound_infty(dinf, 2.0, np.array([1.0, 1.0, 1.0]), rule,
                                          weak_d=weak.weak_d_q)
    kp = hl.normalized_kernel_matrix(seq, 2.0, rule)
    norm_gap = 0.0
    rho = dinf.values(rule.nodes)
    for i in range(3):
        rho_p = rho[i] * kp[:, i]
        norm_p = float(np.sum(rule.weights * np.abs(rho_p) ** 2) ** 0.5)
        norm_gap = max(norm_gap, norm_p / out["per_point_sup"][i])
    _criterion(10, "p = inf dual route", [
        (norm_gap <= 1.0 + 1e-8, f"||rho_a k_pa||_p <= sup budget (ratio {norm_gap:.6f})"),
        (out["ratio"] <= out["budget"] * (1 + 1e-8),
         f"expectation ratio {out['ratio']:.4f} <= measured budget {out['budget']:.4f}"),
    ])


def test_criterion_11_subordination():
    spec = hl.BergmanSpec(radial=48, angular=128)
    ball = hl.Domain(hl.BALL2)
    rule = hl.build_quadrature(ball, 24, angular=96)
    worst = 0.0
    for m in range(0, 7):
        a_side = hl.bergman_norm(lambda zs, m=m: zs[:, 0] ** m, 2.0, spec) ** 2
        # the lift of z^m to the ball of C^2 is z_1^m
        h_side = hl.rule_power(rule.nodes[:, 0] ** m, rule.weights, 2.0)
        oracle = 1.0 / (m + 1)
        worst = max(worst, abs(a_side - oracle), abs(h_side - oracle), abs(a_side - h_side))
    rng = np.random.default_rng(77)
    contraction_ok = True
    for _ in range(10):
        coeffs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

        def F(zs, coeffs=coeffs):
            out = np.zeros(zs.shape[0], dtype=complex)
            for i in range(3):
                for j in range(3):
                    out += coeffs[i, j] * zs[:, 0] ** i * zs[:, 1] ** j
            return out

        h_norm = hl.rule_norm(F(rule.nodes), rule.weights, 2.0)
        a_norm = hl.bergman_norm(hl.restrict(F), 2.0, spec)
        contraction_ok = contraction_ok and a_norm <= h_norm * (1.0 + 1e-8)
    _criterion(11, "subordination", [
        (worst < 1e-10, f"monomial norm identities within {worst:.2e} for m <= 6"),
        (contraction_ok, "restriction contraction on 10-polynomial panel"),
    ])


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": "disc",
        "points": [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.6]],
        "s": 1, "p": 2, "dual_method": "gram2",
        "batch": 8, "seed": 7, "resolution": 512,
    }))
    texts = []
    for name in ("r1", "r2"):
        assert cli.main(["extend", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        raw = (tmp_path / name / "extend.json").read_text()
        texts.append("\n".join(ln for ln in raw.splitlines() if "wall_clock_s" not in ln))
    _criterion(12, "determinism", [
        (texts[0] == texts[1], "double run byte-identical after dropping the timing field"),
    ])
