import math

import numpy as np
import pytest

import hardylab as hl


@pytest.fixture(scope="session")
def disc():
    return hl.Domain(hl.DISC)


@pytest.fixture(scope="session")
def ball():
    return hl.Domain(hl.BALL2)


@pytest.fixture(scope="session")
def bidisc():
    return hl.Domain(hl.BIDISC)


@pytest.fixture(scope="session")
def disc_rule(disc):
    return hl.build_quadrature(disc, 1024)


@pytest.fixture(scope="session")
def ball_rule(ball):
    return hl.build_quadrature(ball, 16, angular=128)


@pytest.fixture(scope="session")
def bidisc_rule(bidisc):
    return hl.build_quadrature(bidisc, 256)


@pytest.fixture(scope="session")
def disc_norms(disc):
    return hl.NormCache(disc)


@pytest.fixture(scope="session")
def ball_norms(ball):
    return hl.NormCache(ball)


@pytest.fixture(scope="session")
def bidisc_norms(bidisc):
    return hl.NormCache(bidisc)


# (domain, dual method) pairs: Gram and collocation duals everywhere,
# Blaschke duals on the disc only
DUAL_CASES = [("disc", "gram2"), ("disc", "collocation"), ("disc", "blaschke"),
              ("ball2", "gram2"), ("ball2", "collocation"),
              ("bidisc", "gram2"), ("bidisc", "collocation")]


def interior_panel(dom, count: int, seed: int, rmax: float = 0.8) -> np.ndarray:
    """Deterministic batch of interior test points with radius <= rmax."""
    rng = np.random.default_rng(seed)
    pts = np.empty((count, dom.n), dtype=complex)
    for i in range(count):
        if dom.kind == hl.DISC:
            pts[i, 0] = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        elif dom.kind == hl.BALL2:
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = v / np.linalg.norm(v)
            pts[i] = rmax * rng.uniform() ** 0.25 * v
        else:
            for j in range(2):
                pts[i, j] = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return pts


def separated_points(dom, n, seed, sep=0.3):
    """Up to n seeded interior points, pairwise Gleason distance >= sep."""
    pts = []
    for z in interior_panel(dom, 50, seed, rmax=0.85):
        if all(hl.gleason_distance(z, w, dom) >= sep for w in pts):
            pts.append(z)
        if len(pts) == n:
            break
    return hl.PointSequence.create(dom, pts)


def sphere_moment(alpha1: int, alpha2: int) -> float:
    """Oracle: integral over the unit sphere of C^2 of |z1|^(2 a1) |z2|^(2 a2).

    Closed form (n-1)! a! / (n-1+|a|)! for n = 2.
    """
    return math.factorial(alpha1) * math.factorial(alpha2) / math.factorial(1 + alpha1 + alpha2)


def geometric_kernel_l2sq(r: float, tol: float = 1e-18) -> float:
    """Oracle: integral over the circle of |1 - r z|^{-2} as a geometric series."""
    total, term, k = 0.0, 1.0, 0
    while term > tol:
        total += term
        k += 1
        term = r ** (2 * k)
    return total


def disc_kernel_norm(r: float, p: float) -> float:
    """Closed forms on the disc: p = 2 and p = inf only."""
    if p == 2:
        return (1.0 - r * r) ** -0.5
    if p == np.inf:
        return 1.0 / (1.0 - r)
    raise ValueError("no closed form used for this exponent")


def lp_norm(values, rule, p: float) -> float:
    """L^p norm on ``rule`` of values sampled at its nodes (max |values| at p = inf)."""
    if p != np.inf and p < 1:
        raise hl.ParameterError("lp_norm requires p >= 1 or p = inf")
    return float(hl.rule_norm(values, rule.weights, p))


def kernel_norm(a, p: float, rule) -> float:
    """||k_a||_p sampled on ``rule``: the quadrature reference for the closed forms."""
    return lp_norm(hl.kernel_matrix([a], rule.nodes, rule.domain)[0], rule, p)


def inner_product(f, g, rule) -> complex:
    """<f, g> = integral of f conj(g) on ``rule``, for values sampled at its nodes."""
    return complex(np.sum(rule.weights * f * np.conj(g)))


def factorization_error(dual, nu, s: float, rule) -> float:
    """max over a fixed panel of |h - E[f(eps) g(eps)]| / (1 + |h|), with E taken
    exactly as the mean over all 2^N sign patterns.

    h is ``build_extension``'s evaluator; f(eps) = sum_a eps_a lambda_a c_a rho_a
    and g(eps) = sum_a eps_a mu_a k_{q,a} come from the split of nu.  The panel
    is 20 seeded interior points and 20 evenly spaced nodes of ``rule``.
    """
    n = len(dual.sequence)
    assert n <= 16, "the 2^N x 40 pattern products are held in memory at once"
    panel = np.vstack([interior_panel(dual.sequence.domain, 20, 2024),
                       rule.nodes[np.linspace(0, len(rule) - 1, 20, dtype=int)]])
    h_at = hl.build_extension(hl.chain_samples(dual, s, rule), nu)[0](panel)
    split = hl.split_target(nu, s, dual.p)
    rho, kq = hl.extension.chain_rows(dual, split.q, panel)
    f_rows = (split.lam * hl.coeff_c(dual, s).values)[:, None] * rho
    g_rows = split.mu[:, None] * kq
    eps = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    expectation = np.mean((eps @ f_rows) * (eps @ g_rows), axis=0)
    return float(np.max(np.abs(h_at - expectation) / (1.0 + np.abs(h_at))))


def reference_verify_norm_bound(samples, batch: int, seed: int) -> dict:
    """The figures of ``verify_norm_bound`` from a loop over its targets, one at a time.

    Each target's h is sampled on the whole rule and its f and g moments
    come from one-vector engine calls, with the checks in the same order;
    returns ``ci_estimate``, ``constant_budget`` and every figure of the
    details that depends on the moments.
    """
    dual, s, q, rule = samples.dual, samples.s, samples.q, samples.rule
    p, coeffs, n = dual.p, samples.coeffs, len(dual.sequence)
    w = rule.weights
    sup_rho = float(np.max(hl.rule_norm(samples.rho, w, p)))
    if p <= 2.0:
        rho_norms, rho_pow = hl.rule_power(samples.rho, w, p), np.abs(samples.rho) ** p
    rng = np.random.default_rng(seed)
    targets = [np.eye(n, dtype=complex)[i] for i in range(n)]
    for _ in range(batch):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        targets.append(v / hl.seq_norm(v, s))
    ci = khin_f = khin_g = weak = 0.0
    margin, patterns = np.inf, 0
    for nu in targets:
        split = hl.split_target(nu, s, p)
        h_norm = float(hl.rule_norm((split.nu * coeffs.values) @ samples.prod, w, s))
        ci = max(ci, h_norm / hl.seq_norm(nu, s))
        x = split.lam * coeffs.values
        f = hl.sign_moments(samples.rho, x, w, p)
        if p == np.inf:
            f_factor = float(np.max(f.nodes))
        else:
            f_factor = f.value ** (1.0 / p)
            k_f = f.khintchine_factor()
            khin_f = max(khin_f, k_f)
            if p <= 2.0:
                x_pow = np.abs(x) ** f.p
                l2, lp = f.square, x_pow @ rho_pow
                if f.p != 2.0:
                    l2, lp = np.sqrt(l2), lp ** (1.0 / f.p)
                assert not np.any(l2 > lp * (1.0 + 1e-12))
                diagonal = float(x_pow @ rho_norms)
                assert f.value <= k_f * diagonal * (1.0 + 1e-8)
                assert f.p != 2.0 or abs(f.value - diagonal) <= 1e-10 * diagonal
        g = hl.sign_moments(samples.kq, split.mu, w, q)
        patterns = max(patterns, f.patterns, g.patterns)
        bound = f_factor * g.value ** (1.0 / q)
        khin_g = max(khin_g, g.khintchine_factor())
        mu_norm = hl.seq_norm(split.mu, q)
        if mu_norm > 0:
            weak = max(weak, float(hl.rule_norm(g.square, w, q / 2.0)) / mu_norm**2)
        assert h_norm <= bound * (1.0 + 1e-8)
        margin = min(margin, (bound - h_norm) / max(bound, 1e-300))
    budget = None
    if p != np.inf and p <= 2.0:
        budget = (khin_f ** (1.0 / p) * coeffs.budget * sup_rho
                  * khin_g ** (1.0 / q) * np.sqrt(weak))
    return {"ci_estimate": ci, "constant_budget": budget, "sup_rho_p": sup_rho,
            "khintchine_factor_f": khin_f if p != np.inf else None,
            "khintchine_factor_g": khin_g, "weak_ratio_seen": weak,
            "worst_chain_margin": margin, "sign_patterns": patterns,
            "targets_tested": len(targets)}
