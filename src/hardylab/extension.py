"""Linear extension of finite interpolation targets.

Every step takes a dual system {rho_a}, which fixes the points a and the
exponent p and carries the kernel-norm cache that c_a, the targets and the
k_{q,a} are read from.  For a target nu in l^s with s < p, the extension is

    h = sum_a nu_a c_a rho_a k_{q,a},      1/s = 1/p + 1/q,

with coefficients c_a chosen so that h(a) = nu_a ||k_a||_{s'}.  The map
nu -> h is linear by construction.  The norm control goes through the
randomized factorization h = E[f g] with Bernoulli signs,

    f(eps) = sum_a lambda_a c_a eps_a rho_a,
    g(eps) = sum_a mu_a eps_a k_{q,a},     nu_a = lambda_a mu_a,

and the generalized Hoelder inequality on the product of the boundary
measure with the sign space.  The identity itself holds because
E[eps_j eps_k] = delta_jk; the test suite checks it by enumerating every
sign pattern.  Every sign expectation of the chain comes from the exact
engine ``signs.sign_moments``, so each step is a finite inequality,
asserted here up to rounding; ``verify_norm_bound`` is the one place that
checks it, the p <= 2 dual factor included.  Constants the theory leaves
implicit (Khintchine factors, structural-hypothesis extrema) are measured
per instance and reported, never hard-coded.

Every check here works on (N, M) sample matrices from
``DualSystem.values`` and ``kernel_matrix``; the one evaluator returned is
h itself, a vectorized zs (M, n) -> (M,) that the Bergman lift needs at
interior points.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InvariantViolation, ParameterError
from .geometry import QuadratureRule, rule_norm, rule_power, seq_norm
from .kernels import (INF, conjugate_exponent, exponent_from_split, kernel_matrix, sh_ps_scan,
                      sh_q_scan)
from .sequences import DualSystem, PointSequence, _weak_ratio, normalized_kernel_matrix
from .signs import SignMoments, sign_moments

_CHAIN_SLACK = 1e-8


# ---------------------------------------------------------------------------
# target splitting


@dataclass
class SplitData:
    """nu = lambda * mu with |mu| = |nu|^{s/q} and lambda carrying the phase."""

    nu: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    s: float
    p: float
    q: float

    def __post_init__(self):
        self.nu = np.asarray(self.nu, dtype=complex)
        self.lam = np.asarray(self.lam, dtype=complex)
        self.mu = np.asarray(self.mu, dtype=float)
        inv_p = 0.0 if self.p == INF else 1.0 / self.p
        if abs(1.0 / self.s - inv_p - 1.0 / self.q) > 1e-15:
            raise ParameterError("split exponents must satisfy 1/s = 1/p + 1/q")
        scale = float(np.max(np.abs(self.nu))) if self.nu.size else 0.0
        if scale > 0 and float(np.max(np.abs(self.nu - self.lam * self.mu))) > 1e-12 * scale:
            raise InvariantViolation("split does not factor the target")
        ns, nl, nm = seq_norm(self.nu, self.s), seq_norm(self.lam, self.p), seq_norm(self.mu, self.q)
        if abs(ns - nl * nm) > 1e-12 * max(ns, 1e-300):
            raise InvariantViolation("norm identity ||nu||_s = ||lambda||_p ||mu||_q failed")


def split_target(nu, s: float, p: float) -> SplitData:
    """Split an l^s target into l^p and l^q parts along 1/s = 1/p + 1/q.

    mu_a = |nu_a|^{s/q} and lambda_a = nu_a / mu_a (zero where nu_a is),
    which keeps nu = lambda * mu exact to rounding; for p = inf this gives
    q = s, unimodular lambda on the support, and mu = |nu|.
    """
    q = exponent_from_split(s, p)
    nu = np.asarray(nu, dtype=complex)
    mu = np.abs(nu) ** (s / q)
    lam = np.zeros_like(nu)
    support = mu > 0
    lam[support] = nu[support] / mu[support]
    return SplitData(nu, lam, mu, float(s), float(p) if p != INF else INF, q)


# ---------------------------------------------------------------------------
# extension coefficients


@dataclass
class ExtensionCoeffs:
    """Per-point coefficients c_a with the structural-constant budget.

    ``values`` are scaled to the dual system's own normalization;
    ``paper_values`` divide that normalization out to ||k_a||_{p'}, which
    is the form the budget alpha^{-1} beta controls.
    """

    values: np.ndarray
    paper_values: np.ndarray
    alpha_hat: float
    beta_hat: float

    @property
    def budget(self) -> float:
        return self.beta_hat / self.alpha_hat

    @property
    def within_budget(self) -> bool:
        return bool(np.max(self.paper_values) <= self.budget * (1.0 + 1e-8))

    def to_json(self) -> dict:
        return {
            "values": self.values.tolist(),
            "alpha_hat": self.alpha_hat,
            "beta_hat": self.beta_hat,
            "budget": self.budget,
            "within_budget": self.within_budget,
        }


def coeff_c(dual: DualSystem, s: float) -> ExtensionCoeffs:
    """c_a = ||k_a||_{s'} ||k_a||_q / (scale_a k_a(a)) with the dual's scales, 1/s = 1/p + 1/q.

    alpha-hat and beta-hat are the ``sh_q_scan`` and ``sh_ps_scan`` extrema
    over the sequence points themselves, and c_a is the beta-ratio at a over
    the alpha-ratio at a, so a c_a past the budget is an InvariantViolation.
    """
    seq, norms = dual.sequence, dual.norms
    q = exponent_from_split(s, dual.p)
    sc, pc = conjugate_exponent(s), conjugate_exponent(dual.p)
    diag = np.diagonal(kernel_matrix(seq.arrays(), seq.arrays(), seq.domain)).real
    if np.any(diag <= 0):
        raise ParameterError("kernel diagonal must be positive")
    points = [seq[i] for i in range(len(seq))]
    top = np.array([norms.norm(a, sc) * norms.norm(a, q) for a in points])
    values = top / (dual.scales * diag)
    paper = top / (np.array([norms.norm(a, pc) for a in points]) * diag)
    alpha = sh_q_scan(seq.domain, q, points, norms).extremum
    beta = sh_ps_scan(seq.domain, dual.p, s, points, norms).extremum
    coeffs = ExtensionCoeffs(values, paper, alpha, beta)
    if not coeffs.within_budget:
        raise InvariantViolation(f"c_a {np.max(paper)} exceeds its budget {coeffs.budget}")
    return coeffs


# ---------------------------------------------------------------------------
# reports


@dataclass
class ExtensionReport:
    """Interpolation residuals, norm ratios, and the constant sandwich."""

    residuals: list | None = None
    max_rel_residual: float | None = None
    norm_ratio: float | None = None
    ci_estimate: float | None = None
    constant_budget: float | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {k: v for k, v in {
            "residuals": self.residuals,
            "max_rel_residual": self.max_rel_residual,
            "norm_ratio": self.norm_ratio,
            "ci_estimate": self.ci_estimate,
            "constant_budget": self.constant_budget,
        }.items() if v is not None}
        out["details"] = self.details
        return out


# ---------------------------------------------------------------------------
# sample-matrix helpers


def normalized_kernel_rows(dual: DualSystem, q: float, zs: np.ndarray) -> np.ndarray:
    """(N, len(zs)) values of k_{q,a} at the dual's points, normalized with its norm cache."""
    seq = dual.sequence
    scale = np.array([dual.norms.norm(seq[i], q) for i in range(len(seq))])
    return kernel_matrix(seq.arrays(), zs, seq.domain) / scale[:, None]


# ---------------------------------------------------------------------------
# the extension itself


def build_extension(dual: DualSystem, nu, s: float, rule: QuadratureRule) -> tuple:
    """h = sum_a nu_a c_a rho_a k_{q,a} plus its interpolation report.

    h is a vectorized evaluator zs (M, n) -> (M,) that holds on to ``dual``.
    h(a) = nu_a ||k_a||_{s'} holds by construction up to the dual system's
    delta residual; the report carries per-point residuals and the ratio
    ||h||_s / ||nu||_s measured on the rule.
    """
    seq, p = dual.sequence, dual.p
    q = exponent_from_split(s, p)
    nu = np.asarray(nu, dtype=complex)
    if nu.shape != (len(seq),):
        raise ParameterError("one target value per sequence point is required")
    coeffs = coeff_c(dual, s)
    sc = conjugate_exponent(s)
    target_scale = np.array([dual.norms.norm(seq[i], sc) for i in range(len(seq))])

    weights = nu * coeffs.values

    def h(zs: np.ndarray) -> np.ndarray:
        return weights @ (dual.values(zs) * normalized_kernel_rows(dual, q, zs))

    targets = nu * target_scale
    at_points = h(seq.arrays())
    residuals = np.abs(at_points - targets)
    denom = float(np.max(np.abs(targets)))
    max_rel = float(np.max(residuals) / denom) if denom > 0 else float(np.max(residuals, initial=0.0))

    h_norm = float(rule_norm(h(rule.nodes), rule.weights, s))
    nu_norm = seq_norm(nu, s)
    report = ExtensionReport(
        residuals=residuals.tolist(),
        max_rel_residual=max_rel,
        norm_ratio=(h_norm / nu_norm) if nu_norm > 0 else None,
        details={
            "s": s, "p": "inf" if p == INF else p, "q": q,
            "dual_method": dual.method,
            "dual_condition": dual.condition,
            "coeffs": coeffs.to_json(),
            "h_norm": h_norm,
            "target_scale": target_scale.tolist(),
            "resolution": rule.resolution,
        },
    )
    return h, report


def _check_dual_factor(f: SignMoments, x, rho_pow, rho_norms, k_f: float) -> None:
    """Assert the p <= 2 dual factor of f = sum_a eps_a x_a rho_a from |rho_a|^p and ||rho_a||_p^p:
    l2 <= lp at every node, E||f||_p^p <= K_f sum_a |x_a|^p ||rho_a||_p^p (equal at p = 2).

    At p = 2 the engine's moment is the square function, so the equality
    compares sum_m w_m sum_a |x_a rho_a(m)|^2 with sum_a |x_a|^2 ||rho_a||_2^2,
    the same sum in two orders; it guards the rule and the normalization,
    not sign orthogonality, which the tests check against enumeration."""
    p = f.p
    x_pow = np.abs(x) ** p
    l2, lp = f.square, x_pow @ rho_pow
    if p != 2.0:  # at p = 2 both sides are the same sum of squares
        l2, lp = np.sqrt(l2), lp ** (1.0 / p)
    if np.any(l2 > lp * (1.0 + 1e-12)):
        raise InvariantViolation("pointwise l2 <= lp comparison failed at a node")
    diagonal = float(x_pow @ rho_norms)
    if f.value > k_f * diagonal * (1.0 + _CHAIN_SLACK):
        raise InvariantViolation(f"E||f||_p^p = {f.value} exceeded its bound {k_f * diagonal}")
    if p == 2.0 and abs(f.value - diagonal) > 1e-10 * diagonal:
        raise InvariantViolation(f"sign orthogonality failed: {f.value} != {diagonal}")


def verify_norm_bound(dual: DualSystem, s: float, rule: QuadratureRule,
                      batch: int = 64, seed: int | None = None) -> ExtensionReport:
    """Estimate the operator norm from below and bound it from above.

    Every coordinate unit vector plus ``batch`` seeded random targets on
    the l^s sphere are extended; the lower estimate is the largest
    ||h||_s.  For each target the generalized Hoelder chain

        ||h||_s <= (E ||f||_p^p)^{1/p} (E ||g||_q^q)^{1/q}

    is asserted with exact sign expectations (sup over patterns and nodes
    of |f| replaces the first factor when p = inf).  For p <= 2 the dual
    factor of every target is checked as well (``_check_dual_factor``), and
    the full measured budget  K_f^{1/p} (alpha^{-1} beta) sup_a ||rho_a||_p
    K_g^{1/q} D_weak^{1/2}  is assembled and asserted as an upper bound
    for the estimate.

    The details record the route of each sign moment (``sign_routes``; one
    per exponent, so the same for every target) and, where an exponent was
    snapped to an even integer for the closed form, the snapped value next
    to the computed one (``p_snapped``, ``q_snapped``).
    """
    if seed is None:
        raise ParameterError("verify_norm_bound needs an explicit seed")
    if batch < 1:
        raise ParameterError("batch must be at least 1")
    seq, p = dual.sequence, dual.p
    n = len(seq)
    q = exponent_from_split(s, p)
    coeffs = coeff_c(dual, s)
    w = rule.weights
    rho_vals = dual.values(rule.nodes)
    kq_vals = normalized_kernel_rows(dual, q, rule.nodes)
    prod_vals = rho_vals * kq_vals
    sup_rho = float(np.max(rule_norm(rho_vals, w, p)))
    if p <= 2.0:
        rho_norms, rho_pow = rule_power(rho_vals, w, p), np.abs(rho_vals) ** p

    rng = np.random.default_rng(seed)
    targets = [np.eye(n, dtype=complex)[i] for i in range(n)]
    for _ in range(batch):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        targets.append(v / seq_norm(v, s))

    ci = 0.0
    khin_f = 0.0
    khin_g = 0.0
    weak_inst = 0.0
    worst_chain_margin = np.inf
    patterns = 0
    routes, snapped = {}, {}
    for nu in targets:
        split = split_target(nu, s, p)
        h_vals = (split.nu * coeffs.values) @ prod_vals
        h_norm = float(rule_norm(h_vals, w, s))
        nu_norm = seq_norm(nu, s)
        ci = max(ci, h_norm / nu_norm)

        x = split.lam * coeffs.values
        f = sign_moments(rho_vals, x, w, p)
        if p == INF:
            f_factor = float(np.max(f.nodes))
        else:
            f_factor = f.value ** (1.0 / p)
            k_f = f.khintchine_factor()
            khin_f = max(khin_f, k_f)
            if p <= 2.0:
                _check_dual_factor(f, x, rho_pow, rho_norms, k_f)
        patterns = max(patterns, f.patterns)
        routes["f"] = f.route
        if f.p != p:
            snapped["p_snapped"] = f.p
        del f  # its per-node arrays need not coexist with the g moment's temporaries
        g = sign_moments(kq_vals, split.mu, w, q)
        patterns = max(patterns, g.patterns)
        routes["g"] = g.route
        if g.p != q:
            snapped["q_snapped"] = g.p
        bound = f_factor * g.value ** (1.0 / q)
        khin_g = max(khin_g, g.khintchine_factor())
        mu_norm = seq_norm(split.mu, q)
        if mu_norm > 0:
            weak_inst = max(weak_inst, float(rule_norm(g.square, w, q / 2.0)) / mu_norm**2)
        if h_norm > bound * (1.0 + _CHAIN_SLACK):
            raise InvariantViolation(
                f"Hoelder chain failed: ||h||_s = {h_norm} > bound {bound}")
        worst_chain_margin = min(worst_chain_margin, (bound - h_norm) / max(bound, 1e-300))

    budget = None
    if p != INF and p <= 2.0:
        budget = (khin_f ** (1.0 / p) * coeffs.budget * sup_rho
                  * khin_g ** (1.0 / q) * np.sqrt(weak_inst))
        if ci > budget * (1.0 + _CHAIN_SLACK):
            raise InvariantViolation(
                f"measured budget {budget} fails to dominate the estimate {ci}")
    return ExtensionReport(
        ci_estimate=ci,
        constant_budget=budget,
        details={
            "s": s, "p": "inf" if p == INF else p, "q": q,
            "batch": batch, "seed": seed,
            "targets_tested": len(targets),
            "sign_patterns": patterns,
            "sign_routes": routes,
            **snapped,
            "sup_rho_p": sup_rho,
            "khintchine_factor_f": khin_f if p != INF else None,
            "khintchine_factor_g": khin_g,
            "weak_ratio_seen": weak_inst,
            "structural_budget": coeffs.budget,
            "worst_chain_margin": worst_chain_margin,
            "resolution": rule.resolution,
        },
    )


# ---------------------------------------------------------------------------
# sign-averaged routes that verify_norm_bound does not compose


def dual_expectation_bound_infty(inf_dual: DualSystem, p: float, lam, rule: QuadratureRule, *,
                                 weak_d: float | None = None) -> dict:
    """Bounded-dual route: rho_{p,a} = rho_a k_{p,a} with an inf-dual.

    Checks ||rho_{p,a}||_p <= max_nodes |rho_a| per point, the pointwise
    domination |rho_{p,a}| <= sup_a ||rho_a||_inf |k_{p,a}| at every node,
    and the expectation bound through the measured Khintchine factor and
    the squared-modulus Carleson ratio at exponent p (>= 2).
    """
    if inf_dual.p != INF:
        raise ContractError("this route needs a dual system bounded in the sup norm")
    if p == INF or p < 2.0:
        raise ParameterError("the squared-modulus step needs a finite p >= 2")
    lam = np.asarray(lam, dtype=complex)
    if not np.any(lam):
        raise ParameterError("the expectation bound needs a nonzero coefficient vector")
    w = rule.weights
    rho_inf = inf_dual.values(rule.nodes)
    per_point_sup = np.max(np.abs(rho_inf), axis=1)
    c_hat = float(np.max(per_point_sup))

    # rule-consistent normalization keeps ||k_{p,a}||_p = 1 exactly here
    kp = normalized_kernel_matrix(inf_dual.sequence, p, rule).T
    rho_p = rho_inf * kp

    rho_p_norms = rule_norm(rho_p, w, p)
    if np.any(rho_p_norms > per_point_sup * (1.0 + _CHAIN_SLACK)):
        raise InvariantViolation("||rho_a k_{p,a}||_p exceeded the sup-norm budget")
    if np.max(np.abs(rho_p) - c_hat * np.abs(kp) * (1.0 + 1e-12)) > 0:
        raise InvariantViolation("pointwise domination by the normalized kernel failed")

    mom = sign_moments(rho_p, lam, w, p)
    lam_p = seq_norm(lam, p)
    ratio = mom.value / lam_p**p
    khin = mom.khintchine_factor()

    weak_inst = _weak_ratio(kp.T, w, p, lam)
    weak_eff = max(weak_inst, weak_d or 0.0)
    budget = khin * c_hat**p * weak_eff ** (p / 2.0)
    if ratio > budget * (1.0 + _CHAIN_SLACK):
        raise InvariantViolation(f"expectation ratio {ratio} exceeded measured budget {budget}")
    return {
        "p": p,
        "ratio": ratio,
        "khintchine_factor": khin,
        "sup_rho_inf": c_hat,
        "weak_ratio_instance": weak_inst,
        "weak_d_used": weak_eff,
        "budget": budget,
        "per_point_sup": per_point_sup.tolist(),
    }


def weak_from_carleson_check(seq: PointSequence, q: float, mu, rule: QuadratureRule,
                             d_q: float, method: str = "exact",
                             samples: int | None = None, seed: int | None = None) -> dict:
    """Verify the sign-averaging route from the synthesis bound to the
    squared-modulus bound for one coefficient vector.

    Computes, with k_{q,a} normalized on the rule,

      left   = || sum |mu_a|^2 |k_{q,a}|^2 ||_{q/2}^{q/2}
      middle = E || sum mu_a eps_a k_{q,a} ||_q^q
      right  = D^q ||mu||_q^q,  D = d_q as supplied

    ``right_ok`` records whether the supplied d_q dominates the average; a
    d_q below the true constant can fail it.  The left/middle comparison
    carries the Khintchine constant, so only finiteness and positivity are
    asserted for it.
    """
    if q < 2:
        raise ParameterError("the sign-averaging chain needs q >= 2")
    if not d_q > 0:
        raise ParameterError(f"the synthesis constant d_q must be positive, got {d_q}")
    mu = np.asarray(mu, dtype=complex)
    if not np.any(mu):
        raise ParameterError("the sign-averaging chain needs a nonzero coefficient vector")
    w = rule.weights
    mom = sign_moments(normalized_kernel_matrix(seq, q, rule).T, mu, w, q, method, samples, seed)
    left = float(rule_power(mom.square, w, q / 2.0))
    middle, stderr = mom.value, mom.stderr
    right = d_q**q * seq_norm(mu, q)**q
    slack = 1e-8 * right + 4.0 * stderr
    right_ok = middle <= right + slack
    left_factor = left / middle if middle > 0 else np.inf
    if not (np.isfinite(left_factor) and left_factor > 0):
        raise ParameterError("degenerate instance: the averaged synthesis norm vanished")
    return {
        "q": q,
        "left": left,
        "middle": middle,
        "right": right,
        "left_factor": left_factor,
        "right_factor": middle / right,
        "right_ok": bool(right_ok),
        "d_q_given": d_q,
        "method": method,
        "stderr": stderr,
    }
