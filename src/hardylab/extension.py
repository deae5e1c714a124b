"""Linear extension of finite interpolation targets.

Given a dual system {rho_a} for exponent p and a target nu in l^s with
s < p, the extension is

    h = sum_a nu_a c_a rho_a k_{q,a},      1/s = 1/p + 1/q,

with coefficients c_a chosen so that h(a) = nu_a ||k_a||_{s'}.  The map
nu -> h is linear by construction.  The norm control goes through the
randomized factorization h = E[f g] with Bernoulli signs,

    f(eps) = sum_a lambda_a c_a eps_a rho_a,
    g(eps) = sum_a mu_a eps_a k_{q,a},     nu_a = lambda_a mu_a,

and the generalized Hoelder inequality on the product of the boundary
measure with the sign space.  With exact sign enumeration every step of
that chain is a finite inequality, so the bounds asserted here are exact
up to rounding; comparability constants that the theory leaves implicit
(Khintchine factors, structural-hypothesis extrema) are measured per
instance and reported, never hard-coded.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    ContractError,
    InvariantViolation,
    ParameterError,
)
from .geometry import BALL2, DISC, Domain, QuadratureRule, seq_norm
from .kernels import (
    INF,
    HoloExpr,
    conjugate_exponent,
    exponent_from_split,
    kernel_diag,
    kernel_values,
)
from .sequences import DualSystem, PointSequence, normalized_kernel_matrix
from .signs import EXACT_CAP, sign_matrix_chunks, sign_moments

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


def coeff_c(seq: PointSequence, s: float, p: float, norms, q: float | None = None,
            scales=None, alpha_hat: float | None = None,
            beta_hat: float | None = None) -> ExtensionCoeffs:
    """c_a = ||k_a||_{s'} ||k_a||_q / (scale_a k_a(a)), scale_a = ||k_a||_{p'} by default.

    The hypothesis extrema are evaluated at the sequence points themselves
    (optionally merged with externally scanned values), so the recorded
    budget genuinely dominates the coefficients it is compared against.
    """
    q_expected = exponent_from_split(s, p)
    if q is None:
        q = q_expected
    elif abs(1.0 / q - 1.0 / q_expected) > 1e-12:
        raise ContractError(f"q = {q} inconsistent with 1/s = 1/p + 1/q (expected {q_expected})")
    sc, pc, qc = conjugate_exponent(s), conjugate_exponent(p), conjugate_exponent(q)
    n = len(seq)
    values = np.empty(n)
    paper = np.empty(n)
    ratios_q, ratios_ps = [], []
    for i in range(n):
        a = seq[i]
        t = norms.table(a, [sc, pc, qc, q, 2.0])
        diag = kernel_diag(a, seq.domain)
        if diag <= 0:
            raise ParameterError("kernel diagonal must be positive")
        scale = t.norm(pc) if scales is None else float(scales[i])
        values[i] = t.norm(sc) * t.norm(q) / (scale * diag)
        paper[i] = t.norm(sc) * t.norm(q) / (t.norm(pc) * diag)
        ratios_q.append(t.norm(2.0) ** 2 / (t.norm(q) * t.norm(qc)))
        ratios_ps.append(t.norm(sc) / (t.norm(pc) * t.norm(qc)))
    a_hat = min(ratios_q) if alpha_hat is None else min(alpha_hat, min(ratios_q))
    b_hat = max(ratios_ps) if beta_hat is None else max(beta_hat, max(ratios_ps))
    return ExtensionCoeffs(values, paper, a_hat, b_hat)


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


def _check_contract(seq: PointSequence, dual: DualSystem, p: float) -> None:
    if dual.sequence.points != seq.points:
        raise ContractError("dual system was built for a different sequence")
    if not ((dual.p == INF and p == INF) or (dual.p != INF and p != INF and abs(dual.p - p) < 1e-12)):
        raise ContractError(f"dual system targets exponent {dual.p}, not {p}")


def dual_sample_matrix(dual: DualSystem, zs: np.ndarray, norms=None) -> np.ndarray:
    """(N, len(zs)) values of the dual functions."""
    seq = dual.sequence
    if not dual.blaschke:
        kmat = np.column_stack([kernel_values(seq[c], zs, seq.domain) for c in range(len(seq))])
        return dual.coefficients @ kmat.T
    return np.vstack([dual.rho_values(i, zs, norms) for i in range(len(seq))])


def normalized_kernel_rows(seq: PointSequence, q: float, zs: np.ndarray, norms) -> np.ndarray:
    """(N, len(zs)) values of k_{q,a}, normalized with the given norm source."""
    rows = []
    for i in range(len(seq)):
        rows.append(kernel_values(seq[i], zs, seq.domain) / norms.norm(seq[i], q))
    return np.vstack(rows)


def interior_panel(dom: Domain, count: int, seed: int, rmax: float = 0.8) -> np.ndarray:
    """Deterministic batch of interior test points with radius <= rmax."""
    rng = np.random.default_rng(seed)
    pts = np.empty((count, dom.n), dtype=complex)
    for i in range(count):
        if dom.kind == DISC:
            pts[i, 0] = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        elif dom.kind == BALL2:
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = v / np.linalg.norm(v)
            pts[i] = rmax * rng.uniform() ** 0.25 * v
        else:
            for j in range(2):
                pts[i, j] = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return pts


def _weighted_power_sum(vals: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Row-wise integral |vals|^p against w (vals is (rows, M))."""
    return np.sum(w[None, :] * np.abs(vals) ** p, axis=1)


# ---------------------------------------------------------------------------
# the extension itself


def build_extension(seq: PointSequence, dual: DualSystem, nu, s: float, p: float,
                    rule: QuadratureRule, norms) -> tuple:
    """h = sum_a nu_a c_a rho_a k_{q,a} plus its interpolation report.

    h(a) = nu_a ||k_a||_{s'} holds by construction up to the dual system's
    delta residual; the report carries per-point residuals and the ratio
    ||h||_s / ||nu||_s measured on the rule.
    """
    _check_contract(seq, dual, p)
    q = exponent_from_split(s, p)
    nu = np.asarray(nu, dtype=complex)
    if nu.shape != (len(seq),):
        raise ParameterError("one target value per sequence point is required")
    coeffs = coeff_c(seq, s, p, norms, scales=dual.scales)
    sc = conjugate_exponent(s)
    target_scale = np.array([norms.norm(seq[i], sc) for i in range(len(seq))])

    dom = seq.domain
    h = HoloExpr(dom, [])
    for i in range(len(seq)):
        weight = complex(nu[i] * coeffs.values[i])
        if weight != 0:
            h = h + weight * (dual.rho_expr(i) * HoloExpr.kernel(dom, seq[i], normalized_at=q))

    targets = nu * target_scale
    at_points = h.eval_many(seq.arrays(), norms)
    residuals = np.abs(at_points - targets)
    denom = float(np.max(np.abs(targets)))
    max_rel = float(np.max(residuals) / denom) if denom > 0 else float(np.max(residuals, initial=0.0))

    h_norm = float(np.sum(rule.weights * np.abs(h.sample(rule, norms).values) ** s) ** (1.0 / s))
    nu_norm = seq_norm(nu, s)
    report = ExtensionReport(
        residuals=residuals.tolist(),
        max_rel_residual=max_rel,
        norm_ratio=(h_norm / nu_norm) if nu_norm > 0 else None,
        details={
            "s": s, "p": "inf" if p == INF else p, "q": q,
            "dual_method": dual.method,
            "coeffs": coeffs.to_json(),
            "h_norm": h_norm,
            "target_scale": target_scale.tolist(),
            "resolution": rule.resolution,
        },
    )
    return h, report


def randomized_factorization(seq: PointSequence, dual: DualSystem, split: SplitData,
                             rule: QuadratureRule, norms, n_interior: int = 20,
                             n_boundary: int = 20, panel_seed: int = 2024) -> tuple:
    """Builders for f(eps), g(eps) and the identity check h = E[f g].

    The identity is exact because E[eps_j eps_k] = delta_jk kills every
    cross term; it is verified pointwise on a fixed panel of interior and
    boundary points by full enumeration (N <= 20).
    """
    _check_contract(seq, dual, split.p)
    n = len(seq)
    if n > EXACT_CAP:
        raise CapacityError(f"exact factorization check capped at {EXACT_CAP} points")
    coeffs = coeff_c(seq, split.s, split.p, norms, scales=dual.scales)
    q = split.q
    dom = seq.domain

    def f_of(eps) -> HoloExpr:
        eps = np.asarray(eps, dtype=float)
        out = HoloExpr(dom, [])
        for i in range(n):
            w = complex(split.lam[i] * coeffs.values[i] * eps[i])
            if w != 0:
                out = out + w * dual.rho_expr(i)
        return out

    def g_of(eps) -> HoloExpr:
        eps = np.asarray(eps, dtype=float)
        out = HoloExpr(dom, [])
        for i in range(n):
            w = complex(split.mu[i] * eps[i])
            if w != 0:
                out = out + HoloExpr.kernel(dom, seq[i], normalized_at=q, coeff=w)
        return out

    panel = np.vstack([
        interior_panel(dom, n_interior, panel_seed),
        rule.nodes[np.linspace(0, len(rule) - 1, n_boundary, dtype=int)],
    ])
    rho_at = dual_sample_matrix(dual, panel, norms)
    kq_at = normalized_kernel_rows(seq, q, panel, norms)
    h_at = (split.nu * coeffs.values) @ (rho_at * kq_at)

    lc = split.lam * coeffs.values
    acc = np.zeros(panel.shape[0], dtype=complex)
    for block in sign_matrix_chunks(n):
        f_vals = (block * lc[None, :]) @ rho_at
        g_vals = (block * split.mu[None, :]) @ kq_at
        acc += np.sum(f_vals * g_vals, axis=0)
    expectation = acc / (1 << n)

    err = np.max(np.abs(h_at - expectation) / (1.0 + np.abs(h_at)))
    report = {
        "max_pointwise_error": float(err),
        "panel_size": int(panel.shape[0]),
        "panel_seed": panel_seed,
    }
    return f_of, g_of, report


def verify_norm_bound(seq: PointSequence, dual: DualSystem, s: float, p: float,
                      rule: QuadratureRule, norms, batch: int = 64,
                      seed: int | None = None) -> ExtensionReport:
    """Estimate the operator norm from below and bound it from above.

    Every coordinate unit vector plus ``batch`` seeded random targets on
    the l^s sphere are extended; the lower estimate is the largest
    ||h||_s.  For each target the generalized Hoelder chain

        ||h||_s <= (E ||f||_p^p)^{1/p} (E ||g||_q^q)^{1/q}

    is asserted with exact sign expectations (sup over patterns and nodes
    of |f| replaces the first factor when p = inf).  For p <= 2 the full
    measured budget  K_f^{1/p} (alpha^{-1} beta) sup_a ||rho_a||_p
    K_g^{1/q} D_weak^{1/2}  is assembled and asserted as an upper bound
    for the estimate.
    """
    if seed is None:
        raise ParameterError("verify_norm_bound needs an explicit seed")
    if batch < 1:
        raise ParameterError("batch must be at least 1")
    _check_contract(seq, dual, p)
    n = len(seq)
    q = exponent_from_split(s, p)
    coeffs = coeff_c(seq, s, p, norms, scales=dual.scales)
    w = rule.weights
    rho_vals = dual_sample_matrix(dual, rule.nodes, norms)
    kq_vals = normalized_kernel_rows(seq, q, rule.nodes, norms)
    prod_vals = rho_vals * kq_vals

    if p == INF:
        sup_rho = float(np.max(np.abs(rho_vals)))
    else:
        sup_rho = float(np.max(_weighted_power_sum(rho_vals, w, p)) ** (1.0 / p))

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
    for nu in targets:
        split = split_target(nu, s, p)
        h_vals = (split.nu * coeffs.values) @ prod_vals
        h_norm = float(np.sum(w * np.abs(h_vals) ** s) ** (1.0 / s))
        nu_norm = seq_norm(nu, s)
        ci = max(ci, h_norm / nu_norm)

        f = sign_moments(rho_vals, split.lam * coeffs.values, w, p)
        g = sign_moments(kq_vals, split.mu, w, q)
        if p == INF:
            bound = f.best * g.value ** (1.0 / q)
        else:
            bound = f.value ** (1.0 / p) * g.value ** (1.0 / q)
            khin_f = max(khin_f, f.khintchine_factor())
        khin_g = max(khin_g, g.khintchine_factor())
        mu_norm = seq_norm(split.mu, q)
        if mu_norm > 0:
            weak_inst = max(weak_inst, float(
                np.sum(w * g.square ** (q / 2.0)) ** (2.0 / q)) / mu_norm**2)
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
# expectation bounds for the two dual routes


def dual_expectation_bound_p_le_2(seq: PointSequence, dual: DualSystem, lam,
                                  rule: QuadratureRule, norms) -> dict:
    """Sign-averaged dual-sum bound for a dual system with p <= 2.

    Verifies the pointwise l^2 <= l^p comparison at every node, measures
    the Khintchine factor of this instance, and asserts

        E||sum lam_a eps_a rho_a||_p^p <= K * sup_a ||rho_a||_p^p * ||lam||_p^p.
    """
    p = dual.p
    if p == INF or not (1.0 <= p <= 2.0):
        raise ParameterError("this route needs a dual system with 1 <= p <= 2")
    lam = np.asarray(lam, dtype=complex)
    _check_contract(seq, dual, p)
    w = rule.weights
    rho_vals = dual_sample_matrix(dual, rule.nodes, norms)
    mom = sign_moments(rho_vals, lam, w, p)

    lp_nodes = np.sum((np.abs(lam)[:, None] * np.abs(rho_vals)) ** p, axis=0) ** (1.0 / p)
    pointwise_gap = float(np.max(np.sqrt(mom.square) - lp_nodes * (1.0 + 1e-12)))
    if pointwise_gap > 0:
        raise InvariantViolation("pointwise l2 <= lp comparison failed at a node")

    expectation = mom.value
    lam_p = seq_norm(lam, p)
    ratio = expectation / lam_p**p
    khin = mom.khintchine_factor()
    rho_norms_p = _weighted_power_sum(rho_vals, w, p)
    sup_rho_p = float(np.max(rho_norms_p))
    bound = khin * sup_rho_p
    if ratio > bound * (1.0 + _CHAIN_SLACK):
        raise InvariantViolation(f"expectation ratio {ratio} exceeded measured bound {bound}")

    # sum_a |lam_a|^p ||rho_a||_p^p: the type-p denominator, and at p = 2
    # the exact value of the expectation by sign orthogonality
    diagonal = float(np.abs(lam) ** p @ rho_norms_p)
    out = {
        "p": p,
        "ratio": ratio,
        "khintchine_factor": khin,
        "sup_rho_p_pow": sup_rho_p,
        "bound": bound,
        "pointwise_ok": True,
        "type_p_ratio": expectation / diagonal,
    }
    if p == 2.0:
        gap = abs(expectation - diagonal) / max(diagonal, 1e-300)
        if gap > 1e-10:
            raise InvariantViolation(f"sign orthogonality identity failed: gap {gap}")
        out["orthogonality_gap"] = gap
    return out


def dual_expectation_bound_infty(seq: PointSequence, inf_dual: DualSystem, p: float,
                                 lam, rule: QuadratureRule, norms,
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
    _check_contract(seq, inf_dual, INF)
    w = rule.weights
    rho_inf = dual_sample_matrix(inf_dual, rule.nodes, norms)
    per_point_sup = np.max(np.abs(rho_inf), axis=1)
    c_hat = float(np.max(per_point_sup))

    # rule-consistent normalization keeps ||k_{p,a}||_p = 1 exactly here
    kp = normalized_kernel_matrix(seq, p, rule).T
    rho_p = rho_inf * kp

    rho_p_norms = _weighted_power_sum(rho_p, w, p) ** (1.0 / p)
    if np.any(rho_p_norms > per_point_sup * (1.0 + _CHAIN_SLACK)):
        raise InvariantViolation("||rho_a k_{p,a}||_p exceeded the sup-norm budget")
    if np.max(np.abs(rho_p) - c_hat * np.abs(kp) * (1.0 + 1e-12)) > 0:
        raise InvariantViolation("pointwise domination by the normalized kernel failed")

    mom = sign_moments(rho_p, lam, w, p)
    lam_p = seq_norm(lam, p)
    ratio = mom.value / lam_p**p
    khin = mom.khintchine_factor()

    dens_k = np.sum((np.abs(lam)[:, None] * np.abs(kp)) ** 2, axis=0)
    weak_inst = float(np.sum(w * dens_k ** (p / 2.0)) ** (2.0 / p)) / lam_p**2
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
