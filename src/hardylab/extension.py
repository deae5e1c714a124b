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

Every check here works on the (N, M) sample matrices of ``chain_samples``
at the nodes of a rule.  ``verify_norm_bound`` reads them one block of
nodes at a time and checks all of its targets at once in each block: the
samples of h of every target come from one product and f and g from one
batched engine call each.  ``chain_rows`` derives rho_a and k_{q,a} at any
points from one ``kernel_matrix``; the rule's samples and h, the one
evaluator returned, both come from it.  That kernel matrix with the rho_a
read from it is ``dual_rows``; a caller that already holds them and the
integrals of |rho_a|^p on the rule (a report's dual section) hands them to
``chain_samples``, which divides the kernels into k_{q,a} in place.  At
the sequence points the kernel matrix is a copy of the dual's own K, so
c_a, the residuals of h there and the dual itself share one evaluation.
h is a vectorized zs (M, n) -> (M,) for points off the rule: the interior
points of the Bergman lift.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InvariantViolation, ParameterError
from .geometry import QuadratureRule, rule_norm, rule_power, seq_norm
from .kernels import (INF, conjugate_exponent, divide_rows, exponent_from_split, kernel_matrix,
                      sh_ps_scan, sh_q_scan)
from .sequences import DualSystem, _weak_ratio, dual_bound, dual_powers, normalized_kernel_matrix
from .signs import SignMoments, sign_moments

_CHAIN_SLACK = 1e-8
_BLOCK_ENTRIES = 1 << 16  # targets x nodes per block of verify_norm_bound: 1 MiB complex


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
    The k_a(a) are the diagonal of the dual's K.
    """
    seq, norms = dual.sequence, dual.norms
    q = exponent_from_split(s, dual.p)
    sc, pc = conjugate_exponent(s), conjugate_exponent(dual.p)
    diag = np.diagonal(dual.K).real
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
# sample matrices


def _kernel_norms(dual: DualSystem, q: float) -> np.ndarray:
    """||k_a||_q at the dual's points, from its norm cache."""
    seq = dual.sequence
    return np.array([dual.norms.norm(seq[i], q) for i in range(len(seq))])


def dual_rows(dual: DualSystem, zs: np.ndarray) -> tuple:
    """(rho, K): the (N, len(zs)) values of rho_a and the ``kernel_matrix`` of the dual's
    points at zs, rho being read from K (a Blaschke dual reads nothing from it)."""
    seq = dual.sequence
    K = kernel_matrix(seq.arrays(), zs, seq.domain)
    return dual.values_from_kernels(zs, K), K


def chain_rows(dual: DualSystem, q: float, zs: np.ndarray, rows: tuple | None = None) -> tuple:
    """(rho, kq): the (N, len(zs)) values of rho_a and k_{q,a} at zs, from one ``kernel_matrix``.

    ``rows`` is ``dual_rows(dual, zs)`` when the caller already holds them;
    its K becomes kq.  The ||k_a||_q come from the dual's norm cache before
    K is formed; K is divided by them in place (``divide_rows``) once rho
    is read from it, so it is never held beside its images.
    """
    scale = _kernel_norms(dual, q)
    rho, K = dual_rows(dual, zs) if rows is None else rows
    return rho, divide_rows(K, scale)


@dataclass
class ChainSamples:
    """The chain of a dual at exponent s, 1/s = 1/p + 1/q, sampled at the nodes of a rule.

    ``coeffs`` holds the c_a, ``rho`` the rho_a, ``kq`` the k_{q,a} and
    ``prod`` the terms rho_a k_{q,a} of h, each of these three an (N, M)
    array, and ``powers`` the (N,) ``dual_powers`` of rho on the rule.
    """

    dual: DualSystem
    s: float
    q: float
    rule: QuadratureRule
    coeffs: ExtensionCoeffs
    rho: np.ndarray
    kq: np.ndarray
    prod: np.ndarray
    powers: np.ndarray


def chain_samples(dual: DualSystem, s: float, rule: QuadratureRule,
                  rows: tuple | None = None) -> ChainSamples:
    """The c_a and every sample matrix of the chain on ``rule``: ``chain_rows`` at its nodes
    and their products.

    ``rows`` is (rho, K, powers), ``dual_rows(dual, rule.nodes)`` and the
    ``dual_powers`` of that rho, when the caller already holds them (a
    report's dual section hands its samples on); their K is divided in
    place and becomes ``kq``.  ``build_extension`` and
    ``verify_norm_bound`` both read the c_a from here; they come first, so
    their norm-cache scans, and any error they raise, come before the
    samples are formed or taken over.
    """
    q = exponent_from_split(s, dual.p)
    coeffs = coeff_c(dual, s)
    rho, kq = chain_rows(dual, q, rule.nodes, None if rows is None else rows[:2])
    powers = dual_powers(rho, rule, dual.p) if rows is None else rows[2]
    return ChainSamples(dual, s, q, rule, coeffs, rho, kq, rho * kq, powers)


# ---------------------------------------------------------------------------
# the extension itself


def build_extension(samples: ChainSamples, nu) -> tuple:
    """h = sum_a nu_a c_a rho_a k_{q,a} plus its interpolation report.

    h is a vectorized evaluator zs (M, n) -> (M,) that holds on to the dual.
    h(a) = nu_a ||k_a||_{s'} holds by construction up to the dual system's
    delta residual; the report carries per-point residuals, read off a copy
    of the dual's K, and the ratio ||h||_s / ||nu||_s measured on the rule,
    from the samples of h there.
    """
    dual, s, q, rule = samples.dual, samples.s, samples.q, samples.rule
    seq, p, coeffs = dual.sequence, dual.p, samples.coeffs
    nu = np.asarray(nu, dtype=complex)
    if nu.shape != (len(seq),):
        raise ParameterError("one target value per sequence point is required")
    target_scale = _kernel_norms(dual, conjugate_exponent(s))

    weights = nu * coeffs.values

    def h(zs: np.ndarray) -> np.ndarray:
        rho, kq = chain_rows(dual, q, zs)
        return weights @ (rho * kq)

    targets = nu * target_scale
    pts = seq.arrays()
    rho, kq = chain_rows(dual, q, pts, (dual.values_from_kernels(pts, dual.K), dual.K.copy()))
    at_points = weights @ (rho * kq)
    residuals = np.abs(at_points - targets)
    denom = float(np.max(np.abs(targets)))
    max_rel = float(np.max(residuals) / denom) if denom > 0 else float(np.max(residuals, initial=0.0))

    h_norm = float(rule_norm(weights @ samples.prod, rule.weights, s))
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


def _check_pointwise_l2_lp(f: SignMoments, x, rho_pow) -> None:
    """Assert l2 <= lp at every node of a block for the f = sum_a eps_a x_a rho_a of each
    row of x, from |rho_a|^p on the block (the pointwise half of the p <= 2 dual factor)."""
    p = f.p
    l2, lp = f.square, np.abs(x) ** p @ rho_pow
    if p != 2.0:  # at p = 2 both sides are the same sum of squares
        l2, lp = np.sqrt(l2), lp ** (1.0 / p)
    if np.any(l2 > lp * (1.0 + 1e-12)):
        raise InvariantViolation("pointwise l2 <= lp comparison failed at a node")


def _check_dual_diagonal(f_value: float, p: float, x, rho_norms, k_f: float) -> None:
    """Assert E||f||_p^p <= K_f sum_a |x_a|^p ||rho_a||_p^p for one target (equal at p = 2),
    p being the exponent of the engine's moment.

    At p = 2 the engine's moment is the square function, so the equality
    compares sum_m w_m sum_a |x_a rho_a(m)|^2 with sum_a |x_a|^2 ||rho_a||_2^2,
    the same sum in two orders; it guards the rule and the normalization,
    not sign orthogonality, which the tests check against enumeration."""
    diagonal = float(np.abs(x) ** p @ rho_norms)
    if f_value > k_f * diagonal * (1.0 + _CHAIN_SLACK):
        raise InvariantViolation(f"E||f||_p^p = {f_value} exceeded its bound {k_f * diagonal}")
    if p == 2.0 and abs(f_value - diagonal) > 1e-10 * diagonal:
        raise InvariantViolation(f"sign orthogonality failed: {f_value} != {diagonal}")


def verify_norm_bound(samples: ChainSamples, batch: int = 64,
                      seed: int | None = None) -> ExtensionReport:
    """Estimate the operator norm from below and bound it from above.

    Every coordinate unit vector plus ``batch`` seeded random targets on
    the l^s sphere are extended; the lower estimate is the largest
    ||h||_s.  For each target the generalized Hoelder chain

        ||h||_s <= (E ||f||_p^p)^{1/p} (E ||g||_q^q)^{1/q}

    is asserted with exact sign expectations (sup over patterns and nodes
    of |f| replaces the first factor when p = inf).  For p <= 2 the dual
    factor of every target is checked as well (``_check_pointwise_l2_lp``,
    ``_check_dual_diagonal``), and the full measured budget
    K_f^{1/p} (alpha^{-1} beta) sup_a ||rho_a||_p K_g^{1/q} D_weak^{1/2}
    is assembled and asserted as an upper bound for the estimate.

    All T targets are checked at once, over blocks of about
    ``_BLOCK_ENTRIES`` / T nodes of the rule: each block takes the samples
    of h of every target from one product and f and g from one engine call
    each, so every (T, block) array is at most 1 MiB, and the integrals,
    maxima and Khintchine factors of each target are accumulated over the
    blocks.  The per-target checks then run in target order.

    The details record the route of each sign moment (``sign_routes``; one
    per exponent, so the same for every target) and, where an exponent was
    snapped to an even integer for the closed form, the snapped value next
    to the computed one (``p_snapped``, ``q_snapped``).
    """
    if seed is None:
        raise ParameterError("verify_norm_bound needs an explicit seed")
    if batch < 1:
        raise ParameterError("batch must be at least 1")
    dual, s, q, rule = samples.dual, samples.s, samples.q, samples.rule
    seq, p, coeffs = dual.sequence, dual.p, samples.coeffs
    n = len(seq)
    w = rule.weights
    rho_vals, kq_vals, prod_vals = samples.rho, samples.kq, samples.prod
    sup_rho = dual_bound(dual, samples.powers)
    dual_factor = p <= 2.0

    rng = np.random.default_rng(seed)
    targets = [np.eye(n, dtype=complex)[i] for i in range(n)]
    for _ in range(batch):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        targets.append(v / seq_norm(v, s))
    splits = [split_target(nu, s, p) for nu in targets]
    h_weights = np.array([split.nu for split in splits]) * coeffs.values
    x = np.array([split.lam for split in splits]) * coeffs.values
    mu = np.array([split.mu for split in splits])
    del splits  # the stacked rows above are all that is read from here on

    # per target: integrals of |h|^s, E|f|^p, E|g|^q and the square function of
    # g at q/2 over the blocks so far, and the largest per-node Khintchine
    # factor of f (its sup |f| at p = inf) and of g
    h_pow, f_value, g_value, g_weak, f_top, g_top = np.zeros((6, len(targets)))
    patterns = 0
    routes, snapped = {}, {}
    step = max(1, _BLOCK_ENTRIES // len(targets))
    for lo in range(0, len(w), step):
        block, wb = slice(lo, lo + step), w[lo:lo + step]
        h_pow += rule_power(h_weights @ prod_vals[:, block], wb, s)
        f = sign_moments(rho_vals[:, block], x, wb, p)
        if dual_factor:
            _check_pointwise_l2_lp(f, x, np.abs(rho_vals[:, block]) ** p)
        f_value += f.value
        f_top = np.maximum(f_top, np.max(f.nodes, axis=-1) if p == INF else f.khintchine_factor())
        g = sign_moments(kq_vals[:, block], mu, wb, q)
        g_value += g.value
        g_top = np.maximum(g_top, g.khintchine_factor())
        # at q = 2 the weak integral at q/2 = 1 is g.value, the same sum bit for bit
        g_weak += g.value if q == 2.0 else rule_power(g.square, wb, q / 2.0)
        patterns = max(patterns, int(np.max(f.patterns)), int(np.max(g.patterns)))
        routes = {"f": f.route, "g": g.route}
        if f.p != p:
            snapped["p_snapped"] = f.p
        if g.p != q:
            snapped["q_snapped"] = g.p

    ci = 0.0
    khin_f = 0.0
    khin_g = 0.0
    weak_inst = 0.0
    worst_chain_margin = np.inf
    for i, nu in enumerate(targets):
        h_norm = float(np.power(h_pow[i], 1.0 / s))  # rule_norm's root
        ci = max(ci, h_norm / seq_norm(nu, s))
        if p == INF:
            f_factor = float(f_top[i])
        else:
            f_factor = float(f_value[i]) ** (1.0 / p)
            k_f = float(f_top[i])
            khin_f = max(khin_f, k_f)
            if dual_factor:
                _check_dual_diagonal(float(f_value[i]), snapped.get("p_snapped", p), x[i],
                                     samples.powers, k_f)
        bound = f_factor * float(g_value[i]) ** (1.0 / q)
        khin_g = max(khin_g, float(g_top[i]))
        mu_norm = seq_norm(mu[i], q)
        if mu_norm > 0:
            weak_inst = max(weak_inst, float(np.power(g_weak[i], 1.0 / (q / 2.0))) / mu_norm**2)
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
