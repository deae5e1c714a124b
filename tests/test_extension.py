import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hardylab as hl
from hardylab import cli, extension
from hardylab.errors import EXIT_INVARIANT
from conftest import DUAL_CASES, factorization_error, interior_panel, separated_points


def _seq(disc, *pts):
    return hl.PointSequence.create(disc, list(pts))


# ---------------------------------------------------------------------------
# splitting


def test_split_examples():
    sp = hl.split_target(np.array([4.0 + 0j]), 1.0, 2.0)
    assert np.allclose(sp.lam, [2.0]) and np.allclose(sp.mu, [2.0])
    sp = hl.split_target(np.array([-4.0 + 0j]), 1.0, 2.0)
    assert np.allclose(sp.lam, [-2.0]) and np.allclose(sp.mu, [2.0])
    sp = hl.split_target(np.array([1.0, 1.0], dtype=complex), 1.0, 2.0)
    assert abs(hl.seq_norm(sp.nu, 1.0) - hl.seq_norm(sp.lam, 2.0) * hl.seq_norm(sp.mu, 2.0)) < 1e-12


def test_split_exponent_identity_and_zeros():
    rng = np.random.default_rng(1)
    for s, p in [(1.0, 2.0), (1.5, 2.0), (1.0, 4.0), (2.0, 3.0)]:
        nu = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        nu[2] = 0.0
        sp = hl.split_target(nu, s, p)
        assert abs(1.0 / s - 1.0 / p - 1.0 / sp.q) < 1e-15
        assert sp.lam[2] == 0 and sp.mu[2] == 0
        assert np.max(np.abs(sp.nu - sp.lam * sp.mu)) < 1e-13 * np.max(np.abs(nu))


def test_split_p_inf():
    nu = np.array([3.0, -4.0j, 0.0])
    sp = hl.split_target(nu, 1.0, np.inf)
    assert sp.q == 1.0
    assert np.allclose(np.abs(sp.lam[:2]), 1.0)
    assert np.allclose(sp.mu, np.abs(nu))
    assert abs(hl.seq_norm(nu, 1.0) - hl.seq_norm(sp.lam, np.inf) * hl.seq_norm(sp.mu, 1.0)) < 1e-12


def test_split_validation():
    with pytest.raises(hl.ParameterError):
        hl.split_target(np.array([1.0]), 2.0, 2.0)
    with pytest.raises(hl.ParameterError):
        hl.split_target(np.array([1.0]), 3.0, 2.0)


# ---------------------------------------------------------------------------
# coefficients


def _gram(seq):
    return hl.dual_system(seq, 2.0, "gram2")


def test_coeff_examples(disc):
    co0 = hl.coeff_c(_gram(_seq(disc, 0.0)), 1.0)
    assert abs(co0.values[0] - 1.0) < 1e-10
    co = hl.coeff_c(_gram(_seq(disc, 0.5)), 1.0)
    # closed form: ||k||_inf / k_a(a) = (1 / 0.5) / (4/3)
    assert abs(co.values[0] - 1.5) < 1e-10
    assert co.within_budget


def test_coeff_positivity_and_budget(disc):
    rng = np.random.default_rng(2)
    pts = (0.9 * rng.uniform(0.05, 1.0, 5) * np.exp(2j * np.pi * rng.uniform(size=5))).tolist()
    co = hl.coeff_c(_gram(hl.PointSequence.create(disc, pts)), 1.0)
    assert np.all(co.values > 0)
    assert co.within_budget
    assert co.budget >= 1.0 - 1e-10


def test_coefficient_past_budget_is_invariant_violation(disc, tmp_path, monkeypatch):
    # c_a <= alpha^-1 beta holds at every point, so a beta-hat scan extremum
    # pushed below the true one must stop coeff_c and the extend subcommand
    scan = extension.sh_ps_scan

    def halved(*args):
        beta = scan(*args)
        return dataclasses.replace(beta, extremum=0.5 * beta.extremum)

    monkeypatch.setattr(extension, "sh_ps_scan", halved)
    with pytest.raises(hl.InvariantViolation, match="budget"):
        hl.coeff_c(_gram(_seq(disc, 0.5)), 1.0)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domain": "disc", "points": [[0.5, 0.0], [-0.5, 0.0]], "s": 1,
                               "p": 2, "batch": 1, "seed": 1, "resolution": 64}))
    assert cli.main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) \
        == EXIT_INVARIANT
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# the extension operator


def test_build_extension_trivial(disc, disc_rule):
    seq = _seq(disc, 0.0)
    dual = hl.dual_system(seq, 2.0, "gram2")
    h, rep = hl.build_extension(dual, np.array([1.0 + 0j]), 1.0, disc_rule)
    assert rep.residuals[0] < 1e-12
    assert abs(rep.norm_ratio - 1.0) < 1e-10
    assert abs(h(np.array([0.3 + 0.3j]))[0] - 1.0) < 1e-10


def test_build_extension_two_points_end_to_end(disc, disc_rule, disc_norms):
    # independent oracle: closed-form two-point construction evaluated directly
    seq = _seq(disc, 0.5, -0.5)
    dual = hl.dual_system(seq, 2.0, "gram2")
    nu = np.array([1.0, 1.0], dtype=complex)
    h, rep = hl.build_extension(dual, nu, 1.0, disc_rule)
    assert rep.max_rel_residual < 1e-8

    pts = np.array([[0.5], [-0.5]])
    K = hl.kernel_matrix(pts, pts, disc).T  # K[a, b] = k_b(a)
    n2 = np.array([disc_norms.norm(np.array([a]), 2.0) for a in (0.5, -0.5)])
    ninf = np.array([disc_norms.norm(np.array([a]), np.inf) for a in (0.5, -0.5)])
    X = np.linalg.solve(K, np.diag(n2)).T
    c = ninf * n2 / (n2 * np.diag(K).real)  # ||k||_inf ||k||_q / (||k||_p' k_a(a)), p = q = 2

    def oracle(z):
        ks = hl.kernel_matrix(pts, z, disc)[:, 0]
        rho = X @ ks
        kq = ks / n2
        return np.sum(nu * c * rho * kq)

    for z in (np.array([0.25 + 0.1j]), np.array([0.0 + 0j]), np.array([-0.7j])):
        assert abs(h(z)[0] - oracle(z)) < 1e-12


def test_extension_linearity(disc, disc_rule):
    seq = _seq(disc, 0.5, -0.5, 0.3j)
    dual = hl.dual_system(seq, 2.0, "gram2")
    rng = np.random.default_rng(7)
    nu1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    nu2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h1, _ = hl.build_extension(dual, nu1, 1.0, disc_rule)
    h2, _ = hl.build_extension(dual, nu2, 1.0, disc_rule)
    h12, _ = hl.build_extension(dual, nu1 + nu2, 1.0, disc_rule)
    hc, _ = hl.build_extension(dual, (2.0 - 1.0j) * nu1, 1.0, disc_rule)
    pts = interior_panel(disc, 20, 42)
    scale = np.max(np.abs(h1(pts))) + np.max(np.abs(h2(pts)))
    add_gap = np.max(np.abs(h12(pts) - h1(pts) - h2(pts)))
    hom_gap = np.max(np.abs(hc(pts) - (2.0 - 1.0j) * h1(pts)))
    assert add_gap < 1e-10 * scale
    assert hom_gap < 1e-10 * scale


def test_extension_residual_scales_with_dual_defect(disc, disc_rule):
    seq = _seq(disc, 0.5, -0.5)
    dual = hl.dual_system(seq, 2.0, "gram2")
    nu = np.array([1.0, 1.0], dtype=complex)
    gaps = []
    for eps in (1e-6, 2e-6):
        perturbed = hl.DualSystem(seq, 2.0, "gram2", dual.scales,
                                  dual.coefficients + eps * np.eye(2), norms=dual.norms)
        _, rep = hl.build_extension(perturbed, nu, 1.0, disc_rule)
        gaps.append(rep.max_rel_residual)
    assert 1.7 < gaps[1] / gaps[0] < 2.3


def test_build_extension_blaschke_inf_dual(disc, disc_rule):
    seq = _seq(disc, 0.0, 0.5)
    dual = hl.dual_system(seq, np.inf, "blaschke")
    nu = np.array([1.0, -0.5j])
    h, rep = hl.build_extension(dual, nu, 1.0, disc_rule)
    assert rep.max_rel_residual < 1e-10


@pytest.mark.parametrize("kind,method,pts", [
    ("disc", "gram2", [0.0, 0.5]),
    ("disc", "blaschke", [0.0, 0.5]),
    ("ball2", "gram2", [[0.3, 0.0], [-0.2, 0.4j]]),
])
def test_dual_values_and_extension_reject_points_of_the_wrong_width(kind, method, pts):
    # both were read by the leading columns of a wider array (a Blaschke dual
    # by every entry of it, as consecutive disc points)
    dom = hl.Domain(kind)
    rule = (hl.build_quadrature(dom, 8, angular=16) if kind == "ball2"
            else hl.build_quadrature(dom, 64))
    dual = hl.dual_system(hl.PointSequence.create(dom, pts),
                          np.inf if method == "blaschke" else 2.0, method)
    h, _ = hl.build_extension(dual, np.array([1.0, -0.5j]), 1.0, rule)
    wide = np.zeros((3, dom.n + 1), dtype=complex)
    for f in (dual.values, h):
        with pytest.raises(hl.ShapeError):
            f(wide)
        assert f(np.zeros((3, dom.n), dtype=complex)).shape[-1] == 3


# ---------------------------------------------------------------------------
# factorization and the norm-bound chain


def test_randomized_factorization_single_point(disc, disc_rule):
    dual = hl.dual_system(_seq(disc, 0.5), 2.0, "gram2")
    assert factorization_error(dual, np.array([2.0 - 1.0j]), 1.0, disc_rule) < 1e-12


def test_randomized_factorization_two_points(disc, disc_rule):
    dual = hl.dual_system(_seq(disc, 0.5, -0.5), 2.0, "gram2")
    assert factorization_error(dual, np.array([1.0, 1.0], dtype=complex), 1.0, disc_rule) < 1e-12


@pytest.mark.parametrize("s", [1.1, 1.2, 2.0, 4.0])
def test_factorization_identity_blaschke_ring(disc, s):
    # 16 points on the ring of radius 0.5: the p = inf Blaschke dual reaches
    # 6.7e4 on the circle while the normalized kernels stay of order 1, so the
    # mean over the 2^16 patterns cancels terms far larger than h
    seq = hl.PointSequence.create(disc, list(0.5 * np.exp(2j * np.pi * np.arange(16) / 16)))
    dual = hl.dual_system(seq, np.inf, "blaschke")
    assert factorization_error(dual, np.ones(16), s, hl.build_quadrature(disc, 256)) < 1e-10


def test_verify_norm_bound_trivial(disc, disc_rule):
    seq = _seq(disc, 0.0)
    dual = hl.dual_system(seq, 2.0, "gram2")
    rep = hl.verify_norm_bound(dual, 1.0, disc_rule, batch=4, seed=0)
    assert abs(rep.ci_estimate - 1.0) < 1e-10
    assert rep.constant_budget >= rep.ci_estimate * (1.0 - 1e-10)
    # p = q = 2: both moments are square functions, no pattern is evaluated
    assert rep.details["sign_patterns"] == 0
    assert rep.details["sign_routes"] == {"f": "closed-form", "g": "closed-form"}


def test_verify_norm_bound_antipodal(disc, disc_rule):
    seq = _seq(disc, 0.9, -0.9)
    dual = hl.dual_system(seq, 2.0, "gram2")
    rep = hl.verify_norm_bound(dual, 1.0, disc_rule, batch=16, seed=5)
    assert np.isfinite(rep.ci_estimate) and rep.ci_estimate >= 1.0 - 1e-9
    assert rep.constant_budget >= rep.ci_estimate * (1.0 - 1e-8)
    assert rep.details["worst_chain_margin"] >= -1e-12
    assert rep.details["sign_patterns"] == 0  # p = q = 2 take the closed form


def test_unit_targets_enumerate_one_term(disc, disc_rule, monkeypatch):
    # the N coordinate targets have one nonzero coefficient in f and in g,
    # so only the random targets reach either exact route with every term:
    # f at p = 1.5 enumerates, g at the computed q = 6 - 3 ulps takes the
    # closed form at q = 6
    calls = []
    half_enumeration, even_moment = hl.signs._half_enumeration, hl.signs._even_moment

    def spy_enumeration(t, p):
        calls.append(("f", len(t)))
        return half_enumeration(t, p)

    def spy_even(t, k):
        calls.append(("g", len(t)))
        return even_moment(t, k)

    monkeypatch.setattr(hl.signs, "_half_enumeration", spy_enumeration)
    monkeypatch.setattr(hl.signs, "_even_moment", spy_even)
    seq = _seq(disc, 0.5, -0.4j, -0.3 + 0.2j, 0.6 + 0.3j)
    dual = hl.dual_system(seq, 1.5, "collocation")
    rep = hl.verify_norm_bound(dual, 1.2, disc_rule, batch=2, seed=3)
    assert calls == [("f", 1), ("g", 1)] * 4 + [("f", 4), ("g", 4)] * 2
    assert rep.details["sign_patterns"] == 8  # 2^(4-1), all from f
    assert rep.details["sign_routes"] == {"f": "enumeration", "g": "closed-form"}
    assert rep.details["q"] == 5.999999999999997 and rep.details["q_snapped"] == 6.0


def test_verify_norm_bound_needs_seed(disc, disc_rule):
    seq = _seq(disc, 0.5)
    dual = hl.dual_system(seq, 2.0, "gram2")
    with pytest.raises(hl.ParameterError):
        hl.verify_norm_bound(dual, 1.0, disc_rule, batch=4)


def test_verify_norm_bound_inf_route(disc, disc_rule):
    seq = _seq(disc, 0.0, 0.5)
    dual = hl.dual_system(seq, np.inf, "blaschke")
    rep = hl.verify_norm_bound(dual, 1.0, disc_rule, batch=8, seed=2)
    assert rep.ci_estimate >= 1.0 - 1e-9
    assert rep.constant_budget is None  # budget is assembled for p <= 2 only


# ---------------------------------------------------------------------------
# expectation bounds


def test_p2_orthogonality_identity(disc, disc_rule):
    # verify_norm_bound asserts E||f||_2^2 = sum_a |x_a|^2 ||rho_a||_2^2 on every target
    seq = _seq(disc, 0.6, -0.6)
    dual = hl.dual_system(seq, 2.0, "gram2")
    rep = hl.verify_norm_bound(dual, 1.0, disc_rule, batch=8, seed=4)
    assert abs(rep.details["khintchine_factor_f"] - 1.0) <= 1e-12


def test_p_1_5_bound_and_pointwise(disc, disc_rule):
    # l2 <= l1.5 at every node and E||f||_p^p <= K_f sum_a |x_a|^p ||rho_a||_p^p
    # are asserted on every target; K_f <= 1 by Jensen
    seq = _seq(disc, 0.6, -0.6)
    dual = hl.dual_system(seq, 1.5, "collocation")
    rep = hl.verify_norm_bound(dual, 1.0, disc_rule, batch=8, seed=4)
    assert 0.0 < rep.details["khintchine_factor_f"] <= 1.0 + 1e-12


def test_perturbed_p2_moment_breaks_orthogonality(disc, disc_rule, monkeypatch):
    sign_moments = hl.extension.sign_moments

    def perturbed(rows, coeffs, w, p, *args):
        mom = sign_moments(rows, coeffs, w, p, *args)
        if p != 2.0:
            return mom
        return dataclasses.replace(mom, nodes=mom.nodes * (1.0 + 1e-6),
                                   value=mom.value * (1.0 + 1e-6))

    monkeypatch.setattr(hl.extension, "sign_moments", perturbed)
    seq = _seq(disc, 0.6, -0.6)
    dual = hl.dual_system(seq, 2.0, "gram2")
    with pytest.raises(hl.InvariantViolation, match="orthogonality"):
        hl.verify_norm_bound(dual, 1.0, disc_rule, batch=2, seed=4)


def test_inf_route_two_points(disc, disc_rule):
    seq = _seq(disc, 0.0, 0.5)
    dinf = hl.dual_system(seq, np.inf, "blaschke")
    out = hl.dual_expectation_bound_infty(dinf, 2.0, np.array([1.0, 1.0]),
                                          disc_rule)
    assert abs(out["sup_rho_inf"] - 2.0) < 1e-12
    assert out["ratio"] <= out["budget"] * (1.0 + 1e-8)


def test_inf_route_capacity(disc, disc_rule):
    # p = 3 is enumerated, so 21 points are past EXACT_CAP = 20
    seq = hl.PointSequence.create(disc, list(0.8 * np.exp(2j * np.pi * np.arange(21) / 21)))
    dual = hl.dual_system(seq, np.inf, "blaschke")
    with pytest.raises(hl.CapacityError, match="capped at 20 signs"):
        hl.dual_expectation_bound_infty(dual, 3.0, np.ones(21), disc_rule)


def test_inf_route_validation(disc, disc_rule):
    seq = _seq(disc, 0.0, 0.5)
    with pytest.raises(hl.ContractError):
        hl.dual_expectation_bound_infty(hl.dual_system(seq, 2.0, "gram2"), 2.0,
                                        np.ones(2), disc_rule)
    dinf = hl.dual_system(seq, np.inf, "blaschke")
    with pytest.raises(hl.ParameterError):
        hl.dual_expectation_bound_infty(dinf, 1.5, np.ones(2), disc_rule)


def test_inf_route_coefficient_length_is_shape_error(disc, disc_rule):
    seq = _seq(disc, 0.0, 0.5, 0.8j)
    dinf = hl.dual_system(seq, np.inf, "blaschke")
    with pytest.raises(hl.ShapeError):
        hl.dual_expectation_bound_infty(dinf, 2.0, np.ones(2), disc_rule)


def test_interior_panel_inside(disc, ball, bidisc):
    for dom in (disc, ball, bidisc):
        pts = interior_panel(dom, 30, 3)
        for row in pts:
            assert dom.is_interior(row)


@pytest.mark.parametrize("kind,pts", [
    ("ball2", [[0.3, 0.0], [-0.2, 0.4j]]),
    ("bidisc", [[0.3, 0.1], [-0.4j, 0.2]]),
])
def test_extension_pipeline_other_domains(kind, pts):
    dom = hl.Domain(kind)
    rule = (hl.build_quadrature(dom, 16, angular=64) if kind == "ball2"
            else hl.build_quadrature(dom, 64))
    seq = hl.PointSequence.create(dom, pts)
    dual = hl.dual_system(seq, 2.0, "gram2")
    nu = np.array([1.0, -0.5j])
    _, rep = hl.build_extension(dual, nu, 1.0, rule)
    assert rep.max_rel_residual < 1e-8
    vrep = hl.verify_norm_bound(dual, 1.0, rule, batch=8, seed=3)
    assert vrep.ci_estimate <= vrep.constant_budget * (1.0 + 1e-8)
    assert factorization_error(dual, nu, 1.0, rule) < 1e-10


@pytest.mark.parametrize("kind,method", DUAL_CASES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       p=st.sampled_from([1.5, 4.0, np.inf]), t=st.sampled_from([0.0, 0.25, 0.5, 0.75]))
def test_factorization_identity_property(kind, method, seed, n, p, t):
    # h = E[f(eps) g(eps)] pointwise over all sign patterns, for every dual kind, with 1 <= s < p;
    # s stays away from 1+ because s' -> inf overflows the kernel-norm series
    dom = hl.Domain(kind)
    seq = separated_points(dom, n, seed)
    p = 2.0 if method == "gram2" else p
    s = 1.0 + t * (min(p, 3.0) - 1.0)
    dual = hl.dual_system(seq, p, method)
    rule = (hl.build_quadrature(dom, 8, angular=16) if kind == "ball2"
            else hl.build_quadrature(dom, 64))
    rng = np.random.default_rng(seed)
    nu = rng.standard_normal(len(seq)) + 1j * rng.standard_normal(len(seq))
    assert factorization_error(dual, nu, s, rule) <= 1e-10


@pytest.mark.parametrize("kind,method", DUAL_CASES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       p=st.sampled_from([1.5, 2.0, 4.0, np.inf]), t=st.sampled_from([0.0, 0.25, 0.5, 0.75]))
def test_holder_chain_property(kind, method, seed, n, p, t):
    # ||h||_s <= (E||f||_p^p)^{1/p} (E||g||_q^q)^{1/q} for every target, and
    # for p <= 2 the measured budget dominates the operator-norm estimate; with
    # one point, a Gram dual and s = 1 the two are equal up to rounding
    dom = hl.Domain(kind)
    seq = separated_points(dom, n, seed)
    p = 2.0 if method == "gram2" else p
    s = 1.0 + t * (min(p, 3.0) - 1.0)
    dual = hl.dual_system(seq, p, method)
    rule = (hl.build_quadrature(dom, 8, angular=16) if kind == "ball2"
            else hl.build_quadrature(dom, 64))
    rep = hl.verify_norm_bound(dual, s, rule, batch=4, seed=seed)
    assert rep.details["worst_chain_margin"] >= -1e-8
    if p <= 2.0:
        assert rep.ci_estimate <= rep.constant_budget * (1.0 + 1e-12)


@pytest.mark.parametrize("route", ["weak_ratio_at", "infty", "weak_from_carleson"])
def test_zero_coefficient_vector_is_parameter_error(disc, disc_rule, route):
    seq = _seq(disc, 0.0, 0.5)
    zero = np.zeros(2, dtype=complex)
    calls = {
        "weak_ratio_at": lambda: hl.weak_ratio_at(seq, 4.0, zero, disc_rule),
        "infty": lambda: hl.dual_expectation_bound_infty(
            hl.dual_system(seq, np.inf, "blaschke"), 2.0, zero, disc_rule),
        "weak_from_carleson": lambda: hl.weak_from_carleson_check(seq, 4.0, zero, disc_rule, 1.0),
    }
    with pytest.raises(hl.ParameterError, match="nonzero coefficient vector"):
        calls[route]()
