import numpy as np
import pytest

import hardylab as hl


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


def test_coeff_examples(disc, disc_norms):
    co0 = hl.coeff_c(_seq(disc, 0.0), 1.0, 2.0, disc_norms)
    assert abs(co0.values[0] - 1.0) < 1e-10
    co = hl.coeff_c(_seq(disc, 0.5), 1.0, 2.0, disc_norms)
    # closed form: ||k||_inf / k_a(a) = (1 / 0.5) / (4/3)
    assert abs(co.values[0] - 1.5) < 1e-10
    assert co.within_budget


def test_coeff_positivity_and_budget(disc, disc_norms):
    rng = np.random.default_rng(2)
    pts = (0.9 * rng.uniform(0.05, 1.0, 5) * np.exp(2j * np.pi * rng.uniform(size=5))).tolist()
    co = hl.coeff_c(hl.PointSequence.create(disc, pts), 1.0, 2.0, disc_norms)
    assert np.all(co.values > 0)
    assert co.within_budget
    assert co.budget >= 1.0 - 1e-10


def test_coeff_q_mismatch(disc, disc_norms):
    with pytest.raises(hl.ContractError):
        hl.coeff_c(_seq(disc, 0.5), 1.0, 2.0, disc_norms, q=3.0)


# ---------------------------------------------------------------------------
# the extension operator


def test_build_extension_trivial(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.0)
    dual = hl.dual_system_gram(seq, disc_norms)
    h, rep = hl.build_extension(seq, dual, np.array([1.0 + 0j]), 1.0, 2.0, disc_rule, disc_norms)
    assert rep.residuals[0] < 1e-12
    assert abs(rep.norm_ratio - 1.0) < 1e-10
    assert abs(h.eval(np.array([0.3 + 0.3j]), disc_norms) - 1.0) < 1e-10


def test_build_extension_two_points_end_to_end(disc, disc_rule, disc_norms):
    # independent oracle: closed-form two-point construction evaluated directly
    seq = _seq(disc, 0.5, -0.5)
    dual = hl.dual_system_gram(seq, disc_norms)
    nu = np.array([1.0, 1.0], dtype=complex)
    h, rep = hl.build_extension(seq, dual, nu, 1.0, 2.0, disc_rule, disc_norms)
    assert rep.max_rel_residual < 1e-8

    K = np.array([[hl.kernel_eval(np.array([b]), np.array([a]), disc)
                   for b in (0.5, -0.5)] for a in (0.5, -0.5)])
    n2 = np.array([disc_norms.norm(np.array([a]), 2.0) for a in (0.5, -0.5)])
    ninf = np.array([disc_norms.norm(np.array([a]), np.inf) for a in (0.5, -0.5)])
    X = np.linalg.solve(K, np.diag(n2)).T
    c = ninf * n2 / (n2 * np.diag(K).real)  # ||k||_inf ||k||_q / (||k||_p' k_a(a)), p = q = 2

    def oracle(z):
        ks = np.array([hl.kernel_eval(np.array([b]), z, disc) for b in (0.5, -0.5)])
        rho = X @ ks
        kq = ks / n2
        return np.sum(nu * c * rho * kq)

    for z in (np.array([0.25 + 0.1j]), np.array([0.0 + 0j]), np.array([-0.7j])):
        assert abs(h.eval(z, disc_norms) - oracle(z)) < 1e-12


def test_extension_linearity(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.5, -0.5, 0.3j)
    dual = hl.dual_system_gram(seq, disc_norms)
    rng = np.random.default_rng(7)
    nu1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    nu2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h1, _ = hl.build_extension(seq, dual, nu1, 1.0, 2.0, disc_rule, disc_norms)
    h2, _ = hl.build_extension(seq, dual, nu2, 1.0, 2.0, disc_rule, disc_norms)
    h12, _ = hl.build_extension(seq, dual, nu1 + nu2, 1.0, 2.0, disc_rule, disc_norms)
    hc, _ = hl.build_extension(seq, dual, (2.0 - 1.0j) * nu1, 1.0, 2.0, disc_rule, disc_norms)
    pts = hl.interior_panel(disc, 20, 42)
    scale = np.max(np.abs(h1.eval_many(pts, disc_norms))) + np.max(np.abs(h2.eval_many(pts, disc_norms)))
    add_gap = np.max(np.abs(h12.eval_many(pts, disc_norms)
                            - h1.eval_many(pts, disc_norms) - h2.eval_many(pts, disc_norms)))
    hom_gap = np.max(np.abs(hc.eval_many(pts, disc_norms)
                            - (2.0 - 1.0j) * h1.eval_many(pts, disc_norms)))
    assert add_gap < 1e-10 * scale
    assert hom_gap < 1e-10 * scale


def test_extension_residual_scales_with_dual_defect(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.5, -0.5)
    dual = hl.dual_system_gram(seq, disc_norms)
    nu = np.array([1.0, 1.0], dtype=complex)
    gaps = []
    for eps in (1e-6, 2e-6):
        perturbed = hl.DualSystem(seq, 2.0, "gram2", dual.scales,
                                  dual.coefficients + eps * np.eye(2))
        _, rep = hl.build_extension(seq, perturbed, nu, 1.0, 2.0, disc_rule, disc_norms)
        gaps.append(rep.max_rel_residual)
    assert 1.7 < gaps[1] / gaps[0] < 2.3


def test_build_extension_contract_errors(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.5, -0.5)
    other = _seq(disc, 0.4, -0.4)
    dual = hl.dual_system_gram(other, disc_norms)
    with pytest.raises(hl.ContractError):
        hl.build_extension(seq, dual, np.ones(2, dtype=complex), 1.0, 2.0, disc_rule, disc_norms)
    dual2 = hl.dual_system_gram(seq, disc_norms)
    with pytest.raises(hl.ContractError):
        hl.build_extension(seq, dual2, np.ones(2, dtype=complex), 1.0, 4.0, disc_rule, disc_norms)


def test_build_extension_blaschke_inf_dual(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.0, 0.5)
    dual = hl.dual_system_blaschke(seq, np.inf)
    nu = np.array([1.0, -0.5j])
    h, rep = hl.build_extension(seq, dual, nu, 1.0, np.inf, disc_rule, disc_norms)
    assert rep.max_rel_residual < 1e-10


# ---------------------------------------------------------------------------
# factorization and the norm-bound chain


def test_randomized_factorization_single_point(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.5)
    dual = hl.dual_system_gram(seq, disc_norms)
    split = hl.split_target(np.array([2.0 - 1.0j]), 1.0, 2.0)
    f_of, g_of, rep = hl.randomized_factorization(seq, dual, split, disc_rule, disc_norms)
    assert rep["max_pointwise_error"] < 1e-12
    # f g is independent of the sign for one point
    z = np.array([0.2 + 0.2j])
    up = f_of(np.array([1.0])).eval(z, disc_norms) * g_of(np.array([1.0])).eval(z, disc_norms)
    dn = f_of(np.array([-1.0])).eval(z, disc_norms) * g_of(np.array([-1.0])).eval(z, disc_norms)
    assert abs(up - dn) < 1e-13


def test_randomized_factorization_two_points(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.5, -0.5)
    dual = hl.dual_system_gram(seq, disc_norms)
    nu = np.array([1.0, 1.0], dtype=complex)
    split = hl.split_target(nu, 1.0, 2.0)
    f_of, g_of, rep = hl.randomized_factorization(seq, dual, split, disc_rule, disc_norms)
    assert rep["max_pointwise_error"] < 1e-10
    # direct enumeration over the four patterns at a fresh point
    h, _ = hl.build_extension(seq, dual, nu, 1.0, 2.0, disc_rule, disc_norms)
    z = np.array([0.1 - 0.4j])
    acc = 0.0
    for e1 in (-1.0, 1.0):
        for e2 in (-1.0, 1.0):
            eps = np.array([e1, e2])
            acc += f_of(eps).eval(z, disc_norms) * g_of(eps).eval(z, disc_norms)
    assert abs(acc / 4.0 - h.eval(z, disc_norms)) < 1e-12


def test_verify_norm_bound_trivial(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.0)
    dual = hl.dual_system_gram(seq, disc_norms)
    rep = hl.verify_norm_bound(seq, dual, 1.0, 2.0, disc_rule, disc_norms, batch=4, seed=0)
    assert abs(rep.ci_estimate - 1.0) < 1e-10
    assert rep.constant_budget >= rep.ci_estimate * (1.0 - 1e-10)


def test_verify_norm_bound_antipodal(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.9, -0.9)
    dual = hl.dual_system_gram(seq, disc_norms)
    rep = hl.verify_norm_bound(seq, dual, 1.0, 2.0, disc_rule, disc_norms, batch=16, seed=5)
    assert np.isfinite(rep.ci_estimate) and rep.ci_estimate >= 1.0 - 1e-9
    assert rep.constant_budget >= rep.ci_estimate * (1.0 - 1e-8)
    assert rep.details["worst_chain_margin"] >= -1e-12


def test_verify_norm_bound_needs_seed(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.5)
    dual = hl.dual_system_gram(seq, disc_norms)
    with pytest.raises(hl.ParameterError):
        hl.verify_norm_bound(seq, dual, 1.0, 2.0, disc_rule, disc_norms, batch=4)


def test_verify_norm_bound_inf_route(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.0, 0.5)
    dual = hl.dual_system_blaschke(seq, np.inf)
    rep = hl.verify_norm_bound(seq, dual, 1.0, np.inf, disc_rule, disc_norms, batch=8, seed=2)
    assert rep.ci_estimate >= 1.0 - 1e-9
    assert rep.constant_budget is None  # budget is assembled for p <= 2 only


# ---------------------------------------------------------------------------
# expectation bounds


def test_p_le_2_bound_single_point(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.5)
    dual = hl.dual_system_collocation(seq, 1.5, disc_norms)
    out = hl.dual_expectation_bound_p_le_2(seq, dual, np.array([2.0]), disc_rule, disc_norms)
    rho_p = hl.lp_norm(dual.rho_expr(0).sample(disc_rule, disc_norms), 1.5) ** 1.5
    assert abs(out["ratio"] - rho_p) < 1e-10 * rho_p


def test_p2_orthogonality_identity(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.6, -0.6)
    dual = hl.dual_system_gram(seq, disc_norms)
    out = hl.dual_expectation_bound_p_le_2(seq, dual, np.array([1.0, 0.5j]), disc_rule, disc_norms)
    assert out["orthogonality_gap"] < 1e-10


def test_p_1_5_bound_and_pointwise(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.6, -0.6)
    dual = hl.dual_system_collocation(seq, 1.5, disc_norms)
    out = hl.dual_expectation_bound_p_le_2(seq, dual, np.array([1.0, 1.0 + 0.5j]),
                                           disc_rule, disc_norms)
    assert out["pointwise_ok"]
    assert out["ratio"] <= out["bound"] * (1.0 + 1e-8)


def test_p_le_2_rejects_large_p(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.5, -0.5)
    dual = hl.dual_system_collocation(seq, 4.0, disc_norms)
    with pytest.raises(hl.ParameterError):
        hl.dual_expectation_bound_p_le_2(seq, dual, np.ones(2), disc_rule, disc_norms)


def test_type_p_examples(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.6, -0.6)
    dual2 = hl.dual_system_gram(seq, disc_norms)
    out = hl.dual_expectation_bound_p_le_2(seq, dual2, np.array([1.0, 1.0j]), disc_rule, disc_norms)
    assert abs(out["type_p_ratio"] - 1.0) < 1e-10
    single = _seq(disc, 0.4)
    duals = hl.dual_system_collocation(single, 1.5, disc_norms)
    outs = hl.dual_expectation_bound_p_le_2(single, duals, np.array([1.5]), disc_rule, disc_norms)
    assert abs(outs["type_p_ratio"] - 1.0) < 1e-10
    dual15 = hl.dual_system_collocation(seq, 1.5, disc_norms)
    out15 = hl.dual_expectation_bound_p_le_2(seq, dual15, np.array([1.0, 1.0 + 0.5j]),
                                             disc_rule, disc_norms)
    assert np.isfinite(out15["type_p_ratio"]) and out15["type_p_ratio"] > 0


def test_inf_route_two_points(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.0, 0.5)
    dinf = hl.dual_system_blaschke(seq, np.inf)
    out = hl.dual_expectation_bound_infty(seq, dinf, 2.0, np.array([1.0, 1.0]),
                                          disc_rule, disc_norms)
    assert abs(out["sup_rho_inf"] - 2.0) < 1e-12
    assert out["ratio"] <= out["budget"] * (1.0 + 1e-8)


def test_inf_route_validation(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.0, 0.5)
    with pytest.raises(hl.ContractError):
        hl.dual_expectation_bound_infty(seq, hl.dual_system_gram(seq, disc_norms), 2.0,
                                        np.ones(2), disc_rule, disc_norms)
    dinf = hl.dual_system_blaschke(seq, np.inf)
    with pytest.raises(hl.ParameterError):
        hl.dual_expectation_bound_infty(seq, dinf, 1.5, np.ones(2), disc_rule, disc_norms)


def test_inf_route_coefficient_length_is_shape_error(disc, disc_rule, disc_norms):
    seq = _seq(disc, 0.0, 0.5, 0.8j)
    dinf = hl.dual_system_blaschke(seq, np.inf)
    with pytest.raises(hl.ShapeError):
        hl.dual_expectation_bound_infty(seq, dinf, 2.0, np.ones(2), disc_rule, disc_norms)


def test_interior_panel_inside(disc, ball, bidisc):
    for dom in (disc, ball, bidisc):
        pts = hl.interior_panel(dom, 30, 3)
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
    cache = hl.NormCache(dom)
    seq = hl.PointSequence.create(dom, pts)
    dual = hl.dual_system_gram(seq, cache)
    nu = np.array([1.0, -0.5j])
    _, rep = hl.build_extension(seq, dual, nu, 1.0, 2.0, rule, cache)
    assert rep.max_rel_residual < 1e-8
    vrep = hl.verify_norm_bound(seq, dual, 1.0, 2.0, rule, cache, batch=8, seed=3)
    assert vrep.ci_estimate <= vrep.constant_budget * (1.0 + 1e-8)
    split = hl.split_target(nu, 1.0, 2.0)
    _, _, fr = hl.randomized_factorization(seq, dual, split, rule, cache)
    assert fr["max_pointwise_error"] < 1e-10
