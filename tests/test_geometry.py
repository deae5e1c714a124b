import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hardylab as hl
from conftest import geometric_kernel_l2sq, inner_product, lp_norm, sphere_moment


@pytest.mark.parametrize("kind,resolution", [("disc", 64), ("ball2", 8), ("bidisc", 16)])
def test_rule_is_probability_measure(kind, resolution):
    rule = hl.build_quadrature(hl.Domain(kind), resolution)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    if kind == "ball2":
        assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0)) <= 1e-14
    else:
        assert np.max(np.abs(np.abs(rule.nodes) - 1.0)) <= 1e-14


@pytest.mark.parametrize("kind,resolution", [("disc", 64), ("ball2", 8), ("bidisc", 16)])
def test_rule_refuses_a_node_off_the_boundary(kind, resolution):
    # one node scaled by 1 + 1e-13 lies ten times BOUNDARY_TOL off the boundary
    dom = hl.Domain(kind)
    rule = hl.build_quadrature(dom, resolution)
    hl.QuadratureRule(dom, rule.nodes, rule.weights, resolution)
    nodes = rule.nodes.copy()
    nodes[len(nodes) // 3] *= 1.0 + 1e-13
    with pytest.raises(hl.ParameterError, match="boundary"):
        hl.QuadratureRule(dom, nodes, rule.weights, resolution)


def test_disc_rule_integrates_roots_of_unity(disc):
    rule = hl.build_quadrature(disc, 64)
    for k in range(0, 33):
        value = np.sum(rule.weights * rule.nodes[:, 0] ** k)
        expected = 1.0 if k == 0 else 0.0
        assert abs(value - expected) < 1e-14


def test_ball_moment_oracle(ball):
    rule = hl.build_quadrature(ball, 16)
    m = hl.rule_power(rule.nodes[:, 0], rule.weights, 4.0)
    assert abs(m - sphere_moment(2, 0)) < 1e-12
    assert abs(sphere_moment(2, 0) - 1.0 / 3.0) < 1e-15


@pytest.mark.parametrize("alpha,beta", [
    ((0, 0), (0, 0)), ((1, 0), (1, 0)), ((2, 1), (2, 1)), ((3, 3), (3, 3)),
    ((1, 0), (0, 1)), ((2, 0), (1, 1)), ((4, 2), (4, 1)),
])
def test_ball_monomial_exactness(ball, alpha, beta):
    rule = hl.build_quadrature(ball, 8)

    def mono(zs):
        return (zs[:, 0] ** alpha[0] * zs[:, 1] ** alpha[1]
                * np.conj(zs[:, 0]) ** beta[0] * np.conj(zs[:, 1]) ** beta[1])

    value = np.sum(rule.weights * mono(rule.nodes))
    expected = sphere_moment(*alpha) if alpha == beta else 0.0
    assert abs(value - expected) < 1e-12


def test_bidisc_coordinate_independence(bidisc):
    rule = hl.build_quadrature(bidisc, 32)
    assert abs(inner_product(rule.nodes[:, 0], rule.nodes[:, 1], rule)) < 1e-14


def test_integrate_examples(disc):
    rule = hl.build_quadrature(disc, 128)
    z = rule.nodes[:, 0]
    assert abs(np.sum(rule.weights) - 1.0) < 1e-14
    assert abs(np.sum(rule.weights * z)) < 1e-14
    kk = hl.rule_power(1.0 / (1.0 - 0.5 * z), rule.weights, 2.0)
    assert abs(kk - geometric_kernel_l2sq(0.5)) < 1e-12
    assert abs(geometric_kernel_l2sq(0.5) - 4.0 / 3.0) < 1e-14


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
def test_lp_norm_of_constant(disc, p):
    rule = hl.build_quadrature(disc, 64)
    c = np.full(len(rule), -2.0 + 1.0j)
    assert abs(lp_norm(c, rule, p) - abs(-2.0 + 1.0j)) < 1e-13


def test_lp_norm_examples(disc):
    rule = hl.build_quadrature(disc, 256)
    z = rule.nodes[:, 0]
    assert abs(lp_norm(1.0 / (1.0 - 0.5 * z), rule, 2.0) - (4.0 / 3.0) ** 0.5) < 1e-12
    assert abs(lp_norm(z, rule, np.inf) - 1.0) < 1e-14
    with pytest.raises(hl.ParameterError):
        lp_norm(z, rule, 0.5)


def test_inner_product(disc):
    rule = hl.build_quadrature(disc, 64)
    z = rule.nodes[:, 0]
    one = np.ones(len(rule), dtype=complex)
    assert abs(inner_product(one, one, rule) - 1.0) < 1e-14
    assert abs(inner_product(z, z, rule) - 1.0) < 1e-14
    assert abs(inner_product(z, z**2, rule)) < 1e-14
    k = 1.0 / (1.0 - 0.5 * z)
    assert abs(inner_product(k, k, rule) - 4.0 / 3.0) < 1e-12
    # conjugate symmetry and positivity
    assert abs(inner_product(z, k, rule) - np.conj(inner_product(k, z, rule))) < 1e-15
    self_pair = inner_product(k, k, rule)
    assert abs(self_pair.imag) < 1e-14 and self_pair.real >= 0


def test_resolution_validation(disc):
    with pytest.raises(hl.ParameterError):
        hl.build_quadrature(disc, 3)


def test_domain_point_validation(disc, ball, bidisc):
    with pytest.raises(hl.DomainError):
        disc.point(1.0)
    with pytest.raises(hl.DomainError):
        ball.point([0.8, 0.7])
    # bidisc allows euclidean norm > 1 as long as each modulus < 1
    bidisc.point([0.9, 0.9])
    with pytest.raises(hl.DomainError):
        bidisc.point([1.0, 0.2])


def test_adaptive_convergence_disc(disc, disc_norms):
    # doubling changes the kernel-power integral by < 1e-10 once converged,
    # and the converged value is the closed-form norm
    for r, p in [(0.5, 1.0), (0.9, 4.0 / 3.0), (0.95, 2.0), (0.95, 4.0)]:
        def value(m):
            rule = hl.build_quadrature(disc, m)
            return lp_norm(1.0 / (1.0 - r * rule.nodes[:, 0]), rule, p)

        m, prev = 64, value(64)
        while True:
            assert m < 1 << 13, "quadrature did not converge by 8192 nodes"
            m *= 2
            cur = value(m)
            if abs(cur - prev) <= 1e-10 * abs(cur):
                break
            prev = cur
        assert abs(cur - disc_norms.norm(np.array([r]), p)) / cur < 1e-10


def test_adaptive_convergence_engine(ball_norms, bidisc_norms):
    for cache, pt in [(ball_norms, np.array([0.6, 0.7j])),
                      (bidisc_norms, np.array([0.95, 0.5j]))]:
        t = cache.table(0.95 / np.linalg.norm(pt) * pt if cache.domain.kind == "ball2" else pt,
                        [1.0, 4.0 / 3.0, 2.0, 4.0])
        assert t.residual < 1e-10


def test_seq_norm():
    x = np.array([3.0, -4.0])
    assert abs(hl.seq_norm(x, 1) - 7.0) < 1e-15
    assert abs(hl.seq_norm(x, 2) - 5.0) < 1e-15
    assert abs(hl.seq_norm(x, np.inf) - 4.0) < 1e-15


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), m=st.integers(4, 1100),
       p=st.one_of(st.floats(1.0, 12.0), st.sampled_from([1.0, 2.0, np.inf])),
       real=st.booleans())
def test_rule_norm_rows_match_lp_norm(seed, rows, m, p, real):
    # each row of the row-wise helper is the norm of that row alone, bit for bit
    rule = hl.build_quadrature(hl.Domain(hl.DISC), m)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((rows, m)) * rng.uniform(0.1, 10.0, size=(rows, 1))
    if not real:
        vals = vals + 1j * rng.standard_normal((rows, m))
    norms = hl.rule_norm(vals, rule.weights, p)
    powers = hl.rule_power(vals, rule.weights, p)
    assert norms.shape == powers.shape == (rows,)
    for row, norm, power in zip(vals, norms, powers):
        assert norm == hl.rule_norm(row, rule.weights, p)
        if p == np.inf:
            assert norm == np.max(np.abs(row))
        else:
            exact = math.fsum(rule.weights * np.abs(row) ** p)
            assert abs(power - exact) <= 1e-13 * exact
            assert abs(norm - exact ** (1.0 / p)) <= 1e-14 * norm
