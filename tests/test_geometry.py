import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hardylab as hl
from conftest import geometric_kernel_l2sq, sphere_moment


@pytest.mark.parametrize("kind,resolution", [("disc", 64), ("ball2", 8), ("bidisc", 16)])
def test_rule_is_probability_measure(kind, resolution):
    rule = hl.build_quadrature(hl.Domain(kind), resolution)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    if kind == "ball2":
        assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0)) <= 1e-14
    else:
        assert np.max(np.abs(np.abs(rule.nodes) - 1.0)) <= 1e-14


def test_disc_rule_integrates_roots_of_unity(disc):
    rule = hl.build_quadrature(disc, 64)
    for k in range(0, 33):
        value = hl.integrate(hl.sample_function(lambda zs, k=k: zs[:, 0] ** k, rule))
        expected = 1.0 if k == 0 else 0.0
        assert abs(value - expected) < 1e-14


def test_ball_moment_oracle(ball):
    rule = hl.build_quadrature(ball, 16)
    m = hl.sample_function(lambda zs: np.abs(zs[:, 0]) ** 4, rule)
    assert abs(hl.integrate(m).real - sphere_moment(2, 0)) < 1e-12
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

    value = hl.integrate(hl.sample_function(mono, rule))
    expected = sphere_moment(*alpha) if alpha == beta else 0.0
    assert abs(value - expected) < 1e-12


def test_bidisc_coordinate_independence(bidisc):
    rule = hl.build_quadrature(bidisc, 32)
    m = hl.sample_function(lambda zs: zs[:, 0] * np.conj(zs[:, 1]), rule)
    assert abs(hl.integrate(m)) < 1e-14


def test_integrate_examples(disc):
    rule = hl.build_quadrature(disc, 128)
    one = hl.sample_function(lambda zs: np.ones(zs.shape[0], dtype=complex), rule)
    assert abs(hl.integrate(one) - 1.0) < 1e-14
    z = hl.sample_function(lambda zs: zs[:, 0], rule)
    assert abs(hl.integrate(z)) < 1e-14
    kk = hl.sample_function(lambda zs: np.abs(1.0 - 0.5 * zs[:, 0]) ** -2, rule)
    assert abs(hl.integrate(kk).real - geometric_kernel_l2sq(0.5)) < 1e-12
    assert abs(geometric_kernel_l2sq(0.5) - 4.0 / 3.0) < 1e-14


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
def test_lp_norm_of_constant(disc, p):
    rule = hl.build_quadrature(disc, 64)
    c = hl.sample_function(lambda zs: np.full(zs.shape[0], -2.0 + 1.0j), rule)
    assert abs(hl.lp_norm(c, p) - abs(-2.0 + 1.0j)) < 1e-13


def test_lp_norm_examples(disc):
    rule = hl.build_quadrature(disc, 256)
    k = hl.sample_function(lambda zs: 1.0 / (1.0 - 0.5 * zs[:, 0]), rule)
    assert abs(hl.lp_norm(k, 2.0) - (4.0 / 3.0) ** 0.5) < 1e-12
    z = hl.sample_function(lambda zs: zs[:, 0], rule)
    assert abs(hl.lp_norm(z, np.inf) - 1.0) < 1e-14
    with pytest.raises(hl.ParameterError):
        hl.lp_norm(z, 0.5)


def test_inner_product(disc):
    rule = hl.build_quadrature(disc, 64)
    one = hl.sample_function(lambda zs: np.ones(zs.shape[0], dtype=complex), rule)
    z = hl.sample_function(lambda zs: zs[:, 0], rule)
    z2 = hl.sample_function(lambda zs: zs[:, 0] ** 2, rule)
    assert abs(hl.inner_product(one, one) - 1.0) < 1e-14
    assert abs(hl.inner_product(z, z) - 1.0) < 1e-14
    assert abs(hl.inner_product(z, z2)) < 1e-14
    k = hl.sample_function(lambda zs: 1.0 / (1.0 - 0.5 * zs[:, 0]), rule)
    assert abs(hl.inner_product(k, k) - 4.0 / 3.0) < 1e-12
    # conjugate symmetry and positivity
    assert abs(hl.inner_product(z, k) - np.conj(hl.inner_product(k, z))) < 1e-15
    self_pair = hl.inner_product(k, k)
    assert abs(self_pair.imag) < 1e-14 and self_pair.real >= 0


def test_inner_product_rule_mismatch(disc):
    r1 = hl.build_quadrature(disc, 64)
    r2 = hl.build_quadrature(disc, 128)
    f = hl.sample_function(lambda zs: zs[:, 0], r1)
    g = hl.sample_function(lambda zs: zs[:, 0], r2)
    with pytest.raises(hl.ShapeError):
        hl.inner_product(f, g)
    # same kind, length and resolution, different nodes
    base = hl.build_quadrature(disc, 256)
    turned = hl.QuadratureRule(disc, base.nodes * np.exp(0.1j), base.weights, base.resolution)
    f = hl.sample_function(lambda zs: zs[:, 0], base)
    g = hl.sample_function(lambda zs: zs[:, 0], turned)
    with pytest.raises(hl.ShapeError):
        hl.inner_product(f, g)


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


def test_rule_json_roundtrip(ball):
    rule = hl.build_quadrature(ball, 8)
    back = hl.QuadratureRule.from_json(json.loads(json.dumps(rule.to_json())))
    assert back.domain.kind == rule.domain.kind
    assert np.allclose(back.nodes, rule.nodes)
    assert np.allclose(back.weights, rule.weights)


def test_adaptive_convergence_disc(disc, disc_norms):
    # doubling changes the kernel-power integral by < 1e-10 once converged,
    # and the converged value is the closed-form norm
    for r, p in [(0.5, 1.0), (0.9, 4.0 / 3.0), (0.95, 2.0), (0.95, 4.0)]:
        def value(m):
            rule = hl.build_quadrature(disc, m)
            k = hl.sample_function(lambda zs: 1.0 / (1.0 - r * zs[:, 0]), rule)
            return hl.lp_norm(k, p)

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
    # each row of the row-wise helper is lp_norm of that row, bit for bit
    rule = hl.build_quadrature(hl.Domain(hl.DISC), m)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((rows, m)) * rng.uniform(0.1, 10.0, size=(rows, 1))
    if not real:
        vals = vals + 1j * rng.standard_normal((rows, m))
    norms = hl.rule_norm(vals, rule.weights, p)
    powers = hl.rule_power(vals, rule.weights, p)
    assert norms.shape == powers.shape == (rows,)
    for row, norm, power in zip(vals, norms, powers):
        assert norm == hl.lp_norm(hl.BoundarySamples(row, rule), p)
        assert norm == hl.rule_norm(row, rule.weights, p)
        if p == np.inf:
            assert norm == np.max(np.abs(row))
        else:
            exact = math.fsum(rule.weights * np.abs(row) ** p)
            assert abs(power - exact) <= 1e-13 * exact
            assert abs(norm - exact ** (1.0 / p)) <= 1e-14 * norm
