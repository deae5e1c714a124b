import math

import numpy as np
import pytest

import hardylab as hl
from conftest import kernel_norm, lp_norm


def _lift(f):
    """f~(z, w) = f(z): an evaluator on points with one more trailing coordinate."""
    return lambda zs: f(zs[:, :-1])


def test_lift_and_restrict():
    f = lambda zs: zs[:, 0] ** 2 + 1.0
    lifted = _lift(f)
    zs = np.array([[0.3 + 0.1j, 0.5j], [0.0, 0.2]])
    assert np.allclose(lifted(zs), f(zs[:, :1]))
    rng = np.random.default_rng(4)
    pts = (0.7 * rng.uniform(size=50) * np.exp(2j * np.pi * rng.uniform(size=50))).reshape(-1, 1)
    back = hl.restrict(lifted)
    assert np.max(np.abs(back(pts) - f(pts))) < 1e-15
    # a flat array holds consecutive disc points, as in kernel_matrix
    assert np.array_equal(back(pts.ravel()), back(pts))


def test_bergman_norm_examples():
    spec = hl.BergmanSpec()
    const = lambda zs: np.full(zs.shape[0], 2.0 - 1.0j)
    for p in (1.0, 2.0, 4.0, np.inf):
        assert abs(hl.bergman_norm(const, p, spec) - abs(2.0 - 1.0j)) < 1e-12
    # radial moment oracle: ||z^2||_2^2 = 1/3
    got = hl.bergman_norm(lambda zs: zs[:, 0] ** 2, 2.0, spec) ** 2
    assert abs(got - 1.0 / 3.0) < 1e-13
    # monotone in p for the mass-1 measure
    norms = [hl.bergman_norm(lambda zs: zs[:, 0], p, spec) for p in (1.0, 2.0, 4.0)]
    assert norms[0] <= norms[1] <= norms[2]
    with pytest.raises(hl.ParameterError):
        hl.bergman_norm(const, 0.5, spec)


def test_subordination_checks():
    # ||f||_{A^p(D)} against the Hardy norm of the lift f~(z, w) = f(z) on the ball of C^2
    spec = hl.BergmanSpec()
    rule = hl.build_quadrature(hl.Domain(hl.BALL2), 16, angular=64)
    for f, p, tol in [(lambda zs: np.ones(zs.shape[0], dtype=complex), 2.0, 1e-14),
                      (lambda zs: zs[:, 0] ** 2, 2.0, 1e-10), (lambda zs: zs[:, 0], 4.0, 1e-8)]:
        h_side = lp_norm(_lift(f)(rule.nodes), rule, p)
        assert abs(hl.bergman_norm(f, p, spec) - h_side) / h_side < tol


def test_monomial_norm_equality_via_moments():
    # ||z^m||_{A^2(D)} equals the Hardy norm of the lift to the ball of C^2,
    # both given by the same factorial moments; the quadrature side must
    # match the closed form m! / (m+1)!.
    spec = hl.BergmanSpec()
    for m in range(0, 7):
        got = hl.bergman_norm(lambda zs, m=m: zs[:, 0] ** m, 2.0, spec) ** 2
        want = math.factorial(m) / math.factorial(m + 1)
        assert abs(got - want) < 1e-8 * want
        # Hardy-side moment formula on B_{n'} at n' = 2: (n'-1)! m! / (n'-1+m)!
        hardy = math.factorial(1) * math.factorial(m) / math.factorial(1 + m)
        assert abs(want - hardy) < 1e-15 * hardy


def test_kernel_norm_link():
    spec = hl.BergmanSpec(radial=48, angular=128)
    ball = hl.Domain(hl.BALL2)
    rule = hl.build_quadrature(ball, 24, angular=96)
    # ||k_{(a,0)}||_{H^p(B_2)} = ||(1 - conj(a) z)^{-2}||_{A^p(D)}: one function through the lift
    for a, p in [(0.5, 2.0), (0.3 + 0.2j, 2.0), (0.5, 4.0)]:
        point = (a, 0.0)
        a_side = hl.bergman_norm(hl.restrict(lambda zs: hl.kernel_matrix([point], zs, ball)[0]), p, spec)
        h_side = kernel_norm(point, p, rule)
        assert abs(a_side - h_side) / h_side < 1e-8


def _ball_rule():
    return hl.build_quadrature(hl.Domain(hl.BALL2), 16, angular=64)


def test_bergman_extension_single_point():
    spec = hl.BergmanSpec()
    U, rep = hl.bergman_extension([0.0], np.array([1.0 + 0j]), 1.0, 2.0, spec, rule=_ball_rule())
    assert rep.residuals[0] < 1e-10
    vals = U(np.array([[0.1 + 0.1j], [0.0]]))
    assert np.max(np.abs(vals - vals[0])) < 1e-10  # constant extension


def test_bergman_extension_two_points():
    spec = hl.BergmanSpec()
    U, rep = hl.bergman_extension([0.5, -0.5], np.array([1.0, 1.0], dtype=complex), 1.0, 2.0, spec,
                                  rule=_ball_rule())
    assert rep.max_rel_residual < 1e-8
    assert rep.details["restriction_contraction_ok"]
    assert rep.details["bergman_norm"] <= rep.details["h_norm"] * (1.0 + 1e-8)


def test_restriction_contraction_polynomial_panel():
    spec = hl.BergmanSpec(radial=48, angular=128)
    ball = hl.Domain(hl.BALL2)
    rule = hl.build_quadrature(ball, 24, angular=96)
    rng = np.random.default_rng(12)
    for _ in range(10):
        coeffs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

        def F(zs, coeffs=coeffs):
            out = np.zeros(zs.shape[0], dtype=complex)
            for i in range(3):
                for j in range(3):
                    out += coeffs[i, j] * zs[:, 0] ** i * zs[:, 1] ** j
            return out

        h_norm = lp_norm(F(rule.nodes), rule, 2.0)
        a_norm = hl.bergman_norm(hl.restrict(F), 2.0, spec)
        assert a_norm <= h_norm * (1.0 + 1e-8)


def test_spec_validation():
    for sizes in ({"radial": 0}, {"radial": -3}, {"angular": 0}):
        with pytest.raises(hl.ParameterError):
            hl.BergmanSpec(**sizes)
    assert abs(hl.BergmanSpec().weights.sum() - 1.0) < 1e-14


def test_norm_equality_under_lift_all_exponents():
    # z^m for p in {1, 2, 4}, m <= 6: both quadratures against the closed
    # form 1/(pm/2 + 1) for the p-th power of the norm.  Odd pm gives
    # half-integer radial powers where Gauss-Legendre converges only
    # algebraically, hence the high radial resolution.
    spec = hl.BergmanSpec(radial=512, angular=16)
    ball_rule = hl.build_quadrature(hl.Domain(hl.BALL2), 512, angular=4)
    worst = 0.0
    for p in (1.0, 2.0, 4.0):
        for m in range(0, 7):
            exact = (1.0 / (p * m / 2.0 + 1.0)) ** (1.0 / p)
            a_side = hl.bergman_norm(lambda zs, m=m: zs[:, 0] ** m, p, spec)
            h_side = lp_norm(_lift(lambda zs, m=m: zs[:, 0] ** m)(ball_rule.nodes), ball_rule, p)
            worst = max(worst, abs(a_side - h_side) / exact,
                        abs(a_side - exact) / exact, abs(h_side - exact) / exact)
    assert worst < 1e-8
