import functools
import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hardylab as hl
from conftest import inner_product, kernel_norm, lp_norm


def _kernel_at(a, z, dom) -> complex:
    """k_a(z) as the one entry of a 1 x 1 kernel matrix."""
    return complex(hl.kernel_matrix([a], [z], dom)[0, 0])


def test_kernel_eval_examples(disc, ball, bidisc):
    for dom, a, z in [(disc, [0.0], [0.7j]), (ball, [0.0, 0.0], [0.1, 0.2]),
                      (bidisc, [0.0, 0.0], [0.3, 0.4])]:
        assert _kernel_at(a, z, dom) == 1.0
    assert abs(_kernel_at([0.5], [0.5], disc) - 4.0 / 3.0) < 1e-15
    assert abs(_kernel_at([0.5, 0.0], [0.5, 0.0], ball) - 16.0 / 9.0) < 1e-15
    assert abs(_kernel_at([0.5, 0.5], [0.5, 0.5], bidisc) - 16.0 / 9.0) < 1e-15


def test_kernel_eval_boundary_point_rejected(disc):
    with pytest.raises(hl.DomainError):
        _kernel_at([1.0], [0.0], disc)


def _kernel_oracle(kind, a, z):
    """k_a(z) written out with Python complex arithmetic."""
    a, z = [complex(v) for v in a], [complex(v) for v in z]
    if kind == "disc":
        return 1.0 / (1.0 - a[0].conjugate() * z[0])
    if kind == "ball2":
        return (1.0 - a[0].conjugate() * z[0] - a[1].conjugate() * z[1]) ** -2
    return 1.0 / ((1.0 - a[0].conjugate() * z[0]) * (1.0 - a[1].conjugate() * z[1]))


def _polar_points(kind, raw):
    pts = []
    for r1, r2, t1, t2, psi in raw:
        if kind == "disc":
            pts.append([r1 * np.exp(1j * t1)])
        elif kind == "ball2":
            pts.append([r1 * np.cos(psi) * np.exp(1j * t1), r1 * np.sin(psi) * np.exp(1j * t2)])
        else:
            pts.append([r1 * np.exp(1j * t1), r2 * np.exp(1j * t2)])
    return np.array(pts)


def _polar(rmax, max_size):
    angle = st.floats(0.0, 2.0 * np.pi)
    return st.lists(st.tuples(st.floats(0.0, rmax), st.floats(0.0, rmax), angle, angle,
                              st.floats(0.0, np.pi / 2)), min_size=1, max_size=max_size)


@pytest.mark.parametrize("kind", ["disc", "ball2", "bidisc"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(a_raw=_polar(0.99, 4), z_raw=_polar(1.0, 5))
def test_kernel_matrix_matches_kernel_eval(kind, a_raw, z_raw):
    dom = hl.Domain(kind)
    A, Z = _polar_points(kind, a_raw), _polar_points(kind, z_raw)
    K = hl.kernel_matrix(A, Z, dom)
    assert K.shape == (len(A), len(Z))
    oracle = np.array([[_kernel_oracle(kind, a, z) for z in Z] for a in A])
    assert np.max(np.abs(K - oracle) / np.abs(oracle)) <= 1e-12
    # every entry is the same broadcast formula whatever the shape, so one point's
    # row, and k_a(a) alone, equal the full matrix's bit for bit (coeff_c reads
    # k_a(a) off the diagonal of the points against themselves)
    for i, a in enumerate(A):
        assert np.array_equal(hl.kernel_matrix([a], Z, dom)[0], K[i])
    diag = np.diagonal(hl.kernel_matrix(A, A, dom))
    assert np.array_equal(diag, [_kernel_at(a, a, dom) for a in A])


def _out_of_place_kernels(points, zs, kind):
    """The kernel formulas of kernel_matrix written out of place, one temporary per step."""
    ca = np.conj(points)[:, None, :]
    if kind == "disc":
        return 1.0 / (1.0 - ca[:, :, 0] * zs[None, :, 0])
    if kind == "ball2":
        return (1.0 - (ca[:, :, 0] * zs[None, :, 0] + ca[:, :, 1] * zs[None, :, 1])) ** -2
    return 1.0 / ((1.0 - ca[:, :, 0] * zs[None, :, 0]) * (1.0 - ca[:, :, 1] * zs[None, :, 1]))


# small rules keep the examples fast: 32 circle nodes, 4 x 8 x 8 on the sphere, 8 x 8 on the torus
_SMALL_RULES = {"disc": 32, "ball2": 4, "bidisc": 8}


@pytest.mark.parametrize("kind", ["disc", "ball2", "bidisc"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(a_raw=_polar(0.99, 4), z_raw=_polar(1.0, 5), q=st.sampled_from([1.0, 1.5, 2.0, 4.0, 6.5]))
def test_kernel_samples_formed_in_place_match_the_out_of_place_formulas(kind, a_raw, z_raw, q):
    # kernel_matrix forms its values in place and normalized_kernel_matrix and
    # chain_rows divide rows by norms through the real view of K; each must give
    # the bits of the out-of-place formula and of K / norms[:, None]
    dom = hl.Domain(kind)
    A, Z = _polar_points(kind, a_raw), _polar_points(kind, z_raw)
    want = _out_of_place_kernels(A, Z, kind)
    assert np.array_equal(hl.kernel_matrix(A, Z, dom), want)
    # numpy may round an in-place step on one element differently
    for i, j in itertools.product(range(len(A)), range(len(Z))):
        assert np.array_equal(hl.kernel_matrix(A[i:i + 1], Z[j:j + 1], dom), want[i:i + 1, j:j + 1])
    keys = {tuple(a) for a in A}
    if len(keys) < len(A):
        return  # a point sequence has distinct points
    seq = hl.PointSequence.create(dom, A)
    rule = hl.build_quadrature(dom, _SMALL_RULES[kind], angular=8 if kind == "ball2" else None)
    K = _out_of_place_kernels(seq.arrays(), rule.nodes, kind)
    assert np.array_equal(hl.normalized_kernel_matrix(seq, q, rule),
                          (K / hl.rule_norm(K, rule.weights, q)[:, None]).T)
    # a dual whose rho_a are the kernels themselves: chain_rows reads only its
    # points, its norm cache and X K
    n = len(seq)
    dual = hl.DualSystem(seq, 2.0, "collocation", np.ones(n), np.eye(n, dtype=complex), 1.0,
                         norms=hl.NormCache(dom))
    norms = np.array([dual.norms.norm(seq[i], q) for i in range(n)])
    rho, kq = hl.extension.chain_rows(dual, q, rule.nodes)
    assert np.array_equal(rho, K)
    assert np.array_equal(kq, K / norms[:, None])


def test_branch_check_outside_closed_domain(disc):
    with pytest.raises(hl.DomainError):
        hl.kernel_matrix([[0.9]], np.array([[1.2 + 0j]]), disc)


def test_kernel_matrix_rejects_points_of_the_wrong_width(disc, ball):
    # a wrong-width array was read by its first columns: k_a(0.1) on the disc
    for dom, a, zs in ((disc, [[0.5]], [[0.1, 0.9]]),
                       (disc, [[0.5]], np.zeros((1, 1, 1))),
                       (ball, [[0.5, 0.0]], np.zeros((4, 3))),
                       (ball, [[0.5, 0.0]], np.zeros(3))):
        with pytest.raises(hl.ShapeError, match=rf"\(M, {dom.n}\)"):
            hl.kernel_matrix(a, zs, dom)
    # (M, n) arrays and flat arrays of consecutive points still evaluate
    flat = np.array([0.1, 0.2j, -0.3, 0.0])
    assert np.array_equal(hl.kernel_matrix([[0.5, 0.0]], flat, ball),
                          hl.kernel_matrix([[0.5, 0.0]], flat.reshape(2, 2), ball))
    assert hl.kernel_matrix([[0.5]], [0.1, 0.2], disc).shape == (1, 2)


def test_conjugate_exponent():
    assert hl.conjugate_exponent(1.0) == np.inf
    assert hl.conjugate_exponent(np.inf) == 1.0
    assert abs(hl.conjugate_exponent(4.0) - 4.0 / 3.0) < 1e-15
    assert hl.conjugate_exponent(2.0) == 2.0
    with pytest.raises(hl.ParameterError):
        hl.conjugate_exponent(0.5)


def test_kernel_norm_closed_forms(disc, ball, disc_rule, disc_norms, ball_norms):
    a = np.array([0.5 + 0j])
    assert abs(kernel_norm(a, 2.0, disc_rule) - (4.0 / 3.0) ** 0.5) < 1e-12
    assert abs(disc_norms.norm(a, 2.0) - (4.0 / 3.0) ** 0.5) < 1e-12
    assert abs(ball_norms.norm(np.array([0.6, 0.0]), 2.0) - 1.5625) < 1e-10
    zero = np.zeros(2)
    for p in (1.0, 2.0, 4.0, np.inf):
        assert abs(ball_norms.norm(zero, p) - 1.0) < 1e-12


def test_rule_norms_matches_cache(disc, disc_rule, disc_norms):
    a = np.array([0.3 - 0.4j])
    for p in (1.0, 2.0, 4.0):
        assert abs(kernel_norm(a, p, disc_rule) - disc_norms.norm(a, p)) < 1e-10


def test_norm_cache_overflow_is_numeric_error(ball_norms):
    # at p ~ 1000 the transformed series' terms exceed the float range
    with pytest.raises(hl.NumericError):
        ball_norms.norm(np.array([0.9, 0.0]), 1000.5)


def test_kernel_norm_quadrature_matches_cache(disc_rule, ball_rule, bidisc_rule,
                                             disc_norms, ball_norms, bidisc_norms):
    # the sampled reference and the closed forms agree where the rules resolve the kernel
    rng = np.random.default_rng(3)
    for rule, cache, rmax in ((disc_rule, disc_norms, 0.95), (ball_rule, ball_norms, 0.6),
                              (bidisc_rule, bidisc_norms, 0.8)):
        n = rule.domain.n
        for _ in range(4):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            scale = np.max(np.abs(v)) if rule.domain.kind == "bidisc" else np.linalg.norm(v)
            a = rng.uniform(0.1, rmax) * v / scale
            for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
                want = cache.norm(a, p)
                assert abs(kernel_norm(a, p, rule) - want) / want < 1e-10


def _oracle_norm(kind: str, radii, p: float):
    """||k_a||_p from mpmath's 2F1 (Rudin 1.4.10), or the sup closed form."""
    with mpmath.workdps(30):
        if kind == "ball2":
            r = mpmath.mpf(radii[0])
            if p == np.inf:
                return (1 - r) ** -2
            return mpmath.hyp2f1(p, p, 2, r * r) ** (1 / mpmath.mpf(p))
        value = mpmath.mpf(1)
        for r in map(mpmath.mpf, radii):
            if p == np.inf:
                value /= 1 - r
            else:
                value *= mpmath.hyp2f1(p / 2, p / 2, 1, r * r) ** (1 / mpmath.mpf(p))
        return value


@pytest.mark.parametrize("kind", ["disc", "ball2", "bidisc"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(r1=st.floats(0.0, 0.9999), r2=st.floats(0.0, 0.9999),
       p=st.one_of(st.floats(1.0, 12.0), st.just(np.inf)))
def test_norm_cache_matches_hypergeometric_oracle(kind, r1, r2, p):
    # real points, so the radius the engine derives is exactly the oracle's
    point, radii = {"disc": ([r1], [r1]), "ball2": ([r1, 0.0], [r1]),
                    "bidisc": ([r1, r2], [r1, r2])}[kind]
    cache = hl.NormCache(hl.Domain(kind))
    t = cache.table(np.array(point, dtype=complex), [p])
    exact = _oracle_norm(kind, radii, p)
    err = float(abs(t.norm(p) - exact) / exact)
    assert err <= 1e-13
    # the tail bound is honest (covers all error beyond rounding) and meets its target
    assert t.residual >= err - 1e-13
    assert t.residual <= 2.0**-59
    assert cache.report()["worst_residual"] == t.residual


@pytest.mark.parametrize("domkind", ["disc", "ball2", "bidisc"])
def test_l2_norm_equals_kernel_diagonal(domkind):
    dom = hl.Domain(domkind)
    cache = hl.NormCache(dom)
    rng = np.random.default_rng(5)
    for _ in range(8):
        v = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
        if domkind == "bidisc":
            a = 0.9 * rng.uniform(0.1, 1.0) * v / np.max(np.abs(v))
        else:
            a = 0.9 * rng.uniform(0.1, 1.0) * v / np.linalg.norm(v)
        n2 = cache.norm(a, 2.0)
        diag = _kernel_at(a, a, dom).real
        assert abs(n2**2 - diag) / diag < 1e-10


def test_norm_monotonicity(disc_norms, ball_norms, bidisc_norms):
    pts = {
        "disc": np.array([0.85 * np.exp(0.7j)]),
        "ball2": np.array([0.5, 0.6j]),
        "bidisc": np.array([0.8, 0.51j]),
    }
    for cache in (disc_norms, ball_norms, bidisc_norms):
        t = cache.table(pts[cache.domain.kind], [1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, 8.0, np.inf])
        t.check_monotone()


def test_norm_table_json(disc_norms):
    t = disc_norms.table(np.array([0.4 + 0j]), [2.0, 4.0])
    data = t.to_json()
    assert "norms" in data and 0.0 <= data["residual"] <= 2.0**-60
    with pytest.raises(hl.DependencyError):
        t.norm(8.0)


def _projection(f, a, rule) -> complex:
    """<f, k_a> on ``rule`` for f sampled at its nodes: the analytic projection of f at a."""
    return inner_product(f, hl.kernel_matrix([a], rule.nodes, rule.domain)[0], rule)


def _reproducing_residual(f, a, rule) -> float:
    """|<f, k_a> - f(a)| for a vectorized evaluator f((M, n)) -> (M,)."""
    a = rule.domain.point(a)
    return abs(_projection(f(rule.nodes), a, rule) - f(a.reshape(1, -1))[0])


def test_reproducing_property(disc, ball, disc_rule, ball_rule):
    rule128 = hl.build_quadrature(disc, 128)
    assert _reproducing_residual(lambda zs: np.ones(zs.shape[0], dtype=complex),
                                 np.array([0.3 + 0.2j]), rule128) < 1e-14
    # trapezoid aliasing leaves ~|a|^(M+3); at M = 128 this is far below 1e-10
    assert _reproducing_residual(lambda zs: zs[:, 0] ** 3, np.array([0.7 + 0j]), rule128) < 1e-10
    res = _reproducing_residual(lambda zs: zs[:, 0] * zs[:, 1], np.array([0.3, 0.4j]), ball_rule)
    assert res < 1e-10


@functools.lru_cache(maxsize=None)
def _repro_rule(kind):
    """A rule on which polynomials of degree <= 4 pair exactly with k_a, |a| <= 0.7,
    up to trapezoid aliasing of order |a|^124."""
    dom = hl.Domain(kind)
    if kind == hl.BALL2:
        return hl.build_quadrature(dom, 6, angular=128)
    return hl.build_quadrature(dom, 256 if kind == hl.DISC else 128)


@pytest.mark.parametrize("kind", [hl.DISC, hl.BALL2, hl.BIDISC])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.floats(0.0, 0.7))
def test_reproducing_property_at_random_points(kind, seed, r):
    # <f, k_a> = f(a) for a random polynomial f of degree <= 4
    dom = hl.Domain(kind)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
    a = r * (v / np.abs(v) if kind == hl.BIDISC else v / np.linalg.norm(v))
    powers = [al for al in itertools.product(range(5), repeat=dom.n) if sum(al) <= 4]
    c = rng.standard_normal(len(powers)) + 1j * rng.standard_normal(len(powers))

    def f(zs):
        return sum(ck * np.prod(zs ** np.array(al), axis=1) for ck, al in zip(c, powers))

    assert _reproducing_residual(f, a, _repro_rule(kind)) <= 1e-12 * np.sum(np.abs(c))


def _poisson(a, rule) -> np.ndarray:
    """P_a = |k_a|^2 / ||k_a||_2^2 at the nodes of ``rule``, normalized on the rule itself."""
    k = hl.kernel_matrix([a], rule.nodes, rule.domain)[0]
    return np.abs(k) ** 2 / hl.rule_power(k, rule.weights, 2.0)


def test_poisson_kernel(disc, ball, bidisc, disc_rule, ball_rule, bidisc_rule):
    pz = _poisson(np.zeros(1), disc_rule)
    assert np.max(np.abs(pz - 1.0)) < 1e-12
    pa = _poisson(np.array([0.5 + 0j]), disc_rule)
    assert abs(lp_norm(pa, disc_rule, 1.0) - 1.0) < 1e-12
    assert abs(inner_product(disc_rule.nodes[:, 0], pa, disc_rule) - 0.5) < 1e-12

    # reproduction of monomials of degree <= 8 on all three domains
    rng = np.random.default_rng(11)
    for dom, rule, radius in ((disc, disc_rule, 0.9), (ball, ball_rule, 0.7), (bidisc, bidisc_rule, 0.8)):
        v = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
        scale = np.max(np.abs(v)) if dom.kind == "bidisc" else np.linalg.norm(v)
        a = radius * v / scale
        kernel = _poisson(a, rule)
        for degs in ([3], [8], [2]) if dom.n == 1 else ([1, 2], [4, 4], [8, 0]):
            def mono(zs, degs=degs):
                out = np.ones(zs.shape[0], dtype=complex)
                for j, d in enumerate(degs):
                    out = out * zs[:, j] ** d
                return out
            want = np.prod([a[j] ** d for j, d in enumerate(degs)])
            got = inner_product(mono(rule.nodes), kernel, rule)
            assert abs(got - want) < 1e-10


def test_analytic_projection(disc, disc_rule):
    z = disc_rule.nodes[:, 0]
    assert abs(_projection(np.conj(z), np.array([0.5 + 0j]), disc_rule)) < 1e-13
    a = np.array([0.4 - 0.3j])
    assert abs(_projection(2.0 * z**2 - 1.0j, a, disc_rule) - (2.0 * a[0] ** 2 - 1.0j)) < 1e-12
    assert abs(_projection(np.ones_like(z), a, disc_rule) - 1.0) < 1e-13


def test_sh_q_scan(disc, disc_norms):
    grid = [np.array([r], dtype=complex) for r in np.linspace(0.0, 0.95, 15)]
    scan2 = hl.sh_q_scan(disc, 2.0, grid, disc_norms)
    assert all(abs(r - 1.0) <= 1e-10 for _, r in scan2.ratios)
    scan4 = hl.sh_q_scan(disc, 4.0, grid, disc_norms)
    assert all(r <= 1.0 + 1e-10 for _, r in scan4.ratios)
    assert scan4.extremum > 0
    assert abs(scan4.ratios[0][1] - 1.0) < 1e-12  # a = 0
    assert scan4.worst_residual < 1e-8
    # q = 1 is the L^1-L^inf pair, which the extension reaches at p = inf, s = 1
    scan1 = hl.sh_q_scan(disc, 1.0, grid, disc_norms)
    assert all(0.0 < r <= 1.0 + 1e-10 for _, r in scan1.ratios)
    for q in (0.5, np.inf):
        with pytest.raises(hl.ParameterError):
            hl.sh_q_scan(disc, q, grid, disc_norms)


def test_sh_ps_scan_disc_closed_form(disc, disc_norms):
    # s = 1, p = q = 2: ratio is ||k||_inf / ||k||_2^2 = 1 + r on the disc
    grid = [np.array([r], dtype=complex) for r in (0.0, 0.3, 0.6, 0.9)]
    scan = hl.sh_ps_scan(disc, 2.0, 1.0, grid, disc_norms)
    for (pt, ratio), r in zip(scan.ratios, (0.0, 0.3, 0.6, 0.9)):
        assert abs(ratio - (1.0 + r)) < 1e-9
    assert abs(scan.extremum - 1.9) < 1e-9
    assert scan.extremum <= 2.0


def test_sh_ps_scan_bidisc(bidisc, bidisc_norms):
    scan = hl.sh_ps_scan(bidisc, 2.0, 1.0, [np.array([0.5, 0.5])], bidisc_norms)
    assert np.isfinite(scan.extremum) and scan.extremum >= 1.0 - 1e-12


def _interpolation_sides(a, p: float, q: float, norms) -> tuple:
    """(lhs, rhs) of ||k_a||_{2p} <= ||k_a||_2^{1-theta} ||k_a||_{2q}^theta, 1/p = 1 - theta + theta/q."""
    theta = (1.0 - 1.0 / p) / (1.0 - 1.0 / q)
    t = norms.table(a, [2.0, 2.0 * p, 2.0 * q])
    return t.norm(2.0 * p), t.norm(2.0) ** (1.0 - theta) * t.norm(2.0 * q) ** theta


def test_holder_interp_check(disc_norms, ball_norms):
    cases = [(disc_norms, [0.0], 2.0, 3.0), (disc_norms, [0.8], 2.0, 3.0),
             (disc_norms, [0.8], 3.0, 3.0), (ball_norms, [0.4, 0.5j], 2.0, 4.0)]
    for norms, a, p, q in cases:
        lhs, rhs = _interpolation_sides(np.array(a, dtype=complex), p, q, norms)
        assert lhs <= rhs * (1.0 + 1e-10)
        if a[0] == 0.0:
            assert abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12
        if p == q:  # theta = 1 degenerate
            assert abs(lhs - rhs) < 1e-12


def test_stein_weiss_weights(disc_norms, ball_norms):
    # raised to the power -2p the interpolation inequality flips into the weight
    # comparison omega'_p = ||k||_2^{-2p(1-theta)} ||k||_{2q}^{-2p theta} <= omega_p = ||k||_{2p}^{-2p}
    cases = [(disc_norms, [0.0], 2.0, 4.0), (disc_norms, [0.7], 2.0, 4.0),
             (ball_norms, [0.45 / 2**0.5, 0.45j / 2**0.5], 2.0, 3.0)]
    for norms, a, p, q in cases:
        lhs, rhs = _interpolation_sides(np.array(a, dtype=complex), p, q, norms)
        w_interp, w_direct = rhs ** (-2.0 * p), lhs ** (-2.0 * p)
        assert w_interp <= w_direct * (1.0 + 1e-10)
        if a[0] == 0.0:
            assert abs(w_interp - 1.0) < 1e-12 and abs(w_direct - 1.0) < 1e-12


def test_blaschke_factor_unimodular_on_boundary(disc, disc_rule):
    # each Blaschke dual function is a constant times a finite Blaschke
    # product, so its modulus is constant on the circle
    seq = hl.PointSequence.create(disc, [0.5, -0.2j, 0.0, 0.7 + 0.1j])
    rho = np.abs(hl.dual_system(seq, np.inf, "blaschke").values(disc_rule.nodes))
    assert np.max(np.abs(rho / rho[:, :1] - 1.0)) < 1e-12


def test_sh_constants_json(disc, disc_norms):
    grid = [np.array([r], dtype=complex) for r in (0.0, 0.5)]
    scan = hl.sh_q_scan(disc, 4.0, grid, disc_norms)
    data = scan.to_json()
    assert data["hypothesis"] == "sh_q"
    assert len(data["ratios"]) == 2
    rows = scan.csv_rows()
    assert rows[0][-1] == "sh_q" and len(rows[0]) == 4  # re, im, ratio, tag
