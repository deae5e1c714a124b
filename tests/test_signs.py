import dataclasses
import itertools
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hardylab as hl


def _random_instance(n, m, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.uniform(0.1, 1.0, m)
    return rows, coeffs, w / w.sum()


def _all_patterns(n):
    """Every +-1 pattern of n signs, one per row (one empty pattern at n = 0)."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n))).reshape(1 << n, n)


def test_sign_matrix_enumeration():
    # the largest table the engine builds: 2^10 patterns of K <= EXACT_CAP // 2 signs
    k = 10
    all_rows = hl.signs._sign_matrix(k)
    assert all_rows.shape == (1 << k, k) and all_rows.dtype == float
    assert set(np.unique(all_rows)) == {-1.0, 1.0}
    assert len({tuple(r) for r in all_rows}) == 1 << k
    # fixed order: sign j of pattern i is bit j of i
    for i in (0, 1, 2, 5, 1000, (1 << k) - 1):
        assert tuple(all_rows[i]) == tuple(1.0 if i >> j & 1 else -1.0 for j in range(k))
    assert hl.signs._sign_matrix(0).shape == (1, 0)


def test_first_and_second_moments():
    n = 6
    block = _all_patterns(n)
    total = block.sum(axis=0) / (1 << n)
    cross = block.T @ block / (1 << n)
    assert np.max(np.abs(total)) < 1e-15
    assert np.max(np.abs(cross - np.eye(n))) < 1e-15


def test_expect_capacity_and_mc_validation():
    # the cap binds the enumerated exponents (p = 3 here) only
    one = np.ones(1)
    with pytest.raises(hl.CapacityError):
        hl.sign_moments(np.ones((21, 1)), np.ones(21), one, 3.0)
    with pytest.raises(hl.CapacityError):  # the cap counts the zeros too
        hl.sign_moments(np.ones((21, 1)), np.eye(21)[3], one, 3.0)
    with pytest.raises(hl.ParameterError):
        hl.sign_moments(np.ones((4, 1)), np.ones(4), one, 2.0, method="monte-carlo",
                        samples=100)  # no seed
    with pytest.raises(hl.ParameterError):
        hl.sign_moments(np.ones((4, 1)), np.ones(4), one, 2.0, method="monte-carlo",
                        seed=1)  # no samples
    with pytest.raises(hl.ParameterError):
        hl.sign_moments(np.ones((4, 1)), np.ones(4), one, 2.0, method="bogus")


def test_mc_reproducible_and_consistent():
    rows = np.array([[1.0], [0.5], [-0.25]])
    a = hl.sign_moments(rows, np.ones(3), np.ones(1), 3.0, method="monte-carlo",
                        samples=4000, seed=42)
    b = hl.sign_moments(rows, np.ones(3), np.ones(1), 3.0, method="monte-carlo",
                        samples=4000, seed=42)
    assert a.value == b.value and a.stderr == b.stderr
    exact = hl.sign_moments(rows, np.ones(3), np.ones(1), 3.0).value
    assert abs(a.value - exact) <= 4.0 * a.stderr


def test_khintchine_q2_is_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert abs(hl.khintchine_ratio(x, 2.0)[0] - 1.0) < 1e-12


def test_khintchine_examples():
    assert abs(hl.khintchine_ratio(np.array([1.0, 1.0]), 4.0)[0] - 2.0) < 1e-12
    for q in (1.0, 2.0, 3.0, 4.0):
        assert abs(hl.khintchine_ratio(np.array([1.0, 0.0, 0.0]), q)[0] - 1.0) < 1e-12


def test_khintchine_invariances():
    # invariant under permutation, global unimodular scaling, and entry sign
    # flips (eps_a <-> -eps_a); note a single entry times a general
    # unimodular constant does change the law of |sum eps_a x_a|.
    rng = np.random.default_rng(3)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    q = 3.0
    base, _ = hl.khintchine_ratio(x, q)
    assert abs(hl.khintchine_ratio(x[::-1], q)[0] - base) < 1e-12
    assert abs(hl.khintchine_ratio(np.exp(0.7j) * x, q)[0] - base) < 1e-12
    y = x.copy()
    y[2] *= -1.0
    assert abs(hl.khintchine_ratio(y, q)[0] - base) < 1e-12


def test_khintchine_single_entry_rotation_changes_law():
    # counterexample fixing the direction of the invariance above
    assert abs(hl.khintchine_ratio(np.array([1.0, 1.0]), 4.0)[0] - 2.0) < 1e-12
    assert abs(hl.khintchine_ratio(np.array([1.0, 1.0j]), 4.0)[0] - 1.0) < 1e-12


def test_khintchine_validation():
    with pytest.raises(hl.ParameterError):
        hl.khintchine_ratio(np.zeros(3), 2.0)
    with pytest.raises(hl.ParameterError):
        hl.khintchine_ratio(np.array([1.0]), 0.5)
    with pytest.raises(hl.ParameterError):
        hl.khintchine_ratio(np.array([1.0]), np.inf)


def test_khintchine_zero_entries_are_not_enumerated(monkeypatch):
    seen = []
    sign_moments = hl.signs.sign_moments

    def spy(*args):
        mom = sign_moments(*args)
        seen.append(mom.patterns)
        return mom

    monkeypatch.setattr(hl.signs, "sign_moments", spy)
    x = np.array([1.0, -0.5j, 0.25 + 0.75j])
    for q, patterns in ((1.0, 4), (3.0, 4), (5.999999999999997, 0)):
        base, _ = hl.khintchine_ratio(x, q)
        padded, _ = hl.khintchine_ratio(np.concatenate([x, np.zeros(9)]), q)
        assert padded == base
        # 2^(3-1), not the 2^(12-1) of twelve entries; none on the closed form at q = 6
        assert seen[-2:] == [patterns, patterns]


def test_khintchine_mc_close_to_exact():
    x = np.array([1.0, -0.5j, 0.25])
    exact, exact_err = hl.khintchine_ratio(x, 4.0)
    mc, mc_err = hl.khintchine_ratio(x, 4.0, method="monte-carlo", samples=200000, seed=9)
    assert abs(mc - exact) < 0.05
    assert exact_err == 0.0 and 0.0 < mc_err < 0.05


def test_mc_matches_exact_at_n12():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)

    exact = hl.sign_moments(x[:, None], np.ones(12), np.ones(1), 3.0).value
    mc = hl.sign_moments(x[:, None], np.ones(12), np.ones(1), 3.0, method="monte-carlo",
                         samples=3000, seed=21)
    assert abs(mc.value - exact) <= 4.0 * mc.stderr


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 5),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]), seed=st.integers(0, 2**32 - 1))
def test_sign_moments_match_brute_force(n, m, p, seed):
    rows, coeffs, w = _random_instance(n, m, seed)
    mag = np.abs([(np.array(eps) * coeffs) @ rows
                  for eps in itertools.product((-1.0, 1.0), repeat=n)])
    if p == np.inf:
        nodes = mag.max(axis=0)
        best = nodes.max()
    else:
        nodes = (mag**p).mean(axis=0)
    mom = hl.sign_moments(rows, coeffs, w, p)
    assert np.allclose(mom.nodes, nodes, rtol=1e-12, atol=0.0)
    assert abs(mom.value - w @ nodes) <= 1e-12 * (w @ nodes)
    if p == np.inf:
        assert abs(max(mom.nodes) - best) <= 1e-12 * best
    assert mom.stderr == 0.0
    assert np.allclose(mom.square, np.sum(np.abs(coeffs[:, None] * rows) ** 2, axis=0),
                       rtol=1e-12, atol=0.0)
    if p == 2.0:
        # sign orthogonality: E|f|^2 is the square function
        assert np.allclose(mom.nodes, mom.square, rtol=1e-12, atol=0.0)


def _mp_enumeration(terms, p):
    """Per-node mean of |f|^p over all 2^K sign patterns at 40 digits, and the largest
    |p/2 ln|f|^2| over the patterns with f != 0 (0 if there is none)."""
    means, top = [], mpmath.mpf(0)
    with mpmath.workdps(40):
        for col in terms.T:
            xs = [mpmath.mpc(complex(x)) for x in col]
            total = mpmath.mpf(0)
            for eps in itertools.product((-1, 1), repeat=len(xs)):
                mag = abs(mpmath.fsum(e * x for e, x in zip(eps, xs)))
                if mag:
                    total += mag**p
                    top = max(top, abs(p / 2 * mpmath.log(mag**2)))
            means.append(total / 2 ** len(xs))
        return [float(v) for v in means], float(top)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(0, 10), m=st.integers(1, 2), p=st.sampled_from([1.0, 1.2, 1.5, 3.0, 5.0]),
       seed=st.integers(0, 2**32 - 1), zero_bits=st.integers(0, 2**10 - 1), pair=st.booleans())
@example(k=0, m=2, p=1.5, seed=0, zero_bits=0, pair=False)
@example(k=2, m=1, p=3.0, seed=1, zero_bits=0, pair=True)
def test_half_enumeration_matches_mpmath(k, m, p, seed, zero_bits, pair):
    # |f|^p is exp(p/2 ln|f|^2): each term is within about (|p/2 ln|f|^2| + 2) u
    # of the exact power (u = 2^-53), and f = 0 (N = 0, zero terms, a pair
    # x, -x) gives exp(-inf) = 0 with no warning; terms span 1e-6 to 1e6
    rng = np.random.default_rng(seed)
    terms = 10.0 ** rng.uniform(-6, 6, (k, m)) * np.exp(2j * np.pi * rng.uniform(size=(k, m)))
    terms[[i for i in range(k) if zero_bits >> i & 1]] = 0.0
    if pair and k >= 2:
        terms[1] = -terms[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = hl.signs._half_enumeration(terms, p)
    assert not caught, [str(w.message) for w in caught]
    want, top = _mp_enumeration(terms, p)
    bound = 64 * 2.0**-53 * (1.0 + top)
    for have, ref in zip(got, want):
        assert abs(have - ref) <= bound * ref, (have, ref, bound)


def _gemm_enumeration(rows, coeffs, w, p):
    """The full 2^N enumeration by one GEMM per block of patterns."""
    n = coeffs.size
    mag = np.abs((_all_patterns(n) * coeffs[None, :]) @ rows)
    nodes = np.max(mag, axis=0) if p == np.inf else np.sum(mag**p, axis=0) / (1 << n)
    return nodes, float(w @ nodes)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 5.999999999999997, np.inf])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 12, 17])
def test_sign_moments_match_gemm_enumeration(n, p):
    # odd and even splits of the N - 1 free signs, and the empty and
    # single-row tables at N = 0 and N = 1
    rows, coeffs, w = _random_instance(n, 9, 100 + n)
    nodes, value = _gemm_enumeration(rows, coeffs, w, p)
    mom = hl.sign_moments(rows, coeffs, w, p)
    closed = p in (2.0, 5.999999999999997)  # even exponents take the closed form
    assert mom.patterns == (0 if closed else 1 << max(n - 1, 0))
    assert mom.route == ("closed-form" if closed else "enumeration")
    assert np.allclose(mom.nodes, nodes, rtol=1e-13, atol=0.0)
    assert abs(mom.value - value) <= 1e-13 * value
    if p == np.inf:
        assert abs(max(mom.nodes) - max(nodes)) <= 1e-13 * max(nodes)
    if n == 0:
        assert not np.any(mom.nodes)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, np.inf])
def test_node_blocks_match_one_pass(p):
    # two full blocks of 4096 nodes and a short third one; p = 2 runs no
    # blocks, its moment is the square function of all nodes at once
    rows, coeffs, w = _random_instance(5, 2 * 4096 + 3, 17)
    mom = hl.sign_moments(rows, coeffs, w, p)
    terms = coeffs[:, None] * rows
    one_pass = {1.5: lambda: hl.signs._half_enumeration(terms, p),
                2.0: lambda: hl.signs._square_function(rows, coeffs),
                4.0: lambda: hl.signs._even_moment(terms, 2),
                np.inf: lambda: hl.signs._half_enumeration(terms, p)}[p]()
    assert np.array_equal(mom.nodes, one_pass)
    nodes, value = _gemm_enumeration(rows, coeffs, w, p)
    assert np.allclose(mom.nodes, nodes, rtol=1e-13, atol=0.0)
    assert abs(mom.value - value) <= 1e-13 * value


@pytest.mark.parametrize("p", [1.5, np.inf])
@pytest.mark.parametrize("n,m", [(16, 256), (12, 9), (11, 1), (3, 9)])
def test_table_b_slices_match_the_whole_table(monkeypatch, n, m, p):
    # B in 8, 2 and 1 slices of 32 rows, and one shorter than a slice: the
    # bits of forming all of B at once
    rows, coeffs, _ = _random_instance(n, m, 40 + n)
    terms = coeffs[:, None] * rows
    sliced = hl.signs._half_enumeration(terms, p)
    monkeypatch.setattr(hl.signs, "_B_ROWS", 1 << n)
    assert np.array_equal(sliced, hl.signs._half_enumeration(terms, p))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(1, 5), zero_bits=st.integers(0, 2**8 - 1),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.999999999999997, np.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_zero_coefficients_leave_the_moments_unchanged(n, m, zero_bits, p, seed):
    # a zero coefficient only doubles every pattern, so dropping its row
    # changes no per-node moment; zero_bits = 0 keeps every term, an
    # all-zero vector leaves the empty sum
    rows, coeffs, w = _random_instance(n, m, seed)
    coeffs[[k for k in range(n) if zero_bits >> k & 1]] = 0.0
    keep = coeffs != 0
    full = hl.sign_moments(rows, coeffs, w, p)
    kept = hl.sign_moments(rows[keep], coeffs[keep], w, p)
    # the engine itself drops the zero terms, so the figures agree bit for bit
    assert np.array_equal(full.nodes, kept.nodes)
    assert np.array_equal(full.square, kept.square)
    assert full.value == kept.value
    closed = p in (2.0, 5.999999999999997)  # no pattern is evaluated on the closed form
    assert full.patterns == kept.patterns == (0 if closed else 1 << max(int(keep.sum()) - 1, 0))
    if not np.any(keep):
        assert not np.any(full.nodes) and not np.any(kept.nodes)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(support=st.lists(st.integers(0, 19), min_size=3, max_size=3, unique=True),
       m=st.integers(1, 5), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_moments_at_the_cap_match_brute_force_over_the_support(support, m, p, seed):
    # N = 20 would be 2^19 patterns; three nonzero coefficients leave four
    rows, coeffs, w = _random_instance(20, m, seed)
    sparse = np.zeros(20, dtype=complex)
    sparse[support] = coeffs[support]
    mag = np.abs([(np.array(eps) * sparse[support]) @ rows[support]
                  for eps in itertools.product((-1.0, 1.0), repeat=3)])
    nodes = mag.max(axis=0) if p == np.inf else (mag**p).mean(axis=0)
    mom = hl.sign_moments(rows, sparse, w, p)
    assert mom.patterns == (0 if p == 2.0 else 4)  # p = 2 takes the closed form
    assert np.allclose(mom.nodes, nodes, rtol=1e-13, atol=0.0)
    # the square function over every term agrees, and its product runs over
    # the support alone, so the dropped terms leave its bits as they are
    square = np.sum((np.abs(sparse)[:, None] * np.abs(rows)) ** 2, axis=0)
    assert np.allclose(mom.square, square, rtol=1e-15, atol=0.0)
    kept = rows[sorted(support)]
    assert np.array_equal(mom.square, np.abs(sparse[sorted(support)]) ** 2
                          @ (kept.real ** 2 + kept.imag ** 2))


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_all_zero_coefficients_at_the_cap_leave_the_empty_sum(p):
    rows, _, w = _random_instance(20, 7, 11)
    mom = hl.sign_moments(rows, np.zeros(20), w, p)
    assert mom.patterns == (0 if p == 2.0 else 1)  # p = 2 takes the closed form
    assert not np.any(mom.nodes) and mom.value == 0.0 and not np.any(mom.square)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(m=st.integers(1, 4), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_sign_moments_mc_reproducible_and_near_exact(m, p, seed):
    rows, coeffs, w = _random_instance(12, m, seed)
    runs = [hl.sign_moments(rows, coeffs, w, p, method="monte-carlo", samples=2000, seed=seed)
            for _ in range(2)]
    assert runs[0].patterns == 2000
    assert np.array_equal(runs[0].nodes, runs[1].nodes)
    assert (runs[0].value, runs[0].stderr) == (runs[1].value, runs[1].stderr)
    exact = hl.sign_moments(rows, coeffs, w, p)
    assert abs(runs[0].value - exact.value) <= 4.0 * runs[0].stderr


def test_sign_moments_validation():
    rows, coeffs, w = _random_instance(3, 4, 0)
    with pytest.raises(hl.ShapeError):
        hl.sign_moments(rows, coeffs[:2], w, 2.0)
    with pytest.raises(hl.ShapeError):
        hl.sign_moments(rows, coeffs, w[:3], 2.0)
    with pytest.raises(hl.ShapeError):
        hl.sign_moments(rows[0], coeffs, w, 2.0)
    with pytest.raises(hl.ParameterError):  # a sampled sup bounds nothing
        hl.sign_moments(rows, coeffs, w, np.inf, method="monte-carlo", samples=10, seed=1)


@pytest.mark.parametrize("method", ["montecarlo", "exact ", "exakt"])
def test_misspelled_method_is_rejected(method):
    with pytest.raises(hl.ParameterError, match="unknown expectation method"):
        hl.khintchine_ratio(np.array([1.0, 1.0]), 4.0, method=method, samples=50, seed=1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(k=st.sampled_from([1, 2, 3]), n=st.integers(0, 12), m=st.integers(1, 5),
       zero_bits=st.integers(0, 2**12 - 1), seed=st.integers(0, 2**32 - 1))
def test_even_closed_form_matches_enumeration(k, n, m, zero_bits, seed):
    # E|f|^{2k} by the closed form against the 2^(N-1) enumeration over every
    # term, zero coefficients included; the expansion cancels between complex
    # terms by at most a factor 2^(k-1), so a few hundred ulps is ample
    rows, coeffs, w = _random_instance(n, m, seed)
    coeffs[[j for j in range(n) if zero_bits >> j & 1]] = 0.0
    mom = hl.sign_moments(rows, coeffs, w, 2.0 * k)
    assert (mom.route, mom.patterns, mom.p) == ("closed-form", 0, 2.0 * k)
    nodes = hl.signs._half_enumeration(coeffs[:, None] * rows, 2.0 * k)
    assert np.allclose(mom.nodes, nodes, rtol=1e-13, atol=0.0)
    if not np.any(coeffs):
        assert not np.any(mom.nodes)


def test_even_exponent_snap_boundary():
    # within 8 ulps of 6 an exponent takes the closed form at exactly 6;
    # anything farther, odd or infinite enumerates at the exponent given
    rows, coeffs, w = _random_instance(6, 4, 3)
    exact_six = hl.sign_moments(rows, coeffs, w, 6.0)
    below, above = 6.0, 6.0
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
    for p in (below, above):
        mom = hl.sign_moments(rows, coeffs, w, p)
        assert (mom.route, mom.p, mom.patterns) == ("closed-form", 6.0, 0)
        assert np.array_equal(mom.nodes, exact_six.nodes)
    for p in (6.0 + 1e-9, 5.0, 7.0, np.inf):
        mom = hl.sign_moments(rows, coeffs, w, p)
        assert (mom.route, mom.p, mom.patterns) == ("enumeration", p, 32)
    assert hl.sign_moments(rows, coeffs, w, 2.0 * hl.signs._EVEN_MAX_K + 2.0).route == "enumeration"


def _khintchine_by_division(mom):
    """``khintchine_factor`` by its formula: max E|f|^p / square^(p/2) over positive squares."""
    den = mom.square ** (mom.p / 2.0)
    ok = den > 0
    return float(np.max(mom.nodes[ok] / den[ok])) if np.any(ok) else 0.0


def test_p2_khintchine_factor_skips_the_division():
    # at p = 2 the moments are the square function itself, and x / x**1.0 is
    # 1 at every finite x > 0, so the factor needs no per-node ratio
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    mom = hl.sign_moments(rows, rng.standard_normal(4), np.full(64, 1 / 64), 2.0)
    assert mom.nodes is mom.square
    with_zeros = rng.random(64)
    with_zeros[::3] = 0.0
    squares = [rng.random(64) * 10.0 ** rng.integers(-300, 300, 64), with_zeros, np.zeros(64),
               np.array([0.5, np.nan, 2.0]), np.array([np.nan, 0.0]), np.array([0.5, np.inf])]
    for square in squares:
        moments = dataclasses.replace(mom, nodes=square, square=square)
        with np.errstate(invalid="ignore"):  # inf / inf is nan either way
            fast, slow = moments.khintchine_factor(), _khintchine_by_division(moments)
        assert np.array_equal([fast], [slow], equal_nan=True)
    assert [dataclasses.replace(mom, nodes=sq, square=sq).khintchine_factor()
            for sq in squares[:3]] == [1.0, 1.0, 0.0]


def test_p2_moments_on_a_ball_dual_match_enumeration(ball):
    # the engine's p = 2 moment is the square function, which sign
    # orthogonality makes the mean of |f|^2 over every pattern: checked on
    # the gram2 ball dual of the report battery, |a| up to 0.99, 64^2 x 16 nodes
    rng = np.random.default_rng(7)
    pts = []
    for r in (0.0, 0.5, 0.9, 0.99):
        v = rng.standard_normal(4)
        v = r * v / np.linalg.norm(v)
        pts.append([v[0] + 1j * v[1], v[2] + 1j * v[3]])
    dual = hl.dual_system(hl.PointSequence.create(ball, pts), 2.0, "gram2")
    rule = hl.build_quadrature(ball, 16, angular=64)
    rows = hl.extension.chain_rows(dual, 2.0, rule.nodes)
    for vals in rows:
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mom = hl.sign_moments(vals, coeffs, rule.weights, 2.0)
        assert mom.route == "closed-form" and mom.nodes is mom.square
        nodes = hl.signs._half_enumeration(coeffs[:, None] * vals, 2.0)
        assert np.allclose(mom.nodes, nodes, rtol=1e-14, atol=0.0)
        value = float(rule.weights @ nodes)
        assert abs(mom.value - value) <= 1e-14 * value


@pytest.mark.parametrize("p", [1.5, np.inf, 4.0, 6.0, 2.0])
def test_batch_matches_single_vector_calls(p):
    # a (T, N) batch against T one-vector calls: random rows, an all-zero row,
    # unit vectors (support 1) and a row with two zeros, on 4096 + 5 nodes so
    # that the exact routes run two node blocks.  Enumeration and the k = 2, 3
    # closed form run vector by vector and agree bit for bit; the square
    # function of a batch is one matrix product, which may round apart from
    # one vector's product
    n, m = 6, 4096 + 5
    rows, _, w = _random_instance(n, m, 23)
    rng = np.random.default_rng(24)
    batch = np.vstack([rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)),
                       np.zeros(n), np.eye(n)[[0, 4]],
                       np.array([0.5, 0.0, -2.0j, 0.0, 1.0, 0.25 + 0.5j])])
    mom = hl.sign_moments(rows, batch, w, p)
    assert mom.nodes.shape == mom.square.shape == (len(batch), m)
    assert mom.value.shape == mom.patterns.shape == (len(batch),)
    factors = mom.khintchine_factor()
    assert factors.shape == (len(batch),)
    for t, coeffs in enumerate(batch):
        one = hl.sign_moments(rows, coeffs, w, p)
        assert (mom.route, mom.p, int(mom.patterns[t])) == (one.route, one.p, one.patterns)
        assert np.allclose(mom.square[t], one.square, rtol=1e-15, atol=0.0)
        if p == 2.0:
            assert mom.nodes is mom.square
            assert np.allclose(mom.nodes[t], one.nodes, rtol=1e-15, atol=0.0)
            assert abs(mom.value[t] - one.value) <= 1e-15 * one.value
        else:
            assert np.array_equal(mom.nodes[t], one.nodes)
            assert mom.value[t] == one.value
        if p != np.inf:
            assert np.isclose(factors[t], one.khintchine_factor(), rtol=1e-14, atol=0.0)
    assert not np.any(mom.nodes[3]) and mom.value[3] == 0.0 and factors[3] == 0.0


def test_batch_cap_and_monte_carlo_refusal():
    # the cap counts the N columns of the batch, zeros included, as for one vector
    one = np.ones(1)
    with pytest.raises(hl.CapacityError):
        hl.sign_moments(np.ones((21, 1)), np.eye(21)[:4], one, 3.0)
    assert hl.sign_moments(np.ones((21, 1)), np.eye(21)[:4], one, 2.0).route == "closed-form"
    with pytest.raises(hl.ParameterError, match="one coefficient vector"):
        hl.sign_moments(np.ones((4, 1)), np.ones((2, 4)), one, 3.0, method="monte-carlo",
                        samples=10, seed=1)
    with pytest.raises(hl.ShapeError):
        hl.sign_moments(np.ones((4, 1)), np.ones((2, 2, 4)), one, 3.0)
