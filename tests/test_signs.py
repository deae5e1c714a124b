import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardylab as hl


def _random_instance(n, m, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.uniform(0.1, 1.0, m)
    return rows, coeffs, w / w.sum()


def test_sign_matrix_enumeration():
    blocks = list(hl.sign_matrix_chunks(3, chunk=5))
    all_rows = np.vstack(blocks)
    assert all_rows.shape == (8, 3)
    assert set(np.unique(all_rows)) == {-1.0, 1.0}
    assert len({tuple(r) for r in all_rows}) == 8
    # fixed order: sign j of pattern i is bit j of i
    assert tuple(all_rows[0]) == (-1.0, -1.0, -1.0)
    assert tuple(all_rows[1]) == (1.0, -1.0, -1.0)


def test_first_and_second_moments():
    n = 6
    total = np.zeros(n)
    cross = np.zeros((n, n))
    for block in hl.sign_matrix_chunks(n):
        total += block.sum(axis=0)
        cross += block.T @ block
    total /= 1 << n
    cross /= 1 << n
    assert np.max(np.abs(total)) < 1e-15
    assert np.max(np.abs(cross - np.eye(n))) < 1e-15


def test_expect_capacity_and_mc_validation():
    one = np.ones(1)
    with pytest.raises(hl.CapacityError):
        hl.sign_moments(np.ones((21, 1)), np.ones(21), one, 2.0)
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


def test_khintchine_mc_close_to_exact():
    x = np.array([1.0, -0.5j, 0.25])
    exact, exact_err = hl.khintchine_ratio(x, 4.0)
    mc, mc_err = hl.khintchine_ratio(x, 4.0, method="monte-carlo", samples=200000, seed=9)
    assert abs(mc - exact) < 0.05
    assert exact_err == 0.0 and 0.0 < mc_err < 0.05


def test_weak_from_carleson_single_point(disc_rule):
    seq = hl.PointSequence.create(hl.Domain(hl.DISC), [0.5])
    mu = np.array([2.0 + 1.0j])
    out = hl.weak_from_carleson_check(seq, 4.0, mu, disc_rule, d_q=1.0)
    scale = abs(mu[0]) ** 4.0
    assert abs(out["left"] - scale) < 1e-10 * scale
    assert abs(out["middle"] - scale) < 1e-10 * scale
    assert abs(out["right"] - scale) < 1e-10 * scale


def test_weak_from_carleson_q2_middle_identity(disc_rule):
    seq = hl.PointSequence.create(hl.Domain(hl.DISC), [0.6, -0.2j, 0.3])
    mu = np.array([1.0, 0.5j, -0.25])
    out = hl.weak_from_carleson_check(seq, 2.0, mu, disc_rule, d_q=2.0)
    want = float(np.sum(np.abs(mu) ** 2))
    assert abs(out["middle"] - want) < 1e-10 * want


def test_weak_from_carleson_chain(disc_rule):
    seq = hl.PointSequence.create(hl.Domain(hl.DISC), [0.8, -0.8])
    rep = hl.carleson_constant(seq, 4.0, disc_rule, seed=3)
    out = hl.weak_from_carleson_check(seq, 4.0, np.array([1.0, 1.0]), disc_rule, rep.d_q)
    assert out["right_ok"]
    assert out["left_factor"] > 0 and np.isfinite(out["left_factor"])
    assert out["d_q_given_sufficient"]
    with pytest.raises(hl.ParameterError):
        hl.weak_from_carleson_check(seq, 1.5, np.array([1.0, 1.0]), disc_rule, 1.0)


def test_weak_from_carleson_mc(disc_rule):
    seq = hl.PointSequence.create(hl.Domain(hl.DISC), [0.8, -0.8])
    exact = hl.weak_from_carleson_check(seq, 4.0, np.array([1.0, 1.0]), disc_rule, 1.2)
    mc = hl.weak_from_carleson_check(seq, 4.0, np.array([1.0, 1.0]), disc_rule, 1.2,
                                     method="monte-carlo", samples=20000, seed=4)
    assert abs(mc["middle"] - exact["middle"]) <= 4.0 * mc["stderr"] + 1e-12
    assert mc["right_ok"]


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
        best = ((mag**p) @ w).max()
    mom = hl.sign_moments(rows, coeffs, w, p)
    assert np.allclose(mom.nodes, nodes, rtol=1e-12, atol=0.0)
    assert abs(mom.value - w @ nodes) <= 1e-12 * (w @ nodes)
    assert abs(mom.best - best) <= 1e-12 * best
    assert mom.stderr == 0.0
    assert np.allclose(mom.square, np.sum(np.abs(coeffs[:, None] * rows) ** 2, axis=0),
                       rtol=1e-12, atol=0.0)
    if p == 2.0:
        # sign orthogonality: E|f|^2 is the square function
        assert np.allclose(mom.nodes, mom.square, rtol=1e-12, atol=0.0)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(m=st.integers(1, 4), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_sign_moments_mc_reproducible_and_near_exact(m, p, seed):
    rows, coeffs, w = _random_instance(12, m, seed)
    runs = [hl.sign_moments(rows, coeffs, w, p, method="monte-carlo", samples=2000, seed=seed)
            for _ in range(2)]
    assert np.array_equal(runs[0].nodes, runs[1].nodes)
    assert (runs[0].value, runs[0].best, runs[0].stderr) == (runs[1].value, runs[1].best,
                                                             runs[1].stderr)
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
def test_misspelled_method_is_rejected(method, disc_rule):
    with pytest.raises(hl.ParameterError, match="unknown expectation method"):
        hl.khintchine_ratio(np.array([1.0, 1.0]), 4.0, method=method, samples=50, seed=1)
    seq = hl.PointSequence.create(hl.Domain(hl.DISC), [0.8, -0.8])
    with pytest.raises(hl.ParameterError, match="unknown expectation method"):
        hl.weak_from_carleson_check(seq, 4.0, np.array([1.0, 1.0]), disc_rule, 1.2,
                                    method=method, samples=50, seed=1)
