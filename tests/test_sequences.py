import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hardylab as hl
from hardylab import sequences
from hardylab.sequences import _default_starts, _duality_map, _power_iteration_lq, _weak_ratio
from conftest import DUAL_CASES, separated_points


def _disc_seq(*pts):
    return hl.PointSequence.create(hl.Domain(hl.DISC), list(pts))


def _dual_bound(dual, rule):
    """``dual_bound`` of the dual's rho sampled on the rule."""
    return hl.dual_bound(dual, sequences.dual_powers(dual.values(rule.nodes), rule, dual.p))


def test_point_sequence_validation(disc):
    with pytest.raises(hl.ParameterError):
        hl.PointSequence.create(disc, [0.5, 0.5])
    with pytest.raises(hl.DomainError):
        hl.PointSequence.create(disc, [1.5])
    with pytest.raises(hl.ParameterError):
        hl.PointSequence.create(disc, [])


def test_point_sequence_io(tmp_path, disc, ball):
    seq = hl.PointSequence.create(ball, [[0.1, 0.2j], [0.3j, 0.0]])
    data = json.loads(json.dumps(seq.to_json()))
    assert data["domain"] == "ball2"
    assert np.array_equal(np.array(data["points_re"]) + 1j * np.array(data["points_im"]),
                          seq.arrays())
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("re,im\n0.5,0.0\n-0.25,0.1\n")
    got = hl.PointSequence.from_csv(disc, csv_path)
    assert len(got) == 2
    assert got[1][0] == complex(-0.25, 0.1)
    with pytest.raises(hl.ParameterError):
        hl.PointSequence.from_csv(ball, csv_path)  # wrong column count
    # only the first non-empty row may be a header; a later bad row is an error
    csv_path.write_text("\nre,im\n0.5,0.0\n0.3,abc\n-0.5,0.1\n")
    with pytest.raises(hl.ParameterError, match="row 4"):
        hl.PointSequence.from_csv(disc, csv_path)
    csv_path.write_text("0.5,0.0\nre,im\n")
    with pytest.raises(hl.ParameterError, match="row 2"):
        hl.PointSequence.from_csv(disc, csv_path)


def test_gleason_distance_examples(disc, ball, bidisc):
    assert hl.gleason_distance(np.array([0.3 + 0.1j]), np.array([0.3 + 0.1j]), disc) == 0.0
    assert abs(hl.gleason_distance(np.zeros(1), np.array([0.5 + 0j]), disc) - 0.5) < 1e-15
    d = hl.gleason_distance(np.array([0.5, 0.0]), np.array([0.0, 0.5]), ball)
    assert abs(d - np.sqrt(1.0 - 0.75 * 0.75)) < 1e-14
    db = hl.gleason_distance(np.array([0.5, 0.1]), np.array([0.2, 0.4j]), bidisc)
    d1 = hl.gleason_distance(np.array([0.5]), np.array([0.2]), disc)
    d2 = hl.gleason_distance(np.array([0.1]), np.array([0.4j]), disc)
    assert abs(db - max(d1, d2)) < 1e-15


def test_gleason_product_delta(disc):
    assert hl.gleason_product_delta(_disc_seq(0.3)) == 1.0
    assert abs(hl.gleason_product_delta(_disc_seq(0.0, 0.5)) - 0.5) < 1e-15
    # enumeration oracle for three points
    pts = [0.0, 0.5, -0.5]
    seq = _disc_seq(*pts)
    prods = []
    for i, a in enumerate(pts):
        prod = 1.0
        for j, b in enumerate(pts):
            if i != j:
                prod *= abs((a - b) / (1.0 - np.conj(a) * b))
        prods.append(prod)
    assert abs(hl.gleason_product_delta(seq) - min(prods)) < 1e-15


def test_gleason_invariances(disc):
    pts = [0.1 + 0.2j, -0.4j, 0.6]
    base = hl.gleason_product_delta(_disc_seq(*pts))
    assert abs(hl.gleason_product_delta(_disc_seq(*reversed(pts))) - base) < 1e-15
    rot = np.exp(1.1j)
    assert abs(hl.gleason_product_delta(_disc_seq(*[rot * p for p in pts])) - base) < 1e-14


def test_carleson_window_constant(disc):
    seq = _disc_seq(0.5)
    # oracle: same window family enumerated directly
    best = 0.0
    for ell in [2.0**-k for k in range(0, 3)]:
        if 0.5 >= 1.0 - ell:
            best = max(best, (1.0 - 0.25) / ell)
    assert abs(hl.carleson_window_constant(seq) - best) < 1e-14
    # radial sequences accumulate in small windows
    radial = _disc_seq(*[1.0 - 2.0**-k for k in range(1, 7)])
    assert hl.carleson_window_constant(radial) > hl.carleson_window_constant(_disc_seq(0.5))
    with pytest.raises(hl.UnsupportedDomainError):
        hl.carleson_window_constant(hl.PointSequence.create(hl.Domain(hl.BALL2), [[0.1, 0.0]]))


def test_carleson_single_point(disc_rule):
    seq = _disc_seq(0.7j)
    for q in (1.0, 2.0, 4.0):
        A = hl.normalized_kernel_matrix(seq, q, disc_rule)
        rep = hl.carleson_constant(A, q, disc_rule, seed=0)
        assert abs(rep.d_q - 1.0) < 1e-12


def test_carleson_two_point_oracle(disc_rule):
    seq = _disc_seq(0.9, -0.9)
    rep = hl.carleson_constant(hl.normalized_kernel_matrix(seq, 2.0, disc_rule), 2.0, disc_rule)
    # 2x2 Gram eigenvalue oracle: eigenvalues 1 +- |<k_{2,a}, k_{2,b}>|
    overlap = (1.0 / 1.81) * 0.19  # k_a(b) / (||k_a||_2 ||k_b||_2)
    assert abs(rep.d_q - np.sqrt(1.0 + overlap)) < 1e-10
    assert rep.method == "gram-spectral"


def test_carleson_q1_triangle(disc_rule):
    seq = _disc_seq(0.9, -0.9, 0.5j)
    rep = hl.carleson_constant(hl.normalized_kernel_matrix(seq, 1.0, disc_rule), 1.0, disc_rule)
    assert rep.d_q <= 1.0 + 1e-10


def test_power_iteration_agrees_with_gram(disc, disc_rule):
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = rng.integers(2, 7)
        pts = []
        while len(pts) < n:
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            if abs(z) < 0.85 and all(abs(z - w) > 0.05 for w in pts):
                pts.append(z)
        seq = _disc_seq(*pts)
        A = hl.normalized_kernel_matrix(seq, 2.0, disc_rule)
        spectral = hl.carleson_constant(A, 2.0, disc_rule)
        power, _, _, _ = _power_iteration_lq(A, disc_rule.weights, 2.0,
                                             _default_starts(len(seq), 8, trial), 5000)
        assert power <= spectral.d_q + 1e-12
        assert spectral.d_q - power < 1e-8


def test_carleson_certificate_consistency(disc_rule):
    seq = _disc_seq(0.8, -0.8, 0.4j)
    A = hl.normalized_kernel_matrix(seq, 4.0, disc_rule)
    rep = hl.carleson_constant(A, 4.0, disc_rule, seed=3)
    mu = rep.certificate
    ratio = (np.sum(disc_rule.weights * np.abs(A @ mu) ** 4) ** 0.25) / hl.seq_norm(mu, 4.0)
    assert abs(ratio - rep.d_q) < 1e-12


def test_carleson_parameter_errors(disc_rule):
    seq = _disc_seq(0.5)
    with pytest.raises(hl.ParameterError):
        hl.carleson_constant(hl.normalized_kernel_matrix(seq, 0.5, disc_rule), 0.5, disc_rule)
    with pytest.raises(hl.ParameterError):
        hl.weak_carleson_constant(hl.normalized_kernel_matrix(seq, 1.5, disc_rule), 1.5, disc_rule)
    # a non-finite exponent is refused by both estimators, not iterated on
    with pytest.raises(hl.ParameterError, match="q < inf"):
        hl.weak_carleson_constant(hl.normalized_kernel_matrix(seq, np.inf, disc_rule), np.inf,
                                  disc_rule, seed=1)
    A = hl.normalized_kernel_matrix(seq, 4.0, disc_rule)
    for run in (hl.carleson_constant, hl.weak_carleson_constant):
        with pytest.raises(hl.ParameterError, match="q < inf"):
            run(A, np.nan, disc_rule, seed=1)
    # the power iteration is stochastic: without a seed it does not run
    A6 = hl.normalized_kernel_matrix(seq, 6.0, disc_rule)
    for run, q, Aq in ((hl.carleson_constant, 4.0, A), (hl.weak_carleson_constant, 6.0, A6)):
        with pytest.raises(hl.ParameterError, match="seed"):
            run(Aq, q, disc_rule)
        # a negative restart count is an error; 0 runs the deterministic starts only
        with pytest.raises(hl.ParameterError, match="restarts"):
            run(Aq, q, disc_rule, restarts=-3, seed=1)
        rep = run(Aq, q, disc_rule, restarts=0, seed=1)
        assert len(rep.details["restart_iterations"]) == 1 + len(seq)


def test_power_iteration_reports_convergence(monkeypatch, disc_rule):
    seq = _disc_seq(0.5, -0.3j, 0.6j)
    starts = 1 + len(seq) + 32  # ones, coordinate vectors, seeded restarts
    for estimate, q in ((hl.carleson_constant, 4.0), (hl.weak_carleson_constant, 6.0)):
        A = hl.normalized_kernel_matrix(seq, q, disc_rule)
        with monkeypatch.context() as m:
            m.setattr(sequences, "_POWER_MAX_ITER", 1)
            capped = estimate(A, q, disc_rule, seed=0).details
        assert capped["converged"] is False and capped["iterations"] == 1
        # every restart still progresses after its one step
        assert capped["restart_iterations"] == [1] * starts
        assert capped["restart_converged"] == [False] * starts
        full = estimate(A, q, disc_rule, seed=0).details
        assert full["converged"] is True
        assert full["restart_converged"] == [True] * starts
        assert len(full["restart_iterations"]) == starts
        assert full["iterations"] == max(full["restart_iterations"]) > 1


def test_duality_map_edge_cases():
    x = np.array([0.0, 2.0, -0.5, 0.0])
    z = np.array([0.0, 3.0 - 4.0j, -0.25j, 1e-3 + 1e-3j])
    with np.errstate(all="raise"):
        real = _duality_map(x, 4.0 / 3.0)
        cplx = {r: _duality_map(z, r) for r in (4.0 / 3.0, 3.0)}
    # zeros map to exactly 0 where |x|^(r - 2) would be inf
    assert real.dtype == np.float64
    assert real[0] == 0.0 and real[3] == 0.0
    assert np.allclose(real[1:3], np.sign(x[1:3]) * np.abs(x[1:3]) ** (1.0 / 3.0),
                       rtol=1e-15, atol=0.0)
    for r, out in cplx.items():
        assert out.dtype == np.complex128 and out[0] == 0.0
        assert np.allclose(np.abs(out), np.abs(z) ** (r - 1.0), rtol=1e-14, atol=0.0)
        # same phase as the input
        assert np.allclose(out * np.abs(z), z * np.abs(out), rtol=1e-14, atol=1e-300)


def _pre_change_duality_map(x: np.ndarray, r: float) -> np.ndarray:
    """The masked duality map the iteration used before it ran in the input dtype."""
    mag = np.abs(x)
    out = np.zeros_like(x)
    nz = mag > 0
    out[nz] = mag[nz] ** (r - 1.0) * (x[nz] / mag[nz])
    return out


def _weighted_lq(vals: np.ndarray, w: np.ndarray, q: float) -> float:
    """The oracle's own L^q(w) norm, written out as the package once wrote it."""
    return float(np.sum(w * np.abs(vals) ** q) ** (1.0 / q))


def _pre_change_power_iteration(A, w, q, starts, max_iter, rtol=1e-13):
    """The complex-only loop that recomputed A.conj() and A mu at every step."""
    qc = hl.conjugate_exponent(q)
    best_ratio, best_mu, used_iters, converged = -np.inf, None, 0, True
    for start in starts:
        mu = np.asarray(start, dtype=complex)
        mu = mu / hl.seq_norm(mu, q)
        ratio = _weighted_lq(A @ mu, w, q)
        for it in range(max_iter):
            grad = A.conj().T @ (w * _pre_change_duality_map(A @ mu, q))
            if not np.any(grad):
                break
            cand = _pre_change_duality_map(grad, qc)
            cand = cand / hl.seq_norm(cand, q)
            cand_ratio = _weighted_lq(A @ cand, w, q)
            progressed = cand_ratio > ratio * (1.0 + rtol)
            if cand_ratio > ratio:
                mu, ratio = cand, cand_ratio
            used_iters = max(used_iters, it + 1)
            if not progressed:
                break
        else:
            converged = False
        if ratio > best_ratio:
            best_ratio, best_mu = ratio, mu
    return best_ratio, best_mu, used_iters, converged


_ORACLE_RULES = {hl.DISC: (256, None), hl.BALL2: (8, 24), hl.BIDISC: (48, None)}


@pytest.mark.parametrize("kind", list(_ORACLE_RULES))
@pytest.mark.parametrize("weak,q", [(False, 1.5), (False, 3.0), (False, 4.0), (False, 6.0),
                                    (True, 3.0), (True, 4.0), (True, 6.0)])
def test_power_iteration_matches_pre_change_loop(kind, weak, q):
    dom = hl.Domain(kind)
    rule = hl.build_quadrature(dom, *_ORACLE_RULES[kind])
    seq = separated_points(dom, 5, seed=41)
    n, restarts, seed = len(seq), 6, 7
    A = hl.normalized_kernel_matrix(seq, q, rule)
    if weak:
        rep = hl.weak_carleson_constant(A, q, rule, restarts=restarts, seed=seed)
        value = rep.weak_d_q
        oracle = _pre_change_power_iteration(np.abs(A) ** 2, rule.weights, q / 2.0,
                                             _default_starts(n, restarts, seed, positive=True),
                                             5000)
        own = _weak_ratio(A, rule.weights, q, rep.certificate)
    else:
        rep = hl.carleson_constant(A, q, rule, restarts=restarts, seed=seed)
        value = rep.d_q
        oracle = _pre_change_power_iteration(A, rule.weights, q,
                                             _default_starts(n, restarts, seed), 5000)
        own = _weighted_lq(A @ rep.certificate, rule.weights, q) / hl.seq_norm(rep.certificate, q)
    ratio, _, iterations, converged = oracle
    if weak and q == 4.0:
        # the exact Gram eigenvalue, which the loop only approaches from below,
        # with a nonnegative certificate that attains it
        assert rep.method == "gram-spectral"
        assert value >= (1.0 - 1e-13) * ratio
        assert np.all(rep.certificate.real >= 0.0) and not np.any(rep.certificate.imag)
        assert abs(own - value) <= 1e-13 * value
        return
    assert rep.method == "power-iteration"
    assert abs(value - ratio) <= 1e-13 * ratio
    assert (rep.details["iterations"], rep.details["converged"]) == (iterations, converged)
    assert abs(own - value) <= 1e-12 * value


def _batch_with_ratios(monkeypatch, A, w, q, starts, max_iter):
    """_power_iteration_lq's result and the final ratio of every restart in its batch."""
    seen = []
    pick = sequences._first_near_max
    monkeypatch.setattr(sequences, "_first_near_max", lambda v: seen.append(v.copy()) or pick(v))
    return _power_iteration_lq(A, w, q, starts, max_iter), seen[-1]


def _disc_problem(m, weak, q):
    """(matrix, weights, exponent, starts) of the iteration for D_q or weak D_q on m circle nodes."""
    dom = hl.Domain(hl.DISC)
    rule = hl.build_quadrature(dom, m)
    seq = separated_points(dom, 5, seed=41)
    A = hl.normalized_kernel_matrix(seq, q, rule)
    if weak:
        return np.abs(A) ** 2, rule.weights, q / 2.0, _default_starts(5, 6, 7, positive=True)
    return A, rule.weights, q, _default_starts(5, 6, 7)


# below one row block of the batched pass, exactly one block, one block plus one row
_BLOCK_EDGES = [256, 1024, 1025]


@pytest.mark.parametrize("m", _BLOCK_EDGES)
@pytest.mark.parametrize("weak,q", [(False, 1.5), (False, 2.0), (False, 4.0), (True, 3.0),
                                    (True, 4.0)])
def test_batched_restarts_match_each_start_run_alone(monkeypatch, m, weak, q):
    A, w, r, starts = _disc_problem(m, weak, q)
    (ratio, mu, _, _), ratios = _batch_with_ratios(monkeypatch, A, w, r, starts, 5000)
    assert ratios.shape == (len(starts),)
    for i, start in enumerate(starts):
        alone = _pre_change_power_iteration(A, w, r, [start], 5000)[0]
        assert abs(ratios[i] - alone) <= 1e-13 * alone
    assert ratio == ratios[sequences._first_near_max(ratios)]
    assert abs(_weighted_lq(A @ mu, w, r) / hl.seq_norm(mu, r) - ratio) <= 1e-12 * ratio
    # two steps are far from convergence: every restart still progresses in both
    _, _, steps, converged = _power_iteration_lq(A, w, r, starts, 2)
    for i, start in enumerate(starts):
        _, _, alone_steps, alone_converged = _pre_change_power_iteration(A, w, r, [start], 2)
        assert (steps[i], converged[i]) == (alone_steps, alone_converged)


@pytest.mark.parametrize("m", _BLOCK_EDGES)
@pytest.mark.parametrize("weak", [False, True])
def test_zero_column_restart_stops_at_once(monkeypatch, m, weak):
    A, w, r, starts = _disc_problem(m, weak, 4.0)
    A[:, 2] = 0.0
    with np.errstate(all="raise"):
        (ratio, mu, steps, converged), ratios = _batch_with_ratios(monkeypatch, A, w, r,
                                                                   starts, 5000)
    zero = 1 + 2  # the start e_2, after the all-ones start
    assert np.array_equal(starts[zero], np.eye(5)[2])
    assert (steps[zero], converged[zero], ratios[zero]) == (0, True, 0.0)
    assert np.all(np.isfinite(ratios)) and np.all(np.isfinite(mu))
    assert all(converged) and min(s for i, s in enumerate(steps) if i != zero) > 0
    oracle = _pre_change_power_iteration(A, w, r, starts, 5000)[0]
    assert abs(ratio - oracle) <= 1e-13 * oracle


def test_first_of_tied_restarts_supplies_the_certificate():
    # the all-ones start and the fourth seeded start reach the same maximum up
    # to rounding, with certificates of different phase; in either order the
    # earlier of the two supplies the ratio and the certificate
    A, w, q, starts = _disc_problem(256, False, 4.0)
    tied = [starts[0], starts[9]]
    for pair in (tied, tied[::-1]):
        alone = [_power_iteration_lq(A, w, q, [start], 5000) for start in pair]
        assert abs(alone[0][0] - alone[1][0]) <= 1e-14 * alone[0][0]
        assert not np.allclose(alone[0][1], alone[1][1], rtol=0.0, atol=1e-3)
        ratio, mu, _, _ = _power_iteration_lq(A, w, q, pair, 5000)
        assert abs(ratio - alone[0][0]) <= 1e-13 * ratio
        assert np.allclose(mu, alone[0][1], rtol=0.0, atol=1e-9)


_ROUTES = [(False, 1.0, "coordinate-extreme"), (False, 2.0, "gram-spectral"),
           (False, 3.0, "power-iteration"), (False, 4.0, "power-iteration"),
           (True, 2.0, "column-mass"), (True, 4.0, "gram-spectral"),
           (True, 6.0, "power-iteration"), (True, 8.0, "power-iteration")]


@pytest.mark.parametrize("weak,q,method", _ROUTES,
                         ids=[f"{'weak' if weak else 'strong'}-{q:g}" for weak, q, _ in _ROUTES])
def test_carleson_route_table(monkeypatch, disc, weak, q, method):
    # the route table of README: the strong constant at exponent r = q and the
    # weak one at r = q/2 take the heaviest column at r = 1, the Gram eigenpair
    # at r = 2 and the power iteration otherwise; only the iteration needs a
    # seed, and the exact routes never call it
    seq = separated_points(disc, 5, seed=41)
    rule = hl.build_quadrature(disc, 256)
    A = hl.normalized_kernel_matrix(seq, q, rule)
    estimate = hl.weak_carleson_constant if weak else hl.carleson_constant
    calls = []
    iterate = sequences._power_iteration_lq
    monkeypatch.setattr(sequences, "_power_iteration_lq",
                        lambda *args: calls.append(args[2]) or iterate(*args))
    iterates = method == "power-iteration"
    if iterates:
        with pytest.raises(hl.ParameterError, match="seed"):
            estimate(A, q, rule)
    else:
        assert estimate(A, q, rule).method == method
    rep = estimate(A, q, rule, restarts=6, seed=7)
    assert rep.method == method
    assert calls == ([q / 2.0 if weak else q] if iterates else [])
    assert ("seed" in rep.details) == iterates


@pytest.mark.parametrize("kind", list(_ORACLE_RULES))
def test_weak_q4_is_the_exact_gram_eigenvalue(kind):
    # sqrt of the top eigenvalue of (|A|^2)^T W |A|^2, formed here on its own;
    # the power iteration on the same matrix only approaches it from below
    dom = hl.Domain(kind)
    rule = hl.build_quadrature(dom, *_ORACLE_RULES[kind])
    seq = separated_points(dom, 5, seed=41)
    A = hl.normalized_kernel_matrix(seq, 4.0, rule)
    B = np.abs(A) ** 2
    exact = np.sqrt(np.linalg.eigh(np.einsum("m,ma,mb->ab", rule.weights, B, B))[0][-1])
    rep = hl.weak_carleson_constant(A, 4.0, rule)
    assert abs(rep.weak_d_q - exact) <= 1e-14 * exact
    power = _power_iteration_lq(B, rule.weights, 2.0,
                                _default_starts(len(seq), 32, 7, positive=True), 5000)[0]
    assert rep.weak_d_q >= power


def test_gram_is_the_conjugate_transpose_product_bit_for_bit(ball):
    # the report's carleson shape: 4 ball points, q = 2, a 16 x 64^2 rule.
    # conj(B^T conj(W B)) conjugates each product of B^H (W B) exactly, so the
    # Gram matrix and its top eigenpair keep their bits without a conjugate
    # copy of B; for the real |A|^2 of the weak constant both are B^T (W B)
    seq = hl.PointSequence.create(ball, [[0.0, 0.0], [0.3, 0.4j], [0.54j, 0.72],
                                         [0.495 + 0.495j, -0.495 + 0.495j]])
    rule = hl.build_quadrature(ball, 16, angular=64)
    w = rule.weights
    A = hl.normalized_kernel_matrix(seq, 2.0, rule)
    for B in (A, np.abs(A) ** 2):
        want = B.conj().T @ (w[:, None] * B)
        got = sequences._gram(B, w)
        assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64),
                                                          want.view(np.uint64))
    assert np.iscomplexobj(A) and not np.array_equal(A, A.conj())


def test_product_set_constants_are_the_products_of_the_factors():
    # on the bidisc tensor rule the normalized kernels of S1 x S2 are the
    # Kronecker products of the factors' on the disc rule, and so are the Gram
    # matrices of A and of |A|^2: the exact d_2 and weak d_4 multiply
    s1 = [0.5, -0.5, 0.5j]
    s2 = [0.3 + 0.2j, -0.6 + 0.1j, 0.1 - 0.7j, 0.45 + 0.5j]
    disc, bidisc = hl.Domain(hl.DISC), hl.Domain(hl.BIDISC)
    disc_rule, bidisc_rule = hl.build_quadrature(disc, 64), hl.build_quadrature(bidisc, 64)
    product = hl.PointSequence.create(bidisc, [[a, b] for a in s1 for b in s2])

    def constants(seq, rule):
        strong = hl.carleson_constant(hl.normalized_kernel_matrix(seq, 2.0, rule), 2.0, rule)
        weak = hl.weak_carleson_constant(hl.normalized_kernel_matrix(seq, 4.0, rule), 4.0, rule)
        return np.array([strong.d_q, weak.weak_d_q])

    factors = constants(_disc_seq(*s1), disc_rule) * constants(_disc_seq(*s2), disc_rule)
    assert np.all(np.abs(constants(product, bidisc_rule) - factors) <= 1e-14 * factors)


# below one block of the quartic Gram matrix, exactly one, one plus a row, past a pass block
_QUARTIC_EDGES = [255, 256, 257, 1025]


@pytest.mark.parametrize("m", _QUARTIC_EDGES)
@pytest.mark.parametrize("weak", [False, True])
def test_quartic_pass_matches_the_row_blocked_pass(m, weak):
    # r = 4 is the strong constant at q = 4 (complex A) and the weak one at
    # q = 8 (real |A|^2); a zero column and a zero start give exact zeros
    A, w, r, starts = _disc_problem(m, weak, 8.0 if weak else 4.0)
    assert r == 4.0 and np.iscomplexobj(A) != weak
    A[:, 2] = 0.0
    mu = np.array(starts + [np.zeros(5)]).astype(A.dtype)
    mu[:-1] /= hl.rule_norm(mu[:-1], 1.0, 4.0)[:, None]
    with np.errstate(all="raise"):
        H = sequences._quartic_gram(A, w)
        ratio, grad = sequences._quartic_pass(H, mu)
        blocked_ratio, blocked_grad = sequences._lq_pass(A, np.conj(A.T * w), w, 4.0, mu)
    assert H.dtype == A.dtype and grad.dtype == blocked_grad.dtype
    assert np.all(np.abs(ratio - blocked_ratio) <= 1e-14 * blocked_ratio)
    scale = np.max(np.abs(blocked_grad), axis=1)
    assert np.all(np.max(np.abs(grad - blocked_grad), axis=1) <= 1e-14 * scale)
    zero = np.isin(np.arange(len(mu)), [1 + 2, len(mu) - 1])  # the start e_2 and the zero start
    assert np.all(ratio[zero] == 0.0) and not np.any(grad[zero]) and np.all(ratio[~zero] > 0.0)


def test_exponent_four_runs_on_the_quartic_gram_matrix(monkeypatch, disc):
    # the strong constant at q = 4 and the weak one at q = 8 iterate at
    # exponent 4, where up to _QUARTIC_MAX_N points every pass comes from the
    # quartic Gram matrix, real for the weak constant; past it, and at every
    # exponent but 2 and 4, the row-blocked pass over A runs
    exponents, grams = [], []
    lq_pass, quartic_gram = sequences._lq_pass, sequences._quartic_gram
    monkeypatch.setattr(sequences, "_lq_pass",
                        lambda A, wAH, w, q, mu: exponents.append(q) or lq_pass(A, wAH, w, q, mu))
    monkeypatch.setattr(sequences, "_quartic_gram",
                        lambda A, w: grams.append(quartic_gram(A, w)) or grams[-1])
    seq = separated_points(disc, 5, seed=41)
    rule = hl.build_quadrature(disc, 1025)
    A = hl.normalized_kernel_matrix(seq, 4.0, rule)
    strong = hl.carleson_constant(A, 4.0, rule, restarts=6, seed=7)
    weak = hl.weak_carleson_constant(hl.normalized_kernel_matrix(seq, 8.0, rule), 8.0, rule,
                                     restarts=6, seed=7)
    assert exponents == [] and [H.dtype for H in grams] == [np.complex128, np.float64]
    cert = strong.certificate
    own = _weighted_lq(A @ cert, rule.weights, 4.0) / hl.seq_norm(cert, 4.0)
    assert abs(own - strong.d_q) <= 1e-13 * strong.d_q
    own = _weak_ratio(hl.normalized_kernel_matrix(seq, 8.0, rule), rule.weights, 8.0,
                      weak.certificate)
    assert abs(weak.weak_d_q - own) <= 1e-13 * weak.weak_d_q
    assert strong.details["converged"] and weak.details["converged"]
    rng = np.random.default_rng(9)
    for n in (sequences._QUARTIC_MAX_N, sequences._QUARTIC_MAX_N + 1):
        B = (rng.standard_normal((n, 300)) + 1j * rng.standard_normal((n, 300))).T
        _power_iteration_lq(B, rule.weights[:300], 4.0, _default_starts(n, 2, 7), 2)
    assert exponents == [4.0] * 3
    exponents.clear()
    hl.carleson_constant(hl.normalized_kernel_matrix(seq, 3.0, rule), 3.0, rule,
                         restarts=6, seed=7)
    hl.weak_carleson_constant(hl.normalized_kernel_matrix(seq, 6.0, rule), 6.0, rule,
                              restarts=6, seed=7)
    assert set(exponents) == {3.0} and len(grams) == 3


@pytest.mark.parametrize("r", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_unmasked_duality_weight_matches_the_masked_form(r):
    # at r >= 2 the weight runs without the zero mask; off zero it is the
    # masked power bit for bit, and times |x| it is bit for bit everywhere
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.uniform(-30.0, 30.0, (1024, 49))
    z = scale * (rng.standard_normal((1024, 49)) + 1j * rng.standard_normal((1024, 49)))
    z[rng.random(z.shape) < 0.1] = 0.0
    for x in (z, z.real.copy()):
        mag = np.abs(x)
        masked = np.power(mag, r - 2.0, out=np.zeros_like(mag), where=mag > 0)
        with np.errstate(all="raise"):
            weight = sequences._duality_weight(mag, r)
            out = _duality_map(x, r)
        nz = mag > 0
        assert 0 < np.count_nonzero(nz) < x.size
        assert np.array_equal(weight[nz].view(np.uint64), masked[nz].view(np.uint64))
        assert np.array_equal((weight * mag).view(np.uint64), (masked * mag).view(np.uint64))
        assert out.dtype == x.dtype and np.all(out[~nz] == 0.0)
        assert np.array_equal(out, masked * x)


def test_power_iteration_memory_stays_row_blocked():
    # the benchmark's ball size: 27648 nodes, 16 points, 1 + 16 + 32 starts.
    # A batch held at once would need several (27648 x 49) complex temporaries
    # of 21 MiB each; row blocks keep the extra memory to one weighted
    # conjugate transpose of A plus a few MiB, as at q = 2.  At q = 4 no
    # weighted copy of A is made: the 136 x 136 quartic Gram matrix is formed
    # from blocks of 256 rows
    rng = np.random.default_rng(3)
    A = (rng.standard_normal((16, 27648)) + 1j * rng.standard_normal((16, 27648))).T
    w = np.full(27648, 1.0 / 27648)
    starts = _default_starts(16, 32, 1)
    assert len(starts) == 49
    for q, bound in ((4.0, A.nbytes - 4 * 2**20), (2.0, A.nbytes + 4 * 2**20)):
        tracemalloc.start()
        try:
            _power_iteration_lq(A, w, q, starts, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_column_mass_certificates_take_the_first_tied_column(ball):
    # report_ball_edge seed 11: all four normalized column masses equal 1 up
    # to rounding, at q = 1 and at q = 2
    seq = hl.PointSequence.create(ball, [
        [0.0, 0.0],
        [complex(0.2221217880799294, 0.4460706732853035),
         complex(-0.0136065191025045, -0.03870049525373228)],
        [complex(-0.23446675942112594, -0.5924921138562209),
         complex(-0.5558094791145824, 0.3083087035280052)],
        [complex(-0.668758988451667, 0.4808568358717806),
         complex(-0.022518343390179957, -0.5487540824189326)],
    ])
    rule = hl.build_quadrature(ball, 16, angular=64)
    e0 = np.eye(4)[0]
    strong = hl.carleson_constant(hl.normalized_kernel_matrix(seq, 1.0, rule), 1.0, rule)
    weak = hl.weak_carleson_constant(hl.normalized_kernel_matrix(seq, 2.0, rule), 2.0, rule)
    assert np.array_equal(strong.certificate, e0) and abs(strong.d_q - 1.0) < 1e-12
    assert np.array_equal(weak.certificate, e0) and abs(weak.weak_d_q - 1.0) < 1e-12


def test_weak_carleson_q2_is_contractive(disc_rule):
    for pts in ([0.5], [0.9, -0.9], [0.3, 0.6j, -0.7]):
        seq = _disc_seq(*pts)
        A = hl.normalized_kernel_matrix(seq, 2.0, disc_rule)
        rep = hl.weak_carleson_constant(A, 2.0, disc_rule)
        assert rep.weak_d_q <= 1.0 + 1e-10
        # the column mass is the weak ratio at its coordinate certificate, bit for bit
        assert rep.weak_d_q == _weak_ratio(A, disc_rule.weights, 2.0, rep.certificate)


def test_weak_carleson_two_point_grid_oracle(disc_rule):
    seq = _disc_seq(0.9, -0.9)
    q = 4.0
    A = hl.normalized_kernel_matrix(seq, q, disc_rule)
    rep = hl.weak_carleson_constant(A, q, disc_rule, seed=5)
    # exhaustive oracle over the positive l^{q/2} sphere in two dimensions
    B = np.abs(A) ** 2
    r = q / 2.0
    best = 0.0
    for t1 in np.linspace(0.0, 1.0, 4001):
        t = np.array([t1, (1.0 - t1**r) ** (1.0 / r)])
        val = np.sum(disc_rule.weights * (B @ t) ** r) ** (1.0 / r)
        best = max(best, val)
    assert rep.weak_d_q >= best - 1e-9
    assert abs(rep.weak_d_q - best) < 1e-5


def test_weak_ratio_at_matches_definition(disc_rule):
    # the weak ratio at one coefficient vector mu
    seq = _disc_seq(0.6, -0.3j)
    mu = np.array([1.0, 2.0 - 1.0j])
    A = hl.normalized_kernel_matrix(seq, 4.0, disc_rule)
    got = _weak_ratio(A, disc_rule.weights, 4.0, mu)
    dens = (np.abs(A) ** 2) @ (np.abs(mu) ** 2)
    want = np.sum(disc_rule.weights * dens**2) ** 0.5 / hl.seq_norm(mu, 4.0) ** 2
    assert abs(got - want) < 1e-14


def test_dual_system_gram_two_point_oracle(disc, disc_norms):
    seq = _disc_seq(0.0, 0.5)
    dual = hl.dual_system(seq, 2.0, "gram2")
    # independent 2x2 solve: K = [[1, 1], [1, 4/3]]
    K = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    x0 = np.linalg.solve(K, np.array([disc_norms.norm(np.zeros(1), 2.0), 0.0]))
    assert np.allclose(dual.coefficients[0], x0, atol=1e-12)
    assert abs(dual.values(np.array([[0.5 + 0j]]))[0, 0]) < 1e-12
    assert abs(dual.values(np.array([[0.0 + 0j]]))[0, 0] - 1.0) < 1e-12
    assert dual.delta_residual() < 1e-12


def test_dual_single_point(disc, disc_rule):
    seq = _disc_seq(0.4)
    dual = hl.dual_system(seq, 2.0, "gram2")
    assert dual.delta_residual() < 1e-12
    assert abs(_dual_bound(dual, disc_rule) - 1.0) < 1e-9


def test_dual_collocation(disc):
    seq = _disc_seq(0.3, 0.6)
    dual4 = hl.dual_system(seq, 4.0, "collocation")
    assert dual4.delta_residual() < 1e-9
    dual2 = hl.dual_system(seq, 2.0, "collocation")
    gram = hl.dual_system(seq, 2.0, "gram2")
    assert np.allclose(dual2.coefficients, gram.coefficients, atol=1e-12)
    # row-wise linearity in the normalization vector
    ratio = dual4.scales / gram.scales
    assert np.allclose(dual4.coefficients, ratio[:, None] * gram.coefficients, atol=1e-12)


def test_dual_blaschke(disc, disc_norms, disc_rule):
    single = _disc_seq(0.5)
    dual = hl.dual_system(single, 4.0, "blaschke")
    # empty product: constant ||k_a||_{p'}
    want = disc_norms.norm(np.array([0.5 + 0j]), 4.0 / 3.0)
    assert abs(dual.values(np.array([0.2j]))[0, 0] - want) < 1e-12

    seq = _disc_seq(0.0, 0.5)
    dinf = hl.dual_system(seq, np.inf, "blaschke")
    assert dinf.delta_residual() < 1e-12
    bound = _dual_bound(dinf, disc_rule)
    assert abs(bound - 2.0) < 1e-12  # 1 / |B_a(a)| = 1 / 0.5
    with pytest.raises(hl.UnsupportedDomainError):
        hl.dual_system(hl.PointSequence.create(hl.Domain(hl.BALL2), [[0.1, 0.0]]), np.inf,
                       "blaschke")


@pytest.mark.parametrize("kind,method", [c for c in DUAL_CASES if c[1] != "gram2"])
def test_sup_norm_duals_interpolate_plain_deltas(kind, method):
    # the p = inf convention holds for every method valid on the domain
    seq = separated_points(hl.Domain(kind), 3, 11)
    dual = hl.dual_system(seq, np.inf, method)
    assert np.all(dual.scales == 1.0)
    assert np.max(np.abs(dual.values(seq.arrays()) - np.eye(len(seq)))) < 1e-8


def test_dual_bound_well_separated(disc, disc_norms, disc_rule):
    # Blaschke dual of a well-separated pair: |B_a| = 1 on the boundary,
    # so ||rho_a||_p = ||k_a||_{p'} / |B_a(a)| = max kernel norm up to eps
    seq = _disc_seq(0.9, -0.9)  # gleason distance 1.8/1.81
    dual = hl.dual_system(seq, 2.0, "blaschke")
    bound = _dual_bound(dual, disc_rule)
    reference = max(disc_norms.norm(seq[i], 2.0) for i in range(2))
    assert reference <= bound <= reference * (1.81 / 1.80) * (1.0 + 1e-10)


def test_ill_conditioned_dual(disc):
    seq = _disc_seq(0.5, 0.5 + 1e-9)
    with pytest.raises(hl.IllConditionedError):
        hl.dual_system(seq, 2.0, "gram2")
    well = hl.dual_system(_disc_seq(0.5, -0.5), 2.0, "gram2").to_json()
    assert 1.0 <= well["condition"] < 1e12


def test_dual_system_json(disc):
    seq = _disc_seq(0.0, 0.5)
    dual = hl.dual_system(seq, 2.0, "gram2")
    data = dual.to_json()
    assert data["method"] == "gram2"
    assert len(data["coefficients_re"]) == 2
    assert hl.dual_system(seq, np.inf, "blaschke").to_json()["condition"] is None


@pytest.mark.parametrize("kind,method", DUAL_CASES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       p=st.sampled_from([1.5, 4.0, np.inf]))
def test_dual_values_delta_property(kind, method, seed, n, p):
    dom = hl.Domain(kind)
    seq = separated_points(dom, n, seed)
    dual = hl.dual_system(seq, 2.0 if method == "gram2" else p, method)
    vals = dual.values(seq.arrays())
    assert vals.shape == (len(seq), len(seq))
    assert np.max(np.abs(vals - np.diag(dual.scales)) / dual.scales) < 1e-9
