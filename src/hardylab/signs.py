"""The Bernoulli sign-moment engine, exact or seeded Monte Carlo.

``sign_moments`` is the only code in the package that turns sign patterns
into moments of f(eps) = sum_a eps_a c_a R_a, where R_a are rows sampled on
boundary nodes: exactly (by a closed form at even p, by enumeration
otherwise) or by seeded Monte Carlo.  It returns per-node moments only,
E|f|^p or, at p = inf, the max of |f|; no figure of a single pattern is
kept.  The chain steps live in ``extension``.

A call takes one coefficient vector c or a batch of T of them on the same
rows, and returns the moments of each.  The square function of the whole
batch, sum_a |c_a|^2 |R_a|^2 per vector and node, is one real product
|C|^2 @ |R|^2 with |R|^2 formed once per call; the other exact routes run
vector by vector.  Both exact routes run over the support only: a term
with c_a = 0 is zero under every sign, so it changes no moment and is left
out (the square function leaves out the rows no vector of the batch uses).
Nodes are independent, so both run over blocks of ``_NODE_BLOCK`` of them:
the tables and temporaries of one call stay bounded however fine the rule
is.  The order and every reduction are fixed, so every figure is
reproducible.

Closed form, p = 2k with 1 <= k <= ``_EVEN_MAX_K``.  With x_a = c_a R_a(m),

    E|sum_a eps_a x_a|^{2k} = (k!)^2 [t^k u^k] prod_a cosh(x_a t + conj(x_a) u),

since E exp(f t + conj(f) u) is that product and [t^k u^k] of
exp(f t + conj(f) u) is |f|^{2k} / (k!)^2.  The product is carried as a
polynomial truncated to degree k in t and in u, one factor at a time:
O(K k^4) per node over K terms, and no pattern is visited.  At k = 1 the
moment is the square function sum_a |x_a|^2 (sign orthogonality), which
the engine forms anyway, so ``nodes`` is that array.  An exponent within
``_SNAP_ULPS`` * np.spacing(2k) of 2k takes this route at exactly 2k: an
exponent computed from 1/s = 1/p + 1/q may land a few ulps off
(q = 5.999999999999997 for s = 1.2, p = 1.5), and the moment moves by
rounding only.  The terms of the expansion cancel between complex
coefficients: at x = (1, i) their absolute sum is 2^(k-1) times the
moment, and the closed form loses about that many ulps.  So higher even
orders, with their (k+1)^4 cost, enumerate.

Enumeration, every other exponent and p = inf.  It uses
|f(-eps)| = |f(eps)|: it fixes the first sign to +1 and visits only the
2^(K-1) patterns that have it (one, the empty sum, when K = 0).  The other
K - 1 signs split into a first half of (K - 1) // 2 signs and a second
half.  The partial sums of each half over all its patterns form a table A
(with the first term added in) and a table B, each kept as separate real
and imaginary float tables; within a table, sign k of row i is read off
bit k of i.  f at pattern (i, j) is row i of A plus row j of B, and the
loop runs over j, each step covering every i at once.  Each step forms
|f|^2 and takes |f|^p = exp(p/2 ln|f|^2) in place: one log and one exp,
cheaper than ``np.power`` (2.05 against 3.1 ns an entry on (128, 256)
buffers, numpy 2.4).  A term is then within about (|p/2 ln|f|^2| + 2) u
of the exact power, u = 2^-53, so at most a few dozen ulps over the
magnitudes of a chain; f = 0 gives exp(-inf) = 0, the power's value, and
the loop runs with numpy's divide warning off for that log.  B is formed
``_B_ROWS`` rows at a time, just before the loop reaches them, so only A,
two buffers of its shape and one such slice of B are held: at 16 signs and
256 nodes, 1.1 MiB instead of the 2 MiB a whole B takes.  ``EXACT_CAP``
bounds the N signs of this route only, counted before the zeros are
dropped; the closed form takes any N.

Khintchine-type comparability constants are never hard-coded anywhere in
the package: ratios are measured per instance and reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import CapacityError, ParameterError, ShapeError
from .geometry import rule_power

EXACT_CAP = 20
_NODE_BLOCK = 1 << 12
_B_ROWS = 32
_EVEN_MAX_K = 8
_SNAP_ULPS = 8


def _sign_matrix(k: int) -> np.ndarray:
    """All 2^k sign patterns as a (2^k, k) +-1 matrix: sign j of row i is bit j of i."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return bits * 2.0 - 1.0


@dataclass(frozen=True)
class SignMoments:
    """Moments of f(eps) = sum_a eps_a c_a R_a over the sign patterns.

    ``p`` is the exponent the moments are of (2k where an exponent within
    the snap tolerance of 2k took the closed form), ``nodes`` the per-node
    E|f|^p (the max of |f| over patterns when p = inf, so its max is the
    sup of |f|), ``value`` is sum w * nodes, ``stderr`` the standard error
    of ``value`` (0 when exact), ``square`` the per-node square function
    sum_a |c_a R_a|^2 (the very array ``nodes`` is at p = 2), ``patterns``
    the number of sign patterns evaluated: 2^(K-1) over the K nonzero
    coefficients when enumerated (1 for the empty sum), 0 on the closed
    form, ``samples`` for Monte Carlo; and ``route`` is "closed-form",
    "enumeration" or "monte-carlo".  For a batch of T coefficient vectors
    ``nodes`` and ``square`` are (T, M) and ``value`` and ``patterns`` (T,)
    arrays, one row or entry per vector.
    """

    p: float
    nodes: np.ndarray
    value: float
    stderr: float
    square: np.ndarray
    patterns: int
    route: str

    def khintchine_factor(self):
        """Largest per-node E|f|^p / (sum_a |c_a R_a|^2)^{p/2}, 0 if that vanishes at every
        node: a float, or one per vector of a batch."""
        if self.nodes is self.square:  # p = 2: x / x**1.0 is 1 at finite x > 0, nan at inf
            top = np.fmax.reduce(self.square, axis=-1)  # fmax skips nan, as den > 0 does
            factor = np.divide(top, top, out=np.zeros_like(top), where=top > 0)
        else:
            den = self.square ** (self.p / 2.0)
            ok = den > 0
            ratio = np.divide(self.nodes, den, out=np.full_like(den, -np.inf), where=ok)
            factor = np.where(np.any(ok, axis=-1), np.max(ratio, axis=-1), 0.0)
        return factor if factor.ndim else float(factor)


def _even_order(p: float) -> int:
    """k if p is within _SNAP_ULPS * np.spacing(2k) of 2k, 1 <= k <= _EVEN_MAX_K; else 0."""
    if not np.isfinite(p):
        return 0
    k = round(p / 2.0)
    return k if 1 <= k <= _EVEN_MAX_K and abs(p - 2 * k) <= _SNAP_ULPS * np.spacing(2.0 * k) else 0


def _even_moment(terms: np.ndarray, k: int) -> np.ndarray:
    """Per-node E|f|^{2k} for f(eps) = sum_a eps_a terms_a, k >= 1, by the
    closed form of the module docstring.

    poly[i, l] is the coefficient of t^i u^l of the product so far; the
    factor cosh(x t + conj(x) u) has coefficient x^i conj(x)^l / (i! l!)
    where i + l is even and 0 elsewhere.
    """
    poly = np.zeros((k + 1, k + 1, terms.shape[1]), dtype=complex)
    poly[0, 0] = 1.0
    up = np.empty((k + 1, terms.shape[1]), dtype=complex)  # x^j / j!
    up[0] = 1.0
    for x in terms:
        for j in range(1, k + 1):
            np.multiply(up[j - 1], x / j, out=up[j])
        down = up.conj()
        new = poly.copy()  # the constant term of the factor
        for di in range(k + 1):
            for dl in range(di % 2, k + 1, 2):
                if di or dl:
                    new[di:, dl:] += (up[di] * down[dl]) * poly[:k + 1 - di, :k + 1 - dl]
        poly = new
    return factorial(k) ** 2 * poly[k, k].real


def _pattern_table(signs: np.ndarray, terms: np.ndarray) -> tuple:
    """Real and imaginary parts of sum_k eps_k terms_k for each row eps of
    ``signs`` (rows of ``_sign_matrix(len(terms))``): two (len(signs), M)
    float tables."""
    return signs @ terms.real, signs @ terms.imag


def _half_enumeration(terms: np.ndarray, p: float) -> np.ndarray:
    """Per-node mean of |f|^p (max of |f| when p = inf) for
    f(eps) = sum_a eps_a terms_a, from the patterns with eps_0 = +1.

    The tables A and B are described in the module docstring.
    """
    n, m = terms.shape
    rest = terms[1:]
    half = len(rest) // 2
    a_re, a_im = _pattern_table(_sign_matrix(half), rest[:half])
    if n:  # N = 0 leaves the single empty pattern, f = 0
        a_re += terms[0].real
        a_im += terms[0].imag
    mag2 = np.empty_like(a_re)
    im2 = np.empty_like(a_im)
    nodes = np.zeros(m)
    b_signs = _sign_matrix(len(rest) - half)  # K <= EXACT_CAP // 2
    with np.errstate(divide="ignore"):  # |f|^2 = 0 has log -inf, whose exp is 0
        for lo in range(0, len(b_signs), _B_ROWS):
            b_re, b_im = _pattern_table(b_signs[lo:lo + _B_ROWS], rest[half:])
            for j in range(len(b_re)):
                np.add(a_re, b_re[j], out=mag2)
                np.multiply(mag2, mag2, out=mag2)
                np.add(a_im, b_im[j], out=im2)
                np.multiply(im2, im2, out=im2)
                mag2 += im2
                if p == np.inf:
                    np.maximum(nodes, np.max(mag2, axis=0), out=nodes)
                    continue
                np.log(mag2, out=mag2)  # |f|^p = exp(p/2 ln|f|^2), cheaper than np.power
                mag2 *= p / 2.0
                np.exp(mag2, out=mag2)
                nodes += np.add.reduce(mag2, axis=0)
            del b_re, b_im  # the next slice need not coexist with this one
    if p == np.inf:
        return np.sqrt(nodes, out=nodes)
    nodes /= len(a_re) * len(b_signs)
    return nodes


def _square_function(rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per-node sum_a |coeffs_a|^2 |rows_a|^2 for coeffs (N,) or for each row of (T, N).

    One real product |C|^2 @ |R|^2 over the rows some vector uses, with
    |R|^2 = Re^2 + Im^2 formed once (no complex ``abs``): an unused row adds
    only zeros, and leaving it out keeps a vector's figures independent of
    the zeros beside it.
    """
    used = np.flatnonzero(np.any(np.atleast_2d(coeffs) != 0, axis=0))
    if used.size < rows.shape[0]:  # index only then: a full-support copy costs (N, M) per call
        rows, coeffs = rows[used], coeffs[..., used]
    return np.square(np.abs(coeffs)) @ (np.square(rows.real) + np.square(rows.imag))


def sign_moments(rows, coeffs, w, p: float, method: str = "exact",
                 samples: int | None = None, seed: int | None = None) -> SignMoments:
    """Moments of f(eps) = sum_a eps_a coeffs_a rows_a, weighted by w.

    ``rows`` is (N, M), ``coeffs`` one vector (N,) or a batch (T, N) of
    them, and ``w`` (M,).  A batch gives ``nodes`` and ``square`` of shape
    (T, M) and ``value`` and ``patterns`` of shape (T,), row t being the
    moments of vector t; the square function of the whole batch is one
    product.  With ``method="exact"`` only the K nonzero coefficients of
    each vector and their rows enter.  An exponent within 8 * np.spacing(2k)
    of an even 2k, 2 <= 2k <= 16, takes the closed form at exactly 2k, for
    any N, and evaluates no pattern; every other exponent, p = inf included,
    enumerates the 2^(K-1) patterns whose first sign is +1, which gives the
    moments over all 2^N, and is capped at N = ``EXACT_CAP``.  With
    ``method="monte-carlo"`` ``samples`` seeded patterns of one vector are
    drawn.  A sampled sup is no bound, so p = inf is exact only.
    """
    rows = np.asarray(rows)
    coeffs = np.asarray(coeffs)
    w = np.asarray(w, dtype=float)
    if (rows.ndim != 2 or coeffs.ndim not in (1, 2) or coeffs.shape[-1] != rows.shape[0]
            or w.shape != (rows.shape[1],)):
        raise ShapeError(f"need rows (N, M), coeffs (N,) or (T, N) and weights (M,); got "
                         f"{rows.shape}, {coeffs.shape} and {w.shape}")
    n = rows.shape[0]
    stderr = 0.0
    if method == "exact":
        k = _even_order(p)
        if not k and n > EXACT_CAP:
            raise CapacityError(f"exact enumeration capped at {EXACT_CAP} signs, got {n}")
        if k == 1:
            nodes = square = _square_function(rows, coeffs)
        else:
            nodes = np.empty(coeffs.shape[:-1] + rows.shape[1:])
            for c, out in zip(np.atleast_2d(coeffs), np.atleast_2d(nodes)):
                support = np.flatnonzero(c)
                vec_rows = rows[support] if support.size < n else rows  # a full copy costs (N, M)
                for lo in range(0, out.size, _NODE_BLOCK):
                    hi = lo + _NODE_BLOCK
                    terms = c[support, None] * vec_rows[:, lo:hi]
                    out[lo:hi] = _even_moment(terms, k) if k else _half_enumeration(terms, p)
            square = _square_function(rows, coeffs)  # not held beside the loop's tables
        counts = np.count_nonzero(coeffs, axis=-1)
        patterns = 0 * counts if k else 1 << np.maximum(counts - 1, 0)
        if coeffs.ndim == 1:
            patterns = int(patterns)
        if k:
            p = 2.0 * k
        route = "closed-form" if k else "enumeration"
    elif method == "monte-carlo":
        if coeffs.ndim != 1:
            raise ParameterError("Monte Carlo takes one coefficient vector")
        if samples is None or samples < 1:
            raise ParameterError("Monte Carlo needs samples >= 1")
        if seed is None:
            raise ParameterError("Monte Carlo needs an explicit seed")
        if p == np.inf:
            raise ParameterError("a sampled sup over signs is no bound; use exact enumeration")
        eps = 2.0 * np.random.default_rng(seed).integers(0, 2, size=(samples, n)) - 1.0
        f = (eps * coeffs[None, :]) @ rows
        nodes = np.sum(np.abs(f) ** p, axis=0) / samples
        norms = rule_power(f, w, p)
        stderr = float(np.std(norms, ddof=1) / np.sqrt(samples)) if samples > 1 else np.inf
        square = _square_function(rows, coeffs)
        patterns, route = samples, "monte-carlo"
    else:
        raise ParameterError(f"unknown expectation method {method!r}")
    value = rule_power(nodes, w, 1.0)
    return SignMoments(p, nodes, value if coeffs.ndim == 2 else float(value), stderr, square,
                       patterns, route)


def khintchine_ratio(x, q: float, method: str = "exact", samples: int | None = None,
                     seed: int | None = None) -> tuple:
    """(E|sum_a eps_a x_a|^q / (sum |x_a|^2)^{q/2}, its standard error); 1 at q = 2."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size == 0 or not np.any(x):
        raise ParameterError("khintchine_ratio needs a nonzero vector")
    if not 1 <= q < np.inf:
        raise ParameterError("khintchine_ratio needs a finite q >= 1")
    mom = sign_moments(np.ones((x.size, 1)), x, np.ones(1), q, method, samples, seed)
    denom = float(mom.square[0]) ** (q / 2.0)
    return mom.value / denom, mom.stderr / denom

