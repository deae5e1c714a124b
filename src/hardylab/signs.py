"""Bernoulli sign machinery: one sign-moment engine, exact or seeded Monte Carlo.

``sign_moments`` is the only code that turns sign patterns into moments of
f(eps) = sum_a eps_a c_a R_a, where R_a are rows sampled on boundary nodes:
by exact enumeration of all 2^N patterns (N <= 20) or by seeded Monte
Carlo.  Pattern order is fixed (sign j of pattern i is read off bit j of
i) and reductions happen in a fixed order, so every figure is
reproducible.

Khintchine-type comparability constants are never hard-coded anywhere in
the package: ratios are measured per instance and reported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, ShapeError
from .geometry import QuadratureRule, seq_norm
from .sequences import PointSequence, normalized_kernel_matrix

EXACT_CAP = 20


def sign_matrix_chunks(n: int, chunk: int = 1 << 14):
    """Yield (C, n) blocks of all 2^n sign patterns in index order."""
    if n > EXACT_CAP:
        raise CapacityError(f"exact enumeration capped at {EXACT_CAP} signs, got {n}")
    total = 1 << n
    shifts = np.arange(n, dtype=np.uint64)
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
        bits = (idx[:, None] >> shifts[None, :]) & 1
        yield bits.astype(float) * 2.0 - 1.0


def sampled_sign_matrix(n: int, samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(samples, n)).astype(float) * 2.0 - 1.0


@dataclass(frozen=True)
class SignMoments:
    """Moments of f(eps) = sum_a eps_a c_a R_a over the sign patterns.

    ``nodes`` is the per-node E|f|^p (the max of |f| over patterns when
    p = inf), ``value`` is sum w * nodes, ``best`` the largest per-pattern
    sum w |f|^p (largest max |f| when p = inf), ``stderr`` the standard
    error of ``value`` (0 when exact), and ``square`` the per-node square
    function sum_a |c_a R_a|^2.
    """

    p: float
    nodes: np.ndarray
    value: float
    best: float
    stderr: float
    square: np.ndarray

    def khintchine_factor(self) -> float:
        """Largest per-node E|f|^p / (sum_a |c_a R_a|^2)^{p/2}; 0 if that vanishes."""
        den = self.square ** (self.p / 2.0)
        ok = den > 0
        return float(np.max(self.nodes[ok] / den[ok])) if np.any(ok) else 0.0


def sign_moments(rows, coeffs, w, p: float, method: str = "exact",
                 samples: int | None = None, seed: int | None = None) -> SignMoments:
    """Moments of f(eps) = sum_a eps_a coeffs_a rows_a, weighted by w.

    ``rows`` is (N, M), ``coeffs`` (N,) and ``w`` (M,).  With
    ``method="exact"`` all 2^N patterns are enumerated in blocks; with
    ``method="monte-carlo"`` ``samples`` seeded patterns are drawn.  A
    sampled sup is no bound, so p = inf is exact only.
    """
    rows = np.asarray(rows)
    coeffs = np.asarray(coeffs)
    w = np.asarray(w, dtype=float)
    if rows.ndim != 2 or coeffs.shape != (rows.shape[0],) or w.shape != (rows.shape[1],):
        raise ShapeError(f"need rows (N, M), coeffs (N,) and weights (M,); got "
                         f"{rows.shape}, {coeffs.shape} and {w.shape}")
    n = coeffs.size
    if method == "exact":
        blocks, count = sign_matrix_chunks(n), 1 << n
    elif method == "monte-carlo":
        if samples is None or samples < 1:
            raise ParameterError("Monte Carlo needs samples >= 1")
        if seed is None:
            raise ParameterError("Monte Carlo needs an explicit seed")
        if p == np.inf:
            raise ParameterError("a sampled sup over signs is no bound; use exact enumeration")
        blocks, count = [sampled_sign_matrix(n, samples, seed)], samples
    else:
        raise ParameterError(f"unknown expectation method {method!r}")

    nodes = np.zeros(rows.shape[1])
    best = 0.0
    for block in blocks:
        mag = np.abs((block * coeffs[None, :]) @ rows)
        if p == np.inf:
            np.maximum(nodes, np.max(mag, axis=0), out=nodes)
            continue
        mag **= p
        nodes += np.sum(mag, axis=0)
        norms = mag @ w
        best = max(best, float(np.max(norms)))
    stderr = 0.0
    if p == np.inf:
        best = float(np.max(nodes, initial=0.0))
    else:
        nodes /= count
        if method == "monte-carlo":
            stderr = float(np.std(norms, ddof=1) / np.sqrt(count)) if count > 1 else np.inf
    square = np.sum((np.abs(coeffs)[:, None] * np.abs(rows)) ** 2, axis=0)
    return SignMoments(p, nodes, float(np.sum(w * nodes)), best, stderr, square)


def khintchine_ratio(x, q: float, method: str = "exact", samples: int | None = None,
                     seed: int | None = None) -> tuple:
    """(E|sum_a eps_a x_a|^q / (sum |x_a|^2)^{q/2}, its standard error); 1 at q = 2."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size == 0 or not np.any(x):
        raise ParameterError("khintchine_ratio needs a nonzero vector")
    if not 1 <= q < np.inf:
        raise ParameterError("khintchine_ratio needs a finite q >= 1")
    mom = sign_moments(x[:, None], np.ones(x.size), np.ones(1), q, method, samples, seed)
    denom = float(mom.square[0]) ** (q / 2.0)
    return mom.value / denom, mom.stderr / denom


def weak_from_carleson_check(seq: PointSequence, q: float, mu, rule: QuadratureRule,
                             d_q: float, method: str = "exact",
                             samples: int | None = None, seed: int | None = None) -> dict:
    """Verify the sign-averaging route from the synthesis bound to the
    squared-modulus bound for one coefficient vector.

    Computes, with k_{q,a} normalized on the rule,

      left   = || sum |mu_a|^2 |k_{q,a}|^2 ||_{q/2}^{q/2}
      middle = E || sum mu_a eps_a k_{q,a} ||_q^q
      right  = D^q ||mu||_q^q

    The per-pattern synthesis ratio never exceeds the true constant, so
    the right inequality is asserted against max(d_q, best ratio seen
    here); the report records whether the supplied d_q already dominated.
    The left/middle comparison carries the Khintchine constant, so only
    finiteness and positivity are asserted for it.
    """
    if q < 2:
        raise ParameterError("the sign-averaging chain needs q >= 2")
    mu = np.asarray(mu, dtype=complex)
    w = rule.weights
    mom = sign_moments(normalized_kernel_matrix(seq, q, rule).T, mu, w, q, method, samples, seed)
    mu_norm_q = seq_norm(mu, q)
    left = float(np.sum(w * mom.square ** (q / 2.0)))
    middle, best_q, stderr = mom.value, mom.best, mom.stderr
    d_local = best_q ** (1.0 / q) / mu_norm_q
    d_eff = max(d_q, d_local)
    right = d_eff**q * mu_norm_q**q
    slack = 1e-8 * right + 4.0 * stderr
    right_ok = middle <= right + slack
    left_factor = left / middle if middle > 0 else np.inf
    if not (np.isfinite(left_factor) and left_factor > 0):
        raise ParameterError("degenerate instance: the averaged synthesis norm vanished")
    return {
        "q": q,
        "left": left,
        "middle": middle,
        "right": right,
        "left_factor": left_factor,
        "right_factor": middle / right,
        "right_ok": bool(right_ok),
        "d_q_given": d_q,
        "d_q_local": d_local,
        "d_q_given_sufficient": bool(middle <= d_q**q * mu_norm_q**q * (1.0 + 1e-8) + 4.0 * stderr),
        "method": method,
        "stderr": stderr,
    }
