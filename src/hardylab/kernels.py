"""Reproducing kernels, their L^p norms, and kernel-norm inequalities.

The kernel attached to an interior point a is 1/(1 - conj(a) z) on the
disc, (1 - <z, a>)^(-2) on the ball of C^2, and the coordinate product of
disc kernels on the bidisc.  Everything downstream (Carleson constants,
dual systems, extension operators) consumes kernels through this module,
and ``kernel_matrix`` is the only code that evaluates those formulas: it
returns the (N, M) values of the kernels of N points at M points in one
broadcast, formed in place, and k_a(a) is the diagonal of the points
against themselves.  ``divide_rows`` normalizes such a matrix row by row
in place, with the bits of the division by a column of norms.

Kernel norms are closed forms: ||k_a||_p^p is a hypergeometric value of
|a|^2 (see ``NormCache``), summed with an explicit tail bound that every
table carries as its residual.  ``NormCache`` is the one kernel-norm
evaluator; a norm on an explicit rule is ``geometry.rule_norm`` of the
``kernel_matrix`` rows at the rule's nodes.

p = inf norms are the maximum of |k_a| over an evaluation set that
includes the boundary point a/|a| where the sup is attained; they are
certified lower bounds of the essential sup and all downstream
assertions treat them as such.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DependencyError,
    DomainError,
    InvariantViolation,
    NumericError,
    ParameterError,
    ShapeError,
)
from .geometry import BALL2, DISC, Domain

INF = np.inf


# ---------------------------------------------------------------------------
# exponent arithmetic


def conjugate_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; 1' = inf and inf' = 1."""
    if p == INF:
        return 1.0
    if p < 1:
        raise ParameterError("exponents must satisfy p >= 1")
    if p == 1:
        return INF
    return p / (p - 1.0)


def exponent_from_split(s: float, p: float) -> float:
    """q solving 1/s = 1/p + 1/q (q = s when p = inf); s = p = inf has no finite q."""
    if s < 1 or s >= p:
        raise ParameterError("need 1 <= s < p")
    if p == INF:
        return float(s)
    return 1.0 / (1.0 / s - 1.0 / p)


# ---------------------------------------------------------------------------
# kernel evaluation


def _point_key(a: np.ndarray) -> tuple:
    return tuple(complex(v) for v in np.atleast_1d(a))


def _point_array(zs, dom: Domain) -> np.ndarray:
    """zs as a complex (M, n) array of points of dom; a flat array holds consecutive points."""
    zs = np.asarray(zs, dtype=complex)
    if zs.ndim == 1 and zs.size % dom.n == 0:
        zs = zs.reshape(-1, dom.n)
    if zs.ndim != 2 or zs.shape[1] != dom.n:
        raise ShapeError(f"{dom.kind} points need shape (M, {dom.n}), got {zs.shape}")
    return zs


def kernel_matrix(points, zs: np.ndarray, dom: Domain) -> np.ndarray:
    """(N, M) values k_a(z) for N interior points a and M points z.

    ``zs`` is an (M, n) array of interior or boundary points (a flat array
    is read as consecutive points); any other shape is a ``ShapeError``.
    This is the one place a kernel formula is evaluated: one broadcast over
    (a, z) per domain, formed in place in the C-contiguous array it returns
    (one (N, M) temporary more on the ball, two on the bidisc).  Every
    in-place step is the ufunc of the out-of-place formula, so the bits are
    the same.
    """
    ca = np.conj([dom.point(a) for a in points]).reshape(-1, dom.n)[:, None, :]
    zs = _point_array(zs, dom)
    denom = ca[:, :, 0] * zs[None, :, 0]
    if dom.kind == BALL2:
        denom += ca[:, :, 1] * zs[None, :, 1]
    np.subtract(1.0, denom, out=denom)
    _check_branch(denom)
    if dom.kind == DISC:
        return np.divide(1.0, denom, out=denom)
    if dom.kind == BALL2:
        return np.power(denom, -2, out=denom)
    denom2 = ca[:, :, 1] * zs[None, :, 1]
    np.subtract(1.0, denom2, out=denom2)
    _check_branch(denom2)
    # not denom *= denom2: numpy's in-place complex product of one element
    # rounds differently from the product of larger arrays
    denom = denom * denom2
    return np.divide(1.0, denom, out=denom)


def divide_rows(K: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """K / norms[:, None] in place, bit for bit, for a C-contiguous complex (N, M) K.

    numpy divides a complex by a real as by a complex of zero imaginary
    part (Smith's algorithm, with ratio 0), which is multiplying both parts
    by the rounded reciprocal 1 / norm; the real view of K does that
    directly, without the complex loop or a temporary.
    """
    view = K.view(float)
    view *= (1.0 / norms)[:, None]
    return K


def _check_branch(denom: np.ndarray) -> None:
    # 1 - <z, a> stays in the right half plane for |a| < 1, |z| <= 1;
    # anything else means a point escaped the closed domain.
    if np.min(denom.real) <= 0.0:
        raise DomainError("kernel evaluation left the principal branch; point outside the closed domain?")


# ---------------------------------------------------------------------------
# norm tables

_MONOTONE_TOL = 1e-10  # relative fall of a norm as p grows that counts as rounding


@dataclass
class NormTable:
    """Cached kernel norms at one point over a set of exponents."""

    point: tuple
    domain: Domain
    entries: dict
    residual: float                  # relative error bound of every entry

    def norm(self, p: float) -> float:
        key = float(p)
        if key not in self.entries:
            raise DependencyError(f"no cached norm for exponent {p}")
        return self.entries[key]

    def check_monotone(self) -> None:
        ps = sorted(self.entries, key=lambda p: (p == INF, p))
        vals = [self.entries[p] for p in ps]
        for lo, hi in zip(vals, vals[1:]):
            if lo > hi * (1.0 + _MONOTONE_TOL):
                raise InvariantViolation(
                    f"norm monotonicity violated at point {self.point}: {lo} > {hi}")

    def to_json(self) -> dict:
        return {
            "point_re": [v.real for v in self.point],
            "point_im": [v.imag for v in self.point],
            "norms": {("inf" if p == INF else repr(p)): v for p, v in self.entries.items()},
            "residual": self.residual,
        }


_SERIES_BLOCK = 4096
_SERIES_TERMS = 1 << 20
_SERIES_RTOL = 2.0**-60


def _euler_series(r: float, c: float, n: int) -> tuple:
    """(2F1(n - c, n - c; n; r^2), relative tail bound) for 0 <= r < 1, c >= n/2.

    The terms t_k = ((n - c)_k)^2 / ((n)_k k!) r^(2k) are nonnegative, and
    their ratio x (k + n - c)^2 / ((k + n)(k + 1)), x = r^2, stays at or
    below x from k0 = ((n - c)^2 - n) / (2c + 1 - n) on, so everything after
    t_k (k >= k0) sums to at most t_k x / (1 - x).  Terms are summed in
    fixed blocks until that bound falls below _SERIES_RTOL of the partial
    sum; a series that needs more than _SERIES_TERMS terms (|a| extremely
    close to 1) raises instead of returning a truncated value.
    """
    x = r * r
    one_minus_x = (1.0 - r) * (1.0 + r)
    b = n - c
    k0 = (b * b - n) / (2.0 * c + 1.0 - n)
    total, term, k = 1.0, 1.0, 0
    while k < _SERIES_TERMS:
        ks = np.arange(k, k + _SERIES_BLOCK, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the isfinite check
            terms = term * np.cumprod(x * (ks + b) ** 2 / ((ks + n) * (ks + 1.0)))
            total += float(np.sum(terms))
        term = float(terms[-1])
        k += _SERIES_BLOCK
        if not np.isfinite(total):
            raise NumericError(f"kernel-norm series overflowed at |a| = {r}, c = {c}")
        tail = term * x / one_minus_x
        if k >= k0 and tail <= _SERIES_RTOL * total:
            return total, tail / total
    raise NumericError(f"kernel-norm series at |a| = {r}, c = {c} needs more than "
                       f"{_SERIES_TERMS} terms to reach its tail bound")


def _series_norm(r: float, p: float, c: float, n: int) -> tuple:
    """(||k_a||_p, relative error bound) from ||k_a||_p^p = 2F1(c, c; n; r^2).

    Euler's transform 2F1(c, c; n; x) = (1 - x)^(n - 2c) 2F1(n - c, n - c; n; x)
    moves the singularity at x = 1 into a closed-form factor.
    """
    series, residual = _euler_series(r, c, n)
    one_minus_x = (1.0 - r) * (1.0 + r)
    return one_minus_x ** ((n - 2.0 * c) / p) * series ** (1.0 / p), residual


class NormCache:
    """Closed-form kernel-norm engine keyed by (point, exponent).

    ||k_a||_p^p = 2F1(c, c; n; |a|^2) (Rudin, Function Theory in the Unit
    Ball of C^n, 1.4.10) with c = p/2, n = 1 on the disc and c = p, n = 2
    on the ball of C^2; on the bidisc it is the product of the two disc
    values of the coordinates.  Each entry carries the series tail bound as
    its residual.  Exponents are evaluated independently, so Hoelder-type
    inequalities between the entries of one table hold to rounding.
    """

    def __init__(self, dom: Domain):
        self.domain = dom
        self._cache: dict = {}
        self.worst_residual = 0.0

    def _finite_norm(self, a: np.ndarray, p: float) -> tuple:
        if self.domain.kind == DISC:
            return _series_norm(abs(a[0]), p, p / 2.0, 1)
        if self.domain.kind == BALL2:
            return _series_norm(float(np.linalg.norm(a)), p, p, 2)
        v1, d1 = _series_norm(abs(a[0]), p, p / 2.0, 1)
        v2, d2 = _series_norm(abs(a[1]), p, p / 2.0, 1)
        return v1 * v2, d1 + d2 + d1 * d2

    def _sup_norm(self, a: np.ndarray) -> float:
        # max of |k_a| over the closed boundary, attained in the direction
        # of a; evaluated there directly, so exact despite being quoted as
        # a lower bound.
        if self.domain.kind == DISC:
            return 1.0 / (1.0 - abs(a[0]))
        if self.domain.kind == BALL2:
            return (1.0 - float(np.linalg.norm(a))) ** -2
        return 1.0 / ((1.0 - abs(a[0])) * (1.0 - abs(a[1])))

    def table(self, a, ps: Iterable[float]) -> NormTable:
        a = self.domain.point(a)
        wanted = sorted({float(p) for p in ps})
        for p in wanted:
            if p != INF and p < 1:
                raise ParameterError("kernel norms need p >= 1 or p = inf")
        key = _point_key(a)
        entries: dict = {}
        residual = 0.0
        for p in wanted:
            if (key, p) not in self._cache:
                self._cache[key, p] = ((self._sup_norm(a), 0.0) if p == INF
                                       else self._finite_norm(a, p))
            entries[p], res = self._cache[key, p]
            residual = max(residual, res)
        self.worst_residual = max(self.worst_residual, residual)
        return NormTable(key, self.domain, entries, residual)

    def norm(self, a, p: float) -> float:
        return self.table(a, [p]).norm(p)

    def report(self) -> dict:
        return {"source": "2F1 series", "worst_residual": self.worst_residual}


# ---------------------------------------------------------------------------
# structural-hypothesis constants


@dataclass
class SHConstants:
    """Grid extrema of one of the two kernel-norm hypotheses."""

    domain: Domain
    hypothesis: str                 # "sh_q" or "sh_ps"
    exponents: dict
    extremum: float                  # alpha-hat (min) or beta-hat (max)
    ratios: list                     # [(point key, ratio)]
    worst_residual: float
    grid_note: str = ""

    def to_json(self) -> dict:
        return {
            "hypothesis": self.hypothesis,
            "domain": self.domain.kind,
            "exponents": {k: ("inf" if v == INF else v) for k, v in self.exponents.items()},
            "extremum": self.extremum,
            "ratios": [
                {"point_re": [c.real for c in pt], "point_im": [c.imag for c in pt], "ratio": r}
                for pt, r in self.ratios
            ],
            "worst_residual": self.worst_residual,
            "grid_note": self.grid_note,
        }

    def csv_rows(self) -> list:
        return [[x for c in pt for x in (c.real, c.imag)] + [r, self.hypothesis]
                for pt, r in self.ratios]


def _sh_scan(dom: Domain, hypothesis: str, exponents: dict, grid, norms, wanted: list,
             ratio, extremum, grid_note: str) -> SHConstants:
    """ratio(table) at every grid point, with the worst series residual of the tables.

    Every table is converged: the series behind it stops below 2^-60 relative
    or raises ``NumericError``, so no grid point needs filtering.
    """
    ratios, worst = [], 0.0
    for a in grid:
        t = norms.table(a, wanted)
        worst = max(worst, t.residual)
        ratios.append((t.point, ratio(t)))
    if not ratios:
        raise ParameterError("the scan grid is empty")
    return SHConstants(dom, hypothesis, exponents, extremum(r for _, r in ratios), ratios,
                       worst, grid_note)


def sh_q_scan(dom: Domain, q: float, grid, norms, grid_note: str = "") -> SHConstants:
    """min over the grid of ||k_a||_2^2 / (||k_a||_q ||k_a||_{q'}).

    Hoelder's inequality makes each ratio <= 1, and the closed-form norms
    keep it to rounding; a ratio beyond 1 + 1e-10 is treated as a broken
    invariant rather than a data point.  q = 1 is the L^1-L^inf pair, which
    the extension reaches at p = inf, s = 1.
    """
    if not (1.0 <= q < INF):
        raise ParameterError("sh_q_scan needs 1 <= q < inf")
    qc = conjugate_exponent(q)

    def ratio(t: NormTable) -> float:
        r = t.norm(2.0) ** 2 / (t.norm(q) * t.norm(qc))
        if r > 1.0 + 1e-10:
            raise InvariantViolation(f"Hoelder side of the q-hypothesis failed at {t.point}: {r}")
        return r

    return _sh_scan(dom, "sh_q", {"q": q}, grid, norms, [2.0, q, qc], ratio, min, grid_note)


def sh_ps_scan(dom: Domain, p: float, s: float, grid, norms, grid_note: str = "") -> SHConstants:
    """max over the grid of ||k_a||_{s'} / (||k_a||_{p'} ||k_a||_{q'})."""
    q = exponent_from_split(s, p)
    sc, pc, qc = conjugate_exponent(s), conjugate_exponent(p), conjugate_exponent(q)
    return _sh_scan(dom, "sh_ps", {"p": p, "s": s, "q": q}, grid, norms, [sc, pc, qc],
                    lambda t: t.norm(sc) / (t.norm(pc) * t.norm(qc)), max, grid_note)
