"""Finite point sequences: separation geometry, Carleson constants, duals.

A PointSequence is an ordered list of distinct interior points.  The
module measures how far the sequence is from being interpolating in three
ways: Gleason separation, the classical window constant on the disc, and
operator-norm Carleson constants of the kernel synthesis map; and it
constructs dual systems (collocation in the kernel span, or closed-form
Blaschke products on the disc) normalized so that rho_a(b) is
delta_ab * ||k_b||_{p'} for finite p and delta_ab for p = inf, whatever
the method.  ``dual_system`` is the only constructor; the dual keeps the
kernel-norm cache it read its scales from, and every chain step in
``extension`` reads kernel norms from it.

Kernels and duals are only ever needed as sample matrices: the kernels of
a sequence at M points are one ``kernel_matrix`` call, and
``DualSystem.values`` gives every rho_a at M points as one (N, M) array.
A dual holds K, the kernel matrix of its points against themselves, formed
once by ``dual_system``: the collocation solve, the delta residual, the
k_a(a) of the extension coefficients and the extension at the points all
read it.  A collocation dual records the condition number of its solve in
its report; past ``_COND_LIMIT`` it is not built at all, and neither is a
dual whose delta residual is past ``_DELTA_LIMIT``.

Operator norms away from q = 2 are nonconvex; the estimates here are
certified lower bounds from a duality-map power iteration with seeded
restarts, and every report carries the maximizing certificate and the
steps and converged flag of each restart.  The restarts run in lockstep as
one batch: each step is a single pass that gives every candidate's ratio
and its next gradient together.  At the iteration's exponent 2 (the weak
constant at q = 4) the pass needs only the N x N Gram matrix A^H W A,
formed once; at exponent 4 (the strong constant at q = 4, the weak one at
q = 8) and up to ``_QUARTIC_MAX_N`` points, only the quartic Gram matrix
over the pairs of columns, formed once; at every other exponent it runs
over the kernel matrix in blocks of rows.
The batch runs in real arithmetic when the matrix and the starts are real,
as for the weak constant, whose matrix is |A|^2 and whose starts are
positive.  Of restarts that reach the same maximum up to rounding, the
first supplies the constant and the certificate.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    IllConditionedError,
    InvariantViolation,
    NumericError,
    ParameterError,
    UnsupportedDomainError,
)
from .geometry import BALL2, DISC, Domain, QuadratureRule, rule_norm, rule_power, seq_norm
from .kernels import (INF, NormCache, conjugate_exponent, divide_rows, kernel_matrix, _point_array,
                      _point_key)


@dataclass(frozen=True)
class PointSequence:
    """Ordered distinct interior points of one domain."""

    domain: Domain
    points: tuple

    def __post_init__(self):
        if len(self.points) < 1:
            raise ParameterError("a point sequence needs at least one point")
        seen = set()
        for pt in self.points:
            self.domain.point(np.asarray(pt, dtype=complex))
            if pt in seen:
                raise ParameterError(f"repeated point {pt} in sequence")
            seen.add(pt)

    @classmethod
    def create(cls, dom: Domain, pts) -> "PointSequence":
        keys = tuple(_point_key(dom.point(p)) for p in pts)
        return cls(dom, keys)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> np.ndarray:
        return np.asarray(self.points[i], dtype=complex)

    def arrays(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex).reshape(len(self), self.domain.n)

    def to_json(self) -> dict:
        arr = self.arrays()
        return {
            "domain": self.domain.kind,
            "points_re": arr.real.tolist(),
            "points_im": arr.imag.tolist(),
        }

    @classmethod
    def from_csv(cls, dom: Domain, path) -> "PointSequence":
        """Points from a CSV of re/im columns; only the first non-empty row may be a header."""
        pts = []
        try:
            with open(path, newline="") as fh:
                rows = [(i, row) for i, row in enumerate(csv.reader(fh), 1) if row]
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"cannot read points from {path}: {exc}") from exc
        for k, (line, row) in enumerate(rows):
            try:
                vals = [float(x) for x in row]
            except ValueError as exc:
                if k == 0:
                    continue  # header line
                raise ParameterError(f"{path} row {line}: bad number in {row!r}") from exc
            if len(vals) != 2 * dom.n:
                raise ParameterError(
                    f"{dom.kind} CSV rows need {2 * dom.n} columns (re/im per coordinate)")
            pts.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(dom.n)])
        if not pts:
            raise ParameterError(f"no points parsed from {path}")
        return cls.create(dom, pts)


# ---------------------------------------------------------------------------
# Gleason geometry


def gleason_distance(a, b, dom: Domain) -> float:
    """Pseudo-hyperbolic distance between two interior points."""
    a = dom.point(a)
    b = dom.point(b)
    if dom.kind == DISC:
        return abs((a[0] - b[0]) / (1.0 - np.conj(a[0]) * b[0]))
    if dom.kind == BALL2:
        pairing = 1.0 - np.vdot(a, b)  # 1 - <b, a>
        one_minus = (1.0 - np.linalg.norm(a) ** 2) * (1.0 - np.linalg.norm(b) ** 2) / abs(pairing) ** 2
        return float(np.sqrt(max(0.0, 1.0 - one_minus)))
    return max(abs((a[j] - b[j]) / (1.0 - np.conj(a[j]) * b[j])) for j in range(2))


def gleason_product_delta(seq: PointSequence) -> float:
    """min over a of prod_{b != a} gleason_distance(a, b); 1 for a singleton."""
    n = len(seq)
    if n == 1:
        return 1.0
    best = np.inf
    for i in range(n):
        prod = 1.0
        for j in range(n):
            if j != i:
                prod *= gleason_distance(seq[i], seq[j], seq.domain)
        best = min(best, prod)
    return float(best)


def carleson_window_constant(seq: PointSequence) -> float:
    """Classical window constant sup_Q (sum_{a in Q} (1 - |a|^2)) / side(Q).

    Windows are centered at each point's argument, with dyadic side
    lengths down past the smallest boundary distance in the sequence; the
    returned value is the maximum over this searched family.
    """
    if seq.domain.kind != DISC:
        raise UnsupportedDomainError("window constants are defined for disc sequences")
    pts = seq.arrays()[:, 0]
    radii = np.abs(pts)
    args = np.angle(pts)
    depth = int(np.ceil(np.log2(1.0 / max(np.min(1.0 - radii), 1e-12)))) + 1
    sides = [2.0**-k for k in range(depth + 1)]
    best = 0.0
    for theta0 in args:
        ang = np.abs(np.mod(args - theta0 + np.pi, 2.0 * np.pi) - np.pi)
        for ell in sides:
            inside = (radii >= 1.0 - ell) & (ang <= ell)
            if np.any(inside):
                best = max(best, float(np.sum(1.0 - radii[inside] ** 2) / ell))
    return best


# ---------------------------------------------------------------------------
# Carleson constants


@dataclass
class CarlesonReport:
    """Estimate of a synthesis-operator norm with its certificate."""

    q: float
    d_q: float | None = None
    weak_d_q: float | None = None
    method: str = ""
    certificate: np.ndarray | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "q": self.q,
            "method": self.method,
            "details": self.details,
        }
        if self.d_q is not None:
            out["d_q"] = self.d_q
        if self.weak_d_q is not None:
            out["weak_d_q"] = self.weak_d_q
        if self.certificate is not None:
            out["certificate_re"] = np.real(self.certificate).tolist()
            out["certificate_im"] = np.imag(self.certificate).tolist()
        return out


def normalized_kernel_matrix(seq: PointSequence, q: float, rule: QuadratureRule) -> np.ndarray:
    """(M, N) columns k_{q,a} sampled on the rule, normalized on the rule itself.

    The result is the transpose of a row-major (N, M) array; the power
    iteration runs faster on that column-major layout than on a copy: the
    row-blocked pass multiplies by its row blocks, and the quartic Gram
    matrix gathers its products from the rows of the transpose.  The rows
    are divided by their norms in place (``divide_rows``).
    """
    K = kernel_matrix(seq.arrays(), rule.nodes, seq.domain)
    return divide_rows(K, rule_norm(K, rule.weights, q)).T


def _duality_weight(mag: np.ndarray, r: float) -> np.ndarray:
    """|x|^(r-2) from mag = |x|; for r < 2, 0 where x is 0 (the power would be inf).

    At r >= 2 the power is finite at 0 and runs unmasked, which lets numpy
    take its fast paths (a square at r = 4).
    """
    if r >= 2.0:
        return np.power(mag, r - 2.0)
    return np.power(mag, r - 2.0, out=np.zeros_like(mag), where=mag > 0)


def _duality_map(x: np.ndarray, r: float) -> np.ndarray:
    """|x|^(r-2) x entrywise, in the dtype of x; zero entries map to 0 for every r."""
    return _duality_weight(np.abs(x), r) * x


_ROW_BLOCK = 1024  # rows of A per block of a pass: keeps each (rows, restarts) temporary small
_QUARTIC_BLOCK = 256  # rows of A per block while the quartic Gram matrix is formed
# columns of A up to which r = 4 runs on the quartic Gram matrix: forming it costs
# O(M D^2), and past N = 24 that outweighs 17 row-blocked passes on 27648 rows
_QUARTIC_MAX_N = 24
_POWER_RTOL = 1e-13  # a restart whose ratio gains less than this, relatively, has converged
_POWER_MAX_ITER = 5000  # steps a restart may take before it is reported as not converged


def _lq_pass(A: np.ndarray, wAH: np.ndarray, w: np.ndarray, q: float, mu: np.ndarray):
    """||A mu_r||_{L^q} and the gradient A^H (w |A mu_r|^(q-2) A mu_r) of every row mu_r of mu.

    One pass over A in blocks of ``_ROW_BLOCK`` rows; ``wAH`` is the
    conjugate transpose of A with its columns scaled by the weights w.  The
    factor |A mu_r|^(q-2) is the ``_duality_weight`` of ``_duality_map``;
    each block's values are scaled by it in place, and the same factor,
    times |A mu_r| twice in that order, gives the integral of |A mu_r|^q.
    """
    power = np.zeros(len(mu))
    grad = np.zeros(mu.shape, np.result_type(A, mu))
    for lo in range(0, len(A), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        Y = A[rows] @ mu.T
        mag = np.abs(Y)
        dm = _duality_weight(mag, q)
        Y *= dm
        dm *= mag
        dm *= mag
        power += w[rows] @ dm
        grad += Y.T @ wAH[:, rows].T
    return np.power(power, 1.0 / q), grad


def _gram_pass(G: np.ndarray, mu: np.ndarray):
    """``_lq_pass`` at q = 2 (the weak constant at q = 4) from G = A^H W A alone.

    The gradient A^H (w A mu_r) is G mu_r, and ||A mu_r||_{L^2}^2 is
    Re <G mu_r, mu_r>, clipped at 0 against rounding.
    """
    grad = mu @ G.T
    power = np.sum(np.conj(mu) * grad, axis=1).real
    return np.power(np.maximum(power, 0.0), 0.5), grad


def _quartic_gram(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """H = P^H W P over the pairs a <= b, where P[m, ab] = A_ma A_mb (D = N(N+1)/2 columns).

    For v = sym(mu (x) mu), which carries a factor 2 off the diagonal,
    (P v)_m = (A mu)_m^2, so ||A mu||_{L^4}^4 = v^H H v.  Formed in blocks of
    ``_QUARTIC_BLOCK`` rows of A, so no (M, D) array is ever held.
    """
    cols = A.T
    ia, ib = np.triu_indices(len(cols))
    H = np.zeros((len(ia), len(ia)), A.dtype)
    for lo in range(0, A.shape[0], _QUARTIC_BLOCK):
        rows = slice(lo, lo + _QUARTIC_BLOCK)
        PT = cols[ia, rows]
        PT *= cols[ib, rows]
        PHW = PT * w[rows]
        H += np.conjugate(PHW, out=PHW) @ PT.T
    return H


def _quartic_pass(H: np.ndarray, mu: np.ndarray):
    """``_lq_pass`` at q = 4 from the quartic Gram matrix H of ``_quartic_gram`` alone.

    With v_r = sym(mu_r (x) mu_r), the gradient A^H (w |A mu_r|^2 A mu_r) is
    U_r conj(mu_r), where U_r is the symmetric N x N unpacking of H v_r, and
    ||A mu_r||_{L^4}^4 is Re <U_r conj(mu_r), mu_r>, clipped at 0 against
    rounding.  No step touches A: a pass costs O(restarts D^2).
    """
    n = mu.shape[1]
    ia, ib = np.triu_indices(n)
    v = mu[:, ia] * mu[:, ib]
    v[:, ia != ib] *= 2.0
    Hv = v @ H.T
    U = np.empty((len(mu), n, n), Hv.dtype)
    U[:, ia, ib] = Hv
    U[:, ib, ia] = Hv
    grad = np.matmul(U, np.conj(mu)[:, :, None])[:, :, 0]
    power = np.sum(np.conj(mu) * grad, axis=1).real
    return np.power(np.maximum(power, 0.0), 0.25), grad


def _first_near_max(values: np.ndarray) -> int:
    """Index of the first value within 1e-12 relative of the largest (ties are rounding)."""
    return int(np.flatnonzero(values >= np.max(values) * (1.0 - 1e-12))[0])


def _power_iteration_lq(A: np.ndarray, w: np.ndarray, q: float, starts, max_iter: int):
    """Best ratio ||A mu||_{L^q} / ||mu||_{l^q} over duality-map iterations.

    All restarts run in lockstep as the rows of one batch, in
    ``np.result_type`` of A and the starts: real arithmetic when the matrix
    and every start are real, complex otherwise.  The route is chosen once
    per call, and each step is one pass that gives every candidate's ratio
    together with its gradient: at q = 2 from the N x N Gram matrix
    (w A^H) A (``_gram_pass``), at q = 4 with N <= ``_QUARTIC_MAX_N`` from the
    D x D quartic Gram matrix over the pairs of columns, D = N(N+1)/2
    (``_quartic_pass``), each formed once; at every other q a row-blocked
    pass over A and the weighted conjugate transpose w A^H, formed once
    (``_lq_pass``).  The quartic route never forms w A^H.  A restart only
    steps on from a candidate it accepted, so that gradient is the next
    one.  A restart drops out of the batch once it stops progressing or its
    gradient is zero.  Returns (ratio, maximizer, steps of each restart,
    converged flag of each restart), in start order; a restart has not
    converged when it used up ``max_iter`` before its relative progress
    fell below ``_POWER_RTOL``.  The first restart within 1e-12 relative of
    the largest ratio supplies the ratio and the maximizer.
    """
    qc = conjugate_exponent(q)
    mu = np.array(starts)
    mu = mu.astype(np.result_type(A, mu))
    mu /= rule_norm(mu, 1.0, q)[:, None]
    if q == 4.0 and A.shape[1] <= _QUARTIC_MAX_N:
        step = partial(_quartic_pass, _quartic_gram(A, w))
    else:
        wAH = A.T * w
        np.conjugate(wAH, out=wAH)  # in place: one copy of A, not two
        step = partial(_gram_pass, wAH @ A) if q == 2.0 else partial(_lq_pass, A, wAH, w, q)
    ratio, grad = step(mu)
    steps = np.zeros(len(mu), dtype=int)
    converged = np.ones(len(mu), dtype=bool)
    live = np.arange(len(mu))
    for it in range(max_iter):
        live = live[np.any(grad[live], axis=1)]
        if not live.size:
            break
        cand = _duality_map(grad[live], qc)
        cand /= rule_norm(cand, 1.0, q)[:, None]
        cand_ratio, cand_grad = step(cand)
        better = cand_ratio > ratio[live]
        progressed = cand_ratio > ratio[live] * (1.0 + _POWER_RTOL)
        took = live[better]
        mu[took], ratio[took], grad[took] = cand[better], cand_ratio[better], cand_grad[better]
        steps[live] = it + 1
        live = live[progressed]
    else:
        converged[live] = False
    best = _first_near_max(ratio)
    return float(ratio[best]), mu[best], steps.tolist(), converged.tolist()


def _power_details(restarts: int, seed: int, iterations: list, converged: list,
                   resolution: int) -> dict:
    """Report details of a power-iteration estimate, per restart and overall."""
    return {"restarts": restarts, "seed": seed, "iterations": max(iterations, default=0),
            "converged": all(converged), "resolution": resolution,
            "restart_iterations": iterations, "restart_converged": converged}


def _heaviest_column(masses: np.ndarray) -> tuple:
    """(mass, e_i) of the first column within 1e-12 relative of the heaviest (ties are rounding)."""
    i = _first_near_max(masses)
    return float(masses[i]), np.eye(len(masses))[i].astype(complex)


def _default_starts(n: int, restarts: int, seed: int | None, positive: bool = False):
    if seed is None:
        raise ParameterError("the power iteration is stochastic: an explicit seed is required")
    if restarts < 0:
        raise ParameterError(f"restarts must be at least 0, got {restarts}")
    starts = [np.ones(n)]
    starts.extend(np.eye(n))
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        if positive:
            starts.append(np.abs(rng.standard_normal(n)) + 1e-3)
        else:
            starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return starts


def _carleson_route(q: float) -> str:
    """The method ``carleson_constant`` takes at exponent q, the name its report carries."""
    if q == INF or q < 1:
        raise ParameterError("carleson_constant needs 1 <= q < inf")
    if q == 1:
        return "coordinate-extreme"
    return "gram-spectral" if q == 2 else "power-iteration"


def carleson_constant(A: np.ndarray, q: float, rule: QuadratureRule, *,
                      restarts: int = 32, seed: int | None = None) -> CarlesonReport:
    """Least D with ||sum mu_a k_{q,a}||_q <= D ||mu||_q, at desk scale.

    A is ``normalized_kernel_matrix(seq, q, rule)``, which the weak constant
    at the same q reads as well.  q = 2 is solved exactly (up to the
    eigensolve) through the Gram matrix of the normalized kernels; q = 1 is
    attained at a coordinate vector; other q use the seeded power iteration
    and give certified lower bounds.
    """
    route = _carleson_route(q)
    w = rule.weights
    if route == "coordinate-extreme":
        mass, cert = _heaviest_column(rule_power(A.T, w, 1.0))
        return CarlesonReport(q=q, d_q=mass, method=route, certificate=cert,
                              details={"resolution": rule.resolution})
    if route == "gram-spectral":
        gram = A.conj().T @ (w[:, None] * A)
        try:
            evals, evecs = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericError(f"Gram eigensolve failed: {exc}") from exc
        top = int(np.argmax(evals))
        return CarlesonReport(q=q, d_q=float(np.sqrt(max(evals[top], 0.0))),
                              method=route, certificate=evecs[:, top],
                              details={"resolution": rule.resolution})
    ratio, mu, iters, converged = _power_iteration_lq(
        A, w, q, _default_starts(A.shape[1], restarts, seed), _POWER_MAX_ITER)
    return CarlesonReport(q=q, d_q=ratio, method=route, certificate=mu,
                          details=_power_details(restarts, seed, iters, converged,
                                                 rule.resolution))


def weak_carleson_constant(A: np.ndarray, q: float, rule: QuadratureRule, *,
                           restarts: int = 32, seed: int | None = None) -> CarlesonReport:
    """Least D with ||sum |mu_a|^2 |k_{q,a}|^2||_{q/2} <= D ||mu||_q^2.

    A is ``normalized_kernel_matrix(seq, q, rule)``, as for
    ``carleson_constant``.  Only |mu_a|^2 enters, so the search runs over
    nonnegative t on the l^{q/2} sphere.  q = 2 is exact: positivity makes
    the L^1 norm of the sum additive, so the best constant is the largest
    column mass (1 by normalization).  Other q run the power iteration,
    which needs a ``seed``.
    """
    if q < 2:
        raise ParameterError("weak Carleson constants need q >= 2")
    w = rule.weights
    if q == 2:
        mass, cert = _heaviest_column(rule_power(A.T, w, 2.0))
        if mass > 1.0 + 1e-10:
            raise InvariantViolation(f"weak 2-Carleson mass exceeded 1: {mass}")
        return CarlesonReport(q=q, weak_d_q=mass, method="column-mass", certificate=cert,
                              details={"resolution": rule.resolution})
    ratio, t, iters, converged = _power_iteration_lq(
        np.abs(A) ** 2, w, q / 2.0, _default_starts(A.shape[1], restarts, seed, positive=True),
        _POWER_MAX_ITER)
    return CarlesonReport(q=q, weak_d_q=ratio, method="power-iteration",
                          certificate=np.sqrt(np.abs(t)).astype(complex),
                          details=_power_details(restarts, seed, iters, converged,
                                                 rule.resolution))


def _weak_ratio(A: np.ndarray, w: np.ndarray, q: float, mu: np.ndarray) -> float:
    """||sum |mu_a|^2 |k_{q,a}|^2||_{q/2} / ||mu||_q^2 for one coefficient vector mu, on the
    normalized kernel matrix A (M, N) with rule weights w."""
    dens = (np.abs(A) ** 2) @ (np.abs(mu) ** 2)
    return float(rule_norm(dens, w, q / 2.0)) / seq_norm(mu, q) ** 2


# ---------------------------------------------------------------------------
# dual systems


@dataclass
class DualSystem:
    """System {rho_a} with rho_a(b) = delta_ab * scale_b.

    ``scales`` is ||k_b||_{p'} for finite target exponents and 1 for the
    p = inf convention.  Matrix-based systems store rho_a = sum_c X[a, c] k_c
    together with the condition number of the collocation matrix; Blaschke
    systems are closed form and exact on the disc.  ``norms`` is the
    kernel-norm cache of the sequence's domain that every chain step reads,
    and ``K[a, b] = k_a(b)`` the ``kernel_matrix`` of the points against
    themselves, evaluated here when no K is given; reports leave both out.
    """

    sequence: PointSequence
    p: float
    method: str
    scales: np.ndarray
    coefficients: np.ndarray | None = None
    condition: float | None = None
    norms: NormCache = field(kw_only=True, repr=False, compare=False)
    K: np.ndarray | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if self.K is None:
            pts = self.sequence.arrays()
            self.K = kernel_matrix(pts, pts, self.sequence.domain)

    @property
    def blaschke(self) -> bool:
        return self.coefficients is None

    def values(self, zs: np.ndarray) -> np.ndarray:
        """(N, M) values rho_a(z) at an (M, n) array of points."""
        K = None if self.blaschke else kernel_matrix(self.sequence.arrays(), zs, self.sequence.domain)
        return self.values_from_kernels(zs, K)

    def values_from_kernels(self, zs: np.ndarray, K: np.ndarray | None) -> np.ndarray:
        """rho_a(z) at zs from K = ``kernel_matrix`` of the points at zs: X K in the
        kernel span, the closed form for a Blaschke dual (which reads no K)."""
        if not self.blaschke:
            return self.coefficients @ K
        zeros = self.sequence.arrays()[:, 0]
        at_points = np.diag(_blaschke_others(zeros, zeros))
        rows = _blaschke_others(zeros, _point_array(zs, self.sequence.domain)[:, 0])
        return (self.scales / at_points)[:, None] * rows

    def delta_residual(self) -> float:
        """max_{a,b} |rho_a(b) - delta_ab scale_b| / scale_b, with rho_a(b) read off ``K``."""
        vals = self.values_from_kernels(self.sequence.arrays(), self.K)
        return float(np.max(np.abs(vals - np.diag(self.scales)) / self.scales))

    def to_json(self) -> dict:
        out = {
            "method": self.method,
            "p": "inf" if self.p == INF else self.p,
            "scales": self.scales.tolist(),
            "sequence": self.sequence.to_json(),
            "condition": self.condition,
        }
        if self.coefficients is not None:
            out["coefficients_re"] = self.coefficients.real.tolist()
            out["coefficients_im"] = self.coefficients.imag.tolist()
        return out


def _blaschke_others(zeros: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(N, M) products over b != a of the disc Blaschke factors with zero b, at z."""
    c = zeros[:, None]
    nonzero = c != 0
    unit = np.ones_like(c)
    unit[nonzero] = np.abs(c[nonzero]) / c[nonzero]
    factors = unit * (c - z[None, :]) / (1.0 - np.conj(c) * z[None, :])
    return np.array([np.prod(np.delete(factors, a, axis=0), axis=0) for a in range(len(zeros))])


_COND_LIMIT = 1e12
# largest delta residual max |rho_a(b) - delta_ab scale_b| / scale_b of a dual that is built
_DELTA_LIMIT = 1e-8


def dual_system(seq: PointSequence, p: float, method: str) -> DualSystem:
    """The "gram2" (p = 2 only), "collocation" or "blaschke" (disc only) dual for exponent p.

    scale_b is 1 at p = inf and ||k_b||_{p'} otherwise, read from a new
    NormCache of the sequence's domain that the dual keeps, as it keeps K,
    the one ``kernel_matrix`` of the points against themselves.  Collocation
    (gram2 is its p = 2 case) solves K^T X^T = diag(scales) in span{k_c};
    Blaschke is rho_a = scale_a B_a / B_a(a), B_a the product over b != a.
    A condition number past ``_COND_LIMIT`` is an IllConditionedError, and
    a delta residual past ``_DELTA_LIMIT`` an InvariantViolation.
    """
    if method not in ("gram2", "collocation", "blaschke"):
        raise ParameterError(f"unknown dual method {method!r}")
    if method == "gram2" and p != 2:
        raise ParameterError(f"the gram2 dual targets exponent 2, not {p}")
    if method == "blaschke" and seq.domain.kind != DISC:
        raise UnsupportedDomainError("Blaschke duals require the disc")
    norms = NormCache(seq.domain)
    if p == INF:
        scales = np.ones(len(seq))
    else:
        pc = conjugate_exponent(p)
        scales = np.array([norms.norm(seq[i], pc) for i in range(len(seq))])
    pts = seq.arrays()
    K = kernel_matrix(pts, pts, seq.domain)
    if method == "blaschke":
        dual = DualSystem(seq, float(p), method, scales, norms=norms, K=K)
    else:
        cond = float(np.linalg.cond(K.T))  # K.T[b, c] = k_c(b)
        if cond > _COND_LIMIT:
            raise IllConditionedError(f"collocation matrix condition {cond:.3e} beyond "
                                      f"{_COND_LIMIT:.0e}; points too close")
        try:
            X = np.linalg.solve(K.T, np.diag(scales.astype(complex))).T
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"dual system solve failed: {exc}") from exc
        dual = DualSystem(seq, float(p), method, scales, X, cond, norms=norms, K=K)
    residual = dual.delta_residual()
    if residual > _DELTA_LIMIT:
        raise InvariantViolation(f"dual delta residual {residual:.3e} exceeds "
                                 f"{_DELTA_LIMIT:.0e} (condition {dual.condition})")
    return dual


def dual_powers(rho: np.ndarray, rule: QuadratureRule, p: float) -> np.ndarray:
    """Per-row ||rho_a||_p^p of samples on the rule (``rule_power``); at p = inf the per-row
    max |rho_a|, which is its own root."""
    return np.max(np.abs(rho), axis=-1) if p == INF else rule_power(rho, rule.weights, p)


def dual_bound(dual: DualSystem, powers: np.ndarray) -> float:
    """sup_a ||rho_a||_p by quadrature (max over nodes when p = inf): the largest root of
    ``powers``, the ``dual_powers`` of rho on a rule, taken as ``rule_norm`` takes it."""
    if dual.p < 1:
        raise ParameterError("dual_bound requires p >= 1 or p = inf")
    return float(np.max(powers if dual.p == INF else np.power(powers, 1.0 / dual.p)))
