"""Bergman spaces via subordination: one more Hardy dimension.

A function f on the ball B_n lifts to f~(z, w) = f(z) on B_{n+1}, and the
weighted Bergman norm of f equals the Hardy norm of the lift; restricting
a Hardy function to w = 0 can only shrink the Bergman norm.  This turns
Bergman interpolation into the Hardy pipeline run on the embedded
sequence {(a, 0)}.

Desk scale fixes the base dimension at n = 1 (Bergman on the disc, Hardy
on the ball of C^2); the quadrature below is written for n in {1, 2} but
lift targets beyond two complex dimensions are out of range.  Weighted
measures (1 - |z|^2)^k are normalized to mass 1, matching the probability
convention used on the boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedDomainError
from .geometry import BALL2, Domain, QuadratureRule, build_quadrature, rule_norm
from .kernels import INF
from .sequences import PointSequence, dual_system
from .extension import build_extension


@dataclass
class BergmanSpec:
    """Weighted Bergman space of B_n with its volume quadrature.

    The measure is c_k (1 - |z|^2)^k dV, normalized to total mass 1; the
    rule uses Gauss-Legendre in u = |z|^2 against the exact radial density
    u^{n-1} (1 - u)^k and uniform angular rules.
    """

    n: int = 1
    weight: int = 0
    radial: int = 32
    angular: int = 64

    def __post_init__(self):
        if self.n not in (1, 2):
            raise UnsupportedDomainError("volume rules are built for base dimension 1 or 2")
        if self.weight < 0:
            raise ParameterError("the weight power must be a nonnegative integer")
        if self.radial < 1 or self.angular < 1:
            raise ParameterError(f"the volume rule needs at least one radial and one angular "
                                 f"node, got radial {self.radial}, angular {self.angular}")
        x, w = np.polynomial.legendre.leggauss(self.radial)
        u, wu = (x + 1.0) / 2.0, w / 2.0
        dens = u ** (self.n - 1) * (1.0 - u) ** self.weight
        radial_w = wu * dens / _beta_int(self.n, self.weight)
        if self.n == 1:
            theta = np.exp(2j * np.pi * np.arange(self.angular) / self.angular)
            self.nodes = (np.sqrt(u)[:, None] * theta[None, :]).reshape(-1, 1)
            self.weights = np.repeat(radial_w / self.angular, self.angular)
        else:
            sphere = build_quadrature(Domain(BALL2), max(self.radial // 2, 8), angular=self.angular)
            self.nodes = (np.sqrt(u)[:, None, None] * sphere.nodes[None, :, :]).reshape(-1, 2)
            self.weights = (radial_w[:, None] * sphere.weights[None, :]).ravel()
        self.weights = self.weights / self.weights.sum()

    @property
    def lift_dimension(self) -> int:
        """Complex dimension of the Hardy lift target, n + k + 1."""
        return self.n + self.weight + 1


def _beta_int(n: int, k: int) -> float:
    """Integral of u^{n-1} (1-u)^k over [0, 1] for integer arguments."""
    return math.factorial(n - 1) * math.factorial(k) / math.factorial(n + k)


def restrict(F, extra: int = 1):
    """z -> F(z, 0, ..., 0): section of a function of ``extra`` more coordinates."""

    def section(zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim == 1:
            zs = zs.reshape(1, -1)
        padded = np.hstack([zs, np.zeros((zs.shape[0], extra), dtype=complex)])
        return np.asarray(F(padded), dtype=complex)

    return section


def bergman_norm(f, p: float, spec: BergmanSpec) -> float:
    """Weighted Bergman p-norm by volume quadrature (max over nodes at p = inf)."""
    if p != INF and p < 1:
        raise ParameterError("bergman_norm requires p >= 1 or p = inf")
    return float(rule_norm(np.asarray(f(spec.nodes), dtype=complex), spec.weights, p))


def bergman_extension(points, nu, s: float, p: float, spec: BergmanSpec, *,
                      rule: QuadratureRule | None = None,
                      dual_method: str = "collocation") -> tuple:
    """Extend a Bergman target by running the Hardy pipeline on {(a, 0)}.

    Returns (U, report) where U evaluates the extension on an (M, 1) array
    of base-domain points, U(z) = h(z, 0).  Residuals are measured against
    the lifted targets nu_a ||k_{(a,0)}||_{s'}; the report also records the
    Bergman norm of U against the Hardy norm of h (restriction contraction).
    """
    if spec.n != 1 or spec.weight != 0:
        raise UnsupportedDomainError("the extension pipeline lifts into the ball of C^2 only")
    ball = Domain(BALL2)
    if rule is None:
        rule = build_quadrature(ball, 16, angular=64)
    embedded = PointSequence.create(ball, [(complex(a), 0.0) for a in np.atleast_1d(points)])
    h, report = build_extension(dual_system(embedded, p, dual_method), nu, s, rule)
    U = restrict(h)
    h_norm = report.details["h_norm"]
    u_norm = bergman_norm(U, s, spec)
    report.details["bergman_norm"] = u_norm
    report.details["restriction_contraction_ok"] = bool(u_norm <= h_norm * (1.0 + 1e-8))
    report.details["lift_dimension"] = spec.lift_dimension
    return U, report
