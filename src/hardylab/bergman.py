"""The Bergman space of the disc via subordination: one more Hardy dimension.

A function f on the disc lifts to f~(z, w) = f(z) on the ball of C^2, and
the Bergman norm of f (area measure of mass 1, like the boundary measure)
equals the Hardy norm of the lift; restricting a Hardy function on the
ball to w = 0 can only shrink the Bergman norm.  This turns Bergman
interpolation on the disc into the Hardy pipeline run on {(a, 0)}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import BALL2, Domain, QuadratureRule, _gauss01, rule_norm
from .kernels import INF
from .sequences import PointSequence, dual_system
from .extension import build_extension, chain_samples


@dataclass
class BergmanSpec:
    """Bergman space of the disc with its volume rule for dA / pi: Gauss-Legendre
    in u = |z|^2 (uniform on [0, 1]) times ``angular`` equispaced angles."""

    radial: int = 32
    angular: int = 64

    def __post_init__(self):
        if self.radial < 1 or self.angular < 1:
            raise ParameterError(f"the volume rule needs at least one radial and one angular "
                                 f"node, got radial {self.radial}, angular {self.angular}")
        u, wu = _gauss01(self.radial)
        theta = np.exp(2j * np.pi * np.arange(self.angular) / self.angular)
        self.nodes = (np.sqrt(u)[:, None] * theta[None, :]).reshape(-1, 1)
        self.weights = np.repeat(wu / self.angular, self.angular)
        self.weights = self.weights / self.weights.sum()


def restrict(F):
    """z -> F(z, 0) on disc points: an (M, 1) array, or a flat one read as consecutive points."""

    def section(zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex).reshape(-1, 1)
        padded = np.hstack([zs, np.zeros((zs.shape[0], 1), dtype=complex)])
        return np.asarray(F(padded), dtype=complex)

    return section


def bergman_norm(f, p: float, spec: BergmanSpec) -> float:
    """Bergman p-norm by volume quadrature (max over nodes at p = inf)."""
    if p != INF and p < 1:
        raise ParameterError("bergman_norm requires p >= 1 or p = inf")
    return float(rule_norm(np.asarray(f(spec.nodes), dtype=complex), spec.weights, p))


def bergman_extension(points, nu, s: float, p: float, spec: BergmanSpec, *,
                      rule: QuadratureRule, dual_method: str = "collocation") -> tuple:
    """Extend a Bergman target by running the Hardy pipeline on {(a, 0)}.

    ``rule`` is a boundary rule of the ball of C^2.  Returns (U, report)
    where U evaluates the extension on an (M, 1) array of disc points,
    U(z) = h(z, 0).  Residuals are measured against the lifted targets
    nu_a ||k_{(a,0)}||_{s'}; the report also records the Bergman norm of U
    against the Hardy norm of h (restriction contraction).
    """
    ball = Domain(BALL2)
    embedded = PointSequence.create(ball, [(complex(a), 0.0) for a in np.atleast_1d(points)])
    dual = dual_system(embedded, p, dual_method)
    h, report = build_extension(chain_samples(dual, s, rule), nu)
    U = restrict(h)
    h_norm = report.details["h_norm"]
    u_norm = bergman_norm(U, s, spec)
    report.details["bergman_norm"] = u_norm
    report.details["restriction_contraction_ok"] = bool(u_norm <= h_norm * (1.0 + 1e-8))
    report.details["lift_dimension"] = ball.n
    return U, report
