"""Concrete domains and boundary quadrature.

Three domains are supported: the unit disc (n=1), the unit ball of C^2,
and the bidisc.  The boundary carries the normalized rotation-invariant
probability measure; a QuadratureRule is a finite node/weight realization
of it.  A function sampled on a rule is a plain array of values at
``rule.nodes``, integrated against ``rule.weights``: ``rule_power`` and
``rule_norm`` are the one home of rule integrals of |v|^p, on boundary and
Bergman volume rules alike, and one row rounds the same alone as inside a
batch.  ``rule_power`` holds one temporary the size of its input.

Conventions: an interior point is a complex vector of length n (a bare
complex number is accepted for the disc); quadrature nodes are stored as
an (M, n) complex array.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, ParameterError, ShapeError

DISC = "disc"
BALL2 = "ball2"
BIDISC = "bidisc"
_KINDS = (DISC, BALL2, BIDISC)

WEIGHT_TOL = 1e-14
BOUNDARY_TOL = 1e-14


@dataclass(frozen=True)
class Domain:
    """One of the three concrete domains; ``kind`` fixes the dimension."""

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown domain kind {self.kind!r}, expected one of {_KINDS}")

    @property
    def n(self) -> int:
        return 1 if self.kind == DISC else 2

    def point(self, x) -> np.ndarray:
        """Coerce ``x`` to an interior point, validating strict interiority."""
        pt = np.atleast_1d(np.asarray(x, dtype=complex))
        if pt.shape != (self.n,):
            raise DomainError(f"{self.kind} points have {self.n} coordinate(s), got shape {pt.shape}")
        if not self.is_interior(pt):
            raise DomainError(f"point {pt} is not interior to the {self.kind}")
        return pt

    def is_interior(self, pt: np.ndarray) -> bool:
        if self.kind == BIDISC:
            return bool(np.max(np.abs(pt)) < 1.0)
        return bool(np.linalg.norm(pt) < 1.0)


def _circle_nodes(m: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(m) / m
    return np.exp(1j * theta)


def _gauss01(g: int):
    """Gauss-Legendre nodes/weights transplanted to [0, 1]; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(g)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass
class QuadratureRule:
    """Boundary nodes and positive weights realizing the probability measure."""

    domain: Domain
    nodes: np.ndarray      # (M, n) complex, on the boundary
    weights: np.ndarray    # (M,) positive, summing to 1
    resolution: int

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=complex)
        self.weights = np.ascontiguousarray(self.weights, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.domain.n:
            raise ShapeError(f"nodes must have shape (M, {self.domain.n})")
        if self.weights.shape != (self.nodes.shape[0],):
            raise ShapeError("weights must match nodes in length")
        if np.any(self.weights <= 0.0):
            raise ParameterError("all quadrature weights must be positive")
        if abs(self.weights.sum() - 1.0) > WEIGHT_TOL:
            raise ParameterError("quadrature weights must sum to 1")
        if self._boundary_defect() > BOUNDARY_TOL:
            raise ParameterError("quadrature nodes must lie on the boundary")

    def _boundary_defect(self) -> float:
        if self.domain.kind == BALL2:  # |z|^2 as row sums of squares of the real and imaginary parts
            coords = self.nodes.view(float)
            return float(np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", coords, coords)) - 1.0)))
        return float(np.max(np.abs(np.abs(self.nodes) - 1.0)))

    def __len__(self) -> int:
        return self.nodes.shape[0]


def build_quadrature(dom: Domain, resolution: int, angular: int | None = None) -> QuadratureRule:
    """Standard boundary rule at the given resolution.

    disc: ``resolution`` equispaced circle nodes, uniform weights.
    bidisc: tensor product of two such circles.
    ball2: the exact decomposition z = (sqrt(t) e^{i th1}, sqrt(1-t) e^{i th2})
    with Gauss-Legendre (``resolution`` points) in t and trapezoid rules in
    each angle; ``angular`` overrides the angular node count (default
    ``2 * resolution``), useful when high angular degree is needed at a
    modest Gauss degree.
    """
    if resolution < 4:
        raise ParameterError("resolution must be at least 4")
    if angular is not None and dom.kind != BALL2:
        raise ParameterError("the angular override applies to the ball rule only")
    if dom.kind == DISC:
        nodes = _circle_nodes(resolution).reshape(-1, 1)
        weights = np.full(resolution, 1.0 / resolution)
    elif dom.kind == BIDISC:
        c = _circle_nodes(resolution)
        z1, z2 = np.meshgrid(c, c, indexing="ij")
        nodes = np.column_stack([z1.ravel(), z2.ravel()])
        weights = np.full(resolution * resolution, 1.0 / resolution**2)
    else:
        m = 2 * resolution if angular is None else int(angular)
        if m < 4:
            raise ParameterError("angular resolution must be at least 4")
        t, wt = _gauss01(resolution)
        c = _circle_nodes(m)
        nodes = np.empty((resolution, m, m, 2), dtype=complex)  # node (t, th1, th2), coordinate
        nodes[..., 0] = np.sqrt(t)[:, None, None] * c[:, None]
        nodes[..., 1] = np.sqrt(1.0 - t)[:, None, None] * c
        nodes = nodes.reshape(-1, 2)
        weights = np.repeat(wt / m**2, m * m)
    weights = weights / weights.sum()
    return QuadratureRule(dom, nodes, weights, resolution)


def rule_power(values, weights: np.ndarray | float, p: float) -> np.ndarray:
    """Row-wise integral of |values|^p against ``weights`` (last axis), for any p > 0:
    the weak ratios of the p = inf extension route integrate at q/2 = 1/2.

    |values|^p is formed in one temporary, raised and weighted in place;
    ``**=`` takes the fast paths of ``**`` (square, sqrt, copy), so the bits
    are those of ``np.sum(weights * np.abs(values) ** p, axis=-1)``.
    """
    mag = np.abs(values)
    mag **= p
    mag *= weights
    return np.sum(mag, axis=-1)


def rule_norm(values, weights: np.ndarray | float, p: float) -> np.ndarray:
    """(integral |values|^p)^(1/p) along the last axis; max |values| at p = inf.

    The root is ``np.power`` for every input shape (the ``**`` of a numpy
    scalar can differ in the last bit), so a 1-D input gives exactly its row
    of a 2-D batch.
    """
    if p == np.inf:
        return np.max(np.abs(values), axis=-1)
    return np.power(rule_power(values, weights, p), 1.0 / p)


def seq_norm(x: Iterable[complex], p: float) -> float:
    """l^p norm of a finite coefficient vector (p >= 1 or inf): ``rule_norm`` with unit weights."""
    v = np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=complex)
    if p != np.inf and p < 1:
        raise ParameterError("seq_norm requires p >= 1 or p = inf")
    return float(rule_norm(v, 1.0, p)) if v.size else 0.0
