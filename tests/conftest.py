import math

import numpy as np
import pytest

import hardylab as hl


@pytest.fixture(scope="session")
def disc():
    return hl.Domain(hl.DISC)


@pytest.fixture(scope="session")
def ball():
    return hl.Domain(hl.BALL2)


@pytest.fixture(scope="session")
def bidisc():
    return hl.Domain(hl.BIDISC)


@pytest.fixture(scope="session")
def disc_rule(disc):
    return hl.build_quadrature(disc, 1024)


@pytest.fixture(scope="session")
def ball_rule(ball):
    return hl.build_quadrature(ball, 16, angular=128)


@pytest.fixture(scope="session")
def bidisc_rule(bidisc):
    return hl.build_quadrature(bidisc, 256)


@pytest.fixture(scope="session")
def disc_norms(disc):
    return hl.NormCache(disc)


@pytest.fixture(scope="session")
def ball_norms(ball):
    return hl.NormCache(ball)


@pytest.fixture(scope="session")
def bidisc_norms(bidisc):
    return hl.NormCache(bidisc)


# (domain, dual method) pairs: Gram and collocation duals everywhere,
# Blaschke duals on the disc only
DUAL_CASES = [("disc", "gram2"), ("disc", "collocation"), ("disc", "blaschke"),
              ("ball2", "gram2"), ("ball2", "collocation"),
              ("bidisc", "gram2"), ("bidisc", "collocation")]


def separated_points(dom, n, seed, sep=0.3):
    """Up to n seeded interior points, pairwise Gleason distance >= sep."""
    pts = []
    for z in hl.interior_panel(dom, 50, seed, rmax=0.85):
        if all(hl.gleason_distance(z, w, dom) >= sep for w in pts):
            pts.append(z)
        if len(pts) == n:
            break
    return hl.PointSequence.create(dom, pts)


def sphere_moment(alpha1: int, alpha2: int) -> float:
    """Oracle: integral over the unit sphere of C^2 of |z1|^(2 a1) |z2|^(2 a2).

    Closed form (n-1)! a! / (n-1+|a|)! for n = 2.
    """
    return math.factorial(alpha1) * math.factorial(alpha2) / math.factorial(1 + alpha1 + alpha2)


def geometric_kernel_l2sq(r: float, tol: float = 1e-18) -> float:
    """Oracle: integral over the circle of |1 - r z|^{-2} as a geometric series."""
    total, term, k = 0.0, 1.0, 0
    while term > tol:
        total += term
        k += 1
        term = r ** (2 * k)
    return total


def disc_kernel_norm(r: float, p: float) -> float:
    """Closed forms on the disc: p = 2 and p = inf only."""
    if p == 2:
        return (1.0 - r * r) ** -0.5
    if p == np.inf:
        return 1.0 / (1.0 - r)
    raise ValueError("no closed form used for this exponent")


def lp_norm(values, rule, p: float) -> float:
    """L^p norm on ``rule`` of values sampled at its nodes (max |values| at p = inf)."""
    if p != np.inf and p < 1:
        raise hl.ParameterError("lp_norm requires p >= 1 or p = inf")
    return float(hl.rule_norm(values, rule.weights, p))


def kernel_norm(a, p: float, rule) -> float:
    """||k_a||_p sampled on ``rule``: the quadrature reference for the closed forms."""
    return lp_norm(hl.kernel_values(a, rule.nodes, rule.domain), rule, p)


def inner_product(f, g, rule) -> complex:
    """<f, g> = integral of f conj(g) on ``rule``, for values sampled at its nodes."""
    return complex(np.sum(rule.weights * f * np.conj(g)))
