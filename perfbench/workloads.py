"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into one CLI config; the same seed always gives
the same config, and the program under test sees nothing but that config.
Point phases and directions are seeded; radii, exponents and resolutions are
fixed per workload so that every seed does the same amount of work.

Why each workload exists, and which layer it bypasses:

* ``extend_signs16`` -- ``extend`` on the disc, 16 points, collocation dual,
  s = 1.2, p = 1.5 (so q = 6), 20 targets x 2^16 patterns x 256 nodes.  The
  exact sign enumeration in ``verify_norm_bound`` is over 90% of the run;
  kernel norms and the dual solve are negligible.
* ``carleson_ball_q4`` -- ``carleson`` on the ball at q = 4: the duality-map
  power iteration is nearly all of the run.  It never touches ``NormCache``
  or the sign enumeration, so it is the bypass workload for norm and sign
  changes.
* ``report_ball_edge`` -- the ``report`` battery on the ball with points up
  to |a| = 0.99 and an sh grid up to r = 0.999.  ``NormCache`` dominates
  (its doubling loop runs to the 16384 cap); it also covers ``HoloExpr``
  dual sampling, report serialization and the p = 2 sign path with small N
  and large M.  It bypasses the power iteration (q = 2 is a Gram eigensolve).
"""
from __future__ import annotations

import numpy as np

CARLESON_RADII = tuple(np.linspace(0.2, 0.85, 16))
CARLESON_BASE_SEED = 20061
REPORT_RADII = (0.0, 0.5, 0.9, 0.99)
PROBE_RADIUS = 0.999


def _ring(rng: np.random.Generator, count: int, radius: float) -> list:
    """``count`` disc points on one circle, equispaced up to a seeded jitter.

    The jitter stays below a quarter of the spacing, so neighbours never come
    close enough to make the collocation matrix ill-conditioned.
    """
    spacing = 2.0 * np.pi / count
    offset = rng.uniform(0.0, spacing)
    jitter = rng.uniform(-0.25, 0.25, size=count) * spacing
    phases = offset + spacing * np.arange(count) + jitter
    return [[radius * np.cos(t), radius * np.sin(t)] for t in phases]


def _ball_point(rng: np.random.Generator, radius: float) -> list:
    """A point of the ball of C^2 with the given modulus and seeded direction."""
    v = rng.standard_normal(4)
    v = radius * v / np.linalg.norm(v)
    return [float(x) for x in v]


def extend_signs16(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    points = _ring(rng, 6, 0.45) + _ring(rng, 10, 0.8)
    return {
        "domain": "disc",
        "points": [[float(x), float(y)] for x, y in points],
        "s": 1.2, "p": 1.5,
        "dual_method": "collocation",
        "resolution": 256,
        "batch": 4,
        "seed": int(rng.integers(1 << 31)),
    }


def _unitary(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random unitary of C^2 (QR of a complex Gaussian, phases fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def carleson_ball_q4(seed: int) -> dict:
    """A fixed 16-point configuration turned by a seeded unitary of C^2.

    The power iteration's step count depends on the geometry of the points:
    with freshly drawn points it ranged over 12-20 steps between seeds.  A
    unitary map leaves the problem unchanged up to the quadrature's
    discretization, so every seed does nearly the same work, while the
    numbers the program sees and the restart seed still change with it.
    """
    base_rng = np.random.default_rng(CARLESON_BASE_SEED)
    base = np.array([_ball_point(base_rng, r) for r in CARLESON_RADII])
    rng = np.random.default_rng([seed, 2])
    pts = (base[:, 0::2] + 1j * base[:, 1::2]) @ _unitary(rng).T
    return {
        "domain": "ball2",
        "points": [[float(z.real), float(z.imag), float(w.real), float(w.imag)] for z, w in pts],
        "q": 4,
        "restarts": 32,
        "resolution": 12,
        "angular": 48,
        "seed": int(rng.integers(1 << 31)),
    }


def report_ball_edge(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {
        "domain": "ball2",
        "points": [_ball_point(rng, r) for r in REPORT_RADII],
        "s": 1, "p": 2,
        "dual_method": "gram2",
        "batch": 16,
        "resolution": 16,
        "angular": 64,
        "grid": {"rmax": 0.999, "count": 12},
        "seed": int(rng.integers(1 << 31)),
    }


def edge_probe() -> dict:
    """Ball ``extend`` on the report radii plus 0.999, all on one complex line.

    Not timed, and the same for every seed.  At the commit that defined the
    benchmark it exits 5: the measured constant budget falls just below the
    operator-norm estimate (19.236696 < 19.236698 on one such line).  With the 0.999 point
    on the same side of the line as the others, or with points in generic
    directions, the run passes, so the cause is not isolated; the probe's
    exit code is reported so that the defect stays visible.
    """
    cfg = report_ball_edge(0)
    cfg.pop("grid")
    cfg["points"] = [[r, 0.0, 0.0, 0.0] for r in REPORT_RADII] + [[-PROBE_RADIUS, 0.0, 0.0, 0.0]]
    cfg["seed"] = 2024
    return cfg


# workload name -> (CLI subcommand, config generator)
WORKLOADS = {
    "extend_signs16": ("extend", extend_signs16),
    "carleson_ball_q4": ("carleson", carleson_ball_q4),
    "report_ball_edge": ("report", report_ball_edge),
}
