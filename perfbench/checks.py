"""Output checks run on every repetition; each returns a list of problems.

The checks recompute what they can independently of the package:

* ``extend``: the Hoelder chain margin and the constant sandwich
  ``ci_estimate <= constant_budget`` as reported;
* ``carleson``: ||A mu||_q / ||mu||_q (and the weak ratio) recomputed with
  numpy from the reported certificates on an independently built ball rule;
* ``report``: every ``norms`` table value against the closed form
  ||k_a||_p = 2F1(p, p; 2; |a|^2)^(1/p) on the ball (Rudin, Function Theory in
  the Unit Ball of C^n, 1.4.10), evaluated with mpmath, and (1 - |a|)^-2 for
  p = inf.
"""
from __future__ import annotations

import numpy as np

CHAIN_MARGIN = -1e-8
CERTIFICATE_RTOL = 1e-10
NORM_RTOL = 1e-9


def check_extend(report: dict) -> list:
    ext = report["results"]["extension"]
    problems = []
    margin = ext["details"]["verification"]["worst_chain_margin"]
    if not margin >= CHAIN_MARGIN:
        problems.append(f"worst_chain_margin {margin} < {CHAIN_MARGIN}")
    if not ext["ci_estimate"] <= ext["constant_budget"]:
        problems.append(f"ci_estimate {ext['ci_estimate']} > constant_budget {ext['constant_budget']}")
    return problems


def _ball_rule(resolution: int, angular: int):
    """Gauss-Legendre in t = |z_1|^2 times trapezoid rules in both angles."""
    x, w = np.polynomial.legendre.leggauss(resolution)
    t, wt = (x + 1.0) / 2.0, w / 2.0
    circle = np.exp(2j * np.pi * np.arange(angular) / angular)
    tt, c1, c2 = np.meshgrid(t, circle, circle, indexing="ij")
    nodes = np.column_stack([(np.sqrt(tt) * c1).ravel(), (np.sqrt(1.0 - tt) * c2).ravel()])
    weights = np.repeat(wt, angular * angular)
    return nodes, weights / weights.sum()


def _cert(part: dict) -> np.ndarray:
    return np.asarray(part["certificate_re"]) + 1j * np.asarray(part["certificate_im"])


def check_carleson(report: dict) -> list:
    cfg, res = report["config"], report["results"]
    q = float(cfg["q"])
    pts = np.asarray(cfg["points"], dtype=float)
    a = pts[:, 0::2] + 1j * pts[:, 1::2]
    nodes, w = _ball_rule(int(cfg["resolution"]), int(cfg["angular"]))
    K = (1.0 - nodes @ a.conj().T) ** -2
    A = K / np.sum(w[:, None] * np.abs(K) ** q, axis=0) ** (1.0 / q)

    problems = []
    mu = _cert(res["carleson"])
    d_q = np.sum(w * np.abs(A @ mu) ** q) ** (1.0 / q) / np.sum(np.abs(mu) ** q) ** (1.0 / q)
    if not abs(d_q - res["carleson"]["d_q"]) <= CERTIFICATE_RTOL * d_q:
        problems.append(f"d_q {res['carleson']['d_q']} not reproduced: {d_q}")
    if "weak" in res:
        t = np.abs(_cert(res["weak"])) ** 2
        r = q / 2.0
        weak = (np.sum(w * ((np.abs(A) ** 2) @ t) ** r) ** (1.0 / r)
                / np.sum(t ** r) ** (1.0 / r))
        if not abs(weak - res["weak"]["weak_d_q"]) <= CERTIFICATE_RTOL * weak:
            problems.append(f"weak_d_q {res['weak']['weak_d_q']} not reproduced: {weak}")
    return problems


def check_report(report: dict) -> list:
    import mpmath

    mpmath.mp.dps = 30
    problems = []
    for table in report["results"]["norms"]["tables"]:
        r2 = sum(x * x for x in table["point_re"] + table["point_im"])
        for key, value in table["norms"].items():
            if key == "inf":
                exact = (1.0 - mpmath.sqrt(r2)) ** -2
            else:
                p = mpmath.mpf(float(key))
                exact = mpmath.hyp2f1(p, p, 2, r2) ** (1 / p)
            err = abs(value - exact) / exact
            if not err <= NORM_RTOL:
                problems.append(f"norm p={key} at |a|^2={r2}: {value} vs closed form "
                                f"{mpmath.nstr(exact, 17)} (rel {float(err):.2e})")
    return problems


CHECKS = {"extend": check_extend, "carleson": check_carleson, "report": check_report}
