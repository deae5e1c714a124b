"""Experiment runner: seeded, reproducible, file-based.

Every subcommand reads a JSON config, runs the corresponding module, and
writes ``<out>/<subcommand>.json`` (plus a CSV table where the result is
tabular and ``--format csv`` is given).  Identical configs and seeds
produce byte-identical reports except for the ``wall_clock_s`` field.

Exit codes: 0 success, 2 config/parameter error, 3 capacity error,
4 numeric error, 5 invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bergman as bergman_mod
from . import extension as ext
from . import geometry, kernels, sequences, signs
from .errors import HardyLabError, ParameterError, exit_code_for

SUBCOMMANDS = ("norms", "sh", "carleson", "dual", "gleason", "extend",
               "khintchine", "bergman", "report")


def _parse_exponent(v):
    if isinstance(v, str) and v.lower() == "inf":
        return np.inf
    try:
        return float(v)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad exponent {v!r}") from exc


def _parse_points(cfg: dict, dom: geometry.Domain) -> sequences.PointSequence:
    if "points_csv" in cfg:
        return sequences.PointSequence.from_csv(dom, cfg["points_csv"])
    if "points" not in cfg:
        raise ParameterError("config needs 'points' or 'points_csv'")
    pts = []
    for row in cfg["points"]:
        vals = [float(x) for x in row]
        if len(vals) != 2 * dom.n:
            raise ParameterError(f"{dom.kind} points need {2 * dom.n} numbers (re/im per coordinate)")
        pts.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(dom.n)])
    return sequences.PointSequence.create(dom, pts)


def _domain(cfg: dict) -> geometry.Domain:
    if "domain" not in cfg:
        raise ParameterError("config needs a 'domain' (disc, ball2 or bidisc)")
    return geometry.Domain(cfg["domain"])


def _rule(cfg: dict, dom: geometry.Domain) -> geometry.QuadratureRule:
    resolution = int(cfg.get("resolution", 256 if dom.kind == geometry.DISC else 16))
    angular = cfg.get("angular")
    if dom.kind == geometry.BALL2:
        return geometry.build_quadrature(dom, resolution, angular=int(angular) if angular else None)
    return geometry.build_quadrature(dom, resolution)


def _need_seed(cfg: dict) -> int:
    if cfg.get("seed") is None:
        raise ParameterError("this subcommand is stochastic: an explicit 'seed' is required")
    return int(cfg["seed"])


def _scan_grid(cfg: dict, dom: geometry.Domain):
    grid_cfg = cfg.get("grid", {"rmax": 0.95, "count": 20})
    if isinstance(grid_cfg, list):
        return [_point_from_row(row, dom) for row in grid_cfg]
    rmax = float(grid_cfg.get("rmax", 0.95))
    count = int(grid_cfg.get("count", 20))
    radii = np.linspace(0.0, rmax, count)
    if dom.kind == geometry.DISC:
        return [np.array([r], dtype=complex) for r in radii]
    if dom.kind == geometry.BALL2:
        return [np.array([r, 0.0], dtype=complex) for r in radii]
    return [np.array([r, r], dtype=complex) for r in radii]


def _point_from_row(row, dom: geometry.Domain) -> np.ndarray:
    vals = [float(x) for x in row]
    return np.array([complex(vals[2 * j], vals[2 * j + 1]) for j in range(dom.n)])


# ---------------------------------------------------------------------------
# subcommand implementations, each returning (results dict, csv rows or None)


def _run_norms(cfg: dict):
    dom = _domain(cfg)
    seq = _parse_points(cfg, dom)
    exponents = [_parse_exponent(p) for p in cfg.get("exponents", [1, 4 / 3, 2, 4, "inf"])]
    cache = kernels.NormCache(dom)
    tables = [cache.table(seq[i], exponents).to_json() for i in range(len(seq))]
    return {"tables": tables, "engine": cache.report()}, None


def _run_sh(cfg: dict):
    dom = _domain(cfg)
    cache = kernels.NormCache(dom)
    grid = _scan_grid(cfg, dom)
    results, rows = [], []
    for q in cfg.get("q", [4 / 3, 2.0, 4.0]):
        scan = kernels.sh_q_scan(dom, _parse_exponent(q), grid, cache, grid_note=str(cfg.get("grid", "radial")))
        results.append(scan.to_json())
        rows.extend(scan.csv_rows())
    for p, s in cfg.get("ps", [[2.0, 1.0]]):
        scan = kernels.sh_ps_scan(dom, _parse_exponent(p), _parse_exponent(s), grid, cache,
                                  grid_note=str(cfg.get("grid", "radial")))
        results.append(scan.to_json())
        rows.extend(scan.csv_rows())
    return {"scans": results, "engine": cache.report()}, rows


def _run_carleson(cfg: dict):
    dom = _domain(cfg)
    seq = _parse_points(cfg, dom)
    rule = _rule(cfg, dom)
    q = _parse_exponent(cfg.get("q", 2.0))
    method = cfg.get("method", "auto")
    kwargs = {}
    if method == "power-iteration" or (q not in (1.0, 2.0)):
        kwargs = {"restarts": int(cfg.get("restarts", 32)), "seed": _need_seed(cfg)}
    report = sequences.carleson_constant(seq, q, rule, method=method, **kwargs)
    out = {"carleson": report.to_json()}
    if q >= 2 and cfg.get("weak", True):
        wkwargs = {}
        if q != 2.0:
            wkwargs = {"restarts": int(cfg.get("restarts", 32)), "seed": _need_seed(cfg)}
        out["weak"] = sequences.weak_carleson_constant(seq, q, rule, **wkwargs).to_json()
    if cfg.get("remark_2q", False):
        # side-by-side estimators for the q-Carleson vs weakly-2q-Carleson
        # comparison; the ratio is reported, never asserted
        wkwargs = {} if 2.0 * q == 2.0 else {"restarts": int(cfg.get("restarts", 32)),
                                             "seed": _need_seed(cfg)}
        weak2q = sequences.weak_carleson_constant(seq, 2.0 * q, rule, **wkwargs)
        out["weak_2q"] = weak2q.to_json()
        if report.d_q:
            out["remark_ratio_weak2q_over_dq"] = weak2q.weak_d_q / report.d_q
    return out, None


def _run_dual(cfg: dict):
    dom = _domain(cfg)
    seq = _parse_points(cfg, dom)
    rule = _rule(cfg, dom)
    cache = kernels.NormCache(dom)
    p = _parse_exponent(cfg.get("p", 2.0))
    method = cfg.get("method", "gram2")
    if method == "gram2":
        dual = sequences.dual_system_gram(seq, cache, tikhonov=bool(cfg.get("tikhonov", False)))
    elif method == "collocation":
        dual = sequences.dual_system_collocation(seq, p, cache, tikhonov=bool(cfg.get("tikhonov", False)))
    elif method == "blaschke":
        dual = sequences.dual_system_blaschke(seq, p, cache)
    else:
        raise ParameterError(f"unknown dual method {method!r}")
    out = dual.to_json()
    out["delta_residual"] = dual.delta_residual()
    out["dual_bound"] = sequences.dual_bound(seq, dual.p, dual, rule, cache)
    return {"dual": out, "engine": cache.report()}, None


def _run_gleason(cfg: dict):
    dom = _domain(cfg)
    seq = _parse_points(cfg, dom)
    n = len(seq)
    matrix = [[sequences.gleason_distance(seq[i], seq[j], dom) for j in range(n)] for i in range(n)]
    out = {
        "distances": matrix,
        "separation": gleason_min_off_diagonal(matrix),
        "product_delta": sequences.gleason_product_delta(seq),
    }
    if dom.kind == geometry.DISC:
        out["window_constant"] = sequences.carleson_window_constant(seq)
    return out, None


def gleason_min_off_diagonal(matrix) -> float:
    n = len(matrix)
    if n == 1:
        return 1.0
    return min(matrix[i][j] for i in range(n) for j in range(n) if i != j)


def _run_extend(cfg: dict):
    dom = _domain(cfg)
    seq = _parse_points(cfg, dom)
    rule = _rule(cfg, dom)
    cache = kernels.NormCache(dom)
    s = _parse_exponent(cfg.get("s", 1.0))
    p = _parse_exponent(cfg.get("p", 2.0))
    kernels.exponent_from_split(s, p)  # validates the identity at parse time
    seed = _need_seed(cfg)
    method = cfg.get("dual_method", "gram2")
    if method == "gram2":
        dual = sequences.dual_system_gram(seq, cache)
    elif method == "collocation":
        dual = sequences.dual_system_collocation(seq, p, cache)
    elif method == "blaschke":
        dual = sequences.dual_system_blaschke(seq, p, cache if p != np.inf else None)
    else:
        raise ParameterError(f"unknown dual method {method!r}")
    nu = np.asarray([complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                     for v in cfg.get("target", [1.0] * len(seq))])
    _, rep = ext.build_extension(seq, dual, nu, s, p, rule, cache)
    bound_rep = ext.verify_norm_bound(seq, dual, s, p, rule, cache,
                                      batch=int(cfg.get("batch", 64)), seed=seed)
    rep.ci_estimate = bound_rep.ci_estimate
    rep.constant_budget = bound_rep.constant_budget
    rep.details["verification"] = bound_rep.details
    rep.details["dual_delta_residual"] = dual.delta_residual()
    rows = [[i, r] for i, r in enumerate(rep.residuals)]
    return {"extension": rep.to_json(), "engine": cache.report()}, rows


def _run_khintchine(cfg: dict):
    qs = [_parse_exponent(q) for q in cfg.get("q", [1.0, 2.0, 4.0])]
    method = cfg.get("method", "exact")
    samples = cfg.get("samples")
    seed = None
    rows, results = [], []
    if "vectors" in cfg:
        vectors = [np.asarray([complex(v[0], v[1]) for v in vec]) for vec in cfg["vectors"]]
    else:
        seed = _need_seed(cfg)
        rng = np.random.default_rng(seed)
        lengths = [int(n) for n in cfg.get("lengths", [2, 4, 8])]
        vectors = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in lengths]
    mc_seed = _need_seed(cfg) if method == "monte-carlo" else None
    for q in qs:
        for x in vectors:
            ratio, stderr = signs.khintchine_ratio(x, q, method, int(samples or 0), mc_seed)
            rows.append([q, len(x), ratio, method, stderr])
            results.append({"q": q, "n": len(x), "ratio": ratio, "method": method, "stderr": stderr})
    return {"ratios": results, "seed": seed}, rows


def _run_bergman(cfg: dict):
    spec = bergman_mod.BergmanSpec(
        n=int(cfg.get("base_dim", 1)),
        weight=int(cfg.get("weight", 0)),
        radial=int(cfg.get("radial", 32)),
        angular=int(cfg.get("angular_volume", 64)),
    )
    pts = [complex(v[0], v[1]) for v in cfg["points"]]
    nu = np.asarray([complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                     for v in cfg.get("target", [1.0] * len(pts))])
    s = _parse_exponent(cfg.get("s", 1.0))
    p = _parse_exponent(cfg.get("p", 2.0))
    kernels.exponent_from_split(s, p)
    ball = geometry.Domain(geometry.BALL2)
    rule = geometry.build_quadrature(ball, int(cfg.get("resolution", 16)),
                                     angular=int(cfg.get("angular", 64)))
    _, rep = bergman_mod.bergman_extension(pts, nu, s, p, spec, rule=rule,
                                           dual_method=cfg.get("dual_method", "collocation"))
    rows = [[i, r] for i, r in enumerate(rep.residuals)]
    return {"bergman_extension": rep.to_json(), "weight": spec.weight}, rows


_REPORT_COMMON = ("domain", "points", "points_csv", "resolution", "angular", "seed",
                  "batch", "s", "p", "restarts")


def _run_report(cfg: dict):
    """Battery run; section dicts named after subcommands override the base."""

    def section(name: str, **extra) -> dict:
        sub = {k: cfg[k] for k in _REPORT_COMMON if k in cfg}
        sub.update(extra)
        if isinstance(cfg.get(name), dict):
            sub.update(cfg[name])
        return sub

    bundle = {}
    bundle["gleason"], _ = _run_gleason(section("gleason"))
    bundle["norms"], _ = _run_norms(section("norms"))
    bundle["sh"], _ = _run_sh(section("sh", grid=cfg.get("grid", {"rmax": 0.9, "count": 8})))
    bundle["carleson"], _ = _run_carleson(section("carleson"))
    bundle["dual"], _ = _run_dual(section("dual"))
    bundle["extend"], _ = _run_extend(section("extend"))
    return bundle, None


_RUNNERS = {
    "norms": _run_norms,
    "sh": _run_sh,
    "carleson": _run_carleson,
    "dual": _run_dual,
    "gleason": _run_gleason,
    "extend": _run_extend,
    "khintchine": _run_khintchine,
    "bergman": _run_bergman,
    "report": _run_report,
}


def _sanitize(obj):
    """Convert numpy scalars/arrays so the report serializes deterministically."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and np.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def run(subcommand: str, cfg: dict) -> dict:
    """Execute one subcommand; returns the full report dict."""
    if subcommand not in _RUNNERS:
        raise ParameterError(f"unknown subcommand {subcommand!r}")
    t0 = time.perf_counter()
    results, rows = _RUNNERS[subcommand](cfg)
    report = {
        "subcommand": subcommand,
        "config": _sanitize(cfg),
        "results": _sanitize(results),
        "wall_clock_s": time.perf_counter() - t0,
    }
    report["_csv_rows"] = rows
    return report


def write_report(report: dict, out_dir: Path, fmt: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = report.pop("_csv_rows", None)
    path = out_dir / f"{report['subcommand']}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if fmt == "csv" and rows:
        with open(out_dir / f"{report['subcommand']}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Hardy-space interpolation laboratory: kernels, Carleson constants, "
                    "dual systems, linear extensions.")
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--resolution", type=int, help="override the quadrature resolution")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="csv additionally writes the tabular results")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = {}
        if args.config is not None:
            try:
                cfg = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ParameterError(f"cannot read config {args.config}: {exc}") from exc
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.resolution is not None:
            cfg["resolution"] = args.resolution
        report = run(args.command, cfg)
        path = write_report(report, args.out, args.format)
        print(path)
        return 0
    except HardyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
