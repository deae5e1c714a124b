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
from .errors import HardyLabError, InvariantViolation, ParameterError, exit_code_for

SUBCOMMANDS = ("norms", "sh", "carleson", "dual", "gleason", "extend",
               "khintchine", "bergman", "report")

# largest delta residual max |rho_a(b) - delta_ab scale_b| / scale_b a run accepts
_DELTA_LIMIT = 1e-8


def _parse_exponent(v, what: str):
    """A float or ``"inf"``; booleans, NaN and -inf are config errors, not exponents."""
    if isinstance(v, str) and v.lower() == "inf":
        return np.inf
    try:
        p = float(v)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad exponent {v!r} for {what}") from exc
    if isinstance(v, bool) or np.isnan(p) or p == -np.inf:
        raise ParameterError(f"bad exponent {v!r} for {what}")
    return p


def _number(value, what: str, kind=int):
    """``kind(value)`` for a numeric config value; a malformed one is a ParameterError.

    A boolean is not a number, and an integer setting refuses a fractional
    float instead of truncating it; integral floats and numeric strings pass.
    """
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError("not a number of the right kind")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad {what} {value!r}") from exc


def _list(value, what: str, size: int | None = None, *, empty_ok: bool = False) -> list:
    """A list-valued config entry, of ``size`` entries if given, empty only if ``empty_ok``."""
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        raise ParameterError(f"{what} must be a list{f' of {size}' if size else ''}, got {value!r}")
    if not value and not empty_ok:
        raise ParameterError(f"{what} must not be empty")
    return value


def _flag(cfg: dict, key: str, default: bool) -> bool:
    """A boolean config entry: JSON true or false, anything else is a ParameterError."""
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ParameterError(f"{key} must be true or false, got {value!r}")
    return value


def _complex_row(row, n: int, what: str) -> np.ndarray:
    """n complex numbers from a row of 2n reals (re/im per coordinate)."""
    try:
        vals = [float(x) for x in row]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad {what} row {row!r}: {exc}") from exc
    if len(vals) != 2 * n:
        raise ParameterError(f"{what} need {2 * n} numbers (re/im per coordinate), got {row!r}")
    return np.array([complex(vals[2 * j], vals[2 * j + 1]) for j in range(n)])


def _parse_points(cfg: dict, dom: geometry.Domain) -> sequences.PointSequence:
    if "points_csv" in cfg:
        return sequences.PointSequence.from_csv(dom, cfg["points_csv"])
    if "points" not in cfg:
        raise ParameterError("config needs 'points' or 'points_csv'")
    return sequences.PointSequence.create(
        dom, [_complex_row(row, dom.n, f"{dom.kind} points")
              for row in _list(cfg["points"], "points")])


def _parse_target(cfg: dict, n: int) -> np.ndarray:
    """Target values nu_a, each a finite number or an [re, im] pair; all ones by default."""
    entries = _list(cfg.get("target", [1.0] * n), "target")
    try:
        nu = np.array([_complex_row(v, 1, "target pairs")[0] if isinstance(v, (list, tuple))
                       else complex(v) for v in entries])
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad target entry: {exc}") from exc
    if not np.all(np.isfinite(nu)):
        raise ParameterError(f"target entries must be finite, got {cfg['target']!r}")
    return nu


def _domain(cfg: dict) -> geometry.Domain:
    if "domain" not in cfg:
        raise ParameterError("config needs a 'domain' (disc, ball2 or bidisc)")
    return geometry.Domain(cfg["domain"])


def _rule(cfg: dict, dom: geometry.Domain) -> geometry.QuadratureRule:
    default = 256 if dom.kind == geometry.DISC else 16
    resolution = _number(cfg.get("resolution", default), "resolution")
    angular = cfg.get("angular")
    return geometry.build_quadrature(
        dom, resolution, angular=None if angular is None else _number(angular, "angular"))


def _seed(value) -> int:
    """A config seed: numpy's generators take integers from 0 up."""
    seed = _number(value, "seed")
    if seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {value!r}")
    return seed


def _need_seed(cfg: dict) -> int:
    if cfg.get("seed") is None:
        raise ParameterError("this subcommand is stochastic: an explicit 'seed' is required")
    return _seed(cfg["seed"])


def _delta_residual(dual: sequences.DualSystem) -> float:
    """The dual's delta residual; past ``_DELTA_LIMIT`` the dual is broken (exit 5)."""
    residual = dual.delta_residual()
    if residual > _DELTA_LIMIT:
        raise InvariantViolation(
            f"dual delta residual {residual:.3e} exceeds {_DELTA_LIMIT:.0e} "
            f"(condition {dual.condition})")
    return residual


def _scan_grid(cfg: dict, dom: geometry.Domain):
    grid_cfg = cfg.get("grid", {"rmax": 0.95, "count": 20})
    if isinstance(grid_cfg, list):
        return [_complex_row(row, dom.n, f"{dom.kind} grid points") for row in grid_cfg]
    if not isinstance(grid_cfg, dict):
        raise ParameterError(f"grid must be a list of points or a dict, got {grid_cfg!r}")
    rmax = _number(grid_cfg.get("rmax", 0.95), "grid rmax", float)
    count = _number(grid_cfg.get("count", 20), "grid count")
    if count < 1:
        raise ParameterError(f"grid count must be at least 1, got {count}")
    radii = np.linspace(0.0, rmax, count)
    if dom.kind == geometry.DISC:
        return [np.array([r], dtype=complex) for r in radii]
    if dom.kind == geometry.BALL2:
        return [np.array([r, 0.0], dtype=complex) for r in radii]
    return [np.array([r, r], dtype=complex) for r in radii]


# ---------------------------------------------------------------------------
# subcommand implementations, each returning (results dict, csv rows or None)


def _run_norms(cfg: dict):
    dom = _domain(cfg)
    seq = _parse_points(cfg, dom)
    exponents = [_parse_exponent(p, "exponents")
                 for p in _list(cfg.get("exponents", [1, 4 / 3, 2, 4, "inf"]), "exponents")]
    cache = kernels.NormCache(dom)
    tables = [cache.table(seq[i], exponents) for i in range(len(seq))]
    for t in tables:
        t.check_monotone()
    return {"tables": [t.to_json() for t in tables], "engine": cache.report()}, None


def _run_sh(cfg: dict):
    dom = _domain(cfg)
    cache = kernels.NormCache(dom)
    grid, note = _scan_grid(cfg, dom), str(cfg.get("grid", "radial"))
    scans = [kernels.sh_q_scan(dom, _parse_exponent(q, "q"), grid, cache, note)
             for q in _list(cfg.get("q", [4 / 3, 2.0, 4.0]), "q", empty_ok=True)]
    pairs = [_list(ps, "ps entry", 2)
             for ps in _list(cfg.get("ps", [[2.0, 1.0]]), "ps", empty_ok=True)]
    scans += [kernels.sh_ps_scan(dom, _parse_exponent(p, "ps"), _parse_exponent(s, "ps"), grid,
                                 cache, note) for p, s in pairs]
    if not scans:
        raise ParameterError("sh needs at least one entry in q or ps")
    rows = [row for scan in scans for row in scan.csv_rows()]
    return {"scans": [scan.to_json() for scan in scans], "engine": cache.report()}, rows


def _run_carleson(cfg: dict):
    dom = _domain(cfg)
    seq = _parse_points(cfg, dom)
    q = _parse_exponent(cfg.get("q", 2.0), "q")
    route = sequences._carleson_route(q)
    if cfg.get("method", "auto") not in ("auto", route):
        raise ParameterError(f"method must be 'auto' or {route!r} at q = {q:g}: {cfg['method']!r}")
    rule = _rule(cfg, dom)
    seed = cfg.get("seed")
    weak, remark_2q = _flag(cfg, "weak", True), _flag(cfg, "remark_2q", False)
    kwargs = {"restarts": _number(cfg.get("restarts", 32), "restarts"),
              "seed": None if seed is None else _seed(seed)}
    report = sequences.carleson_constant(seq, q, rule, **kwargs)
    out = {"carleson": report.to_json()}
    if q >= 2 and weak:
        out["weak"] = sequences.weak_carleson_constant(seq, q, rule, **kwargs).to_json()
    if remark_2q:
        # side-by-side estimators for the q-Carleson vs weakly-2q-Carleson
        # comparison; the ratio is reported, never asserted
        weak2q = sequences.weak_carleson_constant(seq, 2.0 * q, rule, **kwargs)
        out["weak_2q"] = weak2q.to_json()
        if report.d_q:
            out["remark_ratio_weak2q_over_dq"] = weak2q.weak_d_q / report.d_q
    return out, None


def _run_dual(cfg: dict):
    dom = _domain(cfg)
    seq = _parse_points(cfg, dom)
    rule = _rule(cfg, dom)
    p = _parse_exponent(cfg.get("p", 2.0), "p")
    if _flag(cfg, "tikhonov", False):
        raise ParameterError("tikhonov must be false: a shifted dual loses rho_a(b) = delta_ab")
    dual = sequences.dual_system(seq, p, cfg.get("method", "gram2"))
    out = dual.to_json()
    out["delta_residual"] = _delta_residual(dual)
    out["dual_bound"] = sequences.dual_bound(dual, rule)
    return {"dual": out, "engine": dual.norms.report()}, None


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
    s = _parse_exponent(cfg.get("s", 1.0), "s")
    p = _parse_exponent(cfg.get("p", 2.0), "p")
    kernels.exponent_from_split(s, p)  # validates the identity at parse time
    seed = _need_seed(cfg)
    dual = sequences.dual_system(seq, p, cfg.get("dual_method", "gram2"))
    delta_residual = _delta_residual(dual)
    _, rep = ext.build_extension(dual, _parse_target(cfg, len(seq)), s, rule)
    bound_rep = ext.verify_norm_bound(dual, s, rule, batch=_number(cfg.get("batch", 64), "batch"),
                                      seed=seed)
    rep.ci_estimate = bound_rep.ci_estimate
    rep.constant_budget = bound_rep.constant_budget
    rep.details["verification"] = bound_rep.details
    rep.details["dual_delta_residual"] = delta_residual
    rows = [[i, r] for i, r in enumerate(rep.residuals)]
    return {"extension": rep.to_json(), "engine": dual.norms.report()}, rows


def _run_khintchine(cfg: dict):
    qs = [_parse_exponent(q, "q") for q in _list(cfg.get("q", [1.0, 2.0, 4.0]), "q")]
    method = cfg.get("method", "exact")
    samples = _number(cfg.get("samples") or 0, "samples")
    seed = None
    rows, results = [], []
    if "vectors" in cfg:
        vectors = [np.array([_complex_row(v, 1, "vector entries")[0] for v in _list(vec, "vector")])
                   for vec in _list(cfg["vectors"], "vectors")]
    else:
        seed = _need_seed(cfg)
        rng = np.random.default_rng(seed)
        lengths = [_number(n, "length") for n in _list(cfg.get("lengths", [2, 4, 8]), "lengths")]
        for n in lengths:
            if n < 1:
                raise ParameterError(f"khintchine lengths must be at least 1, got {n}")
        vectors = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in lengths]
    mc_seed = _need_seed(cfg) if method == "monte-carlo" else None
    for q in qs:
        for x in vectors:
            ratio, stderr = signs.khintchine_ratio(x, q, method, samples, mc_seed)
            rows.append([q, len(x), ratio, method, stderr])
            results.append({"q": q, "n": len(x), "ratio": ratio, "method": method, "stderr": stderr})
    return {"ratios": results, "seed": seed}, rows


def _run_bergman(cfg: dict):
    for key, only in (("base_dim", 1), ("weight", 0)):
        try:
            value = _number(cfg.get(key, only), key)
        except ParameterError:
            value = None
        if value != only:
            raise ParameterError(f"bergman runs on the unweighted disc: {key} must be {only}, "
                                 f"got {cfg[key]!r}")
    spec = bergman_mod.BergmanSpec(
        radial=_number(cfg.get("radial", 32), "radial"),
        angular=_number(cfg.get("angular_volume", 64), "angular_volume"),
    )
    pts = _parse_points(cfg, geometry.Domain(geometry.DISC)).arrays()[:, 0]
    nu = _parse_target(cfg, len(pts))
    s = _parse_exponent(cfg.get("s", 1.0), "s")
    p = _parse_exponent(cfg.get("p", 2.0), "p")
    kernels.exponent_from_split(s, p)
    ball = geometry.Domain(geometry.BALL2)
    rule = geometry.build_quadrature(ball, _number(cfg.get("resolution", 16), "resolution"),
                                     angular=_number(cfg.get("angular", 64), "angular"))
    _, rep = bergman_mod.bergman_extension(pts, nu, s, p, spec, rule=rule,
                                           dual_method=cfg.get("dual_method", "collocation"))
    rows = [[i, r] for i, r in enumerate(rep.residuals)]
    return {"bergman_extension": rep.to_json(), "weight": 0}, rows


_REPORT_COMMON = ("domain", "points", "points_csv", "resolution", "angular", "seed",
                  "batch", "s", "p", "restarts", "dual_method")


def _run_report(cfg: dict):
    """Battery run; section dicts named after subcommands override the base."""

    def section(name: str, **extra) -> dict:
        sub = {k: cfg[k] for k in _REPORT_COMMON if k in cfg}
        sub.update(extra)
        override = cfg.get(name, {})
        if not isinstance(override, dict):
            raise ParameterError(f"report section {name!r} must be a dict, got {override!r}")
        sub.update(override)
        return sub

    bundle = {}
    bundle["gleason"], _ = _run_gleason(section("gleason"))
    bundle["norms"], _ = _run_norms(section("norms"))
    bundle["sh"], _ = _run_sh(section("sh", grid=cfg.get("grid", {"rmax": 0.9, "count": 8})))
    bundle["carleson"], _ = _run_carleson(section("carleson"))
    # the dual subcommand names its construction "method"
    dual_method = {"method": cfg["dual_method"]} if "dual_method" in cfg else {}
    bundle["dual"], _ = _run_dual(section("dual", **dual_method))
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
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
