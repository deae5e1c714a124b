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
import inspect
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

# key of a report's shared dict under which the dual section hands its dual_rows and
# dual_powers on
_ROWS = "rows"


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


def _flag(value, key: str) -> bool:
    """A boolean config entry: JSON true or false, anything else is a ParameterError."""
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


def _parse_points(points, points_csv, dom: geometry.Domain) -> sequences.PointSequence:
    if points_csv is not None:
        return sequences.PointSequence.from_csv(dom, points_csv)
    if points is None:
        raise ParameterError("config needs 'points' or 'points_csv'")
    return sequences.PointSequence.create(
        dom, [_complex_row(row, dom.n, f"{dom.kind} points") for row in _list(points, "points")])


def _parse_target(target, n: int) -> np.ndarray:
    """Target values nu_a, each a finite number or an [re, im] pair; all ones by default."""
    entries = _list([1.0] * n if target is None else target, "target")
    try:
        nu = np.array([_complex_row(v, 1, "target pairs")[0] if isinstance(v, (list, tuple))
                       else complex(v) for v in entries])
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad target entry: {exc}") from exc
    if not np.all(np.isfinite(nu)):
        raise ParameterError(f"target entries must be finite, got {target!r}")
    return nu


def _domain(domain) -> geometry.Domain:
    if domain is None:
        raise ParameterError("config needs a 'domain' (disc, ball2 or bidisc)")
    return geometry.Domain(domain)


def _once(shared: dict | None, key: tuple, build, *args, **kwargs):
    """build(*args, **kwargs), run once per key within one report; ``shared`` is the
    report's dict, or None outside a report, where every call builds."""
    if shared is None:
        return build(*args, **kwargs)
    if key not in shared:
        shared[key] = build(*args, **kwargs)
    return shared[key]


def _rule(dom: geometry.Domain, resolution, angular, shared: dict | None) -> geometry.QuadratureRule:
    if resolution is None:
        resolution = 256 if dom.kind == geometry.DISC else 16
    resolution = _number(resolution, "resolution")
    angular = None if angular is None else _number(angular, "angular")
    return _once(shared, ("rule", dom, resolution, angular), geometry.build_quadrature,
                 dom, resolution, angular=angular)


def _dual(seq: sequences.PointSequence, p: float, method, shared: dict | None = None):
    """``sequences.dual_system``, built once per (points, p, method) within a report.

    The points are keyed by their bytes (-0.0 and 0.0 compare equal but print
    differently) and the method by its repr, so that a list, which
    ``dual_system`` refuses, still makes a key.
    """
    return _once(shared, ("dual", seq.domain, seq.arrays().tobytes(), p, repr(method)),
                 sequences.dual_system, seq, p, method)


def _seed(value) -> int:
    """A config seed: numpy's generators take integers from 0 up."""
    seed = _number(value, "seed")
    if seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {value!r}")
    return seed


def _need_seed(seed) -> int:
    if seed is None:
        raise ParameterError("this subcommand is stochastic: an explicit 'seed' is required")
    return _seed(seed)


def _scan_grid(grid, dom: geometry.Domain):
    grid = {"rmax": 0.95, "count": 20} if grid is None else grid
    if isinstance(grid, list):
        return [_complex_row(row, dom.n, f"{dom.kind} grid points") for row in grid]
    if not isinstance(grid, dict):
        raise ParameterError(f"grid must be a list of points or a dict, got {grid!r}")
    _refuse_unknown(grid, ["rmax", "count"], "sh grid")
    rmax = _number(grid.get("rmax", 0.95), "grid rmax", float)
    count = _number(grid.get("count", 20), "grid count")
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


def _run_norms(domain=None, points=None, points_csv=None, exponents=(1, 4 / 3, 2, 4, "inf")):
    dom = _domain(domain)
    seq = _parse_points(points, points_csv, dom)
    exponents = [_parse_exponent(p, "exponents") for p in _list(exponents, "exponents")]
    cache = kernels.NormCache(dom)
    tables = [cache.table(seq[i], exponents) for i in range(len(seq))]
    for t in tables:
        t.check_monotone()
    return {"tables": [t.to_json() for t in tables], "engine": cache.report()}, None


def _run_sh(domain=None, grid=None, q=(4 / 3, 2.0, 4.0), ps=((2.0, 1.0),)):
    dom = _domain(domain)
    cache = kernels.NormCache(dom)
    zs, note = _scan_grid(grid, dom), "radial" if grid is None else str(grid)
    scans = [kernels.sh_q_scan(dom, _parse_exponent(x, "q"), zs, cache, note)
             for x in _list(q, "q", empty_ok=True)]
    pairs = [_list(pair, "ps entry", 2) for pair in _list(ps, "ps", empty_ok=True)]
    scans += [kernels.sh_ps_scan(dom, _parse_exponent(p, "ps"), _parse_exponent(s, "ps"), zs,
                                 cache, note) for p, s in pairs]
    if not scans:
        raise ParameterError("sh needs at least one entry in q or ps")
    rows = [row for scan in scans for row in scan.csv_rows()]
    return {"scans": [scan.to_json() for scan in scans], "engine": cache.report()}, rows


def _run_carleson(domain=None, points=None, points_csv=None, q=2.0, resolution=None,
                  angular=None, seed=None, weak=True, remark_2q=False, restarts=32, *,
                  shared: dict | None = None):
    dom = _domain(domain)
    seq = _parse_points(points, points_csv, dom)
    q = _parse_exponent(q, "q")
    sequences._carleson_route(q)  # refuses q outside [1, inf) before the rule is built
    rule = _rule(dom, resolution, angular, shared)
    weak, remark_2q = _flag(weak, "weak"), _flag(remark_2q, "remark_2q")
    kwargs = {"restarts": _number(restarts, "restarts"),
              "seed": None if seed is None else _seed(seed)}
    A = sequences.normalized_kernel_matrix(seq, q, rule)  # the strong and weak estimates share it
    report = sequences.carleson_constant(A, q, rule, **kwargs)
    out = {"carleson": report.to_json()}
    if q >= 2 and weak:
        out["weak"] = sequences.weak_carleson_constant(A, q, rule, **kwargs).to_json()
    del A  # the matrix at 2q below need not coexist with it
    if remark_2q:
        # side-by-side estimators for the q-Carleson vs weakly-2q-Carleson
        # comparison; the ratio is reported, never asserted
        weak2q = sequences.weak_carleson_constant(
            sequences.normalized_kernel_matrix(seq, 2.0 * q, rule), 2.0 * q, rule, **kwargs)
        out["weak_2q"] = weak2q.to_json()
        if report.d_q:
            out["remark_ratio_weak2q_over_dq"] = weak2q.weak_d_q / report.d_q
    return out, None


def _run_dual(domain=None, points=None, points_csv=None, resolution=None, angular=None, p=2.0,
              method="gram2", *, shared: dict | None = None):
    dom = _domain(domain)
    seq = _parse_points(points, points_csv, dom)
    rule = _rule(dom, resolution, angular, shared)
    dual = _dual(seq, _parse_exponent(p, "p"), method, shared)
    rho, K = ext.dual_rows(dual, rule.nodes)
    if shared is None:
        K = None  # no extend section takes it: dropped before rho is integrated
    powers = sequences.dual_powers(rho, rule, dual.p)
    if shared is not None:  # sampled and integrated once for the report, handed to extend
        shared[_ROWS] = (dual, rule, (rho, K, powers))
    out = {**dual.to_json(), "delta_residual": dual.delta_residual(),
           "dual_bound": sequences.dual_bound(dual, powers)}
    return {"dual": out, "engine": dual.norms.report()}, None


def _run_gleason(domain=None, points=None, points_csv=None):
    dom = _domain(domain)
    seq = _parse_points(points, points_csv, dom)
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


def _handed_rows(shared: dict | None, dual: sequences.DualSystem,
                 rule: geometry.QuadratureRule) -> tuple | None:
    """The dual section's ``dual_rows`` and ``dual_powers`` if they are of this very dual and
    rule, else None.

    The report's dict gives the same objects for the same parsed values.
    The slot is emptied either way, so samples the caller forms itself
    never sit beside the dual section's.
    """
    handed = None if shared is None else shared.pop(_ROWS, None)
    return handed[2] if handed and handed[0] is dual and handed[1] is rule else None


def _run_extend(domain=None, points=None, points_csv=None, resolution=None, angular=None, s=1.0,
                p=2.0, seed=None, dual_method="gram2", target=None, batch=64, *,
                shared: dict | None = None):
    dom = _domain(domain)
    seq = _parse_points(points, points_csv, dom)
    rule = _rule(dom, resolution, angular, shared)
    s = _parse_exponent(s, "s")
    p = _parse_exponent(p, "p")
    kernels.exponent_from_split(s, p)  # validates the identity at parse time
    seed = _need_seed(seed)
    dual = _dual(seq, p, dual_method, shared)
    nu = _parse_target(target, len(seq))
    samples = ext.chain_samples(dual, s, rule, _handed_rows(shared, dual, rule))
    _, rep = ext.build_extension(samples, nu)
    bound_rep = ext.verify_norm_bound(samples, batch=_number(batch, "batch"), seed=seed)
    rep.ci_estimate = bound_rep.ci_estimate
    rep.constant_budget = bound_rep.constant_budget
    rep.details["verification"] = bound_rep.details
    rep.details["dual_delta_residual"] = dual.delta_residual()
    rows = [[i, r] for i, r in enumerate(rep.residuals)]
    return {"extension": rep.to_json(), "engine": dual.norms.report()}, rows


def _run_khintchine(q=(1.0, 2.0, 4.0), method="exact", samples=None, vectors=None,
                    lengths=(2, 4, 8), seed=None):
    qs = [_parse_exponent(x, "q") for x in _list(q, "q")]
    if samples is not None and method == "exact":
        raise ParameterError(f"samples {samples!r} needs method 'monte-carlo'; "
                             "the exact method draws none")
    samples = _number(samples or 0, "samples")
    rows, results, drawn = [], [], None
    if vectors is not None:
        vectors = [np.array([_complex_row(v, 1, "vector entries")[0] for v in _list(vec, "vector")])
                   for vec in _list(vectors, "vectors")]
    else:
        drawn = _need_seed(seed)
        rng = np.random.default_rng(drawn)
        lengths = [_number(n, "length") for n in _list(lengths, "lengths")]
        for n in lengths:
            if n < 1:
                raise ParameterError(f"khintchine lengths must be at least 1, got {n}")
        vectors = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in lengths]
    mc_seed = _need_seed(seed) if method == "monte-carlo" else None
    for q in qs:
        for x in vectors:
            ratio, stderr = signs.khintchine_ratio(x, q, method, samples, mc_seed)
            rows.append([q, len(x), ratio, method, stderr])
            results.append({"q": q, "n": len(x), "ratio": ratio, "method": method, "stderr": stderr})
    return {"ratios": results, "seed": drawn}, rows


def _run_bergman(points=None, points_csv=None, target=None, s=1.0, p=2.0,
                 dual_method="collocation", resolution=16, angular=64, radial=32,
                 angular_volume=64):
    spec = bergman_mod.BergmanSpec(radial=_number(radial, "radial"),
                                   angular=_number(angular_volume, "angular_volume"))
    pts = _parse_points(points, points_csv, geometry.Domain(geometry.DISC)).arrays()[:, 0]
    nu = _parse_target(target, len(pts))
    s = _parse_exponent(s, "s")
    p = _parse_exponent(p, "p")
    kernels.exponent_from_split(s, p)
    ball = geometry.Domain(geometry.BALL2)
    rule = geometry.build_quadrature(ball, _number(resolution, "resolution"),
                                     angular=_number(angular, "angular"))
    _, rep = bergman_mod.bergman_extension(pts, nu, s, p, spec, rule=rule, dual_method=dual_method)
    rows = [[i, r] for i, r in enumerate(rep.residuals)]
    return {"bergman_extension": rep.to_json()}, rows


def _run_report(domain=None, points=None, points_csv=None, resolution=None, angular=None,
                seed=None, batch=None, s=None, p=None, restarts=None, dual_method=None,
                grid=None, gleason=None, norms=None, sh=None, carleson=None, dual=None,
                extend=None):
    """Battery run: each section takes the keys above that its subcommand names (``dual_method``
    as the dual's ``method``), then its own dict, checked before any section runs.

    The sections share one dict: the rule is built once per (domain,
    resolution, angular) and the dual once per (points, p, method), and
    the dual section hands its samples of rho and the kernels on the rule
    to the extend section, which takes them when its dual and rule are the
    same.  A section whose overrides change a key builds its own, and a rule
    built by a section that names its own domain, resolution or angular is
    dropped when that section ends.
    """
    grid = {"rmax": 0.9, "count": 8} if grid is None else grid  # the sh section's default
    # every key above by name; the dual subcommand names its construction "method"
    given = dict(locals(), method=dual_method)
    sections = [(name, _checked(name, {} if cfg is None else cfg, f"report section {name!r}"))
                for name, cfg in given.items() if name in _RUNNERS]
    shared: dict = {}
    bundle = {}
    for name, override in sections:
        runner = _RUNNERS[name]
        sub = {key: given[key] for key in _keys(name) if given.get(key) is not None} | override
        extra = {"shared": shared} if "shared" in inspect.signature(runner).parameters else {}
        before = set(shared)
        bundle[name], _ = runner(**sub, **extra)
        if {"domain", "resolution", "angular"} & set(override):
            for key in set(shared) - before:
                if key[0] == "rule":  # not _ROWS: extend takes or drops the handed rows
                    del shared[key]
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


def _keys(subcommand: str) -> list:
    """The config keys of a subcommand: the parameters of its runner that are not keyword-only,
    whose defaults are the keys' defaults (None stands for a key left out)."""
    params = inspect.signature(_RUNNERS[subcommand]).parameters.values()
    return [par.name for par in params if par.kind is par.POSITIONAL_OR_KEYWORD]


def _refuse_unknown(cfg: dict, known: list, what: str) -> None:
    """A config error for the first key of ``cfg`` not in ``known``: it names the report
    sections among ``known`` whose subcommands take the key, or else the closest known key."""
    for key in cfg:
        if key not in known:
            owners = [repr(name) for name in known if name in _RUNNERS and key in _keys(name)]
            if owners:
                hint = f"; it belongs in the {' or '.join(owners)} section"
            else:
                import difflib  # only here: every run would pay for its import
                close = difflib.get_close_matches(str(key), known, n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ParameterError(f"unknown {what} key {key!r}{hint}")


def _checked(subcommand: str, cfg, what: str = "config") -> dict:
    """``cfg`` if it is a dict of keys the subcommand names; an unknown key is a config error
    (``_refuse_unknown``)."""
    if not isinstance(cfg, dict):
        raise ParameterError(f"{what} must be a dict, got {cfg!r}")
    _refuse_unknown(cfg, _keys(subcommand), f"{subcommand} config")
    return cfg


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
    results, rows = _RUNNERS[subcommand](**_checked(subcommand, cfg))
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
        cfg = _checked(args.command, cfg)  # the flags below set keys, checked again in run
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
