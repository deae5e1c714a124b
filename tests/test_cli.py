import json
import math

import numpy as np
import pytest

from hardylab import cli, kernels
from hardylab.errors import EXIT_CAPACITY, EXIT_CONFIG, EXIT_INVARIANT, EXIT_NUMERIC


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _load(out_dir, sub):
    return json.loads((out_dir / f"{sub}.json").read_text())


DISC_POINTS = [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.6]]


def test_norms_subcommand(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "exponents": [1, 2, "inf"]})
    assert cli.main(["norms", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = _load(tmp_path / "o", "norms")
    assert len(rep["results"]["tables"]) == 3
    assert rep["subcommand"] == "norms"


def test_norms_past_series_budget_is_numeric_error(tmp_path):
    # at |a| = 1 - 1e-6 the p = 1 series needs far more terms than its budget
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": [[0.999999, 0.0]],
                                      "exponents": [1, 2]})
    assert cli.main(["norms", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC


def test_sh_subcommand_with_csv(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "q": [2, 4], "ps": [[2, 1]],
                                      "grid": {"rmax": 0.9, "count": 6}})
    out = tmp_path / "o"
    assert cli.main(["sh", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
    rep = _load(out, "sh")
    assert len(rep["results"]["scans"]) == 3
    rows = (out / "sh.csv").read_text().strip().splitlines()
    assert len(rows) == 18  # 6 grid points x 3 scans
    assert rows[0].split(",")[-1] in ("sh_q", "sh_ps")


def test_carleson_subcommand(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "q": 2, "resolution": 256})
    assert cli.main(["carleson", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = _load(tmp_path / "o", "carleson")
    assert rep["results"]["carleson"]["method"] == "gram-spectral"
    assert rep["results"]["weak"]["weak_d_q"] <= 1.0 + 1e-10


def test_carleson_needs_seed_for_power_iteration(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "q": 4, "resolution": 256})
    assert cli.main(["carleson", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert cli.main(["carleson", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "3"]) == 0


# method names the route q takes or is "auto": at q = 2 the power iteration would
# only bound the exact Gram eigenvalue from below, at q = 1 it would need q' = inf
@pytest.mark.parametrize("method,q,seed", [("spectral", 2, None), ("gram-spectral", 4, 1),
                                           ("spectral", 4, None), ("power-iteration", 1, 1),
                                           ("power-iteration", 2, 1)])
def test_carleson_unknown_method_is_config_error(tmp_path, capsys, method, q, seed):
    cfg = {"domain": "disc", "points": DISC_POINTS, "q": q, "method": method, "resolution": 256}
    if seed is not None:
        cfg["seed"] = seed
    path = _write(tmp_path, "c.json", cfg)
    assert cli.main(["carleson", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "method" in capsys.readouterr().err


@pytest.mark.parametrize("method,q", [("coordinate-extreme", 1), ("gram-spectral", 2),
                                      ("power-iteration", 4)])
def test_carleson_method_naming_the_route_reports_as_auto(method, q):
    cfg = {"domain": "disc", "points": DISC_POINTS, "q": q, "seed": 1, "restarts": 4,
           "resolution": 256}
    named, auto = cli.run("carleson", {**cfg, "method": method}), cli.run("carleson", cfg)
    assert named["results"] == auto["results"]
    assert named["results"]["carleson"]["method"] == method


def test_dual_tikhonov_true_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS, "tikhonov": True})
    assert cli.main(["dual", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "tikhonov" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dual_tikhonov_false_reports_as_omitted():
    cfg = {"domain": "disc", "points": DISC_POINTS, "resolution": 256}
    plain, explicit = cli.run("dual", cfg), cli.run("dual", {**cfg, "tikhonov": False})
    assert explicit["results"] == plain["results"]
    assert "tikhonov_eps" not in plain["results"]["dual"]


def test_ill_conditioned_dual_is_numeric_error(tmp_path, capsys):
    # a pair 1e-9 apart: the collocation matrix has condition 1.7e16
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": [[0.5, 0.0], [0.5 + 1e-9, 0.0]],
                                      "resolution": 256})
    assert cli.main(["dual", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "condition" in err and "tikhonov" not in err
    assert not (tmp_path / "o").exists()


def test_dual_and_gleason_subcommands(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "p": 2, "method": "gram2", "resolution": 256})
    assert cli.main(["dual", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = _load(tmp_path / "o", "dual")
    assert rep["results"]["dual"]["delta_residual"] < 1e-9
    assert cli.main(["gleason", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = _load(tmp_path / "o", "gleason")
    assert "window_constant" in rep["results"]
    assert rep["results"]["product_delta"] > 0


@pytest.mark.parametrize("sub", ["dual", "extend"])
def test_gram2_needs_p2(tmp_path, capsys, sub):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS, "p": 4, "s": 1,
                                      "method": "gram2", "dual_method": "gram2",
                                      "seed": 1, "resolution": 256})
    assert cli.main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "gram2" in capsys.readouterr().err


# a dual whose delta property is broken: a pair 1e-7 apart near the boundary
# (condition 1.6e11, below the limit that refuses the solve)
@pytest.mark.parametrize("sub,cfg", [
    ("dual", {"points": [[0.99, 0.0], [0.99, 1e-7]]}),
    ("extend", {"points": [[0.99, 0.0], [0.99, 1e-7]], "s": 1, "seed": 1, "batch": 2}),
], ids=["dual-near-pair", "extend-near-pair"])
def test_broken_delta_property_is_invariant_violation(tmp_path, capsys, sub, cfg):
    path = _write(tmp_path, "c.json", {"domain": "disc", "p": 2, "resolution": 256, **cfg})
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "delta residual" in err and "condition" in err
    assert not (tmp_path / "o" / f"{sub}.json").exists()


def test_extend_subcommand_and_csv(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "s": 1, "p": 2, "dual_method": "gram2",
                                      "batch": 4, "seed": 7, "resolution": 256})
    out = tmp_path / "o"
    assert cli.main(["extend", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
    rep = _load(out, "extend")
    ext = rep["results"]["extension"]
    assert ext["max_rel_residual"] < 1e-8
    assert ext["ci_estimate"] >= 1.0 - 1e-9
    assert len((out / "extend.csv").read_text().strip().splitlines()) == 3


def test_extend_validates_exponents(tmp_path, capsys):
    for s, p in [(2, 2), ("inf", "inf")]:
        cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                          "s": s, "p": p, "seed": 1})
        assert cli.main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "need 1 <= s < p" in capsys.readouterr().err


def test_khintchine_subcommand(tmp_path):
    cfg = _write(tmp_path, "c.json", {"q": [2], "lengths": [3, 5], "seed": 11})
    out = tmp_path / "o"
    assert cli.main(["khintchine", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
    rows = (out / "khintchine.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    for row in rows:
        q, n, ratio, method, stderr = row.split(",")
        assert abs(float(ratio) - 1.0) < 1e-12


def test_khintchine_capacity_exit(tmp_path):
    # q = 3 enumerates, so 25 entries pass the cap; q = 2 would take the closed form
    cfg = _write(tmp_path, "c.json", {"q": [3], "vectors": [[[1, 0]] * 25]})
    assert cli.main(["khintchine", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CAPACITY


def test_bergman_subcommand(tmp_path):
    cfg = _write(tmp_path, "c.json", {"points": [[0.5, 0.0], [-0.5, 0.0]],
                                      "s": 1, "p": 2, "resolution": 12, "angular": 48})
    assert cli.main(["bergman", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = _load(tmp_path / "o", "bergman")
    assert rep["results"]["bergman_extension"]["max_rel_residual"] < 1e-8


def test_bergman_reads_points_csv(tmp_path):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("re,im\n0.5,0.0\n-0.5,0.0\n")
    cfg = {k: v for k, v in _BERGMAN.items() if k != "points"}
    from_csv = cli.run("bergman", {**cfg, "points_csv": str(csv_path)})
    assert from_csv["results"] == cli.run("bergman", _BERGMAN)["results"]


@pytest.mark.parametrize("key,value,runs", [
    ("base_dim", 1, True), ("weight", 0, True), ("weight", 0.0, True),
    ("base_dim", 2, False), ("weight", 1, False), ("weight", -1, False),
    ("weight", True, False), ("weight", "heavy", False),
])
def test_bergman_runs_on_the_unweighted_disc_only(tmp_path, capsys, key, value, runs):
    path = _write(tmp_path, "c.json", {**_BERGMAN, key: value})
    code = cli.main(["bergman", "--config", str(path), "--out", str(tmp_path / "o")])
    if runs:
        assert code == 0
        assert _load(tmp_path / "o", "bergman")["results"]["weight"] == 0
    else:
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unweighted disc" in err and key in err


def test_extend_ball_edge_line(tmp_path):
    # points up to |a| = 0.999 on one complex line, the last on the far side
    radii = [0.0, 0.5, 0.9, 0.99, -0.999]
    cfg = _write(tmp_path, "c.json", {"domain": "ball2",
                                      "points": [[r, 0.0, 0.0, 0.0] for r in radii],
                                      "s": 1, "p": 2, "dual_method": "gram2",
                                      "resolution": 16, "angular": 64,
                                      "batch": 16, "seed": 2024})
    assert cli.main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    ext = _load(tmp_path / "o", "extend")["results"]["extension"]
    assert ext["ci_estimate"] <= ext["constant_budget"]


def test_report_subcommand(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "s": 1, "p": 2,
                                      "sh": {"q": [2], "ps": [[2, 1]]},
                                      "grid": {"rmax": 0.8, "count": 4},
                                      "batch": 2, "seed": 5, "resolution": 256})
    assert cli.main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = _load(tmp_path / "o", "report")
    for key in ("gleason", "norms", "sh", "carleson", "dual", "extend"):
        assert key in rep["results"]


def test_report_dual_method_reaches_both_sections(tmp_path):
    # gram2 needs p = 2, so at p = 1.5 both sections must take the collocation dual
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "s": 1.2, "p": 1.5, "dual_method": "collocation",
                                      "sh": {"q": [2], "ps": [[2, 1]]},
                                      "grid": {"rmax": 0.8, "count": 4},
                                      "batch": 2, "seed": 5, "resolution": 256})
    assert cli.main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    results = _load(tmp_path / "o", "report")["results"]
    assert results["dual"]["dual"]["method"] == "collocation"
    assert results["extend"]["extension"]["details"]["dual_method"] == "collocation"


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["norms", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    assert cli.main(["norms", "--config", str(binary), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_cli_determinism(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "s": 1, "p": 2, "batch": 4, "seed": 9,
                                      "resolution": 256})
    for sub in ("run1", "run2"):
        assert cli.main(["extend", "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
    r1 = _load(tmp_path / "run1", "extend")
    r2 = _load(tmp_path / "run2", "extend")
    r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_carleson_remark_2q(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "q": 2, "resolution": 256,
                                      "remark_2q": True, "seed": 4})
    assert cli.main(["carleson", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = _load(tmp_path / "o", "carleson")
    assert "weak_2q" in rep["results"]
    assert rep["results"]["remark_ratio_weak2q_over_dq"] > 0


def test_khintchine_mc_csv_has_stderr(tmp_path):
    cfg = _write(tmp_path, "c.json", {"q": [4], "vectors": [[[1, 0], [1, 0]]],
                                      "method": "monte-carlo", "samples": 5000, "seed": 3})
    out = tmp_path / "o"
    assert cli.main(["khintchine", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
    q, n, ratio, method, stderr = (out / "khintchine.csv").read_text().strip().split(",")
    assert method == "monte-carlo" and float(stderr) > 0
    assert abs(float(ratio) - 2.0) < 6 * float(stderr)


def test_khintchine_misspelled_method_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"q": [4], "vectors": [[[1, 0], [1, 0]]],
                                      "method": "montecarlo", "samples": 50, "seed": 1})
    assert cli.main(["khintchine", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "unknown expectation method 'montecarlo'" in capsys.readouterr().err


def test_bad_exponent_is_config_error(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "s": [1], "p": 2, "seed": 1})
    assert cli.main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("bad", ["nan", "-inf", float("nan")])
@pytest.mark.parametrize("sub,cfg", [
    ("norms", {"domain": "disc", "points": DISC_POINTS, "exponents": [1, "X"]}),
    ("sh", {"domain": "disc", "q": ["X"], "ps": [], "grid": [[0.5, 0.0]]}),
    ("sh", {"domain": "disc", "q": [], "ps": [[2.0, "X"]], "grid": [[0.5, 0.0]]}),
    ("carleson", {"domain": "disc", "points": DISC_POINTS, "q": "X", "resolution": 64, "seed": 1}),
    ("dual", {"domain": "disc", "points": DISC_POINTS, "method": "collocation", "p": "X"}),
    ("extend", {"domain": "disc", "points": DISC_POINTS, "s": 1, "p": "X", "seed": 1}),
    ("khintchine", {"q": ["X"], "vectors": [[[1.0, 0.0], [1.0, 0.0]]]}),
], ids=["norms", "sh-q", "sh-ps", "carleson", "dual", "extend", "khintchine"])
def test_nan_or_negative_infinite_exponent_is_config_error(tmp_path, capsys, sub, cfg, bad):
    text = json.dumps(cfg).replace('"X"', json.dumps(bad))
    path = tmp_path / "c.json"
    path.write_text(text)
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "bad exponent" in capsys.readouterr().err


@pytest.mark.parametrize("length", [0, -1])
def test_khintchine_length_below_one_is_config_error(tmp_path, capsys, length):
    cfg = _write(tmp_path, "c.json", {"q": [2], "lengths": [2, length], "seed": 1})
    assert cli.main(["khintchine", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"at least 1, got {length}" in capsys.readouterr().err


@pytest.mark.parametrize("sub,cfg", [
    ("extend", {"domain": "disc", "points": DISC_POINTS, "batch": 1, "resolution": 64}),
    ("carleson", {"domain": "disc", "points": DISC_POINTS, "q": 4, "resolution": 64}),
    ("khintchine", {"q": [2], "lengths": [2]}),
], ids=["extend", "carleson", "khintchine"])
def test_negative_seed_is_config_error(tmp_path, capsys, sub, cfg):
    path = _write(tmp_path, "c.json", {**cfg, "seed": -1})
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err


_SMALL_EXTEND = {"domain": "disc", "points": DISC_POINTS[:2], "s": 1, "p": 2, "batch": 1,
                 "seed": 1, "resolution": 64}
_SMALL_CARLESON = {"domain": "disc", "points": DISC_POINTS[:2], "q": 4, "seed": 1,
                   "restarts": 2, "resolution": 64}


@pytest.mark.parametrize("sub,cfg,key", [
    ("extend", {**_SMALL_EXTEND, "batch": 4.7}, "batch"),
    ("extend", {**_SMALL_EXTEND, "batch": True}, "batch"),
    ("extend", {**_SMALL_EXTEND, "seed": 1.9}, "seed"),
    ("extend", {**_SMALL_EXTEND, "resolution": 64.9}, "resolution"),
    ("carleson", {**_SMALL_CARLESON, "restarts": 2.5}, "restarts"),
], ids=["batch-fraction", "batch-true", "seed-fraction", "resolution-fraction",
        "restarts-fraction"])
def test_fractional_or_boolean_integer_setting_is_config_error(tmp_path, capsys, sub, cfg, key):
    path = _write(tmp_path, "c.json", cfg)
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"bad {key} {cfg[key]!r}" in capsys.readouterr().err


def test_integral_float_and_numeric_string_settings_still_run():
    for batch in (2.0, "2"):
        rep = cli.run("extend", {**_SMALL_EXTEND, "batch": batch})
        assert rep["results"]["extension"]["details"]["verification"]["batch"] == 2


@pytest.mark.parametrize("sub,text", [
    ("extend", '"target": ["nan", 1]'),
    ("extend", '"target": ["inf", 1]'),
    ("extend", '"target": [[1e400, 0], 1]'),
    ("bergman", '"target": ["nan", 1]'),
], ids=["extend-nan", "extend-inf", "extend-overflow", "bergman-nan"])
def test_non_finite_target_is_config_error(tmp_path, capsys, sub, text):
    base = _SMALL_EXTEND if sub == "extend" else {"points": [[0.5, 0.0], [-0.5, 0.0]], "s": 1,
                                                   "p": 2, "resolution": 8, "angular": 32}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(base)[:-1] + ", " + text + "}")
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()
    assert "target entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("sub,cfg,key", [
    ("carleson", {**_SMALL_CARLESON, "q": True}, "q"),
    ("sh", {"domain": "disc", "q": [True], "ps": [], "grid": [[0.5, 0.0]]}, "q"),
    ("sh", {"domain": "disc", "q": [], "ps": [[2.0, True]], "grid": [[0.5, 0.0]]}, "ps"),
    ("extend", {**_SMALL_EXTEND, "s": True}, "s"),
    ("extend", {**_SMALL_EXTEND, "p": False}, "p"),
    ("norms", {"domain": "disc", "points": DISC_POINTS, "exponents": [1, True]}, "exponents"),
    ("khintchine", {"q": [True], "vectors": [[[1.0, 0.0], [1.0, 0.0]]]}, "q"),
], ids=["carleson-q", "sh-q", "sh-ps", "extend-s", "extend-p", "norms", "khintchine"])
def test_boolean_exponent_is_config_error(tmp_path, capsys, sub, cfg, key):
    path = _write(tmp_path, "c.json", cfg)
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()
    assert f"for {key}" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["123", {"a": 1, "b": 2, "c": 3}, 1.0],
                         ids=["string", "dict", "number"])
def test_non_list_target_is_config_error(tmp_path, capsys, target):
    path = _write(tmp_path, "c.json", {**_SMALL_EXTEND, "points": DISC_POINTS, "target": target})
    assert cli.main(["extend", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "target must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("sub,cfg,key", [
    ("khintchine", {"q": [], "vectors": [[[1.0, 0.0]]]}, "q"),
    ("khintchine", {"q": [], "vectors": [[[1.0, 0.0]]], "method": "montecarlo"}, "q"),
    ("khintchine", {"q": [2], "vectors": []}, "vectors"),
    ("khintchine", {"q": [2], "lengths": [], "seed": 1}, "lengths"),
    ("norms", {"domain": "disc", "points": DISC_POINTS, "exponents": []}, "exponents"),
], ids=["khintchine-q", "khintchine-q-bad-method", "khintchine-vectors", "khintchine-lengths",
        "norms-exponents"])
def test_empty_list_is_config_error(tmp_path, capsys, sub, cfg, key):
    path = _write(tmp_path, "c.json", cfg)
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()
    assert key in capsys.readouterr().err


def test_sh_needs_q_or_ps(tmp_path, capsys):
    # either list alone may be empty, not both
    for lists in ({"q": [2], "ps": []}, {"q": [], "ps": [[2, 1]]}):
        rep = cli.run("sh", {"domain": "disc", "grid": [[0.5, 0.0]], **lists})
        assert len(rep["results"]["scans"]) == 1
    path = _write(tmp_path, "c.json", {"domain": "disc", "q": [], "ps": [], "grid": [[0.5, 0.0]]})
    assert cli.main(["sh", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "q or ps" in capsys.readouterr().err


def test_norms_checks_monotonicity(tmp_path, monkeypatch):
    # a table whose norms fall as p grows breaks the run
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "exponents": [1, 2, 4]})
    monkeypatch.setattr(kernels.NormCache, "_finite_norm", lambda self, a, p: (1.0 / p, 0.0))
    assert cli.main(["norms", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INVARIANT
    assert not (tmp_path / "o").exists()


_EXTEND = {"domain": "disc", "points": DISC_POINTS, "s": 1, "p": 2, "batch": 1, "seed": 1,
           "resolution": 64}
_BERGMAN = {"points": [[0.5, 0.0], [-0.5, 0.0]], "s": 1, "p": 2, "resolution": 8, "angular": 32}


@pytest.mark.parametrize("sub,cfg", [
    ("sh", {"domain": "disc", "q": [2], "ps": [], "grid": [[0.5]]}),
    ("sh", {"domain": "ball2", "q": [2], "ps": [], "grid": [[0.5, 0.0]]}),
    ("extend", {**_EXTEND, "target": [[1.0], 1.0, 1.0]}),
    ("extend", {**_EXTEND, "target": ["abc", 1.0, 1.0]}),
    ("bergman", {**_BERGMAN, "target": [[1.0], 1.0]}),
    ("bergman", {**_BERGMAN, "target": ["abc", 1.0]}),
    ("bergman", {k: v for k, v in _BERGMAN.items() if k != "points"}),
    ("extend", {**_EXTEND, "batch": "many"}),
    ("extend", {**_EXTEND, "seed": "abc"}),
    ("carleson", {"domain": "disc", "points": DISC_POINTS, "q": 4, "seed": 1, "restarts": "x"}),
    ("carleson", {"domain": "disc", "points": DISC_POINTS, "q": 2, "resolution": "hi"}),
    ("gleason", {"domain": "disc", "points": 5}),
    ("sh", {"domain": "disc", "q": [2], "ps": [], "grid": 5}),
    ("sh", {"domain": "disc", "q": [2], "ps": [], "grid": {"rmax": "x"}}),
    ("khintchine", {"q": [2], "vectors": [[[1.0]]]}),
    ("khintchine", {"q": [2], "lengths": ["x"], "seed": 1}),
    ("bergman", {**_BERGMAN, "weight": "heavy"}),
    ("norms", {"domain": "disc", "points": DISC_POINTS, "exponents": 2}),
    ("sh", {"domain": "disc", "q": 5, "ps": [], "grid": [[0.5, 0.0]]}),
    ("sh", {"domain": "disc", "q": [], "ps": [2.0], "grid": [[0.5, 0.0]]}),
    ("khintchine", {"q": 4, "vectors": [[[1.0, 0.0], [1.0, 0.0]]]}),
    ("dual", {"domain": "disc", "points": [[0.5, 0.0], [0.5, 1e-9]], "tikhonov": "false"}),
    ("carleson", {"domain": "disc", "points": DISC_POINTS, "q": 2, "resolution": 64,
                  "weak": "false"}),
    ("carleson", {"domain": "disc", "points": DISC_POINTS, "q": 2, "resolution": 64,
                  "seed": 1, "remark_2q": 1}),
    ("sh", {"domain": "disc", "grid": {"rmax": 0.5, "count": -1}}),
    ("sh", {"domain": "disc", "q": [], "ps": [], "grid": {"rmax": 0.5, "count": 0}}),
    ("report", {"domain": "disc", "points": [[0.5, 0.0], [-0.5, 0.0]], "resolution": 64,
                "batch": 1, "seed": 1, "norms": 5}),
    ("carleson", {"domain": "disc", "points": DISC_POINTS, "q": 4, "seed": 1, "restarts": -3}),
    ("extend", {**_EXTEND, "angular": 32}),
    ("extend", {**_EXTEND, "domain": "ball2", "points": [[0.5, 0, 0, 0], [-0.5, 0, 0, 0]],
                "resolution": 8, "angular": 0}),
    ("bergman", {**_BERGMAN, "radial": 0}),
    ("bergman", {**_BERGMAN, "radial": -3}),
    ("bergman", {**_BERGMAN, "angular_volume": 0}),
], ids=["sh-disc-short-row", "sh-ball-short-row", "extend-short-pair", "extend-text",
        "bergman-short-pair", "bergman-text", "bergman-no-points",
        "extend-batch-text", "extend-seed-text", "carleson-restarts-text",
        "carleson-resolution-text", "gleason-points-number", "sh-grid-number",
        "sh-grid-rmax-text", "khintchine-short-entry", "khintchine-lengths-text",
        "bergman-weight-text", "norms-exponents-number", "sh-q-number", "sh-ps-not-pair",
        "khintchine-q-number", "dual-tikhonov-text", "carleson-weak-text",
        "carleson-remark-number", "sh-grid-count-negative", "sh-grid-count-zero",
        "report-section-number", "carleson-restarts-negative", "extend-disc-angular",
        "extend-ball-angular-zero", "bergman-radial-zero", "bergman-radial-negative",
        "bergman-angular-volume-zero"])
def test_malformed_input_is_config_error(tmp_path, capsys, sub, cfg):
    path = _write(tmp_path, "c.json", cfg)
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()
    assert "error:" in capsys.readouterr().err


def test_points_csv_bad_row_is_config_error(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("re,im\n0.5,0.0\n0.3,abc\n-0.5,0.1\n")
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points_csv": str(csv_path)})
    assert cli.main(["gleason", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00\x81"], ids=["missing", "not-utf8"])
def test_unreadable_points_csv_is_config_error(tmp_path, capsys, content):
    path = tmp_path / "points.csv"
    if content is not None:
        path.write_bytes(content)
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points_csv": str(path)})
    assert cli.main(["gleason", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


def _sparse_lattice(levels):
    """Rings r_k = 1 - 2^-k with 2 ceil(2^(k/2)) equispaced points each."""
    points = []
    for k in levels:
        count = 2 * math.ceil(2 ** (k / 2))
        phases = 2.0 * math.pi * (np.arange(count) + 0.5 * (k % 2)) / count
        points += [[(1 - 2.0**-k) * math.cos(t), (1 - 2.0**-k) * math.sin(t)] for t in phases]
    return points


def test_extend_past_the_enumeration_cap(tmp_path):
    # N = 74 signs at p = 2, q = 4: both moments take the closed form, so
    # EXACT_CAP = 20 does not bind and no pattern is evaluated
    points = _sparse_lattice(range(1, 8))
    assert len(points) == 74
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": points,
                                      "s": 4 / 3, "p": 2, "dual_method": "gram2",
                                      "resolution": 1024, "batch": 4, "seed": 5})
    assert cli.main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    ext = _load(tmp_path / "o", "extend")["results"]["extension"]
    ver = ext["details"]["verification"]
    assert ver["sign_patterns"] == 0
    assert ver["sign_routes"] == {"f": "closed-form", "g": "closed-form"}
    assert math.isfinite(ext["constant_budget"])
    assert ext["ci_estimate"] <= ext["constant_budget"]
