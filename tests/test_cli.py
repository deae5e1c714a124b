import json

import pytest

from hardylab import cli
from hardylab.errors import EXIT_CAPACITY, EXIT_CONFIG, EXIT_NUMERIC


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


def test_extend_validates_exponents(tmp_path):
    cfg = _write(tmp_path, "c.json", {"domain": "disc", "points": DISC_POINTS,
                                      "s": 2, "p": 2, "seed": 1})
    assert cli.main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


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
    cfg = _write(tmp_path, "c.json", {"q": [2], "vectors": [[[1, 0]] * 25]})
    assert cli.main(["khintchine", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CAPACITY


def test_bergman_subcommand(tmp_path):
    cfg = _write(tmp_path, "c.json", {"points": [[0.5, 0.0], [-0.5, 0.0]],
                                      "s": 1, "p": 2, "resolution": 12, "angular": 48})
    assert cli.main(["bergman", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = _load(tmp_path / "o", "bergman")
    assert rep["results"]["bergman_extension"]["max_rel_residual"] < 1e-8


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


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["norms", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG


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
