"""A subcommand reads the keyword parameters of its runner and no other config key:
an unknown key, a retired one or a config that is not a JSON object exits 2 before
anything runs or is written."""
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hardylab import cli
from hardylab.errors import EXIT_CONFIG, ParameterError

ROOT = Path(__file__).resolve().parent.parent
DISC = {"domain": "disc", "points": [[0.5, 0.0], [-0.5, 0.0]]}
EXTEND = {**DISC, "s": 1, "p": 2, "batch": 1, "seed": 1}
BERGMAN = {"points": [[0.5, 0.0], [-0.5, 0.0]], "s": 1, "p": 2, "resolution": 8, "angular": 32}


def _refused(tmp_path, capsys, sub, cfg, *flags) -> str:
    """The error ``sub`` prints for ``cfg``, after checking that it exits 2 and writes nothing."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main([sub, "--config", str(path), "--out", str(out), *flags]) == EXIT_CONFIG
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("sub,cfg,flags,message", [
    ("norms", {**DISC, "exponets": [2]}, [], "norms config key 'exponets'; did you mean 'exponents'"),
    ("sh", {"domain": "disc", "gird": [[0.5, 0.0]]}, [], "sh config key 'gird'; did you mean 'grid'"),
    ("carleson", {**DISC, "restart": 2}, [], "carleson config key 'restart'; did you mean 'restarts'"),
    ("dual", {**DISC, "metod": "gram2"}, [], "dual config key 'metod'; did you mean 'method'"),
    ("gleason", {"domain": "disc", "pionts": DISC["points"]}, [],
     "gleason config key 'pionts'; did you mean 'points'"),
    ("extend", {**EXTEND, "bacth": 3}, [], "extend config key 'bacth'; did you mean 'batch'"),
    ("extend", {**EXTEND, "resolutoin": 99999}, [],
     "extend config key 'resolutoin'; did you mean 'resolution'"),
    ("khintchine", {"q": [2], "lenghts": [2], "seed": 1}, [],
     "khintchine config key 'lenghts'; did you mean 'lengths'"),
    ("bergman", {**BERGMAN, "radail": 8}, [], "bergman config key 'radail'; did you mean 'radial'"),
    ("report", {**EXTEND, "extnd": {"batch": 2}}, [],
     "report config key 'extnd'; did you mean 'extend'"),
    ("report", {**EXTEND, "extend": {"bacth": 2}}, [],
     "extend config key 'bacth'; did you mean 'batch'"),
    # a top-level report key that only a section takes points at that section
    ("report", {**EXTEND, "exponents": [2]}, [],
     "report config key 'exponents'; it belongs in the 'norms' section"),
    ("report", {**EXTEND, "q": 4}, [], "report config key 'q'; it belongs in the 'sh' or "
     "'carleson' section"),
    ("gleason", {"domain": "disc", "points": DISC["points"]}, ["--seed", "3"],
     "gleason config key 'seed'"),
    # a grid dict is read by its keys too: a misspelled one no longer falls back to a default
    ("sh", {"domain": "disc", "grid": {"rmx": 0.5, "count": 2}, "q": [2], "ps": []}, [],
     "sh grid key 'rmx'; did you mean 'rmax'"),
], ids=["norms", "sh", "carleson", "dual", "gleason", "extend", "extend-resolution", "khintchine",
        "bergman", "report-top", "report-section", "report-exponents", "report-q",
        "gleason-seed-flag", "sh-grid"])
def test_unknown_key_is_a_config_error(tmp_path, capsys, sub, cfg, flags, message):
    assert f"error: unknown {message}" in _refused(tmp_path, capsys, sub, cfg, *flags)


# these keys each accepted one value only; naming one, at that value or another,
# is now an unknown key
@pytest.mark.parametrize("sub,key,value", [
    ("carleson", "method", "auto"), ("carleson", "method", "coordinate-extreme"),
    ("carleson", "method", "gram-spectral"), ("carleson", "method", "power-iteration"),
    ("carleson", "method", "spectral"),
    ("dual", "tikhonov", False), ("dual", "tikhonov", True),
    ("bergman", "base_dim", 1), ("bergman", "base_dim", 2),
    ("bergman", "weight", 0), ("bergman", "weight", 0.0), ("bergman", "weight", 1),
    ("bergman", "weight", -1), ("bergman", "weight", True), ("bergman", "weight", "heavy"),
])
def test_retired_key_is_a_config_error(tmp_path, capsys, sub, key, value):
    # a carleson method naming a route comes with the q that takes it
    q = {"coordinate-extreme": 1, "power-iteration": 4}.get(value, 2)
    base = {"bergman": BERGMAN, "carleson": {**DISC, "q": q, "seed": 1}}.get(sub, DISC)
    err = _refused(tmp_path, capsys, sub, {**base, key: value})
    assert f"unknown {sub} config key {key!r}" in err


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]"])
@pytest.mark.parametrize("flags", [[], ["--seed", "3"]], ids=["plain", "seed-flag"])
def test_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys, text, flags):
    path = tmp_path / "c.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert cli.main(["extend", "--config", str(path), "--out", str(out), *flags]) == EXIT_CONFIG
    assert not out.exists()
    assert "config must be a dict" in capsys.readouterr().err
    with pytest.raises(ParameterError, match="config must be a dict"):
        cli.run("extend", json.loads(text))


@pytest.mark.parametrize("method", [None, "exact"])
def test_khintchine_samples_need_monte_carlo(tmp_path, capsys, method):
    cfg = {"q": [3], "vectors": [[[1, 0], [1, 0]]], "samples": 7}
    if method is not None:
        cfg["method"] = method
    assert "samples 7 needs method 'monte-carlo'" in _refused(tmp_path, capsys, "khintchine", cfg)


def _readme() -> str:
    return (ROOT / "README.md").read_text()


def test_readme_key_table_matches_the_runners():
    # every row names its subcommand's keys in the runner's order, and every
    # default it shows is the signature's (tuples read as JSON lists)
    rows = dict(re.findall(r"^\| `(\w+)` \| (.+) \|$", _readme(), re.M))
    assert sorted(rows) == sorted(cli.SUBCOMMANDS)
    for sub, cell in rows.items():
        shown = re.findall(r"`(\w+)`(?: = `([^`]+)`)?", cell)
        assert [key for key, _ in shown] == cli._keys(sub), sub
        params = inspect.signature(cli._RUNNERS[sub]).parameters
        for key, text in shown:
            default = json.loads(json.dumps(params[key].default))
            want = None if not text else eval(text, {"__builtins__": {}},
                                              {"true": True, "false": False})
            assert want == default, (sub, key)


def _check(sub: str, cfg: dict) -> None:
    cli._checked(sub, cfg)
    if sub == "report":
        for name in cli.SUBCOMMANDS:
            if name in cfg:
                cli._checked(name, cfg[name])


def test_readme_extend_example_passes_the_key_check():
    block = _readme().split("Example `extend` config:", 1)[1]
    _check("extend", json.loads(block.split("```json", 1)[1].split("```", 1)[0]))


def test_benchmark_configs_pass_the_key_check():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for sub, make in workloads.WORKLOADS.values():
        for seed in (1, 2, 3):
            _check(sub, make(seed))
    _check("extend", workloads.edge_probe())


def test_importing_the_cli_leaves_difflib_out():
    # difflib is imported only to suggest a key for an unknown one
    code = "import sys, hardylab.cli; print('difflib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"
