"""hardylab benchmark: CLI workloads timed end to end, traced layer by layer.

    python3 perfbench/run.py --workload extend_signs16 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The config is generated from
``--seed`` (see ``workloads.py``) and handed to the program as a file.  Each
repetition runs in a fresh worker process (``worker.py``), one at a time: a
closed loop with a single caller, BLAS left at its default thread count.
Eight set-up-only workers (and, when tracing, the edge probe) run first;
repetitions then continue while the next one is expected to end within
``--seconds``, and at least one always runs.  Every repetition's exit code
and output are checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of ``cli.run`` plus ``write_report``;
* ``setup_s``: median time from starting a fresh worker until ``hardylab``
  is imported and the config loaded (eight set-up-only workers plus every
  repetition);
* ``peak_rss_mb``: median peak resident memory of the worker;
* ``ok_frac``: repetitions that exit 0 and pass every check, over attempted
  (``1 - failed_frac``; an end-to-end metric must never read 0).

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.layer_metrics`` (medians over the traced
repetitions), the tracing overhead, and the exit code of the edge probe.

The last line of standard output is the result object; the line before it
records the machine, the sample counts and every repetition.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0
PROBE_LIMIT_S = 60.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "frac"}
TIER1 = {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
         "passed_when_benchmark_defined": 161}


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "tier1": TIER1,
    }


class Runner:
    """Spawns workers for one workload config, one at a time, and checks them."""

    def __init__(self, root: Path, work: Path, subcommand: str, deadline: float):
        self.root = root
        self.work = work
        self.subcommand = subcommand
        self.deadline = deadline
        self.config = work / "config.json"
        self.reps: list = []
        self.setups: list = []

    def _spawn(self, extra: list, tag: str) -> tuple:
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(self.root),
               "--subcommand", self.subcommand, "--config", str(self.config),
               "--out", str(self.work / tag), *extra]
        with open(self.work / f"{tag}.err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                if not select.select([proc.stdout], [], [], self._left())[0]:
                    raise subprocess.TimeoutExpired(cmd, self._left())
                ready = proc.stdout.readline()
                setup = time.perf_counter() - t0
                out, _ = proc.communicate(timeout=self._left())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return None, None, "timed out"
        if ready != "ready\n":
            return None, None, f"no ready line, exit {proc.returncode}: {self._err(tag)}"
        self.setups.append(setup)
        if proc.returncode != 0:
            return None, setup, f"exit {proc.returncode}: {self._err(tag)}"
        return (json.loads(out.strip().splitlines()[-1]) if out.strip() else None), setup, None

    def _left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def _err(self, tag: str) -> str:
        return (self.work / f"{tag}.err").read_text().strip()[-500:]

    def setup_probe(self) -> None:
        self._spawn(["--setup-only"], f"setup{len(self.setups)}")

    def rep(self, traced: bool) -> dict:
        tag = f"rep{len(self.reps)}"
        extra = ["--trace", str(self.work / f"{tag}.spans.json")] if traced else []
        t0 = time.perf_counter()
        stats, setup, error = self._spawn(extra, tag)
        if stats is None and error is None:
            error = "worker printed no result line"
        rep = {"traced": traced, "setup_s": setup, "problems": [error] if error else []}
        if stats is not None:
            rep.update(stats)
            path = self.work / tag / f"{self.subcommand}.json"
            report = json.loads(path.read_text())
            try:
                rep["problems"] = checks.CHECKS[self.subcommand](report)
                if traced:
                    spans = json.loads((self.work / f"{tag}.spans.json").read_text())
                    rep["layers"] = tracing.layer_metrics(spans, report, stats["wall_s"])
                    rep["layers"].update({"cli.cpu_s": stats["cpu_s"],
                                          "cli.report_bytes": path.stat().st_size})
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                rep["problems"] = [f"report not in the expected shape: {exc!r}"]
            shutil.rmtree(self.work / tag)
        rep["ok"] = not rep["problems"]
        rep["duration_s"] = time.perf_counter() - t0
        for problem in rep["problems"]:
            print(f"{tag}: {problem}", file=sys.stderr)
        self.reps.append(rep)
        return rep


def _median(values) -> float:
    """Median, or -1.0 when no repetition produced the figure (JSON has no NaN)."""
    return statistics.median(values) if values else -1.0


def edge_probe(runner: Runner) -> int:
    """Exit code of the real CLI on the edge probe config (not timed)."""
    cfg = runner.work / "probe.json"
    cfg.write_text(json.dumps(workloads.edge_probe()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(runner.root / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-m", "hardylab.cli", "extend", "--config", str(cfg),
           "--out", str(runner.work / "probe")]
    try:
        return subprocess.run(cmd, cwd=runner.root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=min(PROBE_LIMIT_S, runner._left())).returncode
    except subprocess.TimeoutExpired:
        print("edge probe timed out", file=sys.stderr)
        return -1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd().resolve()
    if not (root / "src" / "hardylab" / "cli.py").is_file():
        print(f"error: {root} holds no hardylab source tree (src/hardylab)", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        subcommand, generate = workloads.WORKLOADS[args.workload]
        runner = Runner(root, work, subcommand, deadline=started + RUN_LIMIT_S)
        runner.config.write_text(json.dumps(generate(args.seed)))
        facts = machine_facts()

        # Set-up-only workers and the edge probe run first, so that the
        # repetitions get what is left of --seconds.  Repetitions alternate
        # untraced and traced when tracing, and stop once the next one
        # (estimated by the last of its kind) would overrun --seconds.
        for _ in range(SETUP_PROBES):
            runner.setup_probe()
        probe_exit = edge_probe(runner) if args.trace else None
        modes = [False, True] if args.trace else [False]
        last: dict = {}
        while True:
            traced = modes[len(runner.reps) % len(modes)]
            last[traced] = runner.rep(traced)["duration_s"]
            if len(last) < len(modes):
                continue
            upcoming = modes[len(runner.reps) % len(modes)]
            if time.perf_counter() - started + last[upcoming] > args.seconds:
                break

        reps = runner.reps
        failed = sum(not r["ok"] for r in reps)
        timed = [r for r in reps if "wall_s" in r]
        plain = [r for r in timed if not r["traced"]]
        if args.trace:
            traced = [r for r in timed if r["traced"]]
            metrics = {name: _median([r["layers"][name] for r in traced if name in r["layers"]])
                       for name in tracing.PER_LAYER_UNITS}
            metrics["trace.overhead_frac"] = (_median([r["wall_s"] for r in traced])
                                              / _median([r["wall_s"] for r in plain]) - 1.0)
            metrics["extension.edge_probe_exit"] = probe_exit
            units = tracing.PER_LAYER_UNITS
        else:
            metrics = {
                "wall_s": _median([r["wall_s"] for r in plain]),
                "setup_s": _median(runner.setups),
                "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
                "ok_frac": (len(reps) - failed) / len(reps),
            }
            units = END_TO_END_UNITS

        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "samples": {"wall_s": len(plain), "setup_s": len(runner.setups)},
            "machine": facts,
            "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        }))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
