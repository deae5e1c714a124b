"""One benchmark repetition in a fresh process.

Imports ``hardylab`` from ``<root>/src``, loads the generated config, prints
``ready`` (the parent stops its set-up clock on that line), then runs the
subcommand through ``hardylab.cli.run`` and ``write_report`` exactly as the
CLI does, and prints one JSON line with the wall and CPU time of that call
and the process's peak resident memory.  The exit code is the CLI's.

    python3 perfbench/worker.py --root . --subcommand extend \
        --config cfg.json --out outdir [--trace spans.json] [--setup-only]
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--subcommand", required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=Path, help="trace the run and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.root.resolve() / "src"))
    from hardylab import cli
    from hardylab.errors import HardyLabError, exit_code_for

    cfg = json.loads(args.config.read_text())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    code = 0
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        cli.write_report(cli.run(args.subcommand, cfg), args.out, "json")
    except HardyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exit_code_for(exc)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if tracer is not None:
        tracer.dump(args.trace)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
