"""Run the repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload corun-saba --seed 7 --seconds 30
    python3 perfbench/run.py --workload service-storm --trace 1

One workload runs in this process; ``--workload all`` runs each
workload in a process of its own (so peak memory, heap and GC state do
not carry over) and prints every metric of all three.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 1`` the
metrics are the per-layer ones and the spans and per-layer tables are
written under ``perfbench/out/``.  Any failed correctness or
determinism check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("hyperscale-incast", "corun-saba", "service-storm")


def log(message: str) -> None:
    print(message, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the recorded seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            log(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            log(f"{name}: FAILED (exit status {proc.returncode})")
            merged["correct"] = False
            status = 1
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import DEFAULT_SEED, run_workload
    from perfbench.workloads import BenchError
    from repro.errors import ReproError

    seed = DEFAULT_SEED if args.seed is None else args.seed
    try:
        result = run_workload(args.workload, seed, args.seconds,
                              bool(args.trace), HERE / "out", log)
    except (BenchError, ReproError) as exc:
        # ReproError covers the storm invariant probes and a simulation
        # that cannot finish its jobs.
        log(f"{args.workload}: CHECK FAILED: {exc!r}")
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
