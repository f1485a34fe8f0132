"""Benchmark of gfstore: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root; gfstore is imported from ./src.  Workloads,
metrics and units are those of BENCHMARK.json.  The last line printed is one
JSON object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  Exit
code 0: every correctness check held; 1: a check failed (the result is still
printed); 2: usage error or no sources; 3: the run itself failed.
``--workload all`` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = Path(".perfbench_run")  # scratch space, relative to ROOT


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(outcome, wanted: list[dict], trace: bool) -> dict:
    metrics = {}
    for m in wanted:
        # a layer the workload never calls has no spans: zero calls, zero time
        value = outcome.metrics.get(m["name"], 0) if trace else outcome.metrics[m["name"]]
        # a failed operation enters the percentiles as +inf, which JSON cannot hold
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None, "unit": m["unit"]}
    return {
        "correct": not outcome.errors and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def report(workload: str, args, outcome, result: dict, aliases: dict) -> None:
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"gfstore benchmark: workload {workload}, seed {args.seed}, {kind} metrics")
    for name, m in result["metrics"].items():
        alias = aliases.get(name)
        shown = f"{name} ({alias})" if alias else name
        print(f"  {shown:<44} {m['value'] if m['value'] is not None else math.inf:>16.6g} {m['unit']}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'failed_ops_ratio':<44} {ratio:>16.6g} ({outcome.failed} of {outcome.attempted})")
    for note in outcome.notes:
        print(f"  {note}")
    for err in outcome.errors[:20]:
        print(f"  CHECK FAILED: {err}")
    if len(outcome.errors) > 20:
        print(f"  ... {len(outcome.errors) - 20} more failed checks")


def run_one(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gfstore
    import workloads

    if not Path(gfstore.__file__).resolve().is_relative_to(SRC):
        print(f"gfstore was imported from {gfstore.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # The client, the server and every probe share one CPU, so the clock's
    # calibration runs on the CPU that does the measured work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:  # noqa: BLE001 - the run failed: say why, print no result
        traceback.print_exc()
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = result_line(outcome, wanted, bool(args.trace))
    aliases = dict(zip(("ops_per_s", "op_p50_ms", "op_tail_ms"), workloads.SPECS[args.workload].aliases))
    report(args.workload, args, outcome, result, {} if args.trace else aliases)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, so that each one's peak memory is its own."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        printed_result = proc.returncode in (0, 1) and bool(lines)
        print("\n".join(lines[:-1] if printed_result else lines))
        sys.stderr.write(proc.stderr)
        if not printed_result:
            status = 1
            combined["correct"] = False
            continue
        status = max(status, proc.returncode)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w['name']}/{name}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gfstore" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no gfstore sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # gfstore.cli reads GFS_BUDGET; every workload uses the CLI's built-in default
    os.environ.pop("GFS_BUDGET", None)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
