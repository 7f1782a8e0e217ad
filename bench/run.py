"""The lab's benchmark: one workload, run for a fixed time, metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the lab is imported from ``src/``.
One operation is one ``harness.run_experiment`` in a fresh process plus the
checks of its outputs.  Operations repeat while the next one is expected to
end within ``--seconds``; at least one always runs.  Before them,
``SETUP_PROBES`` processes set the lab up and stop, so that set-up time has
enough samples on the slowest workload too.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics, each the median over the run: ``wall_s`` (time inside
run_experiment), ``setup_s`` (process start to entering run_experiment) and
``peak_rss_mb``.  With ``--trace 1`` every round is one untraced and one
traced operation, and the line reports the per-layer metrics of the traced
ones plus ``trace.overhead_s``.  Progress goes to standard error.  Outputs and
traces are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
OP_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Library thread pools would compete with the single experiment thread; a
# fixed hash seed makes every worker process lay out its dicts the same way.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_worker(config: Path, out: Path, mode: str) -> dict | None:
    """Start one worker process; its record with ``setup_s``, or None if it failed."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(config), str(out), mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **PINNED_ENV},
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{mode}: no result after {OP_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{mode}: worker exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["entered"] - started
    return record


def end_to_end_metrics(ops: list[dict], probes: list[dict]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in ops),
        "setup_s": statistics.median(r["setup_s"] for r in probes + ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ops),
    }


def per_layer_metrics(ops: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in ops
    )
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stable_sde_lab").is_dir():
        print(f"no lab sources under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))  # the checks import the lab
    from checks import CHECKS
    from spans import LAYER_UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    check = CHECKS[workload.name]
    master = workload.master_seed(args.seed)
    out = BENCH / "out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "experiment.cfg"
    config.write_text(workload.config_text(master), encoding="utf-8")
    print(f"{workload.name}: master seed {master}", file=sys.stderr)

    probes = [run_worker(config, out / "probe", "probe") for _ in range(SETUP_PROBES)]
    if any(p is None for p in probes):
        return 1
    modes = ("run", "trace") if args.trace else ("run",)
    ops: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            attempted += 1
            op_out = out / mode
            record = run_worker(config, op_out, mode)
            if record is None:
                failed += 1
                continue
            try:
                found = check(op_out, workload.settings, master, record["exit_code"])
            except (OSError, KeyError, ValueError) as exc:
                found = [f"unreadable output: {exc!r}"]
            problems += found
            (traced if mode == "trace" else ops).append(record)
            print(
                f"{mode} {attempted}: wall {record['wall_s']:.3f} s, setup "
                f"{record['setup_s']:.3f} s, checks {'ok' if not found else found}",
                file=sys.stderr,
            )
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:  # the next round would overrun
            break
    if not ops or (args.trace and not traced):
        print("every operation failed", file=sys.stderr)
        return 1

    if args.trace:
        values, units = per_layer_metrics(ops, traced), LAYER_UNITS
    else:
        values, units = end_to_end_metrics(ops, probes), END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
