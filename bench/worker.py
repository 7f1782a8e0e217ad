"""One benchmark process: set up the lab, run one experiment, print a JSON record.

    python3 bench/worker.py CONFIG OUT {probe,run,trace}

``probe`` stops where the experiment would start, so it measures set-up
alone.  ``run`` times ``harness.run_experiment`` and reads the process's
peak resident memory (Linux ``VmHWM``) right after it returns.  ``trace``
does the same with every layer wrapped in spans and adds the per-layer
metrics; it also writes the spans to OUT/trace.json.  The record's ``entered`` is the monotonic clock
at the moment the experiment starts, which the parent turns into set-up time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    config, out, mode = argv
    sys.path.insert(0, str(SRC))
    from stable_sde_lab.harness import load_config, run_experiment

    cfg = load_config(config)
    if mode == "probe":
        print(json.dumps({"entered": time.monotonic()}))
        return 0
    if mode == "trace":
        from spans import ROOT_SPAN, Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            record = _timed(tracer.wrap(ROOT_SPAN, run_experiment), cfg, out)
        record["layers"] = layer_metrics(tracer, cfg.replicates)
        tracer.dump(Path(out) / "trace.json")
    else:
        record = _timed(run_experiment, cfg, out)
    print(json.dumps(record))
    return 0


def _timed(run, cfg, out) -> dict:
    entered = time.monotonic()
    start = time.perf_counter()
    result = run(cfg, out)
    wall = time.perf_counter() - start
    return {
        "entered": entered,
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_kib() / 1024.0,
        "exit_code": result.exit_code,
    }


def _peak_rss_kib() -> int:
    # VmHWM is the high-water mark of this process image alone.  getrusage's
    # ru_maxrss is not: Linux carries the parent's resident size at fork over
    # the exec, so it would report the benchmark's own memory.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
