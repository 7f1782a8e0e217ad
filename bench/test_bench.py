"""Fast tests of the benchmark itself: its output checks and its metric names.

Each check must pass on a good output and reject a corrupted copy of it.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from stable_sde_lab import harness
from stable_sde_lab.counterexample import CheckReport, write_report_csv
from stable_sde_lab.harness import parse_config_text, run_experiment

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _small(workload: str, **overrides: str) -> dict[str, str]:
    return {**workloads.WORKLOADS[workload].settings, **overrides}


def _run_lab(settings: dict[str, str], master: int, out: Path) -> int:
    text = workloads.Workload("test", settings).config_text(master)
    return run_experiment(parse_config_text(text), str(out)).exit_code


def _rewrite_summary(out: Path, name: str, value: float) -> None:
    path = out / "summary.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows:
        if row[0] == name:
            row[1] = repr(value)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def weak_agree_out(tmp_path_factory):
    settings = _small("weak-agree-wide", replicates="300")
    out = tmp_path_factory.mktemp("weak")
    exit_code = _run_lab(settings, 5, out)
    assert checks.check_weak_agree(out, settings, 5, exit_code) == []
    return settings, out, exit_code


def _scaled_column(d):
    d = d.copy()
    d[:, 2] *= 1.5
    return d


def _below_x0(d):
    d = d.copy()
    d[0, 1] = -1.0
    return d


def _missing_row(d):
    return d[:-1]


@pytest.mark.parametrize("corrupt", [_scaled_column, _below_x0, _missing_row])
def test_weak_agree_check_rejects_perturbed_samples(weak_agree_out, tmp_path, corrupt):
    settings, good, exit_code = weak_agree_out
    out = tmp_path / "out"
    shutil.copytree(good, out)
    path = out / "weak_agree_samples.csv"
    data = corrupt(np.loadtxt(path, delimiter=",", skiprows=1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate,x_truncation,x_timechange\n")
        for r, a, b in data:
            fh.write(f"{int(r)},{a:.17g},{b:.17g}\n")
    assert checks.check_weak_agree(out, settings, 5, exit_code)


def test_ladder_check_rejects_violations(tmp_path):
    settings = _small("ladder-deep", replicates="5", cutoffs="0.1,0.01")
    exit_code = _run_lab(settings, 5, tmp_path)
    assert checks.check_ladder(tmp_path, settings, 5, exit_code) == []
    _rewrite_summary(tmp_path, "ladder-monotone-violations", 1.0)
    assert checks.check_ladder(tmp_path, settings, 5, exit_code)


def _grid_lab_output(out: Path, settings: dict[str, str], master: int, n: int) -> None:
    # A real grid-lab run takes over ten seconds, so the output is written
    # directly in the lab's own formats.
    alpha, beta = float(settings["alpha"]), float(settings["beta"])
    m = int(settings["grid_m"])
    reports = [
        CheckReport("scaling-law", 0.02, 0.5, 1.0, n, alpha, beta, 2 * m, master),
        CheckReport("driver-law", 0.02, 0.5, 0.99, n, alpha, beta, 4 * m, master),
    ]
    write_report_csv(out / "counterexample_report.csv", reports)
    rows = {
        "scaling-law-ks-p": 0.5,
        "driver-law-ks-p": 0.5,
        "driver-law-coverage": 0.99,
        "zero-solution-residual": 0.0,
        "nonzero-solution-positive-fraction": 1.0,
        "sde-replay-relative-residual": 1e-13,
    }
    with open(out / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("name,value,threshold,pass\n")
        for name, value in rows.items():
            fh.write(f"{name},{value!r},0,true\n")


def test_grid_lab_check_rejects_wrong_n(tmp_path):
    settings = workloads.WORKLOADS["grid-lab"].settings
    n = int(settings["replicates"])
    _grid_lab_output(tmp_path, settings, 1, n)
    assert checks.check_grid_lab(tmp_path, settings, 1, 0) == []
    _grid_lab_output(tmp_path, settings, 1, n + 1)
    assert any("n = " in p for p in checks.check_grid_lab(tmp_path, settings, 1, 0))


def test_printed_metrics_are_declared(tmp_path):
    """Every metric the benchmark prints is declared in BENCHMARK.json with its unit."""
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert run.END_TO_END_UNITS == end_to_end
    assert spans.LAYER_UNITS == per_layer
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)

    record = {"wall_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 40.0}
    assert set(run.end_to_end_metrics([record], [record])) == set(end_to_end)

    # A small traced run: the metrics cover every declared layer metric, the
    # wrapped names are restored afterwards, and tracing leaves outputs as they were.
    settings = _small("weak-agree-wide", replicates="50")
    text = workloads.Workload("test", settings).config_text(3)
    cfg = parse_config_text(text)
    run_experiment(cfg, str(tmp_path / "plain"))
    tracer = spans.Tracer()
    original = harness.solve_truncated
    with tracer.installed():
        tracer.wrap(spans.ROOT_SPAN, run_experiment)(cfg, str(tmp_path / "traced"))
    assert harness.solve_truncated is original
    layers = spans.layer_metrics(tracer, cfg.replicates)
    traced_record = {"wall_s": 1.5, "layers": layers}
    assert set(run.per_layer_metrics([record], [traced_record])) == set(per_layer)
    assert layers["timechange.solves_per_replicate"] >= 1.0
    for name in ("weak_agree_samples.csv", "summary.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
