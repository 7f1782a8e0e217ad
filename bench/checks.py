"""Output checks, one function per workload.

Each check reads the artifacts an experiment wrote and returns a list of
problems, empty when every check holds.  The checks recompute what they can
from the raw outputs (scipy's KS test on the sample file, the sampler's
Laplace transform against its closed form) and test required properties of
the rest; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

LAPLACE_LAMBDAS = (0.5, 1.0, 2.0, 4.0)
LAPLACE_DRAWS = 100_000
LAPLACE_STREAM = 0x4C41504C  # keeps the check's draws apart from the lab's streams


def read_summary(out: Path) -> dict[str, float]:
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        return {row["name"]: float(row["value"]) for row in csv.DictReader(fh)}


def _exit_problems(exit_code: int) -> list[str]:
    return [] if exit_code == 0 else [f"lab exit code {exit_code}, expected 0"]


def check_grid_lab(out: Path, settings: dict[str, str], master: int, exit_code: int) -> list[str]:
    problems = _exit_problems(exit_code)
    summary = read_summary(out)
    p_min = float(settings["ks_p_threshold"])
    if summary["zero-solution-residual"] != 0.0:
        problems.append(f"zero-solution residual {summary['zero-solution-residual']!r} is not 0")
    if not summary["sde-replay-relative-residual"] <= 1e-9:
        problems.append(
            f"sde-replay relative residual {summary['sde-replay-relative-residual']!r} > 1e-9"
        )
    for name in ("scaling-law-ks-p", "driver-law-ks-p"):
        if not summary[name] > p_min:
            problems.append(f"{name} {summary[name]!r} <= {p_min}")
    if not summary["driver-law-coverage"] >= float(settings["min_coverage"]):
        problems.append(f"driver-law coverage {summary['driver-law-coverage']!r} too low")

    # The experiment runs the scaling check on [1, 2] and the driver-law check
    # on [0, T], at grid_m steps per unit time.
    grid_m, horizon = int(settings["grid_m"]), float(settings["T"])
    expected_m = {"scaling-law": round(2.0 * grid_m), "driver-law": round(horizon * grid_m)}
    with open(out / "counterexample_report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if sorted(r["check"] for r in rows) != sorted(expected_m):
        problems.append(f"report checks {[r['check'] for r in rows]}, expected {sorted(expected_m)}")
    for r in rows:
        if r["check"] not in expected_m:
            continue
        expected = {
            "n": int(settings["replicates"]),
            "alpha": float(settings["alpha"]),
            "beta": float(settings["beta"]),
            "grid_m": expected_m[r["check"]],
            "seed": master,
        }
        for key, want in expected.items():
            if type(want)(r[key]) != want:
                problems.append(f"report row {r['check']}: {key} = {r[key]}, expected {want}")

    problems += laplace_problems(float(settings["alpha"]), master)
    return problems


def laplace_problems(alpha: float, master: int) -> list[str]:
    """Empirical E exp(-lam Z_1) of the exact sampler against exp(-lam**alpha), 3 sigma.

    sigma comes from the closed form too: Var exp(-lam Z_1) is
    exp(-(2 lam)**alpha) - exp(-2 lam**alpha).
    """
    from stable_sde_lab.driver import StableParams, sample_exact_increment

    rng = np.random.default_rng([LAPLACE_STREAM, master])
    z = sample_exact_increment(StableParams.default(alpha), 1.0, rng, size=LAPLACE_DRAWS)
    problems = []
    for lam in LAPLACE_LAMBDAS:
        want = math.exp(-(lam**alpha))
        sigma = math.sqrt((math.exp(-((2.0 * lam) ** alpha)) - want**2) / LAPLACE_DRAWS)
        got = float(np.mean(np.exp(-lam * z)))
        if abs(got - want) > 3.0 * sigma:
            problems.append(
                f"Laplace transform at lam={lam}: {got:.6g} vs {want:.6g} (3 sigma {3 * sigma:.2g})"
            )
    return problems


def check_weak_agree(out: Path, settings: dict[str, str], master: int, exit_code: int) -> list[str]:
    from scipy.stats import ks_2samp

    problems = _exit_problems(exit_code)
    path = out / "weak_agree_samples.csv"
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != "replicate,x_truncation,x_timechange":
        return problems + [f"unexpected header {header!r} in {path.name}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = int(settings["replicates"])
    if data.shape[0] != n or not np.array_equal(data[:, 0], np.arange(n)):
        return problems + [f"{path.name} has {data.shape[0]} rows, expected replicates 0..{n - 1}"]
    trunc, timechange = data[:, 1], data[:, 2]
    x0 = float(settings["x0"])
    if not (np.all(trunc >= x0) and np.all(timechange >= x0)):
        problems.append(f"a sample lies below x0 = {x0}")
    ks = ks_2samp(trunc, timechange)
    if not ks.pvalue > 0.01:
        problems.append(f"scipy ks_2samp p = {ks.pvalue!r} <= 0.01")
    lab_d = read_summary(out)["weak-agree-ks-d"]
    if not abs(ks.statistic - lab_d) <= 1e-12:
        problems.append(f"scipy D = {ks.statistic!r} differs from the lab's {lab_d!r}")
    return problems


def check_ladder(out: Path, settings: dict[str, str], master: int, exit_code: int) -> list[str]:
    problems = _exit_problems(exit_code)
    summary = read_summary(out)
    if summary["ladder-monotone-violations"] != 0.0:
        problems.append(f"{summary['ladder-monotone-violations']:g} ladder violations, expected 0")
    if summary["replicates-checked"] != float(settings["replicates"]):
        problems.append(
            f"replicates-checked {summary['replicates-checked']:g}, "
            f"expected {settings['replicates']}"
        )
    return problems


CHECKS = {
    "grid-lab": check_grid_lab,
    "weak-agree-wide": check_weak_agree,
    "ladder-deep": check_ladder,
}
