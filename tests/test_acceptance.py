"""Acceptance gate: every criterion at its stated tolerance, one line each.

These are the full-scale checks; the per-module test files carry the fast
unit coverage.  The four slowest (c04, c07, c08, c09) carry the ``slow``
marker, so ``pytest -m "not slow"`` gives a quick loop without them.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from references import clock_roundtrip_residual, solve_path, sup_gap
from stable_sde_lab import (
    ConstantPhi,
    ShiftedArctanPhi,
    Clock,
    StableParams,
    build_ladder,
    invert_clock,
    ks_two_sample,
    ladder_violations,
    nonuniqueness_demo,
    parse_phi,
    sample_exact_increment,
    sample_truncated_path,
    scaling_law_check,
    solve_truncated,
)
from stable_sde_lab.harness import load_config, parse_config_text, run_experiment
from stable_sde_lab.seeding import replicate_rng

ARCTAN = ShiftedArctanPhi(2.0, 0.6366)
MASTER_SEEDS = tuple(range(101, 111))


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if passed else 'FAIL'}: {detail}")


def test_c01_comparison_invariant_zero_violations():
    start = time.perf_counter()
    params = StableParams.default(0.7)
    cutoffs = (0.1, 0.03, 0.01, 0.003, 0.001)
    violations = 0
    for r in range(1000):
        rng = replicate_rng(20_260_808, r, "acceptance-ladder")
        ladder = build_ladder(ARCTAN, 0.0, params, 1.0, cutoffs, rng)
        violations += ladder_violations(ladder)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    report(1, ok, f"{violations} violations over 1000 replicates in {elapsed:.1f}s (< 30s)")
    assert violations == 0
    assert elapsed < 30.0


def test_c02_linearity_oracle():
    params = StableParams.default(0.5)
    phi = ConstantPhi(2.0)
    worst = 0.0
    for r in range(1000):
        rng = replicate_rng(20_260_808, r, "acceptance-linearity")
        path = sample_truncated_path(params, 1.0, 0.01, rng)
        if not len(path):
            continue
        sol = solve_truncated(phi, 1.0, path)
        expected = 2.0 * path.cumulative_sizes
        rel = np.abs((sol.post_values - 1.0) - expected) / expected
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-12
    report(2, ok, f"max relative error {worst:.3e} (<= 1e-12)")
    assert worst <= 1e-12


def test_c03_driver_fidelity():
    params = StableParams.default(0.5)
    rng = replicate_rng(20_260_808, 0, "acceptance-exact-increments")
    z = sample_exact_increment(params, 1.0, rng, size=100_000)
    probe = np.exp(-z)
    gap = abs(probe.mean() - math.exp(-1.0))
    band = 3.0 * probe.std(ddof=1) / math.sqrt(probe.size)
    exact_ok = gap < band

    eps = 0.1
    integral, quad_err = quad(
        lambda h: (1.0 - np.exp(-h)) * params.c * h ** (-1.5), eps, np.inf
    )
    assert quad_err < 1e-8
    target = math.exp(-integral)
    rng = replicate_rng(20_260_808, 1, "acceptance-truncated-laplace")
    n = 20_000
    trunc_probe = np.array(
        [math.exp(-sample_truncated_path(params, 1.0, eps, rng).total) for _ in range(n)]
    )
    trunc_gap = abs(trunc_probe.mean() - target)
    trunc_band = 3.0 * trunc_probe.std(ddof=1) / math.sqrt(n)
    trunc_ok = trunc_gap < trunc_band

    report(
        3,
        exact_ok and trunc_ok,
        f"exact |bias|={gap:.2e} (< {band:.2e}); truncated |bias|={trunc_gap:.2e} "
        f"(< {trunc_band:.2e})",
    )
    assert exact_ok
    assert trunc_ok


@pytest.mark.slow
def test_c04_weak_agreement_across_seeds():
    from stable_sde_lab.harness import _solve_replicate_ladders, _timechange_samples

    start = time.perf_counter()
    alpha, eps, n = 0.4, 1e-3, 5000
    passes = 0
    p_values = []
    for master in MASTER_SEEDS:
        # X at T = 1 from x0 = 0 on both sides; the time-change drivers start
        # on [0, 2] and are extended until their clock passes 1.
        cfg = parse_config_text(
            f"experiment = weak-agree\nalpha = {alpha}\nphi = shifted-arctan(2,0.6366)\n"
            f"x0 = 0\nT = 1\ncutoffs = {eps}\nreplicates = {n}\nseed = {master}\n"
        )
        assert cfg.phi_object() == ARCTAN
        xa = _solve_replicate_ladders(cfg, "weak-agree-truncation", cfg.cutoffs)[0][:, 0]
        xb = _timechange_samples(cfg, "weak-agree-timechange")
        p = ks_two_sample(xa, xb).p_value
        p_values.append(p)
        passes += p > 0.01
    elapsed = time.perf_counter() - start
    ok = passes >= 9 and elapsed < 300.0
    report(
        4,
        ok,
        f"{passes}/10 seeds with KS p > 0.01 (min p {min(p_values):.4f}) "
        f"in {elapsed:.0f}s (< 300s)",
    )
    assert passes >= 9
    assert elapsed < 300.0


def test_c05_clock_identities():
    rng = np.random.default_rng(515)
    families = [
        lambda: ConstantPhi(rng.uniform(0.2, 5.0)),
        lambda: ShiftedArctanPhi(rng.uniform(0.5, 4.0), rng.uniform(0.0, 2.0)),
        lambda: parse_phi(f"soft-ramp({rng.uniform(0.2, 2.0):.6g},{rng.uniform(0.0, 3.0):.6g})"),
    ]
    worst = 0.0
    for k in range(1000):
        alpha = float(rng.uniform(0.15, 0.9))
        params = StableParams.default(alpha)
        phi = families[k % 3]()
        path = sample_truncated_path(
            params, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.005, 0.1)), rng
        )
        x = float(rng.uniform(-1.0, 2.0))
        worst = max(worst, clock_roundtrip_residual(phi, x, path, alpha))
    residual_ok = worst <= 1e-9

    params = StableParams.default(0.5)
    path = sample_truncated_path(params, 1.0, 0.01, np.random.default_rng(5))
    clock = Clock(*solve_path(ARCTAN, 0.0, path, 0.5)[1:])
    exact_at_breakpoints = all(
        invert_clock(clock, float(v)) == float(u)
        for u, v in zip(clock.breakpoints[:-1], clock.values[:-1])
    )
    unit = Clock(*solve_path(ConstantPhi(1.0), 0.0, path, 0.5)[1:])
    unit_bitlevel = all(invert_clock(unit, t) == t for t in np.linspace(0.0, 0.999, 333))

    ok = residual_ok and exact_at_breakpoints and unit_bitlevel
    report(
        5,
        ok,
        f"max roundtrip residual {worst:.2e} (<= 1e-9); breakpoint inversion exact: "
        f"{exact_at_breakpoints}; unit-slope bit-level: {unit_bitlevel}",
    )
    assert residual_ok
    assert exact_at_breakpoints
    assert unit_bitlevel


def test_c06_pathwise_coupling_decay():
    alpha, horizon, n = 0.1, 30.0, 500
    params = StableParams.default(alpha)
    ladder = (0.1, 0.05, 0.025, 0.0125, 0.00625)
    medians = []
    for j, eps in enumerate(ladder):
        gaps = np.empty(n)
        for r in range(n):
            rng = replicate_rng(20_260_808, r, f"acceptance-couple-{j}")
            coarse, fine = build_ladder(ARCTAN, 0.0, params, horizon, (eps, eps / 2), rng).solutions
            gaps[r] = sup_gap(fine, coarse)
        medians.append(float(np.median(gaps)))
    non_increasing = all(b <= a for a, b in zip(medians, medians[1:]))
    decay = medians[-1] / medians[0]
    ok = non_increasing and decay < 0.1
    report(
        6,
        ok,
        "medians " + ", ".join(f"{m:.4f}" for m in medians) + f"; final/first {decay:.3f} (< 0.1)",
    )
    assert non_increasing
    assert decay < 0.1


@pytest.mark.slow
def test_c07_counterexample_scaling_across_seeds():
    passes = 0
    p_values = []
    for master in MASTER_SEEDS:
        rep = scaling_law_check(
            0.5,
            0.5,
            1.0,
            2.0,
            5000,
            replicate_rng(master, 0, "acceptance-scaling"),
            m_per_unit=10_000,
            seed=master,
        )
        p_values.append(rep.p_value)
        passes += rep.p_value > 0.01
    ok = passes >= 9
    report(7, ok, f"{passes}/10 seeds with KS p > 0.01 (min p {min(p_values):.4f})")
    assert passes >= 9


@pytest.mark.slow
def test_c08_nonuniqueness():
    rep = nonuniqueness_demo(
        0.5,
        0.5,
        4.0,
        2000,
        replicate_rng(20_260_808, 0, "acceptance-nonuniqueness"),
        m_per_unit=10_000,
    )
    ok = rep.zero_solution_residual == 0.0 and rep.positive_fraction >= 0.99
    report(
        8,
        ok,
        f"zero-solution residual {rep.zero_solution_residual}; positive fraction "
        f"{rep.positive_fraction:.4f} (>= 0.99) at coverage {rep.coverage:.3f}",
    )
    assert rep.zero_solution_residual == 0.0
    assert rep.positive_fraction >= 0.99


@pytest.mark.slow
def test_c09_recovered_driver_law_across_seeds():
    # The runs of the driver-law check are the non-uniqueness demo's: one
    # pass gives its KS row and the demo's invariants on every seed.
    passes = 0
    coverages = []
    p_values = []
    zero_residuals = []
    positive_fractions = []
    for master in MASTER_SEEDS:
        demo = nonuniqueness_demo(
            0.5,
            0.5,
            4.0,
            2000,
            replicate_rng(master, 0, "acceptance-driver-law"),
            m_per_unit=10_000,
            seed=master,
        )
        rep = demo.driver_law
        p_values.append(rep.p_value)
        coverages.append(rep.coverage)
        zero_residuals.append(demo.zero_solution_residual)
        positive_fractions.append(demo.positive_fraction)
        passes += rep.p_value > 0.01
    coverage_ok = min(coverages) >= 0.8
    zero_ok = all(r == 0.0 for r in zero_residuals)
    positive_ok = min(positive_fractions) >= 0.99
    ok = passes >= 8 and coverage_ok and zero_ok and positive_ok
    report(
        9,
        ok,
        f"{passes}/10 seeds with KS p > 0.01 (min p {min(p_values):.4f}); "
        f"min coverage {min(coverages):.3f} (>= 0.8); zero-solution residuals "
        f"{sorted(set(zero_residuals))} (== 0); min positive fraction "
        f"{min(positive_fractions):.4f} (>= 0.99)",
    )
    assert passes >= 8
    assert coverage_ok
    assert zero_ok
    assert positive_ok


# The criterion-10 configs, one file each.  CI runs the same files against the
# pull request's base commit and compares the artifacts byte for byte.
C10_CONFIGS = sorted((Path(__file__).parent / "c10").glob("*.cfg"))


def test_c10_byte_identical_determinism(tmp_path):
    assert len(C10_CONFIGS) == 16
    all_ok = True
    for path in C10_CONFIGS:
        name = path.stem
        first = run_experiment(load_config(path), out_dir=str(tmp_path / f"{name}-a"))
        second = run_experiment(load_config(path), out_dir=str(tmp_path / f"{name}-b"))
        for fa, fb in zip(sorted(first.artifacts), sorted(second.artifacts)):
            if open(fa, "rb").read() != open(fb, "rb").read():
                all_ok = False
    report(
        10, all_ok, f"byte-identical artifacts across reruns for {len(C10_CONFIGS)} configs"
    )
    assert all_ok
