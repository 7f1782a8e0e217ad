import ast
import importlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stable_sde_lab
from references import solve_path, sup_gap, x_at
from stable_sde_lab import (
    StableParams,
    ladder_violations,
    sample_truncated_path,
    solve_ladders,
    solve_truncated,
    thin_path,
)
from stable_sde_lab import SamplerIntegrityError, cli, counterexample, driver, harness, timechange
from stable_sde_lab.cli import main as cli_main
from stable_sde_lab.harness import (
    EXIT_CONFIG,
    EXIT_CRASH,
    EXIT_INVARIANT,
    EXIT_PASS,
    EXIT_STATISTICAL,
    ConfigError,
    ExperimentConfig,
    SummaryRow,
    _SOLVE_KEYS,
    _build_replicate_ladder,
    _couple_gaps,
    _couple_levels,
    _exit_code,
    _solve_replicate_ladders,
    _timechange_samples,
    load_config,
    parse_config_text,
    run_experiment,
)
from stable_sde_lab.seeding import (
    _derive_seeds,
    _seed_words,
    derive_seed,
    replicate_rng,
    replicate_rngs,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7, "driver") == derive_seed(42, 7, "driver")

    def test_components_all_matter(self):
        base = derive_seed(42, 7, "driver")
        assert derive_seed(43, 7, "driver") != base
        assert derive_seed(42, 8, "driver") != base
        assert derive_seed(42, 7, "resample") != base

    def test_no_collisions_over_a_million_triples(self):
        rng = np.random.default_rng(0)
        masters = rng.integers(0, 2**63, size=1_000_000)
        reps = rng.integers(0, 10_000, size=1_000_000)
        tags = ("driver", "resample", "test")
        seen = {
            derive_seed(int(m), int(r), tags[i % 3])
            for i, (m, r) in enumerate(zip(masters, reps))
        }
        assert len(seen) == 1_000_000

    def test_stream_tags_separate_stages(self):
        # Replicate k's driver draw must not depend on how other streams are
        # consumed: the tag pins the stream, the index pins the replicate.
        a = replicate_rng(5, 3, "driver").random(4)
        replicate_rng(5, 3, "other-stage").random(1000)
        b = replicate_rng(5, 3, "driver").random(4)
        assert np.array_equal(a, b)


_SEED64 = st.integers(0, 2**64 - 1)


class TestDeriveSeeds:
    """The seeds of a whole range in one pass are derive_seed's, bit for bit."""

    @staticmethod
    def assert_reference_seeds(master, replicates, tag):
        seeds = _derive_seeds(master, replicates, tag)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(master, r, tag) for r in replicates]

    @pytest.mark.parametrize("master", [0, 1, 2**63, 2**64 - 2, 2**64 - 1])
    @pytest.mark.parametrize(
        "replicates",
        [range(0), range(0, 100), range(7, 50), range(90, 3, -7), range(2**64 - 5, 2**64)],
    )
    def test_edges(self, master, replicates):
        self.assert_reference_seeds(master, replicates, "weak-agree-timechange")

    @given(
        master=st.one_of(_SEED64, st.integers(2**64 - 2**10, 2**64 - 1)),
        start=st.one_of(st.integers(0, 2**40), st.integers(2**64 - 2**10, 2**64 - 64)),
        count=st.integers(0, 64),
        tag=st.one_of(st.sampled_from(["", "ladder-driver"]), st.text(min_size=50, max_size=400)),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_ranges(self, master, start, count, tag):
        self.assert_reference_seeds(master, range(start, start + count), tag)


class TestReplicateRngs:
    """replicate_rngs gives the generators that replicate_rng gives, in one pass."""

    @staticmethod
    def assert_reference_states(master, replicates, tag):
        rngs = list(replicate_rngs(master, replicates, tag))
        assert len(rngs) == len(replicates)
        for r, rng in zip(replicates, rngs):
            assert rng.bit_generator.state == replicate_rng(master, r, tag).bit_generator.state

    @pytest.mark.parametrize("master", [0, 2**63, 2**64 - 1])
    def test_states_equal_the_reference(self, master):
        self.assert_reference_states(master, range(3, 90), "ladder-driver")

    @given(
        master=_SEED64,
        start=st.integers(0, 2**40),
        count=st.integers(0, 12),
        tag=st.sampled_from(["", "weak-agree-truncation", "weak-agree-timechange"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_states_equal_the_reference_at_drawn_seeds(self, master, start, count, tag):
        self.assert_reference_states(master, range(start, start + count), tag)

    # numpy hashes a seed below 2**32 as one entropy word, a larger one as two.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_seed_words_at_edge_seeds(self, seed):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert _seed_words(np.array([seed], np.uint64)).tobytes() == want.tobytes()

    @given(st.lists(_SEED64, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_seed_words_at_drawn_seeds(self, seeds):
        want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
        assert _seed_words(np.array(seeds, np.uint64)).tobytes() == np.array(want).tobytes()

    def test_generators_are_distinct(self):
        # Drawn from out of order, and again after other generators of the
        # call have drawn, each generator still follows its own stream.
        params = StableParams.default(0.4)
        master, tag, replicates = 11, "weak-agree-timechange", range(5, 13)
        rngs = list(replicate_rngs(master, replicates, tag))
        refs = [replicate_rng(master, r, tag) for r in replicates]
        for i in (3, 0, 7, 3, 5, 1, 0, 2, 6, 4, 7):
            horizon = 1.0 + i
            got = sample_truncated_path(params, horizon, 0.01, rngs[i])
            want = sample_truncated_path(params, horizon, 0.01, refs[i])
            assert got.sizes.tobytes() == want.sizes.tobytes()
            got = driver.extend_truncated_path(params, got, 2.0 * horizon, rngs[i])
            want = driver.extend_truncated_path(params, want, 2.0 * horizon, refs[i])
            assert got.times.tobytes() == want.times.tobytes()
            assert got.sizes.tobytes() == want.sizes.tobytes()
        for rng, ref in zip(rngs, refs):
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_only_the_reference_spawns(self):
        (rng,) = replicate_rngs(3, range(1), "tag")
        with pytest.raises(TypeError):
            rng.spawn(1)
        assert len(replicate_rng(3, 0, "tag").spawn(2)) == 2

    def test_importing_the_lab_loads_no_numpy_random(self):
        # numpy.random is loaded when the first stream is drawn, not on import.
        src = str(Path(stable_sde_lab.__file__).resolve().parents[1])
        code = (
            "import sys, stable_sde_lab, stable_sde_lab.harness, stable_sde_lab.cli; "
            "sys.exit('numpy.random' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config_text("experiment = ladder-monotone\nseed = 9\n")
        assert cfg.experiment == "ladder-monotone"
        assert cfg.seed == 9
        assert cfg.alpha == 0.7  # experiment default
        assert cfg.cutoffs == (0.1, 0.03, 0.01, 0.003, 0.001)

    def test_overrides_and_comments(self):
        text = """
        # comparison experiment
        experiment = ladder-monotone
        alpha = 0.3
        phi = constant(2)
        cutoffs = 0.01, 0.001
        replicates = 64
        T = 2.0
        """
        cfg = parse_config_text(text)
        assert cfg.alpha == 0.3
        assert cfg.phi == "constant(2)"
        assert cfg.cutoffs == (0.01, 0.001)
        assert cfg.replicates == 64
        assert cfg.horizon == 2.0

    def test_range_edges_are_valid(self):
        # x0 may sit on the overflow guard; a coverage or a decay ratio of 1 can be met.
        assert parse_config_text("experiment = ladder-monotone\nx0 = 1e300\n").x0 == 1e300
        cfg = parse_config_text("experiment = uniqueness-couple\ncouple_decay_max = 1\n")
        assert cfg.couple_decay_max == 1.0
        cfg = parse_config_text("experiment = counterexample\nmin_coverage = 1\n")
        assert cfg.min_coverage == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("experiment = weak-agree\nalpa = 0.5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("experiment = weak-agree\nalpha = 0.5\nalpha = 0.6\n")

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config_text("alpha = 0.5\n")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment = frobnicate\n")

    def test_domain_violations_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment = weak-agree\nalpha = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config_text("experiment = weak-agree\ncutoffs = 0.001, 0.01\n")
        with pytest.raises(ConfigError):
            parse_config_text("experiment = weak-agree\nreplicates = zero\n")

    def test_weak_agree_takes_one_cutoff(self):
        assert parse_config_text("experiment = weak-agree\n").cutoffs == (0.001,)
        assert parse_config_text(
            "experiment = weak-agree\ncutoffs = 0.01\n"
        ).cutoffs == (0.01,)
        with pytest.raises(ConfigError, match="one cutoff"):
            parse_config_text("experiment = weak-agree\ncutoffs = 0.01, 0.001\n")

    def test_threads_must_be_one(self):
        # Thread use is fixed per experiment; existing configs may still say threads = 1.
        assert parse_config_text("experiment = weak-agree\nthreads = 1\n")
        for value in ("2", "0"):
            with pytest.raises(ConfigError, match="fixed per experiment"):
                parse_config_text(f"experiment = weak-agree\nthreads = {value}\n")

    def test_seed_must_be_a_64_bit_word(self):
        # Out of range, a seed aliased one in range: -1 drew the streams of
        # 2**64 - 1, and 2**64 + 1 those of 1.
        for seed in (0, 2**64 - 1):
            assert parse_config_text(f"experiment = weak-agree\nseed = {seed}\n").seed == seed
        for seed in (-1, 2**64, 2**64 + 1):
            with pytest.raises(ConfigError, match="seed must lie in"):
                parse_config_text(f"experiment = weak-agree\nseed = {seed}\n")

    @pytest.mark.parametrize(
        "experiment, accepted",
        [("ladder-monotone", True), ("weak-agree", False), ("uniqueness-couple", False)],
    )
    def test_jump_budget_counts_what_is_sampled(self, experiment, accepted):
        # About 0.75 * 2**20 expected jumps on [0, 1] at this cutoff; the
        # time-change drivers of weak-agree run on [0, 2], and the couple
        # samples at eps/2, which at alpha = 1/2 gives sqrt(2) times as many.
        params = StableParams.default(0.5)
        eps = (0.75 * harness._EXTENSION_EVENTS / (params.c / params.alpha)) ** -2.0
        text = f"experiment = {experiment}\nalpha = 0.5\nT = 1\ncutoffs = {eps!r}\n"
        if accepted:
            assert parse_config_text(text).cutoffs == (eps,)
        else:
            with pytest.raises(ConfigError, match="jumps per driver"):
                parse_config_text(text)

    def test_counterexample_grid_steps_round_like_the_checks(self):
        # round(199 * 0.5) = round(99.5) = 100 steps, as the checks count them.
        cfg = parse_config_text("experiment = counterexample\ngrid_m = 199\nT = 0.5\n")
        assert round(cfg.grid_m * cfg.horizon) == 100

    def test_transposed_exponents_cannot_slip_through(self):
        # beta is only meaningful for the counterexample; a stray beta key is
        # still validated against (0, 1).
        with pytest.raises(ConfigError):
            parse_config_text("experiment = counterexample\nbeta = 1.2\n")


class TestExitCodes:
    def test_classification(self):
        ok = SummaryRow("a", 1.0, 0.0, True, "invariant")
        stat_bad = SummaryRow("b", 0.0, 0.01, False, "statistical")
        inv_bad = SummaryRow("c", 1.0, 0.0, False, "invariant")
        assert _exit_code((ok,)) == EXIT_PASS
        assert _exit_code((ok, stat_bad)) == EXIT_STATISTICAL
        assert _exit_code((ok, stat_bad, inv_bad)) == EXIT_INVARIANT


C10 = Path(__file__).parent / "c10"


def _run(text, tmp_path, name):
    cfg = parse_config_text(text)
    return run_experiment(cfg, out_dir=str(tmp_path / name))


def _record_blocks(monkeypatch, budget):
    """Set the jump budget; the path lengths of each solve_ladders call, in order."""
    monkeypatch.setattr(harness, "_BLOCK_JUMPS", budget)
    calls = []

    def recording(phi, x0, sizes, offsets, *args):
        calls.append(np.diff(offsets))
        return solve_ladders(phi, x0, sizes, offsets, *args)

    monkeypatch.setattr(harness, "solve_ladders", recording)
    return calls


def _assert_every_block_edge(calls, budget):
    # Three blocks or more; a replicate with no jumps; a block of several
    # replicates that fills the budget exactly; a replicate over it, alone.
    assert len(calls) >= 3
    assert any((lengths == 0).any() for lengths in calls)
    assert any(lengths.size > 1 and lengths.sum() == budget for lengths in calls)
    assert any(lengths.size == 1 and lengths[0] > budget for lengths in calls)
    assert all(lengths.size == 1 or lengths.sum() <= budget for lengths in calls)


def _fails_alone(cfg, replicate):
    try:
        with np.errstate(over="ignore"):
            _build_replicate_ladder(cfg, replicate)
    except FloatingPointError:
        return True
    return False


class TestExperiments:
    def test_strong_construct_smoke(self, tmp_path):
        result = _run(
            "experiment = strong-construct\nreplicates = 4\nseed = 3\n"
            "cutoffs = 0.1, 0.01\n",
            tmp_path,
            "strong",
        )
        assert result.exit_code == EXIT_PASS
        names = {row.name for row in result.rows}
        assert "ladder-monotone-violations" in names
        assert "replay-determinism" in names
        ladder_csv = next(a for a in result.artifacts if a.endswith("ladder.csv"))
        assert open(ladder_csv).readline().strip() == "eps,t,x"
        summary = next(a for a in result.artifacts if a.endswith("summary.csv"))
        assert open(summary).readline().strip() == "name,value,threshold,pass"
        solution_csv = next(a for a in result.artifacts if a.endswith("solution.csv"))
        assert open(solution_csv).readline().strip() == "t,x_pre,x_post"

    def test_ladder_monotone_smoke(self, tmp_path):
        result = _run(
            "experiment = ladder-monotone\nreplicates = 50\nseed = 1\n",
            tmp_path,
            "ladder",
        )
        assert result.exit_code == EXIT_PASS

    def test_weak_agree_smoke(self, tmp_path):
        result = _run(
            "experiment = weak-agree\nreplicates = 400\nseed = 2\n",
            tmp_path,
            "weak",
        )
        assert result.exit_code == EXIT_PASS
        row = next(r for r in result.rows if r.name == "weak-agree-ks-p")
        assert row.value > 0.01

    def test_uniqueness_couple_smoke(self, tmp_path):
        result = _run(
            "experiment = uniqueness-couple\nreplicates = 150\nseed = 4\n",
            tmp_path,
            "couple",
        )
        assert result.exit_code == EXIT_PASS

    @pytest.mark.parametrize("experiment", ["strong-construct", "ladder-monotone"])
    def test_violations_name_the_first_replicate(self, tmp_path, monkeypatch, experiment):
        # The kernel reports violations on replicates 2 and 3 only.
        real = harness.solve_ladders

        def violating(*args):
            final, guard_hits, violations, gaps = real(*args)
            violations[2:] = 1
            return final, guard_hits, violations, gaps

        monkeypatch.setattr(harness, "solve_ladders", violating)
        text = f"experiment = {experiment}\nreplicates = 4\nseed = 3\n"
        result = _run(text, tmp_path, experiment)
        row = next(r for r in result.rows if r.name == "ladder-monotone-violations")
        assert row.value == 2.0 and not row.passed
        seed = derive_seed(3, 2, "ladder-driver")
        assert row.detail == f"first violation at replicate 2 (seed {seed})"
        assert result.exit_code == EXIT_INVARIANT

    def test_uniqueness_couple_near_the_guard_is_inconclusive(self, tmp_path):
        # From x0 = 1e300 every jump rounds back to x0 (1e300 + 4 * dz ==
        # 1e300), so every sup-distance is 0 and the decay ratio is 0/0.
        result = _run(
            "experiment = uniqueness-couple\nx0 = 1e300\nreplicates = 20\n",
            tmp_path,
            "couple-guard",
        )
        rows = {r.name: r for r in result.rows}
        assert rows["couple-medians-non-increasing"].detail == "medians: 0, 0, 0, 0, 0"
        decay = rows["couple-final-over-first"]
        assert np.isnan(decay.value) and decay.passed
        assert decay.detail == "inconclusive: first median is 0"
        assert result.exit_code == EXIT_PASS

    def test_counterexample_smoke(self, tmp_path):
        result = _run(
            "experiment = counterexample\nreplicates = 1000\ngrid_m = 400\n"
            "T = 4.0\nseed = 5\n",
            tmp_path,
            "ce",
        )
        assert result.exit_code == EXIT_PASS
        replay = next(r for r in result.rows if r.name == "sde-replay-relative-residual")
        assert replay.detail.startswith("replicate ")
        assert "of stream 'counterexample-driver-law' (stream seed " in replay.detail
        report = tmp_path / "ce" / "counterexample_report.csv"
        header = report.read_text().splitlines()[0]
        assert header == "check,statistic,p_value,coverage,n,alpha,beta,grid_m,seed"

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_corrupted_run_fails_both_invariants(self, tmp_path, monkeypatch):
        # One worker, so runs are made in spawn order and the second one is
        # replicate 1.  After a clean first run, its driver values are scaled
        # by 1e-300 and its last one, which the clock never reads, is made
        # the largest double: the last recovered-noise increment overflows to
        # inf, so the zero residual (0 * inf) is NaN and the replay residual
        # inf, and both must reach the rows.  (An inf driver value is a
        # sampler failure.)
        monkeypatch.setattr(counterexample.os, "sched_getaffinity", lambda pid: {0})
        real = counterexample._run_outcome
        calls = []

        def corrupt_second(alpha, beta, times, ds, z, *args):
            calls.append(None)
            if len(calls) == 2:
                z = z * 1e-300
                z[-1] = np.finfo(float).max
            return real(alpha, beta, times, ds, z, *args)

        monkeypatch.setattr(counterexample, "_run_outcome", corrupt_second)
        result = _run(
            "experiment = counterexample\nreplicates = 1000\ngrid_m = 100\n"
            "T = 4.0\nseed = 5\n",
            tmp_path,
            "ce-corrupt",
        )
        rows = {r.name: r for r in result.rows}
        zero = rows["zero-solution-residual"]
        replay = rows["sde-replay-relative-residual"]
        assert np.isnan(zero.value) and not zero.passed
        assert replay.value == np.inf and not replay.passed
        assert replay.detail.startswith("replicate 1 of ")
        assert result.exit_code == EXIT_INVARIANT

    def test_counterexample_requires_enough_replicates(self, tmp_path):
        with pytest.raises(ValueError):
            _run(
                "experiment = counterexample\nreplicates = 10\ngrid_m = 400\n",
                tmp_path,
                "ce-small",
            )

    def test_byte_identical_reruns(self, tmp_path):
        text = "experiment = weak-agree\nreplicates = 120\nseed = 11\n"
        a = _run(text, tmp_path, "rerun-a")
        b = _run(text, tmp_path, "rerun-b")
        for fa, fb in zip(sorted(a.artifacts), sorted(b.artifacts)):
            assert open(fa, "rb").read() == open(fb, "rb").read()

    def test_block_boundaries(self, monkeypatch):
        # Every replicate's row of the blocked kernel equals its own ladder
        # from the scalar solver: at about 1,000 jumps a replicate, all in one
        # block, and at up to 8 jumps a replicate, in blocks of at most 7.
        n = 87
        for text, budget in [("", None), ("cutoffs = 0.5, 0.1, 0.03\n", 7)]:
            cfg = parse_config_text(
                f"experiment = ladder-monotone\nreplicates = {n}\nseed = 6\n" + text
            )
            calls = _record_blocks(monkeypatch, budget or harness._BLOCK_JUMPS)
            final, guard_hits, violations, gaps = _solve_replicate_ladders(
                cfg, "ladder-driver", cfg.cutoffs
            )
            if budget:
                _assert_every_block_edge(calls, budget)
            else:
                assert len(calls) == 1
            assert final.shape == guard_hits.shape == (n, len(cfg.cutoffs))
            assert violations.shape == (n,) and gaps.shape == (n, 0)
            for r in range(n):
                ladder = _build_replicate_ladder(cfg, r)
                want = np.array([sol.final for sol in ladder.solutions])
                assert want.tobytes() == final[r].tobytes()
                assert [sol.guard_hits for sol in ladder.solutions] == guard_hits[r].tolist()
                assert ladder_violations(ladder) == violations[r]

    def test_weak_agree_truncation_side_equals_scalar_solve(self, tmp_path, monkeypatch):
        # At about 16 jumps a replicate, all in one block, and at up to 5
        # jumps a replicate, in blocks of at most 4.
        n = 87
        for text, budget in [("", None), ("cutoffs = 0.1\n", 4)]:
            cfg = parse_config_text(
                f"experiment = weak-agree\nreplicates = {n}\nseed = 6\n" + text
            )
            calls = _record_blocks(monkeypatch, budget or harness._BLOCK_JUMPS)
            out = tmp_path / str(budget)
            run_experiment(cfg, out_dir=str(out))
            if budget:
                _assert_every_block_edge(calls, budget)
            else:
                assert len(calls) == 1
            samples = np.loadtxt(out / "weak_agree_samples.csv", delimiter=",", skiprows=1)
            params = StableParams.default(cfg.alpha)
            phi = cfg.phi_object()
            for r in range(n):
                rng = replicate_rng(cfg.seed, r, "weak-agree-truncation")
                path = sample_truncated_path(params, cfg.horizon, cfg.cutoffs[0], rng)
                assert samples[r, 1] == solve_truncated(phi, cfg.x0, path).final

    def test_nonfinite_phi_names_replicate_and_seed(self, tmp_path):
        # phi(10) = 1 + 1e308 * 10 overflows at the first jump of any replicate.
        for experiment, tag in [
            ("ladder-monotone", "ladder-driver"),
            ("uniqueness-couple", "couple-driver"),
        ]:
            text = f"experiment = {experiment}\nphi = soft-ramp(1,1e308)\nx0 = 10\nseed = 3\n"
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as info:
                _run(text, tmp_path, experiment)
            assert str(info.value).startswith(f"replicate 0 (seed {derive_seed(3, 0, tag)}): ")

    @pytest.mark.parametrize(
        "text, budget",
        [
            # Non-adjacent pairs.
            ("cutoffs = 0.1, 0.07, 0.02\nreplicates = 87\nseed = 6\n", None),
            # Up to 5 jumps a replicate, in blocks of at most 4.
            ("T = 1\ncutoffs = 0.1, 0.07, 0.02\nreplicates = 87\nseed = 6\n", 4),
            # The overflow guard clamps the states of both levels of a pair.
            ("phi = soft-ramp(1,1)\nx0 = 1e298\nreplicates = 30\nseed = 5\n", None),
        ],
        ids=["uneven", "edges", "guard"],
    )
    def test_couple_gaps_equal_scalar_sup_gaps(self, monkeypatch, text, budget):
        # The eps and eps/2 solutions of each replicate, solved one at a time
        # on thinnings of one base path at min(cutoffs) / 2.
        cfg = parse_config_text("experiment = uniqueness-couple\n" + text)
        calls = _record_blocks(monkeypatch, budget or harness._BLOCK_JUMPS)
        params = StableParams.default(cfg.alpha)
        phi = cfg.phi_object()
        want = []
        for r in range(cfg.replicates):
            rng = replicate_rng(cfg.seed, r, "couple-driver")
            base = sample_truncated_path(params, cfg.horizon, min(cfg.cutoffs) / 2.0, rng)
            want.append([
                sup_gap(
                    solve_truncated(phi, cfg.x0, thin_path(base, eps / 2.0)),
                    solve_truncated(phi, cfg.x0, thin_path(base, eps)),
                )
                for eps in cfg.cutoffs
            ])
        assert _couple_gaps(cfg).tobytes() == np.array(want).tobytes()
        if budget:
            _assert_every_block_edge(calls, budget)

    def test_couple_levels_are_not_halved_twice(self, monkeypatch):
        # The smallest eps whose half is positive: its half's half rounds to
        # 0, so the runner must solve the levels the config check passed.
        # Its drivers would hold about 6e33 jumps, so the jump budget is lifted.
        monkeypatch.setattr(harness, "_EXTENSION_EVENTS", math.inf)
        cfg = parse_config_text("experiment = uniqueness-couple\ncutoffs = 1e-323\n")
        solved = []

        def recording(cfg, tag, levels, pairs):
            solved.append((levels, pairs))
            return (np.zeros((0, 1)),) * 4

        monkeypatch.setattr(harness, "_solve_replicate_ladders", recording)
        _couple_gaps(cfg)
        assert solved == [((1e-323, 5e-324), [(1, 0)])]

    @given(
        cutoffs=st.lists(
            st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
            min_size=1,
            max_size=8,
            unique=True,
        ).map(lambda xs: sorted(xs, reverse=True))
    )
    def test_couple_levels_pair_each_cutoff_with_its_half(self, cutoffs):
        levels, pairs = _couple_levels(cutoffs)
        assert all(b < a for a, b in zip(levels, levels[1:]))
        assert levels[-1] == min(cutoffs) / 2.0
        assert len(pairs) == len(cutoffs)
        for eps, (half, full) in zip(cutoffs, pairs):
            assert (levels[half], levels[full]) == (eps / 2.0, eps)

    def test_blocks_hold_at_most_the_budget(self, monkeypatch):
        # A run of several blocks at the real budget: each holds whole
        # replicates, in order, up to the budget, and the next would overflow it.
        budget = harness._BLOCK_JUMPS
        calls = _record_blocks(monkeypatch, budget)
        cfg = parse_config_text((C10 / "couple-blocks.cfg").read_text())
        _couple_gaps(cfg)
        assert len(calls) >= 3
        assert sum(lengths.size for lengths in calls) == cfg.replicates
        assert all(lengths.size == 1 or lengths.sum() <= budget for lengths in calls)
        for lengths, following in zip(calls, calls[1:]):
            assert lengths.sum() + following[0] > budget

    # At the default budget the 40 replicates are one block, which stops at
    # replicate 30 at seed 1 (at 9 at seed 2, at 3 at seed 26), while the
    # first replicate that fails alone comes earlier.
    @pytest.mark.parametrize("seed", [1, 2, 26])
    def test_failure_names_the_first_failing_replicate(self, monkeypatch, seed):
        # phi overflows on many replicates, at event ranks out of replicate
        # order; a block stops at the first rank where one of its paths fails.
        cfg = parse_config_text(
            "experiment = ladder-monotone\nphi = soft-ramp(1,1e9)\nT = 5\n"
            f"cutoffs = 0.1, 0.01\nreplicates = 40\nseed = {seed}\n"
        )
        first = next(r for r in range(cfg.replicates) if _fails_alone(cfg, r))
        prefix = f"replicate {first} (seed {derive_seed(seed, first, 'ladder-driver')}): "
        messages = []
        for budget in (harness._BLOCK_JUMPS, 500):
            monkeypatch.setattr(harness, "_BLOCK_JUMPS", budget)
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as info:
                _solve_replicate_ladders(cfg, "ladder-driver", cfg.cutoffs)
            messages.append(str(info.value))
        # The replicate is solved alone, so the message does not depend on the
        # blocking: its path index is 0.
        assert messages[0] == messages[1]
        assert messages[0].startswith(prefix) and "(path 0, " in messages[0]


class TestGridRunNaming:
    """A failed grid run names its check, spawn index, stream tag and seed."""

    # NaN and inf both fail the driver check of the clock.
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "spawn_key, tag, run",
        [
            ((1, 3), "counterexample-scaling", "scaling-law t2=2 run 3"),
            ((0, 17), "counterexample-driver-law", "driver-law run 17"),
        ],
    )
    def test_failed_run_is_named(self, tmp_path, monkeypatch, capsys, value, spawn_key, tag, run):
        # The sampler returns a bad increment in the run of one spawned
        # stream of one tag: child 3 of the scaling check's second horizon,
        # or child 17 of the runs that the driver-law check and the
        # non-uniqueness demo share (the scaling check's first horizon has
        # a child (0, 17) too).
        real = driver.sample_exact_increment

        def sampler(params, dt, rng, size=None):
            out = real(params, dt, rng, size)
            seed_seq = rng.bit_generator.seed_seq
            if seed_seq.spawn_key == spawn_key and seed_seq.entropy == derive_seed(5, 0, tag):
                out[5] = value
            return out

        monkeypatch.setattr(driver, "sample_exact_increment", sampler)
        text = "experiment = counterexample\nreplicates = 1000\ngrid_m = 100\nseed = 5\n"
        with np.errstate(all="ignore"), pytest.raises(SamplerIntegrityError) as info:
            run_experiment(parse_config_text(text), str(tmp_path / "api"))
        assert str(info.value).startswith(
            f"stream '{tag}' (seed {derive_seed(5, 0, tag)}): {run}: "
        )
        cfg = tmp_path / "ce.cfg"
        cfg.write_text(text + f"out = {tmp_path / 'cli'}\n")
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert cli_main(["run", "--config", str(cfg)]) == EXIT_INVARIANT
        assert capsys.readouterr().err == f"invariant violation: {info.value}\n"


def _reference_marginal(phi, x0, params, eps, t_eval, rng):
    """X at t_eval by time change, one driver at a time: drawn, solved, extended.

    The driver is sampled on [0, 2 t_eval] and, while its clock ends at or
    before t_eval, extended to twice its horizon from the same generator and
    solved again; past harness._EXTENSION_EVENTS events, or 64 extensions,
    it raises RuntimeError.
    """
    path = sample_truncated_path(params, 2.0 * t_eval, eps, rng)
    for _ in range(64):
        states, _, _, values = solve_path(phi, x0, path, params.alpha)
        if values[-1] > t_eval:
            return x_at(states, values, t_eval)
        if len(path) > harness._EXTENSION_EVENTS:
            raise RuntimeError("past the events that may be extended")
        path = driver.extend_truncated_path(params, path, 2.0 * path.horizon, rng)
    raise RuntimeError("after 64 extensions")


def _recording(calls, real):
    """real, appending to calls at each call."""

    def call(*args):
        calls.append(None)
        return real(*args)

    return call


def _replay_states(master, tag, params, eps, drivers, budget):
    """Per replicate: its driver's jump count, and whether replaying it matches.

    A replay makes replicate_rng(master, r, tag) and draws the driver from
    it with the one-driver _jump_blocks; it matches when it draws the rows
    of a block pass over replicate_rngs and leaves the generator in the state
    the block pass left replicate_rngs's generator r.
    """
    rngs = list(replicate_rngs(master, range(drivers), tag))
    rows = []
    for _, times, sizes, offsets in driver._jump_blocks(params, 2.0, eps, rngs, budget):
        rows += [(times[a:b].tobytes(), sizes[a:b].tobytes()) for a, b in zip(offsets, offsets[1:])]
    counts, matches = [], []
    for r, (rng, (times, sizes)) in enumerate(zip(rngs, rows)):
        again = replicate_rng(master, r, tag)
        ((_, want_times, want_sizes, _),) = driver._jump_blocks(params, 2.0, eps, (again,), 0)
        counts.append(len(times) // 8)
        matches.append(
            (want_times.tobytes(), want_sizes.tobytes()) == (times, sizes)
            and again.bit_generator.state == rng.bit_generator.state
        )
    return counts, matches


class TestStreamReplay:
    """An extension replays its replicate's stream to where the block pass left it."""

    @given(
        master=st.integers(min_value=0, max_value=2**64 - 1),
        alpha=st.floats(min_value=0.1, max_value=0.9),
        # Up to about 60 jumps a driver, and none at all.
        eps=st.floats(min_value=0.005, max_value=50.0),
        drivers=st.integers(min_value=1, max_value=30),
        budget=st.one_of(
            st.just(0), st.integers(min_value=1, max_value=60), st.just(harness._BLOCK_JUMPS)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_replay_equals_the_block_pass(self, master, alpha, eps, drivers, budget):
        params = StableParams.default(alpha)
        _, matches = _replay_states(master, "weak-agree-timechange", params, eps, drivers, budget)
        assert all(matches)

    @pytest.mark.parametrize("budget", [0, 6, harness._BLOCK_JUMPS])
    def test_replay_at_the_block_edges(self, budget):
        # About 3.6 jumps a driver: drivers with none, and at a budget of 6
        # some over it, alone.
        params = StableParams.default(0.5)
        counts, matches = _replay_states(7, "ladder-driver", params, 0.1, 200, budget)
        assert all(matches)
        assert 0 in counts and max(counts) > 6


class TestTimeChangeSide:
    # At a sampler budget of 30 jumps, drivers of about 21 jumps are blocks
    # of one or two, and some are over the budget, alone.
    @pytest.mark.parametrize("budget", [None, 30])
    @pytest.mark.parametrize(
        "text, extended, empty",
        [
            ("replicates = 87\nseed = 6\n", 0, 0),
            # Clocks that end before T: their drivers are extended.
            ("phi = shifted-arctan(3,1)\nreplicates = 200\nseed = 3\n", 44, 0),
            # Jumps >= 3 only: drivers with no jump at all.
            ("phi = shifted-arctan(3,1)\ncutoffs = 3\nreplicates = 100\nseed = 5\n", 19, 45),
            # Drivers extended up to seven times.
            ("phi = soft-ramp(3,2)\nx0 = 1\ncutoffs = 0.05\nreplicates = 100\nseed = 77\n", 83, 1),
        ],
    )
    def test_equals_scalar_marginal(self, monkeypatch, text, extended, empty, budget):
        if budget:
            monkeypatch.setattr(harness, "_BLOCK_JUMPS", budget)
        cfg = parse_config_text("experiment = weak-agree\n" + text)
        tag = "weak-agree-timechange"
        params = StableParams.default(cfg.alpha)
        phi = cfg.phi_object()
        (eps,) = cfg.cutoffs

        def scalar(r):
            rng = replicate_rng(cfg.seed, r, tag)
            return _reference_marginal(phi, cfg.x0, params, eps, cfg.horizon, rng)

        got = _timechange_samples(cfg, tag)
        drivers = [
            sample_truncated_path(params, 2.0 * cfg.horizon, eps, replicate_rng(cfg.seed, r, tag))
            for r in range(cfg.replicates)
        ]
        assert sum(len(path) == 0 for path in drivers) == empty
        totals = [solve_path(phi, cfg.x0, p, cfg.alpha)[3][-1] for p in drivers]
        assert sum(total <= cfg.horizon for total in totals) == extended
        want = np.array([scalar(r) for r in range(cfg.replicates)])
        assert got.tobytes() == want.tobytes()

    # Drivers extended once or not at all, and drivers extended up to seven times.
    @pytest.mark.parametrize("budget", [None, 30])
    @pytest.mark.parametrize(
        "text",
        [
            "phi = shifted-arctan(3,1)\nreplicates = 200\nseed = 3\n",
            "phi = soft-ramp(3,2)\nx0 = 1\ncutoffs = 0.05\nreplicates = 100\nseed = 77\n",
        ],
    )
    def test_one_solve_per_driver_and_extension(self, monkeypatch, text, budget):
        # A driver is solved once as drawn, and once after each extension.
        if budget:
            monkeypatch.setattr(harness, "_BLOCK_JUMPS", budget)
        solves, extensions = [], []
        monkeypatch.setattr(
            harness, "solve_time_change", _recording(solves, harness.solve_time_change)
        )
        monkeypatch.setattr(
            harness, "_extend_jumps", _recording(extensions, harness._extend_jumps)
        )
        cfg = parse_config_text("experiment = weak-agree\n" + text)
        _timechange_samples(cfg, "weak-agree-timechange")
        assert extensions
        assert len(solves) == cfg.replicates + len(extensions)

    def test_events_are_checked_once_per_solve(self, monkeypatch):
        # An extended driver stays in arrays: solve_time_change checks the
        # events it solves, and nothing else checks them.
        solves, checks = [], []
        monkeypatch.setattr(
            harness, "solve_time_change", _recording(solves, harness.solve_time_change)
        )
        check = _recording(checks, driver._check_jumps)
        for module in (driver, timechange):
            monkeypatch.setattr(module, "_check_jumps", check)
        cfg = load_config(Path(__file__).parent / "c10" / "weak-multi.cfg")
        _timechange_samples(cfg, "weak-agree-timechange")
        assert len(solves) > cfg.replicates  # some drivers are extended
        assert len(checks) == len(solves)

    def test_one_solve_per_replicate_without_extension(self, tmp_path, monkeypatch):
        # The default phi's clocks all pass T on [0, 2T]: no driver is extended.
        calls = []
        real = harness.solve_time_change

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "solve_time_change", counting)
        result = _run("experiment = weak-agree\nreplicates = 300\nseed = 2\n", tmp_path, "w")
        assert result.exit_code == EXIT_PASS
        assert len(calls) == 300

    def test_nonpositive_slope_names_replicate_and_seed(self):
        # phi(x) = 1 + 1e308 * x is inf once x > 1.8, and inf**-alpha is a
        # slope of 0: the solve names the state where phi is not finite.
        # Replicate 0's driver stays below that.
        cfg = parse_config_text(
            "experiment = weak-agree\nphi = soft-ramp(1,1e308)\ncutoffs = 1\n"
            "replicates = 100\nseed = 0\n"
        )
        tag = "weak-agree-timechange"
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as info:
            _timechange_samples(cfg, tag)
        assert str(info.value).startswith(
            f"replicate 1 (seed {derive_seed(0, 1, tag)}): phi evaluated non-finite at state "
        )

    def test_uncovered_clock_names_replicate_and_seed(self, monkeypatch):
        # phi(x) = 1 + 1e300 * x: after a jump the clock all but stops, and
        # replicate 0's first jump comes after T.  A real extension would
        # sample about 2**64 jumps before giving up, so this one adds none.
        def no_new_jumps(params, times, sizes, horizon, new_horizon, eps, rng):
            return times, sizes

        monkeypatch.setattr(harness, "_extend_jumps", no_new_jumps)
        cfg = parse_config_text(
            "experiment = weak-agree\nphi = soft-ramp(1,1e300)\ncutoffs = 1\n"
            "replicates = 20\nseed = 4\n"
        )
        tag = "weak-agree-timechange"
        with pytest.raises(RuntimeError) as info:
            _timechange_samples(cfg, tag)
        assert str(info.value).startswith(
            f"replicate 1 (seed {derive_seed(4, 1, tag)}): time-change clock failed"
        )

    @pytest.mark.parametrize("covering", [63, 64])
    def test_the_63rd_extension_is_the_last_solved(self, monkeypatch, covering):
        # As above, but the extension numbered ``covering`` of each driver
        # drops every event: its clock then runs at phi(0)**-alpha = 1 and
        # passes T.  The 64th extension is drawn but never solved: the driver
        # fails.
        def no_new_jumps(params, times, sizes, horizon, new_horizon, eps, rng):
            if new_horizon == 2.0 * 2.0**covering:
                return times[:0], sizes[:0]
            return times, sizes

        monkeypatch.setattr(harness, "_extend_jumps", no_new_jumps)
        cfg = parse_config_text(
            "experiment = weak-agree\nphi = soft-ramp(1,1e300)\ncutoffs = 1\n"
            "replicates = 20\nseed = 4\n"
        )
        tag = "weak-agree-timechange"
        if covering == 63:
            assert np.isfinite(_timechange_samples(cfg, tag)).all()
            return
        with pytest.raises(RuntimeError) as info:
            _timechange_samples(cfg, tag)
        assert str(info.value) == (
            f"replicate 1 (seed {derive_seed(4, 1, tag)}): time-change clock failed "
            "to cover the evaluation time after 64 extensions"
        )

    def test_driver_growth_stops_at_the_event_budget(self, monkeypatch):
        # phi(x) = 1 + 1e100 * x: after a jump the clock all but stops, so
        # replicate 1's driver doubles without covering T until its events
        # pass the budget.  At the real budget that takes a driver of over a
        # million events and about 190 MB, so the test cuts the budget.
        budget = 300
        extended = []
        real = harness._extend_jumps

        def recording(params, times, *args):
            extended.append(times.size)
            return real(params, times, *args)

        monkeypatch.setattr(harness, "_EXTENSION_EVENTS", budget)
        monkeypatch.setattr(harness, "_extend_jumps", recording)
        cfg = parse_config_text(
            "experiment = weak-agree\nphi = soft-ramp(1,1e100)\ncutoffs = 1\n"
            "replicates = 20\nseed = 4\n"
        )
        tag = "weak-agree-timechange"
        with pytest.raises(RuntimeError) as info:
            _timechange_samples(cfg, tag)
        assert str(info.value).startswith(
            f"replicate 1 (seed {derive_seed(4, 1, tag)}): time-change clock failed"
        )
        assert f"past the {budget} that may be extended" in str(info.value)
        assert extended and max(extended) <= budget


# The smallest grid lab that the config check admits.
_SMALL_GRID = "T = 1\ngrid_m = 100\nreplicates = 1000\n"


class TestCLI:
    def test_run_round_trip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = ladder-monotone\nreplicates = 20\nseed = 8\n"
            f"out = {tmp_path / 'cli-out'}\n"
        )
        code = cli_main(["run", "--config", str(cfg)])
        assert code == EXIT_PASS
        assert (tmp_path / "cli-out" / "summary.csv").exists()

    def test_bad_config_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = ladder-monotone\nbogus = 1\n")
        assert cli_main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_file_exits_3(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_missing_config_flag_exits_3(self):
        assert cli_main(["run"]) == EXIT_CONFIG

    def test_removed_threads_flag_exits_3(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = ladder-monotone\nreplicates = 20\n")
        assert cli_main(["run", "--config", str(cfg), "--threads", "2"]) == EXIT_CONFIG

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
    def test_out_of_range_seed_exits_3(self, tmp_path, capsys, seed):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"experiment = weak-agree\nreplicates = 10\nout = {tmp_path / 'never'}\n"
        )
        assert cli_main(["run", "--config", str(cfg), "--seed", seed]) == EXIT_CONFIG
        assert "seed must lie in" in capsys.readouterr().err
        cfg.write_text(cfg.read_text() + f"seed = {seed}\n")
        assert cli_main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "never").exists()

    def test_help_exits_0(self, capsys):
        assert cli_main(["run", "--help"]) == EXIT_PASS
        assert "--config" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = weak-agree\nreplicates = 60\nseed = 1\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out_a)]) == EXIT_PASS
        assert (
            cli_main(
                ["run", "--config", str(cfg), "--out", str(out_b), "--seed", "2"]
            )
            == EXIT_PASS
        )
        a = (out_a / "weak_agree_samples.csv").read_bytes()
        b = (out_b / "weak_agree_samples.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize(
        "text",
        [
            # A coefficient that vanishes at 0 breaks the truncation solve.
            "experiment = weak-agree\nphi = power(0.5)\nreplicates = 10\n",
            "experiment = strong-construct\nphi = shifted-arctan(2)\n",
            "experiment = ladder-monotone\nphi = cubic(1)\n",
            "experiment = uniqueness-couple\nphi = constant(-1)\n",
            # uniqueness-couple also solves at eps/2, which rounds to 0 here.
            "experiment = uniqueness-couple\ncutoffs = 5e-324\nreplicates = 2\n",
            # More expected jumps per driver than the jump budget allows.
            "experiment = ladder-monotone\ncutoffs = 1e-300\nreplicates = 1\n",
            "experiment = ladder-monotone\ncutoffs = 1e-20\nreplicates = 1\n",
            # weak-agree would run only one of these cutoffs.
            "experiment = weak-agree\ncutoffs = 0.01, 0.001\nreplicates = 10\n",
            # The counterexample runs power(beta) from 0 and has no cutoffs.
            "experiment = counterexample\nphi = power(0.5)\n",
            "experiment = counterexample\ncutoffs = 0.1\n",
            "experiment = counterexample\nx0 = 1\n",
            "experiment = counterexample\nreplicates = 10\n",
            # Too few grid steps on [0, T] for the head fit; round(98.5) is 98.
            "experiment = counterexample\nT = 0.005\n",
            "experiment = counterexample\ngrid_m = 197\nT = 0.5\n",
            # Each experiment rejects a key it does not read.
            "experiment = ladder-monotone\ngrid_m = 5000\nbeta = 0.3\ncouple_decay_max = 0.5\n",
            "experiment = strong-construct\nks_p_threshold = 0.05\n",
            "experiment = weak-agree\nmin_coverage = 0.5\nreplicates = 10\n",
            "experiment = uniqueness-couple\nbeta = 0.5\n",
            "experiment = uniqueness-couple\ngrid_m = 1000\n",
            "experiment = counterexample\ncouple_decay_max = 0.5\n",
            # Thread use is not configurable.
            "experiment = ladder-monotone\nthreads = 2\n",
            "experiment = counterexample\nthreads = 0\n",
            # Non-finite values pass the comparisons that test for bad ones.
            "experiment = ladder-monotone\nT = nan\nreplicates = 5\n",
            "experiment = ladder-monotone\nT = inf\nreplicates = 5\n",
            "experiment = ladder-monotone\ncutoffs = nan\nreplicates = 5\n",
            "experiment = ladder-monotone\ncutoffs = inf, 0.01\nreplicates = 5\n",
            "experiment = ladder-monotone\nx0 = nan\nreplicates = 5\n",
            "experiment = weak-agree\nks_p_threshold = nan\nreplicates = 10\n",
            "experiment = uniqueness-couple\ncouple_decay_max = nan\n",
            "experiment = counterexample\nmin_coverage = inf\n",
            # The solvers clamp states above the overflow guard, so a start
            # above it breaks the ladder and the law of X.
            "experiment = ladder-monotone\nx0 = 1e301\nreplicates = 50\n",
            "experiment = strong-construct\nx0 = 1e308\nreplicates = 2\n",
            "experiment = weak-agree\nx0 = 1e301\nreplicates = 300\n",
            "experiment = uniqueness-couple\nx0 = 1e301\n",
            # A threshold outside its range decides its row whatever the samples.
            "experiment = counterexample\ngrid_m = 100\nT = 1\nks_p_threshold = -1\n"
            "min_coverage = -5\n",
            "experiment = counterexample\nks_p_threshold = 1\n",
            "experiment = weak-agree\nks_p_threshold = 2\nreplicates = 10\n",
            "experiment = weak-agree\nks_p_threshold = 0\nreplicates = 10\n",
            "experiment = uniqueness-couple\ncouple_decay_max = -3\n",
            "experiment = uniqueness-couple\ncouple_decay_max = 0\n",
            "experiment = counterexample\nmin_coverage = 1.5\n",
        ],
    )
    def test_inadmissible_config_exits_3(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + f"out = {tmp_path / 'never'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "never").exists()

    def test_counterexample_accepts_threads(self, tmp_path):
        cfg = tmp_path / "ce.cfg"
        cfg.write_text(
            "experiment = counterexample\nreplicates = 1000\ngrid_m = 400\n"
            f"T = 4.0\nseed = 5\nthreads = 1\nout = {tmp_path / 'ce'}\n"
        )
        assert cli_main(["run", "--config", str(cfg)]) == EXIT_PASS

    def test_nonfinite_phi_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(
            "experiment = ladder-monotone\nphi = soft-ramp(1,1e308)\nx0 = 10\nseed = 3\n"
            f"out = {tmp_path / 'out'}\n"
        )
        with np.errstate(over="ignore"):
            assert cli_main(["run", "--config", str(cfg)]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert f"replicate 0 (seed {derive_seed(3, 0, 'ladder-driver')}): " in err

    def test_nonfinite_phi_in_the_time_change_exits_2(self, tmp_path, capsys):
        # The truncation side passes at this seed; the time-change driver's
        # state passes 1.8, where phi(x) = 1 + 1e308 * x is inf.
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(
            "experiment = weak-agree\nphi = soft-ramp(1,1e308)\ncutoffs = 1\nreplicates = 1\n"
            f"seed = 1\nout = {tmp_path / 'out'}\n"
        )
        with np.errstate(over="ignore"):
            assert cli_main(["run", "--config", str(cfg)]) == EXIT_INVARIANT
        seed = derive_seed(1, 0, "weak-agree-timechange")
        err = capsys.readouterr().err
        assert f"replicate 0 (seed {seed}): phi evaluated non-finite at state " in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # phi(x0)**-alpha overflows: the clock's first slope is inf.
            (
                "phi = constant(5e-324)\nalpha = 0.9999999\nT = 1e-300\ncutoffs = 1e-6\n"
                "replicates = 5\nseed = 32\n",
                "first slope, phi(x0)**-alpha at x0 = 0.0, is inf, not positive and finite",
            ),
            # A driver passes 2**20 events before it can span T * phi(x0)**alpha.
            (
                "phi = piecewise-linear(-1:1e-300,0:1,1:1e300)\nx0 = 0.5\ncutoffs = 1e-6\n"
                "replicates = 1\nseed = 13\n",
                "past the 1048576 that may be extended",
            ),
            # 63 doublings of [0, 2T] fall short of T * phi(x0)**alpha.
            (
                "phi = shifted-arctan(1e-300,1e300)\nx0 = -0.0\nT = 1e-300\nalpha = 0.9\n"
                "cutoffs = 1e-300\nreplicates = 2\nseed = 4\n",
                "the span of the 63rd extension, the last one solved",
            ),
        ],
        ids=["slope-overflows", "too-many-events", "too-many-extensions"],
    )
    def test_time_change_certain_to_fail_exits_3(self, tmp_path, capsys, text, message):
        # Every driver of these configs would fail; they exited 4 with a
        # traceback before the config check.
        cfg = tmp_path / "never.cfg"
        cfg.write_text(f"experiment = weak-agree\n{text}out = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: phi = ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_inf_jump_size_exits_2(self, tmp_path, capsys):
        # Below alpha = 53/1024 a Pareto size can overflow to inf; at this
        # seed the first driver that draws one is replicate 33's.
        text = "experiment = ladder-monotone\nalpha = 0.01\ncutoffs = 0.001\nseed = 2\n"
        cfg = parse_config_text(text + "replicates = 200\n")
        params = StableParams.default(cfg.alpha)

        def draws_inf(r):
            try:
                sample_truncated_path(params, 1.0, 1e-3, replicate_rng(2, r, "ladder-driver"))
            except SamplerIntegrityError:
                return True
            return False

        with np.errstate(over="ignore"):
            first = next(r for r in range(cfg.replicates) if draws_inf(r))
        assert first == 33
        path = tmp_path / "inf.cfg"
        path.write_text(text + f"replicates = 200\nout = {tmp_path / 'out'}\n")
        # The sampler raises on the inf, not numpy: no overflow warning joins
        # the one line on stderr.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["run", "--config", str(path)]) == EXIT_INVARIANT
        assert not caught
        seed = derive_seed(2, first, "ladder-driver")
        (line,) = capsys.readouterr().err.splitlines()
        assert f"replicate {first} (seed {seed}): jump size overflowed to inf" in line

    def test_nan_driver_exits_2(self, tmp_path, capsys):
        # At this alpha the exact sampler's scale underflows to 0 while its
        # draws overflow to inf.  The grid runs sample on worker threads,
        # which no np.errstate set here reaches: the sampler and each worker
        # set their own, so no numpy warning joins the one line on stderr.
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(
            "experiment = counterexample\nalpha = 0.001953125\nreplicates = 1000\n"
            f"grid_m = 100\nseed = 4\nout = {tmp_path / 'out'}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["run", "--config", str(cfg)]) == EXIT_INVARIANT
        assert not caught, [str(w.message) for w in caught]
        (line,) = capsys.readouterr().err.splitlines()
        seed = derive_seed(4, 0, "counterexample-scaling")
        assert line.startswith(f"invariant violation: stream 'counterexample-scaling' (seed {seed}")
        assert "sampler produced NaN" in line

    @pytest.mark.parametrize(
        "text, message",
        [
            # An inf value in run 6's grid path: a sampler failure.
            (
                f"experiment = counterexample\nalpha = 0.01\nbeta = 0.5\n{_SMALL_GRID}",
                "stream 'counterexample-scaling' (seed {scaling}): scaling-law t1=1 run 6: "
                "driver hit a non-positive, NaN or inf value at a positive grid time",
            ),
            # The same run at a beta whose clock integrand is 1 at inf: the
            # clock passed its checks and the rows read NaN, with no line.
            (
                f"experiment = counterexample\nalpha = 0.01\nbeta = 5e-324\n{_SMALL_GRID}",
                "stream 'counterexample-scaling' (seed {scaling}): scaling-law t1=1 run 6: "
                "driver hit a non-positive, NaN or inf value at a positive grid time",
            ),
            # The head fit at beta near 1 breaks the clock in one run, not all.
            (
                f"experiment = counterexample\nalpha = 0.5\nbeta = 0.9999999999999\n{_SMALL_GRID}",
                "stream 'counterexample-scaling' (seed {scaling}): scaling-law t1=1 run 11: "
                "singular clock must be finite and strictly increasing",
            ),
            (
                f"experiment = counterexample\nalpha = 0.5\nbeta = 0.99999999999\n{_SMALL_GRID}",
                "stream 'counterexample-scaling' (seed {scaling}): scaling-law t1=1 run 539: "
                "singular clock must be finite and strictly increasing",
            ),
            # Slopes of about 9.3e299 over [0, 2e10]: the clock total overflows.
            (
                "experiment = weak-agree\nphi = constant(1e-300)\nalpha = 0.9999\nT = 1e10\n"
                "cutoffs = 10\nx0 = 0\nreplicates = 2\nseed = 1\n",
                "replicate 0 (seed {timechange}): time-change clock overflowed to inf, "
                "with finite slopes up to 9.332543007969981e+299",
            ),
        ],
        ids=["grid-inf", "grid-inf-tiny-beta", "head-fit-11", "head-fit-539", "clock-overflow"],
    )
    def test_floating_point_clock_exits_2(self, tmp_path, capsys, text, message):
        # Each exited 4 with a ValueError traceback, but grid-inf-tiny-beta,
        # which exited 2 with NaN rows and no line.
        cfg = tmp_path / "clock.cfg"
        cfg.write_text(text + f"out = {tmp_path / 'out'}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["run", "--config", str(cfg)]) == EXIT_INVARIANT
        assert not caught, [str(w.message) for w in caught]
        seeds = {
            "scaling": derive_seed(0, 0, "counterexample-scaling"),
            "timechange": derive_seed(1, 0, "weak-agree-timechange"),
        }
        assert capsys.readouterr().err == f"invariant violation: {message.format(**seeds)}\n"

    def test_crash_exits_4(self, tmp_path, monkeypatch, capsys):
        def crash(cfg):
            raise KeyError("not a failure of the experiment")

        monkeypatch.setattr(cli, "run_experiment", crash)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = ladder-monotone\nreplicates = 20\n")
        assert cli_main(["run", "--config", str(cfg)]) == EXIT_CRASH
        err = capsys.readouterr().err
        assert "Traceback" in err and "not a failure of the experiment" in err

    def test_uncovered_clock_exits_2(self, tmp_path, capsys):
        # phi(x) = 1 + 1e100 * x: after a jump the clock all but stops, so
        # replicate 1's time-change driver doubles without covering T until
        # it passes the 2**20 events that may be extended (about 120 MiB).
        cfg = tmp_path / "uncovered.cfg"
        cfg.write_text(
            "experiment = weak-agree\nphi = soft-ramp(1,1e100)\nx0 = 0\ncutoffs = 1\n"
            f"replicates = 5\nseed = 4\nout = {tmp_path / 'out'}\n"
        )
        assert cli_main(["run", "--config", str(cfg)]) == EXIT_INVARIANT
        seed = derive_seed(4, 1, "weak-agree-timechange")
        assert capsys.readouterr().err == (
            f"invariant violation: replicate 1 (seed {seed}): time-change clock failed to "
            "cover the evaluation time on a driver of 1406103 events, past the 1048576 "
            "that may be extended\n"
        )

    def test_bare_runtime_error_exits_4(self, tmp_path, monkeypatch, capsys):
        # Only the extension guards' ClockCoverageError is a failure of the run.
        def crash(*args):
            raise RuntimeError("not a guard")

        monkeypatch.setattr(harness, "_timechange_x", crash)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = weak-agree\nreplicates = 5\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == EXIT_CRASH
        err = capsys.readouterr().err
        seed = derive_seed(0, 0, "weak-agree-timechange")
        assert "Traceback" in err and f"RuntimeError: replicate 0 (seed {seed})" in err


def _edge(valid, invalid):
    """Edge values of a key: the invalid ones come in about one draw of 2 * len(valid) + 1."""
    return st.sampled_from([*valid] * 2 * len(invalid) + [*invalid])


# Edge values of every key the four truncation experiments read.  The cutoffs
# keep a driver's expected jumps either small or past the 2**20 of the config
# check, so a run takes milliseconds.
_FUZZ_KEYS = {
    "alpha": _edge(
        ["5e-324", "0.01", "0.0517578125", "0.5", "0.9999999999999999"], ["0", "1", "nan"]
    ),
    "phi": _edge(
        [
            "constant(1)",
            "constant(5e-324)",
            "constant(1e300)",
            "shifted-arctan(2,0.6366)",
            "shifted-arctan(1e-300,1e300)",
            "soft-ramp(1,1e100)",
            "soft-ramp(1,1e308)",
            "piecewise-linear(-1:1e-300,0:1,1:1e300)",
        ],
        ["power(0.5)", "constant(nan)", "constant("],
    ),
    "x0": _edge(["0", "-0.0", "5e-324", "10", "1e300", "-1e300"], ["1e301", "nan", "inf"]),
    "T": _edge(["5e-324", "1e-300", "1", "2", "1e300"], ["0", "nan", "inf"]),
    # Sorted decreasing, or not: a list that does not decrease is a config error.
    "cutoffs": st.tuples(
        st.lists(
            _edge(["5e-324", "1e-300", "1e-3", "0.5", "1", "1e300"], ["0", "nan", "inf"]),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.booleans(),
    ).map(lambda c: ", ".join(sorted(c[0], key=float, reverse=True) if c[1] else c[0])),
    "replicates": _edge(["1", "2", "5"], ["0"]),
    "seed": _edge(["0", "4", "18446744073709551615"], ["18446744073709551616", "-1"]),
    "ks_p_threshold": _edge(["5e-324", "0.01", "0.9999999999999999"], ["0", "1", "nan"]),
    "couple_decay_max": _edge(["5e-324", "0.1", "1"], ["0", "1.5", "nan"]),
}

# The grid lab's alpha and beta, both in (0, 1).
_FUZZ_UNIT = _edge(
    ["5e-324", "0.01", "0.5", "0.9999999999999", "0.9999999999999999"], ["0", "1", "nan"]
)

# A line that names a key the fuzzed configs set, or a replicate and its seed.
_NAMES_A_KEY = r"\b(alpha|phi|x0|T|cutoffs?|replicates|seed|ks_p_threshold|couple_decay_max)\b"
_NAMES_A_REPLICATE = r"replicate \d+ \(seed \d+\)"
# The same for the grid lab's keys, and a grid run, its stream and the stream's seed.
_NAMES_A_GRID_KEY = r"\b(alpha|beta|seed)\b"
_NAMES_A_GRID_RUN = r"stream '[\w-]+' \(seed \d+\): [^:]* run \d+: "


@st.composite
def _fuzz_configs(draw):
    experiment = draw(
        st.sampled_from(["strong-construct", "ladder-monotone", "weak-agree", "uniqueness-couple"])
    )
    keys = [*_SOLVE_KEYS, "seed"]
    keys += {"weak-agree": ["ks_p_threshold"], "uniqueness-couple": ["couple_decay_max"]}.get(
        experiment, []
    )
    lines = [f"experiment = {experiment}", f"replicates = {draw(_FUZZ_KEYS['replicates'])}"]
    lines += [f"{key} = {draw(_FUZZ_KEYS[key])}" for key in keys if draw(st.booleans())]
    return "\n".join(lines) + "\n"


@st.composite
def _fuzz_grid_configs(draw):
    """The counterexample lab at the smallest grid that the config check admits."""
    lines = [f"alpha = {draw(_FUZZ_UNIT)}", f"beta = {draw(_FUZZ_UNIT)}"]
    if draw(st.booleans()):
        lines.append(f"seed = {draw(_FUZZ_KEYS['seed'])}")
    return "experiment = counterexample\n" + _SMALL_GRID + "\n".join(lines) + "\n"


def _assert_exit_means_what_the_readme_says(tmp_path, capsys, text, names_a_key, names_a_run):
    # No traceback (exit 4) from a config; a failure prints one line, with
    # no numpy warning beside it, that names a key or a run and its seed.
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(text + f"out = {tmp_path / 'out'}\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code in (EXIT_PASS, EXIT_STATISTICAL, EXIT_INVARIANT, EXIT_CONFIG), err
    assert not caught, [str(w.message) for w in caught]
    if code in (EXIT_INVARIANT, EXIT_CONFIG):
        (line,) = err.splitlines()
        assert re.search(names_a_key if code == EXIT_CONFIG else names_a_run, line)


class TestCLIFuzz:
    @given(text=_fuzz_configs())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_exit_codes_mean_what_the_readme_says(self, tmp_path, capsys, text):
        _assert_exit_means_what_the_readme_says(
            tmp_path, capsys, text, _NAMES_A_KEY, _NAMES_A_REPLICATE
        )

    # About 0.3 s a run that passes its checks, so a dozen draws.
    @given(text=_fuzz_grid_configs())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_grid_lab_exit_codes_mean_what_the_readme_says(self, tmp_path, capsys, text):
        _assert_exit_means_what_the_readme_says(
            tmp_path, capsys, text, _NAMES_A_GRID_KEY, _NAMES_A_GRID_RUN
        )


class TestExports:
    @pytest.mark.parametrize(
        "module",
        [
            "driver",
            "phi",
            "stats",
            "timechange",
            "truncation",
            "counterexample",
            "seeding",
            "harness",
        ],
    )
    def test_every_name_in_all_resolves(self, module):
        mod = importlib.import_module(f"stable_sde_lab.{module}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"stable_sde_lab.{module}.__all__ names {missing}"

    def test_every_package_import_is_exported_by_its_module(self):
        # import stable_sde_lab succeeding shows that these names exist; each
        # must also be in its module's __all__, so the two lists stay one.
        source = Path(stable_sde_lab.__file__).read_text(encoding="utf-8")
        stale = []
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom):
                mod = importlib.import_module(f"stable_sde_lab.{node.module}")
                for alias in node.names:
                    if alias.name not in mod.__all__ or not hasattr(
                        stable_sde_lab, alias.name
                    ):
                        stale.append(f"{node.module}.{alias.name}")
        assert not stale


class TestReadme:
    def test_key_table_lists_what_each_experiment_reads(self):
        # README's "experiment | reads" table, one row per group of experiments.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()

        def cells(line):
            return [cell.strip() for cell in line.strip().strip("|").split("|")]

        start = next(i for i, line in enumerate(lines) if cells(line) == ["experiment", "reads"])
        rows = {}
        for line in lines[start + 2 :]:
            if not line.startswith("|"):
                break
            names, keys = cells(line)
            for name in names.split(","):
                rows[name.strip()] = tuple(key.strip() for key in keys.strip("`").split(","))
        assert rows == {name: spec.keys for name, spec in harness._EXPERIMENTS.items()}
