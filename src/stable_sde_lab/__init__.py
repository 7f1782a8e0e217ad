"""Simulation lab for dX = phi(X-) dZ driven by a one-sided stable subordinator.

Three constructions of the solution live side by side and validate each
other statistically: the exact event-driven solve on truncated drivers, the
time-change representation through an additive clock, and the degenerate
x**beta counterexample where uniqueness genuinely fails.
"""

from .driver import (
    GridPath,
    JumpPath,
    SamplerIntegrityError,
    StableParams,
    levy_tail_mass,
    sample_exact_increment,
    sample_grid_path,
    sample_truncated_path,
    thin_path,
)
from .phi import (
    ConstantPhi,
    MonotonePhi,
    PiecewiseLinearPhi,
    PowerPhi,
    ShiftedArctanPhi,
    SoftRampPhi,
    parse_phi,
)
from .stats import KSReport, ks_two_sample
from .timechange import BEYOND_HORIZON, Clock, invert_clock, solve_time_change
from .truncation import (
    Ladder,
    SolutionPath,
    build_ladder,
    ladder_violations,
    solve_ladders,
    solve_truncated,
)
from .counterexample import (
    CounterexampleRun,
    driver_law_check,
    nonuniqueness_demo,
    run_counterexample,
    scaling_law_check,
)
from .seeding import derive_seed, replicate_rng, splitmix64
from .harness import ExperimentConfig, load_config, parse_config_text, run_experiment

__version__ = "0.1.0"
