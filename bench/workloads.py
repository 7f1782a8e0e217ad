"""The benchmark's workloads: one lab config each, and the master seed a run uses.

Every workload is one experiment of the lab at a fixed size.  The benchmark's
``--seed`` picks the experiment's master seed, so the same seed gives the same
inputs.  Workloads whose checks include a statistical test draw their master
seed from a pinned table: a nominal-level test rejects a correct program on a
small share of seeds, and a benchmark whose failures depend on the seed cannot
compare failure shares between two sets of runs.  The seeds left out of each
table, and why, are listed in the README.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict[str, str]
    master_seeds: tuple[int, ...] | None = None  # None: the seed is the master seed

    def master_seed(self, seed: int) -> int:
        if self.master_seeds is None:
            return seed
        return self.master_seeds[seed % len(self.master_seeds)]

    def config_text(self, master: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.settings.items()]
        lines += [f"seed = {master}", "threads = 1"]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # The x**beta lab on exact-law grid increments: sampler, derive_run and
        # Clock validation do the work, the event solver none.  1000 replicates
        # is the least the experiment accepts.
        Workload(
            "grid-lab",
            {
                "experiment": "counterexample",
                "alpha": "0.5",
                "beta": "0.5",
                "T": "4",
                "grid_m": "10000",
                "replicates": "1000",
                "ks_p_threshold": "0.01",
                "min_coverage": "0.8",
            },
            master_seeds=tuple(range(1, 15)),
        ),
        # About 16 jumps per replicate: per-replicate object overhead, not
        # arithmetic, sets the cost.
        Workload(
            "weak-agree-wide",
            {
                "experiment": "weak-agree",
                "alpha": "0.4",
                "phi": "shifted-arctan(2,0.6366)",
                "x0": "0",
                "T": "1",
                "cutoffs": "0.001",
                "replicates": "5000",
                "ks_p_threshold": "0.01",
            },
            master_seeds=tuple(range(16)),
        ),
        # About 1,300 events per replicate over few replicates: the per-event
        # loop of solve_truncated sets the cost.  A phi family other than the
        # other workload's shows a change specialised to one family.
        Workload(
            "ladder-deep",
            {
                "experiment": "ladder-monotone",
                "alpha": "0.7",
                "phi": "piecewise-linear(0:1,1:2,3:2.5)",
                "x0": "0",
                "T": "1",
                "cutoffs": "0.01,0.001,0.0001,0.00001",
                "replicates": "200",
            },
        ),
    )
}
