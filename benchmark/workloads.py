"""The benchmark's workloads: synthetic catchment batches with fixed settings.

Each workload is a closed loop from one process: one ``run_experiment`` call
over a directory of generated daily CSVs, the next call only after the
previous one returned.  The workload seed feeds only the catchment
generator, so the program under test sees nothing but its input files and a
fixed configuration.

This module imports nothing heavy at load time; ``child.py`` imports it
before it starts the set-up clock.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path

REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    n_catchments: int
    n_months: int
    # ExperimentConfig fields that differ from its defaults; the defaults are
    # the paper's dimensions (12/144/144 split, 3 x 2000 chains, m = 600,
    # all 8 schemes, 10 probabilities)
    settings: dict = field(default_factory=dict)
    # (theta1 values, theta2 values), cycled independently over catchments
    thetas: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    @property
    def workers(self) -> int:
        # never more workers than cores this process may run on
        wanted = self.settings.get("workers", 1)
        return max(1, min(wanted, len(os.sched_getaffinity(0))))

    def catchment_ids(self) -> list[str]:
        return [f"c{i:02d}" for i in range(self.n_catchments)]

    def tiny(self) -> "Workload":
        """Same shape at toy size, for the benchmark's self-test."""
        settings = dict(
            self.settings,
            warmup=12,
            n1=24,
            n2=24,
            n_iterations=200,
            retain_per_chain=20,
            m=20,
            max_restarts=1,
        )
        return replace(self, n_catchments=2, n_months=72, settings=settings)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-catchment",
            n_catchments=1,
            n_months=600,
            settings={"workers": 1},
        ),
        Workload(
            name="calib-batch",
            n_catchments=8,
            n_months=600,
            settings={"schemes": ("basic-linear", "1", "2", "3"), "workers": 2},
            thetas=((250.0, 400.0, 700.0, 1200.0), (0.7, 0.9, 1.1)),
        ),
        Workload(
            name="short-records",
            n_catchments=8,
            n_months=240,
            settings={
                "n1": 96,
                "n2": 96,
                "n_iterations": 600,
                "retain_per_chain": 100,
                "m": 100,
                "workers": 2,
            },
        ),
    )
}


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> None:
    """Generate the workload's daily CSVs; the same seed gives the same bytes."""
    import numpy as np

    from ensflow.experiment import SyntheticSpec, generate_synthetic

    for index, cid in enumerate(workload.catchment_ids()):
        spec_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        spec = SyntheticSpec(n_months=workload.n_months, seed=spec_seed)
        if workload.thetas is not None:
            theta1s, theta2s = workload.thetas
            spec = replace(spec, theta1=theta1s[index % len(theta1s)], theta2=theta2s[index % len(theta2s)])
        generate_synthetic(spec, out_dir, cid)


def experiment_config(workload: Workload, input_dir: Path, output_dir: Path, workers: int | None = None):
    from ensflow.experiment import ExperimentConfig

    settings = dict(workload.settings, workers=workload.workers if workers is None else workers)
    return ExperimentConfig(input_dir=str(input_dir), output_dir=str(output_dir), **settings)
