"""The benchmark's workloads: which CLI command each one runs, built from a seed.

Why each workload exists is stated in ``BENCHMARK.json`` and README.md.

Every workload is one closed-loop batch job, as a CLI user runs it: one
command, and the next starts only after it ends.  The presets are
noise-free, so the seed changes what the program is told (its ``--seed``
flag) but not the numbers it must compute; that is what lets one golden
file check every seed to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

# Shortest horizon every workload accepts: the bound check needs samples
# past t_min = 1 s.
TINY_HORIZON = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    scenario: str
    mode: str
    sweep_flag: str | None = None
    sweep_values: tuple[float, ...] = ()
    horizon: float | None = None
    jobs: int | None = None

    def argv(self, seed: int, horizon: float | None = None,
             jobs: int | None = None) -> list[str]:
        """CLI arguments of one run, but ``--out``; ``horizon`` and ``jobs``
        override the workload's own."""
        args = [self.verb, self.scenario, "--mode", self.mode]
        if self.sweep_flag is not None:
            args += [self.sweep_flag,
                     ",".join(f"{v:g}" for v in self.sweep_values)]
        horizon = self.horizon if horizon is None else horizon
        if horizon is not None:
            args += ["--horizon", f"{horizon:g}"]
        jobs = self.jobs if jobs is None else jobs
        if jobs is not None:
            args += ["--jobs", str(jobs)]
        return args + ["--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="case1-both",
        verb="run", scenario="case1", mode="both"),
    Workload(
        name="omega-sweep",
        verb="sweep", scenario="case1", mode="baseline", sweep_flag="--omega",
        sweep_values=(50.0, 100.0, 200.0), horizon=5.0, jobs=1),
    Workload(
        name="lambda-sweep",
        verb="sweep", scenario="case2", mode="proposed",
        sweep_flag="--lambda", sweep_values=(0.05, 0.1, 0.2, 0.4),
        horizon=6.0, jobs=2),
)}
