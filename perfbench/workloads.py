"""The benchmark's workloads: which CLI invocations make up one job, and why.

A job is what a user of the batch tool waits for: one CLI invocation, or for
``analytic_cdf`` one pass over all six channel-gain families.  Every job gets
its RNG seed from a fixed pool, so its output can be checked byte for byte
against a stored reference (see ``reference.py``).  The benchmark's own
``--seed`` only chooses the order in which pool seeds are used.

Jobs leave ``workers`` unset, so the CLI uses ``min(8, os.cpu_count())``
threads and the manifest hash does not depend on the machine.  The
determinism check sets ``workers=1`` explicitly and compares data rows only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# CLI seeds with a stored reference output.
SEED_POOL = (1, 2, 3, 4, 5, 6, 7, 8)

# Per family: (trials, grid_points, ks_grid_points).  The trial counts keep
# Monte Carlo sampling a small share of the job; `ordered` draws 20 users
# per trial, hence 10x fewer trials.  The level counts split the analytic
# time about evenly between the four 1-D families and the two 2-D mean-angle
# families, whose levels cost 10-25x more.
CDF_FAMILY_SIZES = {
    "unordered": (200_000, 61, 124),
    "ordered": (20_000, 61, 124),
    "twobit_inst_weak": (200_000, 61, 124),
    "twobit_inst_strong": (200_000, 61, 124),
    "twobit_mean_weak": (200_000, 5, 6),
    "twobit_mean_strong": (200_000, 8, 12),
}

# Four full chunks of 65,536 trials: enough to split across threads.
DETERMINISM_TRIALS = 262_144


def _cdf_argv(family: str, trials: int, grid: int, ks_grid: int) -> list[str]:
    return [
        "validate-channel-cdf", "--family", family, "--trials", str(trials),
        "--set", f"grid_points={grid}", "--set", f"ks_grid_points={ks_grid}",
    ]


@dataclass(frozen=True)
class Workload:
    """One workload: the invocations of a job, minus the seed, and how to check them."""

    name: str
    invocations: tuple[tuple[str, ...], ...]
    # Columns (and `# summary` keys) computed by the analytic path; they are
    # compared within a relative tolerance, every other cell byte for byte.
    analytic_columns: frozenset[str]
    # A smaller job run at workers=1 and at the default worker count.
    determinism_invocation: tuple[str, ...]

    def job(self, seed: int) -> list[list[str]]:
        return [[*argv, "--seed", str(seed)] for argv in self.invocations]

    def job_seeds(self, bench_seed: int):
        """Endless, reproducible sequence of pool seeds for successive jobs."""
        rng = random.Random(bench_seed)
        while True:
            yield rng.choice(SEED_POOL)


WORKLOADS = {
    wl.name: wl
    for wl in (
        # ~90% of a job is the Monte Carlo chunk (sampling, dc_gain twice, stable
        # argsort); the analytic ranked CDFs take ~150 ms.  Kernel work and
        # thread scaling show here, analytic work barely does.
        Workload(
            name="mc_fullcsi",
            invocations=(("sweep-snr", "--trials", "1000000"),),
            analytic_columns=frozenset({"analytic_sum_rate", "oma_sum_rate"}),
            determinism_invocation=("sweep-snr", "--trials", str(DETERMINISM_TRIALS)),
        ),
        # The same simulate layer used differently: threshold masks through
        # incidence_angle, uniform picks and three normal draws per user, one
        # dc_gain per chunk, no analytic path.  A change aimed at noise-free
        # FullCSI ranking should leave it unchanged: the bypass workload.
        Workload(
            name="mc_group_noisy",
            invocations=(("noisy-compare", "--mode", "TwoBitMean", "--trials", "524288"),),
            analytic_columns=frozenset(),
            determinism_invocation=(
                "noisy-compare", "--mode", "TwoBitMean", "--trials", str(DETERMINISM_TRIALS),
            ),
        ),
        # gain_cdf and quadrature do nearly all the work, mostly the reference-CDF
        # evaluations inside ks_distance_bound; Monte Carlo sampling is a few %.
        # Not gated in BENCHMARK.json: its run-to-run spread is too wide (README).
        Workload(
            name="analytic_cdf",
            invocations=tuple(
                tuple(_cdf_argv(family, *sizes)) for family, sizes in CDF_FAMILY_SIZES.items()
            ),
            analytic_columns=frozenset({"analytic_cdf", "ks_bound"}),
            determinism_invocation=tuple(_cdf_argv("unordered", DETERMINISM_TRIALS, 4, 4)),
        ),
    )
}
