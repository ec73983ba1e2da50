"""The benchmark's workloads: fixed lists of README commands at the
acceptance criteria's matrix sizes, and why each list exists.

A step is one README CLI command, run through ``wigner_fluct.cli.main`` in
the measuring process, or one public-API call where no command exists.
Matrix sizes and intervals are those of the acceptance criteria ("C3" is
criterion 3 of ``tests/test_acceptance.py``).  Trial counts are smaller than
the criteria's, so that a step takes at most about half a second where its
matrix size allows and a run times each step many times (measure.py reports
each step's fastest run); they are fixed here and must not change between
the two sides of a comparison.

The tier-1 suite's wall time is deliberately not a workload: it takes about
253 s, and the benchmark contract runs each workload 22 times.  Its hot
criteria (C3-C6, C8-C11) are covered instead by running their own commands
at their own sizes below.

``reads`` is the number of eigenvalues per trial that the step's output
depends on.  The superposition/decimation maps merge whole spectra, so the
GOE sides of ``fr-check`` count as fully read; the direct GUE/GSE side reads
only the compared indices.  It feeds the ``spectra.eig_used_ratio`` layer
metric.
"""

from dataclasses import dataclass
from math import log, sqrt

# The seed of every run's first (warm-up) pass, whose outputs are compared
# with the stored reference values in reference.json.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Step:
    text: str  # CLI arguments without --seed; "counting-experiment ..." for the API step
    reads: int = 0

    @property
    def argv(self):
        return tuple(self.text.split())

    def option(self, flag, default=None):
        argv = self.argv
        return argv[argv.index(flag) + 1] if flag in argv else default

    @property
    def trials(self):
        return int(self.option("--trials", 1))

    @property
    def is_api(self):
        return self.argv[0] == "counting-experiment"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple


def _half_line(x, n=1000):
    """Left endpoint x sqrt(log n / 2n) of a C8 half-line (t = 0)."""
    return f"kernel --n {n} --interval={x * sqrt(log(n) / (2 * n))!r},inf"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tridiag_mc",
            why=(
                "Tests the O(n)-per-trial tridiagonal path. Per-trial fixed overhead in "
                "stats, the stebz select in spectra and batched Sturm counts dominate. "
                "There is no dense algebra and no kernel work. At the default trial "
                "counts about 45% of the run_mc trial time is fixed overhead."
            ),
            steps=(
                Step("bulk-fluct --n 500 --k 250 --beta 1 --trials 500", reads=1),  # C3
                Step("bulk-fluct --n 500 --k 250 --beta 4 --trials 500", reads=1),  # C3
                Step("edge-fluct --n 800 --k 55 --beta 1 --trials 500", reads=1),  # C4
                Step("joint-fluct --n 1000 --k 500,531 --beta 1 --trials 250", reads=2),  # C5
                # C10: wf.counting_experiment(1000, 1, 0.0, trials, seed); counts, no solves
                Step("counting-experiment --n 1000 --beta 1 --cut 0.0 --trials 2000"),
                Step("semicircle-check --n 2000", reads=2000),  # C13
            ),
        ),
        Workload(
            name="dense_mc",
            why=(
                "Tests dense matrices, where each trial costs tens of milliseconds. "
                "Sampling, Householder sytrd and full-spectrum solves dominate, and "
                "per-trial overhead is negligible. Only this workload exposes the 2x "
                "and 4x real-embedding waste of GUE and GSE."
            ),
            steps=(
                Step("bulk-fluct --ensemble wigner-real --n 500 --k 250 --trials 10", reads=1),  # C6
                Step("bulk-fluct --ensemble gue --n 300 --k 150 --trials 10", reads=1),
                Step("bulk-fluct --ensemble gse --n 100 --k 50 --trials 4", reads=1),
                Step("semicircle-check --n 2000 --path dense", reads=2000),  # C13
            ),
        ),
        Workload(
            name="fr_small",
            why=(
                "Tests the same dense layers with tiny matrices. Thousands of tiny calls "
                "make fixed per-call cost dominate, so a change that speeds up n=500 by "
                "adding per-call work shows here. It is also the only workload that "
                "runs the Forrester-Rains maps, the cli.fr_check_samples trial loop "
                "and stats.ks_two_sample."
            ),
            steps=(
                # reads per trial: GOE_8 + GOE_9 merged whole, 3 GUE_8 indices
                Step("fr-check --which gue --n 8 --k 2,4,6 --trials 500", reads=8 + 9 + 3),  # C1
                # reads per trial: GOE_9 decimated whole, all 4 GSE_4 indices
                Step("fr-check --which gse --n 4 --trials 500", reads=9 + 4),  # C2
            ),
        ),
        Workload(
            name="kernel_quad",
            why=(
                "Tests deterministic beta=2 quadrature. There is no sampling, so the "
                "seed only reaches the ignored --seed flag. The long half-line window "
                "is dominated by the O(m^2) pair sum and memory; the short window is "
                "dominated by the psi recurrence, so the same layer is used two ways."
            ),
            steps=(
                Step("kernel --n 1000 --interval=0,inf --variance"),  # C9/C10
                Step("kernel --n 1000 --interval=-1,1 --variance"),
                Step(_half_line(-1.0)),  # C8
                Step(_half_line(0.5)),  # C8
                Step(_half_line(1.0)),  # C8
                # carries the seed-independent invariant E#(R) = n
                Step("kernel --n 1000 --interval=-inf,inf"),  # C7
                Step("cumulants --n 200 --interval=2,inf --order 20"),  # C11
            ),
        ),
    )
}
