"""Benchmark workloads: exitlab config texts generated from a seed.

Each workload is a list of configs in the flat ``key = value`` grammar that
``exitlab.parse_config`` reads.  The seed only sets ``run.seed``, so every
seed runs the same cells on different random streams, and the same seed
always gives the same texts.  Each config carries the relative tolerance of
the acceptance criterion whose shape it copies; the correctness gate in
``run.py`` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple[str, ...]
    rel_tol: tuple[float, ...]  # one per config: criterion 2/6 use 0.20, 4/5 use 0.25

    def texts(self, seed: int) -> list[str]:
        return [c.format(seed=seed) for c in self.configs]


_DIRECT_1D = """\
# 1-d identity, criterion 2/3 shape: normal draws and the Euler loop
model.lambdas = 1.0
domain.lower = -1.0
domain.upper = 1.0
domain.inner = ball:1.05
domain.outer = ball:1.5
threshold.alpha = 1.5
sweep.epsilons = 0.2, 0.1, 0.05
estimator.method = direct
estimator.n_paths = 4096
run.workers = 1
run.seed = {seed}
"""

_DIRECT_2D_W2 = """\
# 2-d anisotropic identity, criterion 4 shape, fork fan-out over 2 workers
model.lambdas = 1.0, 0.5
noise.sigma = 1.0
domain.lower = -1.0
domain.upper = 1.0
domain.inner = ball:1.5
domain.outer = ball:2.0
threshold.alpha = 1.2
sweep.epsilons = 0.05
estimator.method = direct
estimator.n_paths = 6144
estimator.batch_size = 3072
run.workers = 2
run.seed = {seed}
"""

_SPLITTING_QUADRATIC = """\
# splitting on the quadratic conjugacy, criterion 5 shape: clamp, push/pull,
# resampling and one pool per level
model.variant = component_quadratic
model.lambdas = 1.0
model.quad_coeff = 1.0
model.validity_radius = 0.2
domain.lower = -0.15
domain.upper = 0.15
threshold.alpha = 1.5
sweep.epsilons = 0.05
estimator.method = splitting
estimator.budget = 4096
estimator.batch_size = 2048
estimator.level_step = 1.0
run.workers = 2
run.seed = {seed}
"""

_ADJUSTED_BALL = """\
# travel-time adjusted estimate, criterion 6 shape: flow bisection and
# continuation runs
model.lambdas = 1.0
domain.lower = -0.5
domain.upper = 0.5
domain.big = ball:1.0
threshold.alpha = 1.5
sweep.epsilons = 0.1, 0.05
estimator.method = adjusted
estimator.n_paths = 2048
estimator.batch_size = 1024
run.workers = 2
run.seed = {seed}
"""

_MANY_SMALL_CELLS = """\
# many small 2-d cells: per-cell and per-batch fixed costs dominate
model.lambdas = 1.0, 0.5
domain.lower = -1.0
domain.upper = 1.0
domain.inner = ball:1.5
domain.outer = ball:2.0
threshold.alpha = 1.2
sweep.epsilons = 0.1, 0.07, 0.05
initial.points = 0,0; 0.5,0; -0.4,-0.3
estimator.method = direct
estimator.n_paths = 512
estimator.batch_size = 256
run.workers = 2
run.seed = {seed}
"""

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "direct-1d",
            "1-d direct sweep, one worker: draws and the Euler loop dominate; "
            "a d=1 engine gain shows here, a fan-out change should not",
            (_DIRECT_1D,), (0.20,)),
        Workload(
            "direct-2d-w2",
            "2-d direct sweep on 2 workers: the exit check on a length-2 axis, "
            "per-step gather/scatter, fork fan-out and ordered reduce",
            (_DIRECT_2D_W2,), (0.25,)),
        Workload(
            "estimators-mix",
            "splitting on the quadratic model and the adjusted estimate: clamp, "
            "push/pull, resampling, per-level pools, flow bisection, continuations",
            (_SPLITTING_QUADRATIC, _ADJUSTED_BALL), (0.25, 0.20)),
        Workload(
            "many-small-cells",
            "9 small 2-d cells in 256-path batches on 2 workers: per-cell and "
            "per-batch fixed costs (pool fork, generators, theory, emission)",
            (_MANY_SMALL_CELLS,), (0.25,)),
    )
}
