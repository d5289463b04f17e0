"""The simulated coupling against its generator, on the control function F0.

Started from (x, y), N coupled pairs are stepped for a time h, and
(E F0(X_h, Y_h) - F0(x, y)) / h estimates the coupling generator applied to
F0: merges, gap doublings, the u-strip, the sub-eps lasso events and the
small-jump Gaussian all enter it.  The estimate must lie within 4 standard
errors of the exact generator, ``references.coupling_F0_exact`` (quadrature
of the two-dimensional generator), at two values of h (the bias is O(h)), and
the certificate's closed bound must lie above the exact value.  Points, sizes
and seeds are fixed in advance.

F0 drops from about theta to 0 on the diagonal.  With a diffusion part
(c > 0) the reflected Gaussian reaches the diagonal from a gap g within h
with probability about 2 Phi(-g / sqrt(8 c y h)), a loss of F0 the generator
of the smooth off-diagonal F0 does not see.  The mixed model's points are
such points, and they fail: they are kept as strict expected failures, and
the same model without its diffusion part runs the same points.
"""

import math

import numpy as np
import pytest

from cbic.ergodicity import compute_rate_certificate
from cbic.generator import CouplingControl, WeightFunction, coupling_generator_F0
from cbic.mechanisms import (
    BranchingMechanism,
    CompetitionMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    ModelSpec,
    psi_eval,
)
from cbic.simulator import SimConfig, simulate_coupled_ensemble
from references import coupling_F0_exact

# stable + atoms + uniform parts in both measures, a diffusion part and power
# competition; `rate` does not certify it, so it runs under a fixed control
MU = LevyMeasure.sum_of([LevyMeasure.stable(0.6, 0.5), LevyMeasure.from_atoms([(1.5, 0.3)]),
                         LevyMeasure.uniform(0.8, 0.1, 0.7)])
NU = LevyMeasure.sum_of([LevyMeasure.stable(0.5, 0.2), LevyMeasure.from_atoms([(0.5, 0.4)]),
                         LevyMeasure.uniform(0.5, 0.0, 1.0)])
MIXED = ModelSpec(BranchingMechanism(0.4, 0.2, MU), ImmigrationMechanism(0.3, NU),
                  CompetitionMechanism.power(1.2, 1.5))
MIXED_C0 = ModelSpec(BranchingMechanism(0.4, 0.0, MU), MIXED.immigration, MIXED.competition)


def fixed_control(model):
    return CouplingControl(lambda0=1.0, x0=0.5, theta=4.0, epsilon=1.0, l=1.0,
                           psi_at_lambda0=psi_eval(model.branching, 1.0))


@pytest.fixture(scope="module")
def runs(ergodic_v1_model, stable_power_model):
    """(model, control, two h, dt, eps, pairs) per case."""
    def certified(model, weight, grid):
        return compute_rate_certificate(model, weight, grid=grid).control()

    return {
        "ergodic_v1": (ergodic_v1_model, certified(ergodic_v1_model, WeightFunction.v1(), 31),
                       (0.01, 0.02), 1e-3, None, 20000),
        "stable_power_vlog": (stable_power_model,
                              certified(stable_power_model, WeightFunction.vlog(), 21),
                              (0.002, 0.004), 2e-4, 1e-4, 10000),
        "mixed": (MIXED, fixed_control(MIXED), (0.005, 0.01), 5e-4, 0.05, 10000),
        "mixed_c0": (MIXED_C0, fixed_control(MIXED_C0), (0.005, 0.01), 5e-4, 0.05, 10000),
    }


def mc_drift(model, ctrl, x, y, h, dt, eps, n, seed):
    """Monte Carlo (E F0(X_h, Y_h) - F0(x, y)) / h and its standard error."""
    cfg = SimConfig(dt=dt, t_end=h, eps=eps, n_paths=n, seed=seed)
    res = simulate_coupled_ensemble(model, x, y, cfg, record_times=[h])
    f0 = np.array([ctrl.F0(a, b) for a, b in zip(res.x_values[-1], res.y_values[-1])])
    d = (f0 - ctrl.F0(x, y)) / h
    return float(d.mean()), float(d.std(ddof=1)) / math.sqrt(n)


DIAGONAL = pytest.mark.xfail(
    strict=True,
    reason="c > 0: the reflected Gaussian reaches the diagonal, where F0 is 0, within h",
)


@pytest.mark.parametrize("case, x, y, seeds", [
    ("ergodic_v1", 0.05, 0.01, (1001, 1002)),
    ("ergodic_v1", 2.0, 1.9, (1003, 1004)),
    ("stable_power_vlog", 0.5, 0.3, (1005, 1006)),
    ("stable_power_vlog", 1.0, 0.99, (1007, 1008)),
    pytest.param("mixed", 0.5, 0.3, (1009, 1010), marks=DIAGONAL),
    # a gap below eps: the sub-eps merge and doubling rates carry part of the drift
    pytest.param("mixed", 1.0, 0.98, (1011, 1012), marks=DIAGONAL),
    ("mixed_c0", 0.5, 0.3, (1013, 1014)),
    ("mixed_c0", 1.0, 0.98, (1015, 1016)),
])
def test_simulated_coupling_drift_is_the_generator(runs, case, x, y, seeds):
    model, ctrl, hs, dt, eps, n = runs[case]
    exact = coupling_F0_exact(model, ctrl, x, y)
    bound = coupling_generator_F0(model, ctrl, x, y)
    assert exact <= bound + 1e-6 * abs(bound) + 1e-9
    for h, seed in zip(hs, seeds):
        mc, se = mc_drift(model, ctrl, x, y, h, dt, eps, n, seed)
        assert abs(mc - exact) <= 4.0 * se, (h, mc, se, exact)
