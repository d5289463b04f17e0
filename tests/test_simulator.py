import copy
import itertools
import math
import os
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cbic import cli, ergodicity, simulator
from cbic.config import load_config
from cbic.ergodicity import estimate_stationary
from cbic.measures import overlap_mass
from cbic.mechanisms import (
    BranchingMechanism,
    CompetitionMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    MechanismError,
    ModelSpec,
    phi_eval,
    psi_eval,
    stable_to_generic,
)
from cbic.simulator import (
    GAP_TOL,
    SimConfig,
    SimulationError,
    resolve_eps,
    simulate_coupled_ensemble,
    simulate_ensemble,
    simulate_ensembles,
)
import references
from references import (
    cbi_laplace,
    mean_with_dt_refinement,
    solve_vt,
    stable_draws,
    stable_increments,
)


class TestSolveVt:
    def test_initial_condition(self):
        mech = BranchingMechanism(0.7, 0.2, LevyMeasure.uniform(1.0, 0.0, 1.0))
        assert solve_vt(mech, 1.3, 0.0) == 1.3

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 5.0])
    def test_linear_flow(self, lam, t):
        # Psi = b lam: v_t = lam e^{-b t}
        mech = BranchingMechanism(0.7, 0.0)
        assert solve_vt(mech, lam, t) == pytest.approx(lam * math.exp(-0.7 * t), rel=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 5.0])
    def test_quadratic_flow(self, lam, t):
        # Psi = c lam^2: v_t = lam / (1 + c lam t)
        mech = BranchingMechanism(0.0, 0.4)
        assert solve_vt(mech, lam, t) == pytest.approx(lam / (1.0 + 0.4 * lam * t), rel=1e-9)

    def test_positive_argument_required(self):
        with pytest.raises(MechanismError):
            solve_vt(BranchingMechanism(0.5, 0.0), 0.0, 1.0)


class TestCbiLaplace:
    def test_time_zero(self):
        mech = BranchingMechanism(0.7, 0.0)
        imm = ImmigrationMechanism(0.6)
        assert cbi_laplace(mech, imm, 1.5, 2.0, 0.0) == pytest.approx(math.exp(-3.0))

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_needs_positive_argument(self, lam):
        with pytest.raises(MechanismError, match="lam > 0"):
            cbi_laplace(BranchingMechanism(0.7, 0.0), ImmigrationMechanism(0.6), 1.5, lam, 1.0)

    def test_no_immigration_reduction(self):
        mech = BranchingMechanism(0.7, 0.1)
        imm = ImmigrationMechanism(0.0)
        lam, t, x = 1.2, 0.7, 2.0
        want = math.exp(-x * solve_vt(mech, lam, t))
        assert cbi_laplace(mech, imm, x, lam, t) == pytest.approx(want, rel=1e-9)

    def test_linear_closed_form(self):
        b, beta, x, lam, t = 0.7, 0.6, 1.5, 1.0, 0.8
        got = cbi_laplace(BranchingMechanism(b, 0.0), ImmigrationMechanism(beta), x, lam, t)
        want = math.exp(
            -x * lam * math.exp(-b * t) - beta * lam * (1.0 - math.exp(-b * t)) / b
        )
        assert got == pytest.approx(want, rel=1e-9)


class TestStableIncrements:
    def test_subordinator_nonnegative(self):
        rng = np.random.default_rng(0)
        inc = stable_increments(0.5, 0.02, rng, 5000)
        assert (inc >= 0.0).all()

    @pytest.mark.parametrize("alpha,sign", [(0.5, -1.0), (1.0, None), (1.5, 1.0)])
    def test_laplace_transform_monte_carlo(self, alpha, sign):
        rng = np.random.default_rng(42)
        dt = 0.2
        inc = stable_increments(alpha, dt, rng, 400_000)
        for lam in (0.5, 1.0, 2.0):
            vals = np.exp(-lam * inc)
            emp = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            if alpha == 1.0:
                target = math.exp(dt * (lam * math.log(lam) + (np.euler_gamma - 1.0) * lam))
            else:
                target = math.exp(sign * dt * lam**alpha)
            assert abs(emp - target) <= 3.0 * se + 1e-4

    def test_index_range_enforced(self):
        with pytest.raises(MechanismError):
            LevyMeasure.stable(2.0, 1.0)

    def test_stream_determinism(self):
        a = stable_increments(1.5, 0.1, np.random.default_rng(7), 10)
        b = stable_increments(1.5, 0.1, np.random.default_rng(7), 10)
        assert np.array_equal(a, b)


def banded_model(b=0.5, c=0.0, rate=2.0, beta=0.3):
    return ModelSpec(
        BranchingMechanism(b, c, LevyMeasure.uniform(rate, 0.0, 1.0)),
        ImmigrationMechanism(beta),
        CompetitionMechanism.none(),
    )


class TestSimulatePath:
    def test_zero_is_absorbing_without_immigration(self):
        model = ModelSpec(
            BranchingMechanism(0.5, 0.3, LevyMeasure.uniform(1.0, 0.0, 1.0)),
            ImmigrationMechanism(0.0),
            CompetitionMechanism.none(),
        )
        p = simulate_ensemble(model, [0.0], SimConfig(dt=1e-3, t_end=1.0, seed=3))
        assert np.all(p.values[:, 0] == 0.0)
        assert not p.exploded[0]

    def test_nonnegative_paths(self):
        model = banded_model(b=2.0, c=0.5)
        res = simulate_ensemble(model, 0.5, SimConfig(dt=1e-3, t_end=1.0, seed=5, n_paths=256))
        finite = res.values[np.isfinite(res.values)]
        assert (finite >= 0.0).all()

    def test_bit_identical_reruns(self):
        model = banded_model(c=0.2)
        cfg = SimConfig(dt=1e-3, t_end=0.5, seed=11, n_paths=2000)
        a = simulate_ensemble(model, 1.0, cfg, record_times=[0.25, 0.5])
        b = simulate_ensemble(model, 1.0, cfg, record_times=[0.25, 0.5])
        assert np.array_equal(a.values, b.values)

    def test_explosive_stable_flags_explosion(self):
        # index 1/2 subordinator branching is non-conservative; cap low to see it
        model = ModelSpec(
            stable_to_generic(0.0, 0.0, 1.0, 0.5),
            ImmigrationMechanism(0.0),
            CompetitionMechanism.none(),
        )
        cfg = SimConfig(dt=1e-3, t_end=4.0, seed=2, x_max=500.0, n_paths=64)
        res = simulate_ensemble(model, 5.0, cfg, record_times=[4.0])
        assert res.exploded.any()
        p = simulate_ensemble(model, [5.0], SimConfig(dt=1e-3, t_end=4.0, seed=6, x_max=500.0))
        if p.exploded[0]:
            k = np.argmax(~np.isfinite(p.values[:, 0]))
            assert np.all(~np.isfinite(p.values[k:, 0]))  # frozen at the sentinel

    def test_cb_ensemble_mean_tracks_first_moment(self):
        model = ModelSpec(
            BranchingMechanism(1.0, 0.25, LevyMeasure.uniform(2.0, 0.0, 1.0)),
            ImmigrationMechanism(0.0),
            CompetitionMechanism.none(),
        )
        cfg = SimConfig(dt=1e-3, t_end=1.0, seed=11, n_paths=4000)
        res = simulate_ensemble(model, 2.0, cfg, record_times=[1.0])
        vals = res.values[-1]
        vals = vals[np.isfinite(vals)]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vals.mean() == pytest.approx(2.0 * math.exp(-1.0), abs=3.0 * se)

    def test_martingale_residual_for_bounded_test_function(self):
        # f = e^{-x}: Lf(x) = e^{-x}(x Psi(1) + g(x) - Phi(1))
        model = banded_model(b=0.5, c=0.2, rate=1.0, beta=0.3)
        psi1 = psi_eval(model.branching, 1.0)
        phi1 = phi_eval(model.immigration, 1.0)
        cfg = SimConfig(dt=1e-3, t_end=1.0, seed=23, n_paths=4000)
        grid = np.linspace(0.0, 1.0, 51)
        res = simulate_ensemble(model, 1.5, cfg, record_times=grid)
        f = np.exp(-res.values)
        lf = np.exp(-res.values) * (res.values * psi1 - phi1)
        integral = np.trapezoid(lf, res.times, axis=0)
        resid = f[-1] - f[0] - integral
        se = resid.std(ddof=1) / math.sqrt(resid.size)
        assert abs(resid.mean()) <= 3.0 * se + 5.0 * cfg.dt

    @pytest.mark.parametrize("alpha,sigma,a,c", [(0.5, 1.0, 0.3, 0.05), (1.0, 0.7, 0.2, 0.0),
                                                 (1.5, 0.8, 0.4, 0.0)])
    def test_stable_fast_path_law_against_transform_oracle(self, alpha, sigma, a, c):
        # E[e^{-x(t)}] from the fast path must match the flow/quadrature oracle
        br = stable_to_generic(a, c, sigma, alpha)
        imm = ImmigrationMechanism(0.4)
        model = ModelSpec(br, imm, CompetitionMechanism.none())
        x0, lam, t = 0.8, 1.0, 0.5
        oracle = cbi_laplace(br, imm, x0, lam, t)
        cfg = SimConfig(dt=1e-3, t_end=t, seed=5, n_paths=6000, x_max=1e12)
        res = simulate_ensemble(model, x0, cfg, record_times=[t])
        v = res.values[-1]
        emp = np.where(np.isfinite(v), np.exp(-lam * np.where(np.isfinite(v), v, 0.0)), 0.0)
        se = emp.std(ddof=1) / math.sqrt(emp.size)
        assert abs(emp.mean() - oracle) <= 3.5 * se + 2e-3, (emp.mean(), oracle, se)

    def test_resolve_eps_zero_for_finite_activity(self):
        cfg = SimConfig(dt=1e-3)
        assert resolve_eps(LevyMeasure.uniform(2.0, 0.0, 1.0), cfg, 10.0) == 0.0
        eps = resolve_eps(LevyMeasure.stable(1.5, 1.0), cfg, 10.0)
        assert eps > 0.0
        # events-per-step budget holds at the reference scale
        assert LevyMeasure.stable(1.5, 1.0).mass_above(eps) * cfg.dt * 10.0 <= 10.0 * 1.01

    def test_resolve_eps_zero_for_a_zero_measure(self):
        # a zero measure has no jumps to truncate, whatever eps is configured
        cfg = SimConfig(dt=1e-3, eps=0.05)
        assert resolve_eps(LevyMeasure.zero(), cfg, 10.0) == 0.0
        assert resolve_eps(LevyMeasure.uniform(2.0, 0.0, 1.0), cfg, 10.0) == 0.05

    def test_uniform_part_samples_its_edge_cells_in_full(self):
        sampler = simulator._MeasureSampler(LevyMeasure.uniform(1.0, 0.0, 1.0), 0.0)
        n = 2**20
        z = sampler.draw(np.zeros(n), (np.arange(n) + 0.5) / n)  # quantiles of a uniform u
        assert np.mean(z < 1.0 / 4096) == pytest.approx(1.0 / 4096, rel=1e-2)

    def test_uniform_part_above_eps_is_its_inverse_cdf(self):
        m = LevyMeasure.sum_of([LevyMeasure.from_atoms([(2.0, 0.4)]),
                                LevyMeasure.uniform(2.0, 0.3, 1.1)])
        sampler = simulator._MeasureSampler(m, 0.5)
        assert sampler.total == 0.4 + 2.0 * (1.1 - 0.5)
        u = np.linspace(0.0, 1.0, 16, endpoint=False)
        assert np.array_equal(sampler.draw(np.full_like(u, 0.1), u), np.full_like(u, 2.0))
        assert np.array_equal(sampler.draw(np.full_like(u, 0.9), u), 0.5 + (1.1 - 0.5) * u)


class TestSimulateCoupled:
    def test_equal_start_couples_immediately(self, ergodic_v1_model):
        cp = simulate_coupled_ensemble(ergodic_v1_model, [1.0], [1.0],
                                       SimConfig(dt=1e-3, t_end=0.5, seed=9), _record_events=True)
        assert cp.coupling_times[0] == 0.0
        assert np.array_equal(cp.x_values[:, 0], cp.y_values[:, 0])

    def test_a_pair_exploding_in_a_step_does_not_couple_in_it(self):
        # c = 1e308: most pairs explode within a step, some with the follower
        # ending above the leader; a pair couples only while its leader is inside x_max
        model = ModelSpec(BranchingMechanism(0.5, 1e308, LevyMeasure.uniform(2.0, 0.0, 1.0)),
                          ImmigrationMechanism(0.3), CompetitionMechanism.none())
        cfg = SimConfig(dt=1e-3, t_end=0.01, seed=7, n_paths=100)
        res = simulate_coupled_ensemble(model, 2.0, 0.5, cfg)  # every step recorded
        coupled = np.flatnonzero(np.isfinite(res.coupling_times))
        steps = np.rint(res.coupling_times[coupled] / cfg.dt).astype(int)
        assert np.isfinite(res.x_values[steps, coupled]).all()
        # pairs that couple and explode later keep their coupling times
        assert res.exploded[coupled].any()

    @staticmethod
    def check_order_and_merge(res):
        """Leader above follower, and one path once coupled, at every recorded time."""
        for i, t in enumerate(res.times):
            x, y = res.x_values[i], res.y_values[i]
            ok = np.isfinite(x)
            assert (x[ok] >= y[ok]).all()
            done = ok & (res.coupling_times <= t)
            assert np.array_equal(x[done], y[done])

    def test_order_and_merge(self, ergodic_v1_model):
        cfg = SimConfig(dt=2e-3, t_end=10.0, seed=4, n_paths=128)
        res = simulate_coupled_ensemble(ergodic_v1_model, 2.0, 0.5, cfg,
                                        record_times=np.arange(0.0, 10.01, 0.1))
        assert np.isfinite(res.coupling_times).any()
        self.check_order_and_merge(res)

    def test_lasso_event_structure(self, ergodic_v1_model):
        cfg = SimConfig(dt=2e-3, t_end=10.0, seed=15, n_paths=64)
        res = simulate_coupled_ensemble(
            ergodic_v1_model, 2.0, 0.5, cfg, record_times=[10.0], _record_events=True
        )
        events = res.lasso_events
        assert events, "expected at least one lassoing event"
        for t, sign, gap, dx, dy in events:
            assert gap > 0.0
            if sign == "+":
                # follower jumps the leader's jump plus the whole gap
                assert dy - dx == pytest.approx(gap, rel=1e-12, abs=1e-12)
            else:
                assert dx - dy == pytest.approx(gap, rel=1e-12, abs=1e-12)

    def test_sub_eps_lasso_corrections_fire(self):
        # jumps below eps merge a pair (leader jump 0.0) or double its gap (a
        # leader jump of at most eps; thinned jumps all exceed eps)
        model = ModelSpec(stable_to_generic(1.0, 0.0, 1.0, 0.5), ImmigrationMechanism(0.5),
                          CompetitionMechanism.none())
        eps = 0.05
        cfg = SimConfig(dt=1e-3, t_end=0.5, eps=eps, seed=3, n_paths=64)
        res = simulate_coupled_ensemble(model, 1.0, 0.99, cfg, _record_events=True)
        assert any(sign == "+" and dx == 0.0 for _, sign, _, dx, _ in res.lasso_events)
        assert any(sign == "-" and dx <= eps for _, sign, _, dx, _ in res.lasso_events)
        self.check_order_and_merge(res)

    def test_lasso_rates_are_the_sub_eps_overlap_masses(self, monkeypatch):
        # at open gaps on no fixed grid, a step merges a pair when u_up < rate_up dt
        # and doubles the gap of an unmerged one when u_dn < rate_dn dt, the rates
        # y mu_x + nu_x of the overlap masses below eps at x = -gap and x = gap
        mu = LevyMeasure.sum_of([LevyMeasure.stable(0.6, 0.5), LevyMeasure.uniform(0.8, 0.1, 0.7)])
        nu = LevyMeasure.sum_of([LevyMeasure.stable(0.5, 0.2), LevyMeasure.uniform(0.5, 0.0, 1.0)])
        model = ModelSpec(BranchingMechanism(0.4, 0.0, mu), ImmigrationMechanism(0.3, nu),
                          CompetitionMechanism.none())
        eps, dt = 0.05, 0.2
        y = np.linspace(0.5, 2.0, 40)
        x = y + np.geomspace(3e-3, 0.2, y.size)
        # the lasso block alone: no drift, a zero Gaussian part, no jump events
        monkeypatch.setattr(simulator, "_drift", lambda plan, x: np.zeros_like(x))
        monkeypatch.setattr(simulator, "_apply_jump_events", lambda *args: None)
        plan = simulator._Plan(model, SimConfig(dt=dt, eps=eps), 1.0, force_thinning=True)
        g = simulator._Group(plan, 0)
        g.add(simulator._Streams(5, 0), x.size)
        g.gauss = itertools.repeat(np.zeros(x.size))
        state = simulator._step_coupled(simulator._CoupledState(x, y, True), g, dt, 0.0)
        dis = simulator._Streams(5, 0).dis
        u_up, u_dn, z_dn = dis.random(x.size), dis.random(x.size), dis.random(x.size)
        gap = x - y
        rate_up = y * overlap_mass(mu, -gap, 0.0, eps) + overlap_mass(nu, -gap, 0.0, eps)
        rate_dn = y * overlap_mass(mu, gap, 0.0, eps) + overlap_mass(nu, gap, 0.0, eps)
        up = u_up < np.minimum(rate_up * dt, 1.0)
        dn = ~up & (u_dn < np.minimum(rate_dn * dt, 1.0))
        assert up.any() and dn.any() and not (up | dn).all()
        assert not dn[gap >= eps].any()
        zz = gap[dn] + (eps - gap[dn]) * z_dn[dn]
        assert state.events == (
            [(0.0, "+", a, 0.0, a) for a in gap[up]]
            + [(0.0, "-", a, b, b - a) for a, b in zip(gap[dn], zz)]
        )

    def test_merge_is_exact_equality(self, ergodic_v1_model):
        cp = simulate_coupled_ensemble(ergodic_v1_model, [2.0], [0.5],
                                       SimConfig(dt=2e-3, t_end=12.0, seed=8), _record_events=True)
        if math.isfinite(cp.coupling_times[0]):
            k = np.searchsorted(cp.times, cp.coupling_times[0])
            assert np.array_equal(cp.x_values[k:, 0], cp.y_values[k:, 0])

    def test_requires_ordered_start(self, ergodic_v1_model):
        with pytest.raises(SimulationError):
            simulate_coupled_ensemble(ergodic_v1_model, [0.5], [2.0], SimConfig())

    def test_follower_marginal_law_quick_ks(self, ergodic_v1_model):
        from scipy.stats import ks_2samp

        cfg = SimConfig(dt=2e-3, t_end=1.0, seed=21, n_paths=4000)
        coupled = simulate_coupled_ensemble(ergodic_v1_model, 2.0, 0.5, cfg, record_times=[1.0])
        single = simulate_ensemble(
            ergodic_v1_model, 0.5, SimConfig(dt=2e-3, t_end=1.0, seed=77, n_paths=4000),
            record_times=[1.0],
        )
        _, pv = ks_2samp(coupled.y_values[-1], single.values[-1])
        assert pv > 0.01

    def test_follower_marginal_with_immigration_jumps(self):
        # exercises the immigration-event disassembly branch (no u-strip)
        from scipy.stats import ks_2samp

        model = ModelSpec(
            BranchingMechanism(0.6, 0.0, LevyMeasure.uniform(1.0, 0.0, 1.0)),
            ImmigrationMechanism(0.2, LevyMeasure.uniform(0.8, 0.0, 0.9)),
            CompetitionMechanism.none(),
        )
        coupled = simulate_coupled_ensemble(
            model, 2.0, 0.5, SimConfig(dt=1e-3, t_end=1.0, seed=51, n_paths=6000),
            record_times=[1.0],
        )
        single = simulate_ensemble(
            model, 0.5, SimConfig(dt=1e-3, t_end=1.0, seed=151, n_paths=6000),
            record_times=[1.0],
        )
        _, pv = ks_2samp(coupled.y_values[-1], single.values[-1])
        assert pv > 0.01

    def test_stable_immigration_truncation_law(self):
        # sub-eps immigration jumps fold their mean into the drift
        br = BranchingMechanism(0.8, 0.1)
        imm = ImmigrationMechanism(0.3, LevyMeasure.stable(0.5, 0.4))
        model = ModelSpec(br, imm, CompetitionMechanism.none())
        oracle = cbi_laplace(br, imm, 1.0, 1.0, 0.5)
        res = simulate_ensemble(
            model, 1.0, SimConfig(dt=1e-3, t_end=0.5, seed=77, n_paths=8000),
            record_times=[0.5],
        )
        v = res.values[-1]
        emp = np.exp(-np.where(np.isfinite(v), v, np.inf))
        se = emp.std(ddof=1) / math.sqrt(emp.size)
        assert abs(emp.mean() - oracle) <= 3.5 * se + 1e-3


class TestOutputs:
    def test_dump_roundtrip(self, tmp_path, ergodic_v1_model):
        cfg = SimConfig(dt=1e-2, t_end=0.2, seed=1, n_paths=17)
        res = simulate_ensemble(ergodic_v1_model, 1.0, cfg, record_times=[0.0, 0.1, 0.2])
        path = tmp_path / "paths.bin"
        cli.write_path_dump(res, path)
        back = cli.read_path_dump(path)
        assert np.array_equal(back.times, res.times)
        assert np.array_equal(back.values, res.values)

    def test_csv_bytes_deterministic(self, tmp_path, ergodic_v1_model):
        cfg = SimConfig(dt=1e-2, t_end=0.3, seed=5, n_paths=64)
        outs = []
        for name in ("a.csv", "b.csv"):
            res = simulate_ensemble(ergodic_v1_model, 1.0, cfg, record_times=[0.1, 0.3])
            cli._write_csv(tmp_path / name, ("time", "mean", "variance", "q05", "q25", "q50",
                                             "q75", "q95", "exploded_frac"),
                           cli._ensemble_rows(res))
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]



class TestChunkIndependence:
    """Blocks draw from their own streams, so adding paths leaves earlier ones as they were."""

    MODEL = ModelSpec(
        BranchingMechanism(0.5, 0.2, LevyMeasure.uniform(2.0, 0.0, 1.0)),
        ImmigrationMechanism(0.3, LevyMeasure.uniform(1.0, 0.5, 1.5)),
        CompetitionMechanism.none(),
    )

    def test_single_paths(self):
        small, large = (
            simulate_ensemble(self.MODEL, 1.0, SimConfig(dt=5e-3, t_end=0.5, seed=11, n_paths=n))
            for n in (1024, 1500)
        )
        assert np.array_equal(small.times, large.times)
        assert np.array_equal(small.values, large.values[:, :1024])

    def test_coupled_pairs(self):
        small, large = (
            simulate_coupled_ensemble(
                self.MODEL, 2.0, 0.5, SimConfig(dt=5e-3, t_end=0.5, seed=11, n_paths=n),
                record_times=np.linspace(0.0, 0.5, 11),
            )
            for n in (1024, 1500)
        )
        assert np.array_equal(small.times, large.times)
        assert np.array_equal(small.x_values, large.x_values[:, :1024])
        assert np.array_equal(small.y_values, large.y_values[:, :1024])
        assert np.array_equal(small.coupling_times, large.coupling_times[:1024])


class TestDeadPaths:
    """A path dies when it passes x_max or its jump intensity passes the cap;
    it stays at inf and the others step on, in both steppers."""

    # immigration jumps of 2 under x_max = 4: about 1 path in 8 and 1 leader in 4 die
    X_MAX = ModelSpec(
        BranchingMechanism(0.5, 0.5, LevyMeasure.uniform(2.0, 0.0, 1.0)),
        ImmigrationMechanism(0.3, LevyMeasure.from_atoms([(2.0, 2.0)])),
        CompetitionMechanism.none(),
    )
    # branching jumps at total rate 1e4: an immigration jump to 2e4 passes the cap
    LAM_CAP = ModelSpec(
        BranchingMechanism(0.5, 0.0, LevyMeasure.uniform(1e8, 0.0, 1e-4)),
        ImmigrationMechanism(0.3, LevyMeasure.from_atoms([(2e4, 5.0)])),
        CompetitionMechanism.none(),
    )
    # stable jumps under x_max = 3: simulate steps them unthinned, and couple
    # thins them above an eps > 0 and runs the sub-eps lassos
    STABLE = ModelSpec(stable_to_generic(1.0, 0.0, 1.0, 0.5), ImmigrationMechanism(0.5),
                       CompetitionMechanism.power(3.5, 1.5))
    # no jumps: a path is live while its state is finite
    DIFFUSION = ModelSpec(BranchingMechanism(0.5, 2.0), ImmigrationMechanism(1.0),
                          CompetitionMechanism.none())
    CASES = [(X_MAX, SimConfig(dt=1e-3, t_end=0.2, seed=17, x_max=4.0, n_paths=200)),
             (LAM_CAP, SimConfig(dt=1e-3, t_end=0.1, seed=19, n_paths=100)),
             (STABLE, SimConfig(dt=1e-3, t_end=0.2, seed=23, x_max=3.0, n_paths=200)),
             (DIFFUSION, SimConfig(dt=1e-3, t_end=0.2, seed=29, x_max=2.5, n_paths=200))]
    IDS = ["x_max", "lam_cap", "stable", "diffusion"]

    @staticmethod
    def check_deaths(values):
        """Step of each path's death (n_steps + 1 if it lives); checks inf from it on."""
        n = len(values)
        dead = ~np.isfinite(values)
        death = np.where(dead.any(axis=0), dead.argmax(axis=0), n)
        assert np.array_equal(dead, np.arange(n)[:, None] >= death)
        assert np.isposinf(values[dead]).all()
        # deaths at several steps: the paths alive after the first death kept stepping
        assert 1 < np.unique(death[death < n]).size
        alive = death == n
        assert alive.any()
        assert (np.diff(values[:, alive], axis=0) != 0).all()
        return death

    @pytest.mark.parametrize("model, cfg", CASES, ids=IDS)
    def test_single(self, model, cfg):
        res = simulate_ensemble(model, 1.0, cfg)
        death = self.check_deaths(res.values)
        assert np.array_equal(res.exploded, death < len(res.times))
        if model is self.LAM_CAP:  # the cap, not x_max, ended these paths
            last = res.values[death[res.exploded] - 1, np.flatnonzero(res.exploded)]
            assert (last * 1e4 * cfg.dt > simulator._LAM_CAP).all()
            assert (last <= cfg.x_max).all()
        again = simulate_ensemble(model, 1.0, cfg)
        assert res.values.tobytes() == again.values.tobytes()

    @pytest.mark.parametrize("model, cfg", CASES, ids=IDS)
    def test_coupled(self, model, cfg, monkeypatch):
        step, apply = simulator._step_coupled, simulator._apply_jump_events
        dead = []  # the pairs dead at the start of the step running

        def stepping(state, *args):
            dead[:] = [~np.isfinite(state.x)]
            return step(state, *args)

        def applying(state, g, counts, *args):
            assert not counts[dead[0]].any()  # a dead pair takes no jump event
            return apply(state, g, counts, *args)

        monkeypatch.setattr(simulator, "_step_coupled", stepping)
        monkeypatch.setattr(simulator, "_apply_jump_events", applying)
        res = simulate_coupled_ensemble(model, 2.0, 1.9, cfg, _record_events=True)
        death = self.check_deaths(res.x_values)
        assert np.array_equal(~np.isfinite(res.y_values), ~np.isfinite(res.x_values))
        assert np.array_equal(res.exploded, death < len(res.times))
        # a pair couples only while its leader lives: a dead pair gets no coupling time
        coupled = np.isfinite(res.coupling_times)
        assert (np.rint(res.coupling_times[coupled] / cfg.dt) < death[coupled]).all()
        if model is self.X_MAX:
            assert (coupled & res.exploded).any() and (coupled & ~res.exploded).any()
        again = simulate_coupled_ensemble(model, 2.0, 1.9, cfg, _record_events=True)
        for name in ("x_values", "y_values", "coupling_times", "exploded"):
            assert getattr(res, name).tobytes() == getattr(again, name).tobytes()
        assert repr(res.lasso_events) == repr(again.lasso_events)

    def test_single_dead_paths_draw_no_immigration(self, monkeypatch):
        """A dead path of the single stepper draws no immigration count: its
        Poisson rate is 0, which takes no number from the stream, so it gets no
        event.  On LAM_CAP about 2 paths in 5 die while immigration goes on."""
        live_now, counts = [], []
        real_live, real_per_lane = simulator._live, simulator._Group.per_lane

        def live(plan, x, dt):
            out = real_live(plan, x, dt)
            live_now[:] = [out[1]]
            return out

        def per_lane(group, which, draw):
            out = real_per_lane(group, which, draw)
            if which == "nu" and out.dtype.kind == "i":  # the step's immigration counts
                counts.append((live_now[0].copy(), out))
            return out

        monkeypatch.setattr(simulator, "_live", live)
        monkeypatch.setattr(simulator._Group, "per_lane", per_lane)
        res = simulate_ensemble(self.LAM_CAP, 1.0, SimConfig(dt=1e-3, t_end=0.3, seed=19,
                                                             n_paths=400))
        assert len(counts) == len(res.times) - 1  # one draw per step, and this test saw it
        mixed = [(lv, c) for lv, c in counts if not lv.all()]
        assert len(mixed) > 100
        assert sum(int(c[~lv].sum()) for lv, c in mixed) == 0
        assert sum(int(c[lv].sum()) for lv, c in mixed) > 0  # the live paths still immigrate

    def test_coupled_dead_pairs_draw_no_immigration(self, monkeypatch):
        """A dead pair of the coupled stepper draws no immigration count, as a dead
        path of the single stepper draws none: its Poisson rate is 0."""
        live_now, counts = [], []
        real_live, real_per_lane = simulator._live, simulator._Group.per_lane

        def live(plan, x, dt):
            out = real_live(plan, x, dt)
            live_now[:] = [out[1]]
            return out

        def per_lane(group, which, draw):
            out = real_per_lane(group, which, draw)
            if which == "nu" and out.dtype.kind == "i":  # the step's immigration counts
                counts.append((live_now[0].copy(), out))
            return out

        monkeypatch.setattr(simulator, "_live", live)
        monkeypatch.setattr(simulator._Group, "per_lane", per_lane)
        res = simulate_coupled_ensemble(self.LAM_CAP, 1.0, 0.9, SimConfig(dt=1e-3, t_end=0.3,
                                                                          seed=19, n_paths=400))
        assert len(counts) == len(res.times) - 1  # one draw per step, and this test saw it
        mixed = [(lv, c) for lv, c in counts if not lv.all()]
        assert len(mixed) > 100
        assert sum(int(c[~lv].sum()) for lv, c in mixed) == 0
        assert sum(int(c[lv].sum()) for lv, c in mixed) > 0  # the live pairs still immigrate


class TestLockstep:
    """Ensembles stepped as one array draw only from their own streams."""

    STABLE = ModelSpec(
        stable_to_generic(1.0, 0.1, 1.0, 0.5),
        ImmigrationMechanism(0.5),
        CompetitionMechanism.power(3.5, 1.5),
    )

    @pytest.mark.parametrize("model", [TestChunkIndependence.MODEL, STABLE],
                             ids=["thinning", "stable"])
    def test_lanes_equal_separate_runs(self, model, monkeypatch):
        widths, step = [], simulator._step_single

        def recording(x, g, dt, normals):
            widths.append(x.size)
            return step(x, g, dt, normals)

        monkeypatch.setattr(simulator, "_step_single", recording)
        monkeypatch.setattr(simulator, "_workers", lambda n_groups: 1)  # one CPU: one group
        cfg = SimConfig(dt=1e-3, t_end=0.3, n_paths=16)
        starts = [(0.0, 11), (8.0, 12)]
        together = simulate_ensembles(model, starts, cfg, record_times=[0.1, 0.2, 0.3])
        assert set(widths) == {32}
        for (x0, seed), res in zip(starts, together):
            alone = simulate_ensemble(model, x0, replace(cfg, seed=seed),
                                      record_times=[0.1, 0.2, 0.3])
            assert np.array_equal(res.times, alone.times)
            assert np.array_equal(res.values, alone.values)
            assert np.array_equal(res.exploded, alone.exploded)

    def test_starts_with_different_plans_keep_stationary_estimate(self, monkeypatch):
        mu = LevyMeasure.sum_of([LevyMeasure.stable(0.6, 0.5), LevyMeasure.uniform(0.8, 0.1, 0.7)])
        model = ModelSpec(BranchingMechanism(0.8, 0.2, mu), ImmigrationMechanism(0.5),
                          CompetitionMechanism.none())
        cfg = SimConfig(dt=2e-3, seed=5)
        assert simulator._Plan(model, cfg, 0.0).eps_mu != simulator._Plan(model, cfg, 8.0).eps_mu
        together = estimate_stationary(model, cfg, 0.5, 64)

        def separate(model, starts, cfg, record_times=None):
            return [simulate_ensemble(model, x0, replace(cfg, seed=seed), record_times)
                    for x0, seed in starts]

        monkeypatch.setattr(ergodicity, "simulate_ensembles", separate)
        alone = estimate_stationary(model, cfg, 0.5, 64)
        for name in ("atoms", "probs", "sample_mean", "sample_mean_se", "two_start_distance",
                     "threshold", "converged", "n_samples"):
            assert np.array_equal(getattr(together, name), getattr(alone, name)), name

    def test_coupled_lanes_equal_one_lane_per_group(self, monkeypatch):
        # every draw site of the coupled step: a Gaussian part (c > 0), the
        # event passes of a stable + uniform + atoms mu and of a uniform nu,
        # and the sub-eps lasso block, whose rates are positive at gaps < eps
        mu = LevyMeasure.sum_of([LevyMeasure.stable(0.6, 0.5), LevyMeasure.uniform(0.8, 0.1, 0.7),
                                 LevyMeasure.from_atoms([(1.5, 0.3)])])
        model = ModelSpec(BranchingMechanism(0.4, 0.2, mu),
                          ImmigrationMechanism(0.3, LevyMeasure.uniform(0.5, 0.0, 1.0)),
                          CompetitionMechanism.none())
        eps = 0.05
        cfg = SimConfig(dt=1e-3, t_end=0.05, eps=eps, seed=3, n_paths=2500)  # three lanes
        widths, step = [], simulator._step_coupled

        def recording(state, g, *args):
            widths.append(g.cols.stop - g.cols.start)
            return step(state, g, *args)

        monkeypatch.setattr(simulator, "_step_coupled", recording)
        results = []
        for n in (1, 3):  # one 2500-wide group; one lane per group, one worker each
            widths.clear()
            monkeypatch.setattr(simulator, "_workers", lambda n_groups, n=n: min(n, n_groups))
            results.append(simulate_coupled_ensemble(
                model, 1.0, 0.97, cfg, record_times=np.linspace(0.0, 0.05, 6), _record_events=True))
            assert set(widths) == {2500 if n == 1 else 1024}  # the other lanes step in children
        one, per_lane = results
        for name in ("times", "x_values", "y_values", "coupling_times", "exploded"):
            assert np.array_equal(getattr(one, name), getattr(per_lane, name)), name
        assert one.lasso_events == per_lane.lasso_events  # in order: lane after lane
        assert any(dx == 0.0 for _, _, _, dx, _ in one.lasso_events)  # a sub-eps merge
        assert any(dx > eps for _, _, _, dx, _ in one.lasso_events)  # a jump event's

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_split_stable_increments_equal_per_lane_draws(self, alpha):
        rngs = lambda: [np.random.default_rng(s) for s in (3, 4)]
        sizes = (16, 5)
        per_lane = np.concatenate([
            stable_increments(alpha, 1e-3, rng, n) for rng, n in zip(rngs(), sizes)
        ])
        draws = [stable_draws(alpha, rng, n) for rng, n in zip(rngs(), sizes)]
        u, w = (np.concatenate(parts) for parts in zip(*draws))
        split = simulator._stable_transform(alpha, 1e-3, u, w)
        assert np.array_equal(per_lane, split)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_chunked_stable_increments_equal_per_step_draws(self, alpha):
        for n_steps in (1000, 7):  # chunks of 390 rows: three, the last cut short; one of 7
            group = simulator._Group(types.SimpleNamespace(alpha=alpha), 0)
            for block, width in ((0, 16), (1, 5)):
                group.add(simulator._Streams(9, block), width)
            rows = np.array(list(group.increments(1e-3, n_steps)))
            fresh = [simulator._Streams(9, block).mu for block in (0, 1)]
            steps = []
            for _ in range(n_steps):
                draws = [stable_draws(alpha, rng, n) for rng, n in zip(fresh, (16, 5))]
                u, w = (np.concatenate(parts) for parts in zip(*draws))
                steps.append(simulator._stable_transform(alpha, 1e-3, u, w))
            assert np.array_equal(rows, np.array(steps))
            # each mu stream stands where the run's own steps leave it: no draws beyond them
            assert [s.mu.random() for s, _ in group.lanes] == [rng.random() for rng in fresh]

    def test_predrawn_normals_equal_per_step_draws(self):
        group = simulator._Group(None, 0)
        for block, width in ((0, 16), (1, 7)):
            group.add(simulator._Streams(9, block), width)
        rows = np.array(list(itertools.islice(group.normals(), 1000)))  # chunks of 356 rows
        fresh = [simulator._Streams(9, block) for block in (0, 1)]
        steps = np.array([
            np.concatenate([fresh[0].gauss.standard_normal(16), fresh[1].gauss.standard_normal(7)])
            for _ in range(1000)
        ])
        assert np.array_equal(rows, steps)


class TestReadAhead:
    """``simulator._counts`` with a bound on the rates gives, step after step,
    the counts that per-step ``Generator.poisson`` gives on twin generators, and
    leaves each lane's stream where the twin leaves its own: checked by the
    position uniforms an event draws, as ``_add_jumps`` draws them, and by the
    next ``random()`` after the run.  A lane whose read-ahead window settles a
    step (every count surely 0) draws nothing; a step every lane settles
    returns None."""

    @staticmethod
    def run(seed, widths, steps, which="mu"):
        """Checks ``steps``, (rates, bound) pairs, against the twins.  Returns one
        (lanes settled, events drawn, event met with window rows taken) per step."""
        g = simulator._Group(None, 0)
        for block, width in enumerate(widths):
            g.add(simulator._Streams(seed, block), width)
        twins = [getattr(simulator._Streams(seed, block), which) for block in range(len(widths))]
        log = []
        for lam, top in steps:
            want = [t.poisson(lam if isinstance(lam, float) else lam[sl], sl.stop - sl.start)
                    for t, (_, sl) in zip(twins, g.lanes)]
            taken = [which in s.ahead and s.ahead[which].taken > 0 for s, _ in g.lanes]
            got = simulator._counts(g, which, lam, top)
            # a lane that did not settle the step dropped its window
            settled = [which in s.ahead and s.ahead[which].rowmax is not None for s, _ in g.lanes]
            assert (got is None) == all(settled)
            for c, ok in zip(want, settled):
                assert not (ok and c.any())
            if got is not None:
                assert got.dtype == want[0].dtype and np.array_equal(got, np.concatenate(want))
            events = sum(int(c.sum()) for c in want)
            if events:
                u = g.per_lane(which, lambda r, sl: r.random((2, int(got[sl].sum()))))
                assert np.array_equal(u, np.concatenate(
                    [t.random((2, int(c.sum()))) for t, c in zip(twins, want)], axis=1))
            log.append((settled, events > 0, any(t and c.any() for t, c in zip(taken, want))))
        for (s, _), t in zip(g.lanes, twins):
            assert s.rng(which).random() == t.random()
        return log

    @pytest.mark.parametrize("width", [1, 16, 512])  # 512: a window of two rows
    def test_events_inside_windows(self, width):
        meta = np.random.default_rng(width)
        top = 0.016 / width
        steps = [(top * (0.5 + 0.5 * meta.random(width)), top) for _ in range(3000)]
        log = self.run(5, (width,), steps)
        assert sum(s[0] for s, _, _ in log) > 2500
        assert sum(inside for _, _, inside in log) > 5

    def test_a_float_rate(self):
        log = self.run(6, (16,), [(1e-3, 1e-3)] * 3000, which="nu")
        assert sum(s[0] for s, _, _ in log) > 2500
        assert sum(inside for _, _, inside in log) > 5

    def test_a_rate_at_zero_never_reads_ahead(self):
        """A rate of 0 takes no number, so its lane draws every step as numpy does."""
        lam = np.full(16, 1e-3)
        lam[[0, 9]] = 0.0, -0.0
        log = self.run(7, (16,), [(lam, 1e-3)] * 1000)
        assert not any(s[0] for s, _, _ in log)
        assert any(e for _, e, _ in log)

    def test_a_rate_of_ten_after_a_window(self):
        """A step past the gate catches the stream up and goes to numpy's ``poisson``."""
        calm, big = (np.full(16, 1e-3), 1e-3), np.full(16, 1e-3)
        big[5] = 12.0  # transformed rejection, rate >= 10
        log = self.run(8, (16,), ([calm] * 20 + [(big, 12.0)]) * 5)
        for k, (settled, events, inside) in enumerate(log):
            if k % 21 == 20:
                assert not settled[0] and events and inside
        assert sum(s[0] for s, _, _ in log) > 80

    def test_two_lanes_one_settles(self):
        lam = np.full(32, 1e-3)
        log = self.run(9, (16, 16), [(lam, 1e-3)] * 3000)
        both = [tuple(s) for s, _, _ in log]
        assert {(True, False), (False, True)} <= set(both)
        lam[20] = 0.0  # the second lane never reads ahead
        log = self.run(10, (16, 16), [(lam, 1e-3)] * 1000)
        assert all(not s[1] for s, _, _ in log)
        assert sum(s[0] for s, _, _ in log) > 900

    def test_the_gate(self):
        """A lane reads ahead only while width * bound < _AHEAD_GATE, and only
        if its window holds at least two rows."""
        below, above = 0.9 * simulator._AHEAD_GATE / 16, 1.1 * simulator._AHEAD_GATE / 16
        tops = ([below] * 6 + [above] * 4) * 50
        log = self.run(11, (16,), [(np.full(16, t), t) for t in tops])
        settled = [s[0] for s, _, _ in log]
        assert not any(ok for ok, t in zip(settled, tops) if t == above)
        assert sum(settled) > 100
        log = self.run(12, (513,), [(np.full(513, 1e-5), 1e-5)] * 50)
        assert not any(s[0] for s, _, _ in log)

    def test_paths_at_zero_in_a_group(self, monkeypatch):
        """With beta = 0 a path at 0 stays there: its lane steps as the reference
        does, while the other lane of the group reads ahead."""
        model = ModelSpec(BranchingMechanism(0.5, 0.0, LevyMeasure.uniform(1.0, 0.0, 1.0)),
                          ImmigrationMechanism(0.0), CompetitionMechanism.none())
        cfg = SimConfig(dt=1e-3, t_end=0.5, seed=12, n_paths=16)
        x0 = np.where(np.arange(16) % 3 == 0, 0.0, 1.0)
        starts = [(x0, 12), (1.0, 13)]
        monkeypatch.setattr(simulator, "_workers", lambda n: 1)  # one group of two lanes
        settled = []
        sure_zero = simulator._Streams.sure_zero

        def spy(self, which, width, top):
            settled.append(sure_zero(self, which, width, top))
            return settled[-1]

        monkeypatch.setattr(simulator._Streams, "sure_zero", spy)
        res = simulate_ensembles(model, starts, cfg)
        assert sum(settled) > 400
        monkeypatch.setattr(simulator, "_step_single", references.step_single)
        ref = simulate_ensembles(model, starts, cfg)
        for a, b in zip(res, ref):
            assert a.values.tobytes() == b.values.tobytes()
        assert (res[0].values[:, x0 == 0.0] == 0.0).all()


class TestStepOracle:
    """Both steppers record, bit for bit, the states the per-step references
    record (``references.step_single``, ``step_coupled`` and ``increments``):
    carrying the live state from step to step, drawing the stable increments
    in place and the steppers' g change no bit, in one lane and in several."""

    @staticmethod
    def shipped(name):
        run = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                       f"{name}.cfg"))
        return run.model, run.sim

    # ergodic_v1 steps without the live mask after its first step; critical_cbi,
    # whose x_max mu_rate dt is above the cap, and lam_cap keep it at every step
    NAMES = ["ergodic_v1", "critical_cbi", "stable_power_vlog", "neveu_xlog", "x_max", "lam_cap"]

    def case(self, name, n_paths, n_steps):
        if name in ("x_max", "lam_cap"):
            model, cfg = TestDeadPaths.CASES[TestDeadPaths.IDS.index(name)]
        else:
            model, cfg = self.shipped(name)
        return model, replace(cfg, t_end=n_steps * cfg.dt, seed=41, n_paths=n_paths)

    @pytest.mark.parametrize("n_paths", [16, 2500], ids=["one-lane", "three-lanes"])
    @pytest.mark.parametrize("name", NAMES)
    def test_single(self, name, n_paths, monkeypatch):
        model, cfg = self.case(name, n_paths, 600)  # 16 paths: two chunks of increments
        x0 = np.full(n_paths, 1.0)
        x0[:2] = 0.0, -0.0
        res = simulate_ensemble(model, x0, cfg)
        monkeypatch.setattr(simulator, "_step_single", references.step_single)
        monkeypatch.setattr(simulator._Group, "increments", references.increments)
        ref = simulate_ensemble(model, x0, cfg)
        assert res.values.shape == (601, n_paths)
        assert res.values.tobytes() == ref.values.tobytes()
        if name in ("x_max", "lam_cap"):
            assert 0 < np.count_nonzero(res.exploded) < n_paths

    @pytest.mark.parametrize("g", [
        CompetitionMechanism.linear(0.7), CompetitionMechanism.power(1.3, 3.0),
        CompetitionMechanism.power(1.3, 1.5), CompetitionMechanism.xlog(1.3),
    ], ids=["linear", "cube", "power", "xlog"])
    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_drift_equals_the_mechanisms_g(self, g, beta):
        # at a -0.0 start state the steppers' g may differ from g in sign, and
        # the drift, +0.0 there less that term, not
        model = ModelSpec(BranchingMechanism(0.5, 0.0), ImmigrationMechanism(beta), g)
        plan = simulator._Plan(model, SimConfig(), 1.0)
        xs = np.array([0.0, -0.0, 5e-324, 0.5, 2.0, 1e3, 1e200, math.inf])
        with np.errstate(over="ignore", invalid="ignore"):
            assert simulator._drift(plan, xs).tobytes() == references.drift(plan, xs).tobytes()

    @pytest.mark.parametrize("n_paths", [16, 2500], ids=["one-lane", "three-lanes"])
    @pytest.mark.parametrize("name", NAMES)
    def test_coupled(self, name, n_paths, monkeypatch):
        # the stable models' heavy-tailed jumps make coupled steps costly: fewer of them
        model, cfg = self.case(name, n_paths, 40 if "stable" in name or "neveu" in name else 100)
        res = simulate_coupled_ensemble(model, 2.0, 1.9, cfg, _record_events=True)
        monkeypatch.setattr(simulator, "_step_coupled", references.step_coupled)
        ref = simulate_coupled_ensemble(model, 2.0, 1.9, cfg, _record_events=True)
        for field_ in ("x_values", "y_values", "coupling_times", "exploded"):
            assert getattr(res, field_).tobytes() == getattr(ref, field_).tobytes(), field_
        assert repr(res.lasso_events) == repr(ref.lasso_events)
        if name in ("x_max", "lam_cap"):
            assert 0 < np.count_nonzero(res.exploded) < n_paths


class TestPooled:
    """Groups stepped in forked worker processes give what one process gives."""

    MODEL = TestChunkIndependence.MODEL

    @staticmethod
    def run(monkeypatch, n_workers, fn):
        """fn() with the groups dealt to at most ``n_workers`` processes; checks the forks made."""
        forks, fork = [], os.fork

        def counting_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(simulator, "_workers", lambda n_groups: min(n_workers, n_groups))
        try:
            return fn()
        finally:
            monkeypatch.setattr(os, "fork", fork)
            assert len(forks) == n_workers - 1
            with pytest.raises(ChildProcessError):  # every child was reaped
                os.waitpid(-1, os.WNOHANG)

    def both(self, monkeypatch, fn):
        return [self.run(monkeypatch, n, fn) for n in (1, 2)]

    @pytest.mark.parametrize("model", [MODEL, TestLockstep.STABLE], ids=["thinning", "stable"])
    def test_ensemble(self, monkeypatch, model):
        cfg = SimConfig(dt=1e-3, t_end=0.2, seed=4, n_paths=2500)
        one, two = self.both(monkeypatch, lambda: simulate_ensemble(
            model, 1.0, cfg, record_times=np.linspace(0.0, 0.2, 5)))
        assert np.array_equal(one.times, two.times)
        assert np.array_equal(one.values, two.values)
        assert np.array_equal(one.exploded, two.exploded)

    def test_coupled_ensemble(self, monkeypatch):
        cfg = SimConfig(dt=5e-3, t_end=0.5, seed=6, n_paths=2100)
        one, two = self.both(monkeypatch, lambda: simulate_coupled_ensemble(
            self.MODEL, 2.0, 0.5, cfg, record_times=np.linspace(0.0, 0.5, 11)))
        assert np.isfinite(one.coupling_times).any()
        for name in ("times", "x_values", "y_values", "coupling_times", "exploded"):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name

    def test_ensembles_with_two_plans(self, monkeypatch):
        mu = LevyMeasure.sum_of([LevyMeasure.stable(0.6, 0.5), LevyMeasure.uniform(0.8, 0.1, 0.7)])
        model = ModelSpec(BranchingMechanism(0.8, 0.2, mu), ImmigrationMechanism(0.5),
                          CompetitionMechanism.none())
        cfg = SimConfig(dt=2e-3, t_end=0.2, n_paths=1100)
        starts = [(0.0, 5), (8.0, 6)]
        one, two = self.both(monkeypatch, lambda: simulate_ensembles(
            model, starts, cfg, record_times=[0.1, 0.2]))
        for a, b in zip(one, two):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.exploded, b.exploded)

    @pytest.mark.parametrize("model", [MODEL, TestLockstep.STABLE], ids=["thinning", "stable"])
    def test_stationary_starts_step_in_two_workers(self, monkeypatch, model):
        made, group = [], simulator._Group

        def recording(*args):
            made.append(group(*args))
            return made[-1]

        monkeypatch.setattr(simulator, "_Group", recording)
        cfg = SimConfig(dt=1e-3, seed=5)
        ests, widths = [], []
        for n in (1, 2):
            made.clear()
            ests.append(self.run(monkeypatch, n, lambda: estimate_stationary(model, cfg, 0.5, 64)))
            widths.append([g.cols.stop - g.cols.start for g in made])
        assert widths == [[32], [16, 16]]  # one group per worker
        for name in ("atoms", "probs", "sample_mean", "sample_mean_se", "two_start_distance",
                     "threshold", "converged", "n_samples"):
            assert np.array_equal(getattr(ests[0], name), getattr(ests[1], name)), name

    def test_dt_refinement(self, monkeypatch):
        model = ModelSpec(BranchingMechanism(1.0, 0.3), ImmigrationMechanism(0.4),
                          CompetitionMechanism.none())
        cfg = SimConfig(dt=2e-3, t_end=0.2, seed=3, n_paths=2100)
        one, two = self.both(monkeypatch, lambda: mean_with_dt_refinement(model, 1.5, cfg))
        assert one == two

    def test_one_group_per_worker(self, monkeypatch):
        cfg = SimConfig(dt=1e-3, t_end=0.05, seed=8, n_paths=4100)  # five groups, five workers
        one, five = (self.run(monkeypatch, n, lambda: simulate_ensemble(self.MODEL, 1.0, cfg))
                     for n in (1, 5))
        assert np.array_equal(one.values, five.values)

    @staticmethod
    def lane_starts(g):
        """The column of the driven fields at which each lane of group ``g`` starts."""
        return [g.cols.start + sl.start for _, sl in g.lanes]

    def test_nan_in_a_child_raises_the_serial_error(self, monkeypatch):
        # the lane at column 1024 alone gets NaN normals: with two workers its
        # group is stepped in the child
        step = simulator._step_single

        def nan_in_second_lane(x, g, dt, normals):
            normals = normals.copy()
            for (_, sl), col in zip(g.lanes, self.lane_starts(g)):
                if col == 1024:
                    normals[sl] = np.nan
            return step(x, g, dt, normals)

        monkeypatch.setattr(simulator, "_step_single", nan_in_second_lane)
        cfg = SimConfig(dt=1e-3, t_end=0.05, seed=2, n_paths=2500)
        errors = []
        for n in (1, 2):
            with pytest.raises(SimulationError) as info:
                self.run(monkeypatch, n, lambda: simulate_ensemble(self.MODEL, 1.0, cfg))
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "single-path Euler step produced a NaN state"

    def test_first_failing_group_wins(self, monkeypatch):
        # a group fails at its first lane from column 1024 on: with two workers,
        # group 2 (the lane at 2048) fails in this process and group 1 (the lane
        # at 1024) in the child; one worker steps all three lanes as one group
        def fail_from_second_lane(x, g, dt, normals):
            failing = [col for col in self.lane_starts(g) if col >= 1024]
            if failing:
                raise SimulationError(f"lane at column {failing[0]}")
            return x

        monkeypatch.setattr(simulator, "_step_single", fail_from_second_lane)
        cfg = SimConfig(dt=1e-3, t_end=0.01, n_paths=2500)
        for n in (1, 2):
            with pytest.raises(SimulationError, match="^lane at column 1024$"):
                self.run(monkeypatch, n, lambda: simulate_ensemble(self.MODEL, 1.0, cfg))

    def test_nan_in_a_coupled_child_raises_the_serial_error(self, monkeypatch):
        # c = 1e308 makes both Gaussian parts of a pair 10 apart near 1e4
        # infinite, of either sign, so the leader's sum is NaN; only the pairs
        # of the lane at column 1024 start there, and with two workers its
        # group is stepped in the child
        model = ModelSpec(BranchingMechanism(0.5, 1e308, LevyMeasure.uniform(2.0, 0.0, 1.0)),
                          ImmigrationMechanism(0.3), CompetitionMechanism.none())
        x0, y0 = np.full(2100, 2.0), np.full(2100, 0.5)
        x0[1024:2048], y0[1024:2048] = 1e4, 1e4 - 10.0
        cfg = SimConfig(dt=1e-3, t_end=0.01, seed=1, n_paths=2100)
        errors, shown = [], []
        for n in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(SimulationError) as info:
                    self.run(monkeypatch, n, lambda: simulate_coupled_ensemble(model, x0, y0, cfg))
            errors.append(str(info.value))
            shown.append([(str(w.message), w.category) for w in caught])
        assert errors[0] == errors[1] == "coupled Euler step produced a NaN state"
        assert shown[0] == shown[1]

    def test_a_worker_ending_without_results_is_an_error(self, monkeypatch):
        parent, run_share = os.getpid(), simulator._run_share

        def exit_in_the_child(run, share):
            if os.getpid() != parent:
                os._exit(1)  # before it writes anything to its pipe
            return run_share(run, share)

        monkeypatch.setattr(simulator, "_run_share", exit_in_the_child)
        cfg = SimConfig(dt=1e-3, t_end=0.01, seed=2, n_paths=2048)
        # run() checks that the child was forked and reaped
        with pytest.raises(SimulationError, match=r"^a simulation worker process ended without "
                                                  r"results \(wait status 256\)$"):
            self.run(monkeypatch, 2, lambda: simulate_ensemble(self.MODEL, 1.0, cfg))

    def test_interrupt_reaps_the_workers(self, monkeypatch):
        # run() checks that one child was forked and that it was reaped
        step = simulator._step_single

        def interrupt_in_this_process(x, g, dt, normals):
            if g.cols.start == 0:  # group 0 is stepped by the calling process
                raise KeyboardInterrupt
            return step(x, g, dt, normals)

        monkeypatch.setattr(simulator, "_step_single", interrupt_in_this_process)
        cfg = SimConfig(dt=1e-3, t_end=0.05, seed=2, n_paths=2048)
        with pytest.raises(KeyboardInterrupt):
            self.run(monkeypatch, 2, lambda: simulate_ensemble(self.MODEL, 1.0, cfg))

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_warnings_come_back_in_group_order(self, monkeypatch, capfd, action):
        # at its group's first step each lane warns three times, so the lanes
        # warn in column order whether one group or three hold them
        step, stepped = simulator._step_single, []

        def warning(x, g, dt, normals):
            if all(h is not g for h in stepped):
                stepped.append(g)
                for col in self.lane_starts(g):
                    for _ in range(3):
                        warnings.warn(f"lane at column {col}", RuntimeWarning)
            return step(x, g, dt, normals)

        monkeypatch.setattr(simulator, "_step_single", warning)
        cfg = SimConfig(dt=1e-3, t_end=0.01, n_paths=2500)
        shown = []
        for n in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                self.run(monkeypatch, n, lambda: simulate_ensemble(self.MODEL, 1.0, cfg))
            shown.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
        per_lane = 3 if action == "always" else 1  # "default" shows each message once
        assert [m for m, *_ in shown[0]] == [
            f"lane at column {c}" for c in (0, 1024, 2048) for _ in range(per_lane)]
        assert shown[0] == shown[1]
        assert capfd.readouterr() == ("", "")  # the child wrote nothing itself


class TestPlanTerms:
    """A step computes and draws only the terms its plan has, with the same results."""

    PURE_JUMP = ModelSpec(
        BranchingMechanism(0.5, 0.0, LevyMeasure.uniform(2.0, 0.0, 1.0)),
        ImmigrationMechanism(0.3, LevyMeasure.uniform(1.0, 0.5, 1.5)),
        CompetitionMechanism.power(0.0, 1.5),
    )
    STABLE = ModelSpec(
        stable_to_generic(1.0, 0.0, 1.0, 0.5),
        ImmigrationMechanism(0.5),
        CompetitionMechanism.power(3.5, 1.5),
    )
    STATES = [0.0, -0.0, 5e-324, 1e308, 0, 1.0]
    STEP_STATES = [0.0, -0.0, 5e-324, 0, 1.0, 1e6]  # a stable step from 1e308 is NaN

    def test_zero_gaussian_term_leaves_the_sum(self):
        xl, drift = (np.array(v, dtype=float) for v in zip(*[
            (x, d) for x in self.STATES for d in self.STATES + [-5e-324, -1e308, -1.0]
            # -0.0 + -0.0 is the one sum a +0.0 term changes; no stepper forms
            # it (test_drift_at_a_zero_state_is_not_negative_zero)
            if not (x == d == 0.0 and np.signbit(x) and np.signbit(d))
        ]))
        for z in (1.0, -1.0, 0.0, -0.0, 3.7, -1e300):
            for dt in (1e-3, 5e-324, 1.0):
                with np.errstate(over="ignore"):  # 1e308 + 1e308 is inf on both sides
                    full = xl + drift + np.sqrt(np.maximum(2.0 * (0.0 * xl * dt), 0.0)) * z
                    part = xl + drift
                assert np.array_equal(full, part)
                assert np.array_equal(np.signbit(full), np.signbit(part))

    @pytest.mark.parametrize("beta", [0.0, -0.0, 0.3])
    @pytest.mark.parametrize("b", [-0.5, 0.0, 0.5])
    def test_drift_at_a_zero_state_is_not_negative_zero(self, beta, b):
        model = ModelSpec(BranchingMechanism(b, 0.0), ImmigrationMechanism(beta),
                          CompetitionMechanism.none())
        plan = simulator._Plan(model, SimConfig(), 0.0)
        for xl in (np.zeros(2), np.full(2, -0.0)):
            drift = (plan.beta_eff - plan.b_eff * xl - plan.g(xl)) * 1e-3
            assert not np.signbit(drift).any()
            assert not np.signbit(xl + drift).any()

    @staticmethod
    def forced(plan):
        """A copy of ``plan`` that computes every term, the zero ones included."""
        full = copy.copy(plan)
        full.gaussian = full.competes = True
        return full

    @pytest.mark.parametrize("model", [PURE_JUMP, STABLE], ids=["thinning", "stable"])
    def test_single_step_equals_the_full_step(self, model):
        cfg = SimConfig(dt=1e-3)
        x = np.array(self.STEP_STATES * 3)
        plan = simulator._Plan(model, cfg, 1.0)
        assert not plan.gaussian
        out = []
        for p, normals in ((plan, None), (self.forced(plan), np.random.default_rng(1).standard_normal(x.size))):
            g = simulator._Group(p, 0)
            g.add(simulator._Streams(3, 0), x.size)
            g.inc = g.increments(cfg.dt, 3)
            out.append([simulator._step_single(x, g, cfg.dt, normals) for _ in range(3)][-1])
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(np.signbit(out[0]), np.signbit(out[1]))

    def test_coupled_step_equals_the_full_step(self):
        cfg = SimConfig(dt=1e-3)
        x = np.array(self.STEP_STATES * 3)
        y = np.minimum(x, np.array([0.0, -0.0, 0.5] * 6))
        plan = simulator._Plan(self.PURE_JUMP, cfg, 1.0, force_thinning=True)
        out = []
        for p in (plan, self.forced(plan)):
            g = simulator._Group(p, 0)
            g.add(simulator._Streams(3, 0), x.size)
            g.gauss = iter(np.random.default_rng(1).standard_normal((6, x.size)))
            state = simulator._CoupledState(x, y, True)
            for k in range(3):
                state = simulator._step_coupled(state, g, cfg.dt, k * cfg.dt)
            out.append(state)
        assert out[0].events == out[1].events
        for name in ("x", "y", "coupled", "t_couple"):
            a, b = getattr(out[0], name), getattr(out[1], name)
            assert np.array_equal(a, b), name
            assert np.array_equal(np.signbit(a), np.signbit(b)), name

    @staticmethod
    def rows_per_step(monkeypatch, fn, n_steps):
        """(rows of normals taken per step, calls on any Gaussian stream) of fn()."""
        rows, calls, normals, streams = [], [], simulator._Group.normals, simulator._Streams

        def counting(self):
            for row in normals(self):
                rows.append(None)
                yield row

        class Gauss:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, size):
                calls.append(size)
                return self.gen.standard_normal(size)

        def counting_streams(seed, block):
            s = streams(seed, block)
            s.gauss = Gauss(s.gauss)
            return s

        with monkeypatch.context() as m:
            m.setattr(simulator._Group, "normals", counting)
            m.setattr(simulator, "_Streams", counting_streams)
            fn()
        return len(rows) / n_steps, len(calls)

    CFG = SimConfig(dt=1e-3, t_end=0.05, seed=4, n_paths=16)

    @pytest.mark.parametrize("model, single, coupled", [
        (PURE_JUMP, 0, 0),
        (STABLE, 0, 4),  # couple thins the jumps, so the sub-eps variance needs all four rows
        (TestChunkIndependence.MODEL, 1, 2),  # c > 0
    ], ids=["thinning-c0", "stable-c0", "diffusion"])
    def test_rows_drawn(self, monkeypatch, model, single, coupled):
        for fn, taken in ((lambda: simulate_ensemble(model, 1.0, self.CFG), single),
                          (lambda: simulate_coupled_ensemble(model, 2.0, 0.5, self.CFG), coupled)):
            rows, calls = self.rows_per_step(monkeypatch, fn, 50)
            assert rows == taken
            # a plan without a Gaussian part makes no call on any Gaussian stream
            assert (calls == 0) == (taken == 0)


class TestSimConfig:
    def test_step_count_fits_int64(self):
        """t_end / dt steps must be below 2^63; an infinite ratio fails too."""
        SimConfig(dt=1.0, t_end=math.nextafter(2.0 ** 63, 0.0))
        for dt, t_end in ((1.0, 2.0 ** 63), (0.5, 2.0 ** 62), (5e-324, 1.0), (1e-300, 1e-200)):
            with pytest.raises(SimulationError, match=r"^t_end / dt must be below 2\^63 steps$"):
                SimConfig(dt=dt, t_end=t_end)
        assert SimConfig(dt=5e-324, t_end=0.0).t_end == 0.0


class TestDtRefinement:
    def test_diffusion_cbi_close_under_halving(self):
        model = ModelSpec(
            BranchingMechanism(1.0, 0.3),
            ImmigrationMechanism(0.4),
            CompetitionMechanism.none(),
        )
        cfg = SimConfig(dt=2e-3, t_end=1.0, seed=3, n_paths=4000)
        coarse, fine, se = mean_with_dt_refinement(model, 1.5, cfg)
        assert abs(coarse - fine) < se

    def test_rejects_jump_models(self, ergodic_v1_model):
        with pytest.raises(SimulationError):
            mean_with_dt_refinement(ergodic_v1_model, 1.0, SimConfig(n_paths=8))
