import copy
import itertools
import math
import os
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cbic import ergodicity, simulator
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
    cbi_laplace,
    mean_with_dt_refinement,
    read_path_dump,
    resolve_eps,
    sample_stable_increment,
    simulate_coupled,
    simulate_coupled_ensemble,
    simulate_ensemble,
    simulate_ensembles,
    simulate_path,
    solve_vt,
    write_ensemble_csv,
    write_path_dump,
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
        inc = sample_stable_increment(0.5, 0.02, rng, size=5000)
        assert (inc >= 0.0).all()

    @pytest.mark.parametrize("alpha,sign", [(0.5, -1.0), (1.0, None), (1.5, 1.0)])
    def test_laplace_transform_monte_carlo(self, alpha, sign):
        rng = np.random.default_rng(42)
        dt = 0.2
        inc = sample_stable_increment(alpha, dt, rng, size=400_000)
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
        rng = np.random.default_rng(0)
        with pytest.raises(MechanismError):
            sample_stable_increment(2.0, 0.1, rng)

    def test_stream_determinism(self):
        a = sample_stable_increment(1.5, 0.1, np.random.default_rng(7), size=10)
        b = sample_stable_increment(1.5, 0.1, np.random.default_rng(7), size=10)
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
        p = simulate_path(model, 0.0, SimConfig(dt=1e-3, t_end=1.0, seed=3))
        assert np.all(p.values == 0.0)
        assert not p.exploded

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
        p = simulate_path(model, 5.0, SimConfig(dt=1e-3, t_end=4.0, seed=6, x_max=500.0))
        if p.exploded:
            k = np.argmax(~np.isfinite(p.values))
            assert np.all(~np.isfinite(p.values[k:]))  # frozen at the sentinel
            assert p.explosion_time == pytest.approx(p.times[k])

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

    def test_density_from_zero_with_infinite_support(self):
        # the sampler's grid starts with the support: at 0 for Exp(1), and
        # geometric from 1 for the Pareto density 1.5 z^-2.5 on (1, inf)
        from scipy.stats import kstest

        for fn, lo, law, args in ((lambda z: np.exp(-z), 0.0, "expon", ()),
                                  (lambda z: 1.5 * z**-2.5, 1.0, "pareto", (1.5,))):
            m = LevyMeasure.from_density(fn, (lo, math.inf))
            sampler = simulator._MeasureSampler(m, 0.0)
            assert sampler.total == pytest.approx(1.0, rel=1e-9)
            rng = np.random.default_rng(5)
            z = sampler.draw(rng.random(20000), rng.random(20000))
            assert kstest(z, law, args=args).pvalue > 0.01
            model = ModelSpec(BranchingMechanism(0.5, 0.0, m), ImmigrationMechanism(0.3, m),
                              CompetitionMechanism.none())
            cfg = SimConfig(dt=1e-3, t_end=0.1, seed=2, n_paths=32)
            assert np.isfinite(simulate_ensemble(model, 1.0, cfg).values).all()
            res = simulate_coupled_ensemble(model, 2.0, 0.5, cfg)
            assert np.isfinite(res.x_values).all() and (res.x_values >= res.y_values).all()


class TestSimulateCoupled:
    def test_equal_start_couples_immediately(self, ergodic_v1_model):
        cp = simulate_coupled(ergodic_v1_model, 1.0, 1.0, SimConfig(dt=1e-3, t_end=0.5, seed=9))
        assert cp.coupling_time == 0.0
        assert np.array_equal(cp.x_values, cp.y_values)

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
        state = simulator._step_coupled(simulator._CoupledState(x, y, True), g, eps, eps, dt, 0.0)
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
        cp = simulate_coupled(ergodic_v1_model, 2.0, 0.5, SimConfig(dt=2e-3, t_end=12.0, seed=8))
        if math.isfinite(cp.coupling_time):
            k = np.searchsorted(cp.times, cp.coupling_time)
            assert np.array_equal(cp.x_values[k:], cp.y_values[k:])

    def test_requires_ordered_start(self, ergodic_v1_model):
        with pytest.raises(SimulationError):
            simulate_coupled(ergodic_v1_model, 0.5, 2.0, SimConfig())

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
        write_path_dump(res, path)
        back = read_path_dump(path)
        assert np.array_equal(back.times, res.times)
        assert np.array_equal(back.values, res.values)

    def test_csv_bytes_deterministic(self, tmp_path, ergodic_v1_model):
        cfg = SimConfig(dt=1e-2, t_end=0.3, seed=5, n_paths=64)
        outs = []
        for name in ("a.csv", "b.csv"):
            res = simulate_ensemble(ergodic_v1_model, 1.0, cfg, record_times=[0.1, 0.3])
            write_ensemble_csv(res, tmp_path / name)
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
            sample_stable_increment(alpha, 1e-3, rng, size=n) for rng, n in zip(rngs(), sizes)
        ])
        draws = [simulator._stable_draws(alpha, rng, n) for rng, n in zip(rngs(), sizes)]
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
                draws = [simulator._stable_draws(alpha, rng, n) for rng, n in zip(fresh, (16, 5))]
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
                state = simulator._step_coupled(state, g, plan.eps_mu, plan.eps_nu, cfg.dt, k * cfg.dt)
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
