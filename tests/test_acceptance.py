"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here; nothing is calibrated at runtime.
"""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cbic.generator import WeightFunction, lyapunov_certify, LyapunovFailure
from cbic.ergodicity import (
    CertificateError,
    compute_rate_certificate,
    estimate_wv_decay,
    wv_exact_discrete,
    wv_ot_small,
)
from cbic.mechanisms import (
    BranchingMechanism,
    CompetitionMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    ModelSpec,
    psi_prime_at_zero,
    stable_to_generic,
)
from cbic.simulator import SimConfig, simulate_coupled_ensemble, simulate_ensemble
from references import cbi_laplace, mean_with_dt_refinement, solve_vt

V1 = WeightFunction.v1()
VLOG = WeightFunction.vlog()


def _report(num, name):
    print(f"\n[acceptance {num:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def ergodic_cert_full(ergodic_v1_model):
    """Criterion-8 certificate for the banded subcritical model (full grid)."""
    return compute_rate_certificate(ergodic_v1_model, V1, grid=101)


def test_01_ode_oracle():
    """Backward-flow solver vs the two closed forms, 1e-8 relative."""
    lin = BranchingMechanism(0.7, 0.0)
    ric = BranchingMechanism(0.0, 0.4)
    for lam in (0.5, 1.0, 2.0):
        for t in np.linspace(0.0, 5.0, 11):
            want_lin = lam * math.exp(-0.7 * t)
            want_ric = lam / (1.0 + 0.4 * lam * t)
            assert solve_vt(lin, lam, float(t)) == pytest.approx(want_lin, rel=1e-8)
            assert solve_vt(ric, lam, float(t)) == pytest.approx(want_ric, rel=1e-8)
    _report(1, "ODE oracle matches closed forms at 1e-8")


def test_02_stable_normalization():
    """Parameter mapping reproduces the closed stable mechanisms, 1e-6 relative."""
    for alpha in (0.5, 1.0, 1.5):
        mech = stable_to_generic(0.0, 0.0, 1.0, alpha)
        for lam in (0.5, 1.0, 2.0, 5.0):
            if alpha > 1.0:
                want = lam**alpha
            elif alpha == 1.0:
                want = lam * math.log(lam)
            else:
                want = -(lam**alpha)
            from cbic.mechanisms import psi_eval

            assert psi_eval(mech, lam) == pytest.approx(want, rel=1e-6, abs=1e-9)
    _report(2, "stable normalization consistent at 1e-6")


def test_03_cb_mean_law():
    """Ensemble mean tracks x0 e^{-Psi'(0+) t} within 3 SE and 2% bias."""
    model = ModelSpec(
        BranchingMechanism(1.0, 0.25, LevyMeasure.uniform(2.0, 0.0, 1.0)),
        ImmigrationMechanism(0.0),
        CompetitionMechanism.none(),
    )
    crit = psi_prime_at_zero(model.branching)
    assert crit.value == pytest.approx(1.0)
    cfg = SimConfig(dt=1e-3, t_end=1.0, seed=1234, n_paths=10_000)
    res = simulate_ensemble(model, 2.0, cfg, record_times=[1.0])
    vals = res.values[-1]
    vals = vals[np.isfinite(vals)]
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    exact = 2.0 * math.exp(-crit.value)
    assert abs(mean - exact) <= 3.0 * se
    assert abs(mean - exact) / exact <= 0.02
    _report(3, f"CB mean law ({mean:.4f} vs {exact:.4f}, se {se:.4f})")


def test_04_cbi_laplace_oracle():
    """Linear competition reduces to a CBI; transforms agree within 3 SE."""
    a = 0.5
    mu = LevyMeasure.uniform(1.0, 0.0, 1.0)
    nu = LevyMeasure.uniform(0.5, 0.0, 0.8)
    model = ModelSpec(
        BranchingMechanism(0.3, 0.2, mu),
        ImmigrationMechanism(0.4, nu),
        CompetitionMechanism.linear(a),
    )
    shifted = BranchingMechanism(0.3 + a, 0.2, mu)
    imm = ImmigrationMechanism(0.4, nu)
    cfg = SimConfig(dt=1e-3, t_end=1.0, seed=5150, n_paths=10_000)
    res = simulate_ensemble(model, 1.5, cfg, record_times=[0.5, 1.0])
    for i, t in enumerate((0.5, 1.0)):
        xs = res.values[i]
        xs = xs[np.isfinite(xs)]
        for lam in (0.5, 1.0):
            emp = np.exp(-lam * xs)
            se = emp.std(ddof=1) / math.sqrt(emp.size)
            oracle = cbi_laplace(shifted, imm, 1.5, lam, t)
            assert abs(emp.mean() - oracle) <= 3.0 * se, (t, lam, emp.mean(), oracle)
    _report(4, "CBI Laplace transform matches the flow oracle within 3 SE")


def test_05_coupling_marginal_law(ergodic_v1_model):
    """Follower marginal equals the one-path law (KS not rejected at 1%)."""
    n = 10_000
    coupled = simulate_coupled_ensemble(
        ergodic_v1_model, 2.0, 0.5,
        SimConfig(dt=1e-3, t_end=1.0, seed=21, n_paths=n), record_times=[1.0],
    )
    single = simulate_ensemble(
        ergodic_v1_model, 0.5,
        SimConfig(dt=1e-3, t_end=1.0, seed=777, n_paths=n), record_times=[1.0],
    )
    stat, pvalue = ks_2samp(coupled.y_values[-1], single.values[-1])
    assert pvalue > 0.01, (stat, pvalue)
    _report(5, f"coupled follower marginal KS p = {pvalue:.3f}")


def test_06_coupling_structure(ergodic_v1_model):
    """Pathwise order up to the coupling time, exact equality after it."""
    cfg = SimConfig(dt=2e-3, t_end=10.0, seed=33, n_paths=1000)
    res = simulate_coupled_ensemble(
        ergodic_v1_model, 2.0, 0.5, cfg, record_times=np.arange(0.0, 10.01, 0.05)
    )
    order_violations = 0
    equality_violations = 0
    for i, t in enumerate(res.times):
        x, y = res.x_values[i], res.y_values[i]
        ok = np.isfinite(x)
        order_violations += int((x[ok] < y[ok]).sum())
        done = ok & (res.coupling_times <= t)
        equality_violations += int((x[done] != y[done]).sum())
    assert order_violations == 0
    assert equality_violations == 0
    assert np.isfinite(res.coupling_times).mean() > 0.5  # most pairs do couple
    _report(6, "coupling order and post-merge equality exact on 1000 paths")


def test_07_distance_equivalence():
    """Atom-by-atom distance equals the exact transport value at 1e-9."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        pool = np.round(rng.uniform(0.0, 5.0, 9), 3)
        ga = rng.choice(pool, n, replace=False)
        ea = rng.choice(pool, m, replace=False)
        gp = rng.dirichlet(np.ones(n))
        ep = rng.dirichlet(np.ones(m))
        a = wv_exact_discrete((ga, gp), (ea, ep), V1)
        b = wv_ot_small((ga, gp), (ea, ep), V1)
        worst = max(worst, abs(a - b))
    assert worst <= 1e-9
    _report(7, f"distance equivalence on 1000 random pairs (worst {worst:.2e})")


def test_08_certificate_pipeline(ergodic_cert_full, stable_power_model):
    """Positive rates with a clean 101x101 contraction grid for both models."""
    cert1 = ergodic_cert_full
    assert cert1.lam > 0.0
    assert cert1.validation.passed and cert1.validation.n_failures == 0
    cert2 = compute_rate_certificate(stable_power_model, VLOG, grid=101)
    assert cert2.lam > 0.0
    assert cert2.validation.passed and cert2.validation.n_failures == 0
    _report(
        8,
        f"certificates: banded model lambda = {cert1.lam:.3e}, "
        f"stable/power model lambda = {cert2.lam:.3e}",
    )


def test_09_negative_controls(critical_cbi_model, neveu_xlog_model):
    """Critical and log-balanced models must fail certification, with reasons."""
    res = lyapunov_certify(critical_cbi_model, V1)
    assert isinstance(res, LyapunovFailure)
    assert res.margin >= 0.0 and res.margin == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(CertificateError) as err:
        compute_rate_certificate(critical_cbi_model, V1, grid=11)
    assert err.value.step == "lyapunov"

    res2 = lyapunov_certify(neveu_xlog_model, VLOG)
    assert isinstance(res2, LyapunovFailure)
    assert res2.lv_grid_min > 0.0  # drift bounded below by a positive constant
    _report(
        9,
        f"negative controls fail as required (margins {res.margin:.1e}, "
        f"floor {res2.lv_grid_min:.3f})",
    )


def test_10_contraction_measurement(ergodic_v1_model, ergodic_cert_full):
    """Fitted decay rate dominates the certificate rate; t = 0 point exact."""
    cfg = SimConfig(dt=2e-3, t_end=12.0, seed=4096, n_paths=10_000)
    est = estimate_wv_decay(
        simulate_coupled_ensemble(
            ergodic_v1_model, 2.0, 0.0, cfg, record_times=np.arange(0.0, 12.1, 0.5)
        ),
        V1,
    )
    assert est.wv_upper[0] == 2.0 + 2.0 + 0.0  # d_V(2, 0) exactly
    assert est.fitted_rate >= ergodic_cert_full.lam - 2.0 * est.fit_se
    assert est.fitted_rate > 0.0
    _report(
        10,
        f"contraction rate {est.fitted_rate:.3f} +- {est.fit_se:.3f} >= "
        f"certificate {ergodic_cert_full.lam:.3e}",
    )


def test_11_moment_bound(ergodic_v1_model, ergodic_cert_full):
    """E[V(x_t)] below the drift-certificate envelope plus 3 SE."""
    c0, c1 = ergodic_cert_full.C0, ergodic_cert_full.C1
    x0 = 2.0
    cfg = SimConfig(dt=1e-3, t_end=2.0, seed=88, n_paths=10_000)
    res = simulate_ensemble(ergodic_v1_model, x0, cfg, record_times=[0.5, 1.0, 2.0])
    for i, t in enumerate((0.5, 1.0, 2.0)):
        vals = res.values[i]
        vals = vals[np.isfinite(vals)]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        bound = x0 * math.exp(-c1 * t) + c0 / c1 * (1.0 - math.exp(-c1 * t))
        assert vals.mean() <= bound + 3.0 * se, (t, vals.mean(), bound, se)
    _report(11, "moment bound envelope holds at t in {0.5, 1, 2}")


def test_12_dt_convergence():
    """Halving dt moves the t = 1 mean by less than one standard error."""
    model = ModelSpec(
        BranchingMechanism(1.0, 0.3),
        ImmigrationMechanism(0.4),
        CompetitionMechanism.none(),
    )
    cfg = SimConfig(dt=2e-3, t_end=1.0, seed=6, n_paths=10_000)
    coarse, fine, se = mean_with_dt_refinement(model, 1.5, cfg)
    assert abs(coarse - fine) < se, (coarse, fine, se)
    _report(12, f"dt halving shift {abs(coarse - fine):.2e} < se {se:.2e}")
