import importlib.util
import math
import os
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from cbic import ergodicity
from cbic.config import load_config
from cbic.generator import (
    LyapunovDrift,
    WeightFunction,
    _coupling_F0_bound,
    lyapunov_certify,
)
from cbic.ergodicity import (
    CertificateError,
    RateCertificate,
    ValidationReport,
    _kappa,
    _kappa_minima,
    _lambda0_candidates,
    _overlap_table,
    _q_and_rstar,
    compute_rate_certificate,
    estimate_stationary,
    estimate_wv_decay,
    render_certificate,
    validate_certificate,
    wv_exact_discrete,
)
from cbic.measures import kappa, overlap_mass
from cbic.mechanisms import (
    BranchingMechanism,
    CompetitionMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    ModelSpec,
)
from cbic.simulator import SimConfig, simulate_coupled_ensemble

V1 = WeightFunction.v1()
VLOG = WeightFunction.vlog()


@pytest.fixture(scope="module")
def ergodic_cert(ergodic_v1_model):
    return compute_rate_certificate(ergodic_v1_model, V1, grid=31)


def _nu_jump_model():
    return ModelSpec(
        BranchingMechanism(0.6, 0.0, LevyMeasure.uniform(1.0, 0.0, 1.0)),
        ImmigrationMechanism(0.2, LevyMeasure.uniform(0.8, 0.0, 0.9)),
        CompetitionMechanism.none(),
    )


class TestCertificatePipeline:
    def test_positive_rate_and_invariants(self, ergodic_cert):
        cert = ergodic_cert
        assert cert.lam > 0.0
        assert cert.theta >= 4.0
        assert cert.lam == pytest.approx(min(cert.C1, cert.lambda2) / 2.0, rel=1e-12)
        assert cert.epsilon == pytest.approx(
            4.0 * cert.C0 / (cert.lambda2 * cert.theta), rel=1e-12
        )
        assert 0.0 < cert.x0 < min(cert.c0, 1.0)
        assert cert.l >= 1.0 and cert.q > 0.0 and 0.0 < cert.r_star <= 0.5

    def test_a_broken_invariant_raises(self, ergodic_cert):
        with pytest.raises(CertificateError, match="theta") as err:
            replace(ergodic_cert, theta=2 * ergodic_cert.theta)
        assert err.value.step == "invariants"

    def test_grid_validation_attached(self, ergodic_cert):
        rep = ergodic_cert.validation
        assert rep is not None and rep.passed
        assert rep.n_failures == 0
        assert rep.worst_margin >= 0.0

    def test_revalidation_on_denser_grid(self, ergodic_v1_model, ergodic_cert):
        rep = validate_certificate(ergodic_v1_model, ergodic_cert, grid=47)
        assert rep.passed

    def test_grid_validation_fails_on_an_inflated_rate(
        self, ergodic_v1_model, ergodic_cert, monkeypatch
    ):
        """The check that passes the certificate fails it with lambda2, C1 and lam
        100 times larger and epsilon 100 times smaller (the invariants still hold)."""

        def inflate(cert):
            return replace(
                cert, lambda2=100.0 * cert.lambda2, C1=100.0 * cert.C1,
                lam=100.0 * cert.lam, epsilon=cert.epsilon / 100.0, validation=None,
            )

        assert validate_certificate(ergodic_v1_model, ergodic_cert, grid=31).passed
        rep = validate_certificate(ergodic_v1_model, inflate(ergodic_cert), grid=31)
        assert not rep.passed and 0 < rep.n_failures < rep.n_points
        assert rep.worst_margin < 0.0
        # the pipeline refuses to emit such a certificate
        monkeypatch.setattr(
            ergodicity, "RateCertificate", lambda **kw: inflate(RateCertificate(**kw))
        )
        with pytest.raises(CertificateError, match=f"{rep.n_failures}/{rep.n_points} grid") as err:
            compute_rate_certificate(ergodic_v1_model, V1, grid=31)
        assert err.value.step == "grid-validation"

    def test_grid_validation_fails_on_a_nan_margin(
        self, ergodic_v1_model, ergodic_cert, monkeypatch
    ):
        """A NaN bound at one grid point is one failure and the worst margin; with a
        -inf bound at an earlier point as well (a margin of +inf), the first non-finite
        margin in row order is the one reported."""
        real, calls, poison = ergodicity._coupling_F0_bound, [], {}

        def bound(*args):
            out = np.array(real(*args), dtype=float)
            calls.append(out.size)
            for i, value in poison.items():
                out[i] = value
            return out

        clean = validate_certificate(ergodic_v1_model, ergodic_cert, grid=31)
        monkeypatch.setattr(ergodicity, "_coupling_F0_bound", bound)
        middle = clean.n_points // 2  # an interior point of the one call
        poison[middle] = math.nan
        rep = validate_certificate(ergodic_v1_model, ergodic_cert, grid=31)
        assert calls == [clean.n_points]  # one call evaluates every grid point
        assert clean.passed and clean.n_points == rep.n_points
        assert not rep.passed and rep.n_failures == 1 and math.isnan(rep.worst_margin)
        assert rep.rows[:middle] == clean.rows[:middle]
        assert rep.rows[middle + 1:] == clean.rows[middle + 1:]
        assert "worst margin nan, failures 1" in render_certificate(replace(ergodic_cert,
                                                                             validation=rep))
        with pytest.raises(CertificateError, match=f"1/{rep.n_points} grid .* margin nan"):
            compute_rate_certificate(ergodic_v1_model, V1, grid=31)
        poison[middle // 2] = -math.inf
        rep = validate_certificate(ergodic_v1_model, ergodic_cert, grid=31)
        assert not rep.passed and rep.n_failures == 2 and rep.worst_margin == math.inf

    def test_report_renders_all_constants(self, ergodic_cert):
        text = render_certificate(ergodic_cert)
        for name in ("lambda0", "kappa", "x0", "lambda1", "theta", "lambda2", "epsilon"):
            assert name in text
        assert "PASS" in text

    def test_stable_power_model_certifies_under_vlog(self, stable_power_model):
        cert = compute_rate_certificate(stable_power_model, VLOG, grid=21)
        assert cert.lam > 0.0
        assert cert.validation.passed

    def test_critical_cbi_fails_at_lyapunov_step(self, critical_cbi_model):
        with pytest.raises(CertificateError) as err:
            compute_rate_certificate(critical_cbi_model, V1, grid=11)
        assert err.value.step == "lyapunov"
        assert "margin" in str(err.value)

    def test_certificate_with_immigration_jumps(self):
        # nu != 0 exercises the immigration sweep term of the drift bound
        model = ModelSpec(
            BranchingMechanism(0.6, 0.0, LevyMeasure.uniform(1.0, 0.0, 1.0)),
            ImmigrationMechanism(0.2, LevyMeasure.uniform(0.8, 0.0, 0.9)),
            CompetitionMechanism.none(),
        )
        cert = compute_rate_certificate(model, V1, grid=31)
        assert cert.lam > 0.0
        assert cert.validation.passed

    def test_no_fluctuation_fails(self):
        # c = 0 and a single atom: overlap masses vanish near zero shifts
        model = ModelSpec(
            BranchingMechanism(1.0, 0.0, LevyMeasure.from_atoms([(0.5, 1.0)])),
            ImmigrationMechanism(0.4),
            CompetitionMechanism.none(),
        )
        with pytest.raises(CertificateError) as err:
            compute_rate_certificate(model, V1, grid=11)
        assert err.value.step == "fluctuation"

    @pytest.mark.parametrize("atoms, positive", [
        ([(0.5, 1.0)], []),
        ([(1.0, 1.0), (2.0, 1.0)], [1.0]),
    ], ids=["no-overlap", "overlap-only-at-1"])
    def test_fluctuation_fails_without_overlap_next_to_zero(self, atoms, positive):
        model = ModelSpec(
            BranchingMechanism(1.0, 0.0, LevyMeasure.from_atoms(atoms)), ImmigrationMechanism(0.3)
        )
        xs, vals = _overlap_table(model)
        assert list(xs[1:][vals[1:] > 1e-12]) == positive  # x = 0 overlaps all of mu
        with pytest.raises(CertificateError, match="overlap masses vanish near 0") as err:
            compute_rate_certificate(model, V1, grid=11)
        assert err.value.step == "fluctuation"

    def test_c0_ends_the_leading_run_of_overlap(self):
        # the uniform part overlaps on (0, 1/4), the atoms again at x = 1/2 only
        atoms = LevyMeasure.from_atoms([(0.25, 1.0), (0.75, 1.0)])
        mu = LevyMeasure.sum_of([LevyMeasure.uniform(1.0, 0.0, 0.25), atoms])
        model = ModelSpec(BranchingMechanism(1.0, 0.0, mu), ImmigrationMechanism(0.3))
        xs, vals = _overlap_table(model)
        assert (vals[1:64] > 1e-12).all() and not (vals[64:128] > 1e-12).any()
        assert vals[128] > 1e-12 and xs[128] == 0.5
        cert = compute_rate_certificate(model, V1, grid=11)
        assert cert.c0 == xs[63]
        assert f"      c0 = {cert.c0:.10g}    [end of the leading run of positive overlap " \
            "masses (1.0 when c > 0)]" in render_certificate(cert).splitlines()

    def test_no_feasible_c1_fails_at_lyapunov_step(self):
        # g = 1e-4 x^1.1 outgrows no swept C1 x on the Lyapunov grid
        model = ModelSpec(BranchingMechanism(0.0, 0.5), ImmigrationMechanism(0.3),
                          CompetitionMechanism.power(1e-4, 1.1))
        failure = lyapunov_certify(model, V1)
        assert failure.reason == "no feasible C1 in the sweep"
        with pytest.raises(CertificateError) as err:
            compute_rate_certificate(model, V1, grid=11)
        assert err.value.step == "lyapunov"
        assert str(err.value) == f"[lyapunov] {failure}"

    def test_f0_contraction_below_threshold_gap(self, ergodic_v1_model, ergodic_cert):
        # the F0 drift alone contracts at rate lambda2 wherever the gap <= l
        from cbic.generator import coupling_generator_F0

        cert = ergodic_cert
        ctrl = cert.control()
        for x in np.geomspace(1e-3, 50.0, 21):
            for gap in np.geomspace(1e-3, cert.l, 21):
                if gap > x:
                    continue
                y = float(x - gap)
                ub = coupling_generator_F0(ergodic_v1_model, ctrl, float(x), y)
                rhs = -cert.lambda2 * ctrl.F0(float(x), y)
                assert ub <= rhs + 1e-9 * abs(rhs) + 1e-12, (x, gap, ub, rhs)

    def test_g0_regional_bound_below_threshold_gap(self, ergodic_v1_model, ergodic_cert):
        # where the gap is small the G0 drift bound is dominated by
        # -eps lambda2 F0 + 2 C0 - C1 (V(x) + V(y))
        from cbic.generator import LyapunovDrift, coupling_generator_F0

        cert = ergodic_cert
        ctrl = cert.control()
        ly = LyapunovDrift(ergodic_v1_model, V1)
        for x in np.geomspace(1e-2, 30.0, 13):
            for gap in np.geomspace(1e-2, cert.l, 13):
                if gap > x:
                    continue
                y = float(x - gap)
                f0 = coupling_generator_F0(ergodic_v1_model, ctrl, float(x), y)
                lhs = ctrl.epsilon * f0 + ly(float(x)) + ly(y)
                rhs = (
                    -cert.epsilon * cert.lambda2 * ctrl.F0(float(x), y)
                    + 2.0 * cert.C0
                    - cert.C1 * (x + y)
                )
                assert lhs <= rhs + 1e-9 * abs(rhs) + 1e-12

    def test_q_nonincreasing_in_competition(self, ergodic_v1_model):
        x0 = 0.25
        nu_cube = 0.0
        qs = []
        for slope in (0.0, 0.5, 1.5):
            model = ModelSpec(
                ergodic_v1_model.branching,
                ergodic_v1_model.immigration,
                CompetitionMechanism.linear(slope),
            )
            q, r_star = _q_and_rstar(model, x0, nu_cube)
            assert q is not None
            qs.append(q)
        assert qs[0] >= qs[1] >= qs[2]


@pytest.fixture(scope="module")
def kappa_tables(ergodic_v1_model, stable_power_model):
    """(xs, minima, the per-x0 values) for every lambda0 candidate of three models."""
    out = []
    for model in (ergodic_v1_model, _nu_jump_model(), stable_power_model):
        table = _overlap_table(model)
        xs, vals = table
        for lam0, _ in _lambda0_candidates(model):
            a_vals = model.c * lam0**2 * np.exp(-lam0 * xs) + vals
            out.append((xs, _kappa_minima(model, lam0, table), a_vals))
    return out


_TABLE_XS = np.linspace(0.0, 1.0, 257)


@settings(max_examples=300, deadline=None)
@given(
    x0=st.one_of(st.floats(0.0, 1.0), st.sampled_from([float(x) for x in _TABLE_XS]),
                 st.sampled_from([0.0, 5e-324, float(np.nextafter(1.0, 0.0)), 1.0])),
    i=st.integers(0, 10_000),
)
def test_kappa_minima_equal_the_masked_min(kappa_tables, x0, i):
    """kappa from the running minima, read in its row of the stacked minima, equals
    the minimum over the table's x <= x0."""
    row = i % len(kappa_tables)
    xs, _, a_vals = kappa_tables[row]
    assert np.array_equal(xs, _TABLE_XS)
    minima = np.array([m for _, m, _ in kappa_tables])
    assert _kappa(minima, row, xs, x0) == 0.5 * float(np.min(a_vals[xs <= x0])) * 0.995


def test_kappa_minima_need_a_finite_c_lambda0_squared():
    model = ModelSpec(BranchingMechanism(0.5, 1e308, LevyMeasure.uniform(1.0, 0.0, 1.0)),
                      ImmigrationMechanism(0.3))
    assert _kappa_minima(model, 10.0, _overlap_table(model)) is None


_MU_PARTS = {
    "uniform": LevyMeasure.uniform(1.0, 0.0, 1.0),
    "atoms": LevyMeasure.from_atoms([(0.25, 1.0), (0.5, 0.4), (0.75, 1.0)]),
    "stable-0.5": LevyMeasure.stable(0.5, 1.0),
    "stable-1": LevyMeasure.stable(1.0, 1.3),
    "stable-1.5": LevyMeasure.stable(1.5, 0.4),
    "sum": LevyMeasure.sum_of([LevyMeasure.uniform(0.8, 0.1, 0.7), LevyMeasure.stable(1.5, 0.4),
                               LevyMeasure.from_atoms([(0.25, 1.0), (0.75, 1.0)])]),
}
_NU_PARTS = {"none": LevyMeasure.zero(), "uniform": LevyMeasure.uniform(0.8, 0.0, 0.9),
             "stable-0.5": LevyMeasure.stable(0.5, 0.2)}


@pytest.mark.parametrize("nu", list(_NU_PARTS))
@pytest.mark.parametrize("mu", list(_MU_PARTS))
def test_overlap_table_equals_half_kappa_per_point(mu, nu):
    """The table evaluated on arrays has, at every x from 0 to 1, the bits of half the
    fluctuation function evaluated at that float x alone."""
    model = ModelSpec(BranchingMechanism(0.5, 0.0, _MU_PARTS[mu]),
                      ImmigrationMechanism(0.3, _NU_PARTS[nu]))
    xs, vals = _overlap_table(model)
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert [float.hex(v) for v in vals.tolist()] == \
        [float.hex(0.5 * kappa(model, x)) for x in xs.tolist()]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "kappa reads the overlap table at its last point <= x0, but f keeps falling up to x0"))
def test_kappa_holds_step_one_up_to_x0():
    """Step (1): 2 kappa <= f(x) = c lam0^2 e^(-lam0 x) + mu_x + nu_x on all of [0, x0].

    The certificate of this model passes its grid validation with x0 = 0.41332,
    where 2 kappa = 0.044942 exceeds f(x0) = 0.043587 by 3.1%.
    """
    model = ModelSpec(BranchingMechanism(0.3, 0.1, LevyMeasure.uniform(1.0, 0.0, 0.5)),
                      ImmigrationMechanism(1.0), CompetitionMechanism.none())
    cert = compute_rate_certificate(model, V1)
    assert cert.validation.passed
    f = [model.c * cert.lambda0**2 * math.exp(-cert.lambda0 * x)
         + overlap_mass(model.mu, x) + overlap_mass(model.nu, x)
         for x in np.linspace(0.0, cert.x0, 2001)]
    assert 2.0 * cert.kappa <= min(f)


@pytest.mark.parametrize("weight", [V1, VLOG])
def test_x0_constants_computed_once_per_x0_and_call(stable_power_model, weight, monkeypatch):
    """Each x0's (q, r_star, r, H) is computed once per certificate call and equals
    a fresh _q_and_rstar with the provenance formulas for r and H."""
    model = _nu_jump_model() if weight is V1 else stable_power_model
    calls, visits = [], []
    real_constants, real_pipeline = ergodicity._x0_constants, ergodicity._pipeline_at

    def constants(model_, x0, nu_cube, sq_small):
        out = real_constants(model_, x0, nu_cube, sq_small)
        calls.append((x0, nu_cube, sq_small, out))
        return out

    def pipeline(lambda0, x0, *args):  # candidates in lockstep: an array of x0
        visits.extend(x0.ravel().tolist())
        return real_pipeline(lambda0, x0, *args)

    monkeypatch.setattr(ergodicity, "_x0_constants", constants)
    monkeypatch.setattr(ergodicity, "_pipeline_at", pipeline)
    cert = compute_rate_certificate(model, weight, grid=5)
    x0s = [c[0] for c in calls]
    assert len(set(x0s)) == len(x0s) == len(set(visits)) < len(visits)
    for x0, nu_cube, sq_small, out in calls:
        q, r_star = _q_and_rstar(model, x0, nu_cube)
        denom = 2.0 * model.c + sq_small
        r = r_star if denom <= 0.0 else min(r_star, x0 * q / (6.0 * denom))
        H = 3.0 / x0 * (2.0 * model.c + abs(model.b) * x0 + float(model.g(x0)) + sq_small)
        assert out == (q, r_star, r, H)
    assert (cert.q, cert.r_star) == _q_and_rstar(model, cert.x0, calls[0][1])
    # nothing is kept between calls: a second call computes every x0 again
    n = len(calls)
    compute_rate_certificate(model, weight, grid=5)
    assert [c[0] for c in calls[n:]] == x0s


def test_x0_without_r_star_degenerates(monkeypatch):
    """A competition slope of 1e30 leaves no r_* > 0 at any x0 the search visits:
    _x0_constants gives None at all 31 of them, and rate fails at [contraction]."""
    model = ModelSpec(BranchingMechanism(0.5, 0.0, LevyMeasure.uniform(1.0, 0.0, 1.0)),
                      ImmigrationMechanism(0.3), CompetitionMechanism.linear(1e30))
    real, outs = ergodicity._x0_constants, []

    def constants(*args):
        outs.append(real(*args))
        return outs[-1]

    monkeypatch.setattr(ergodicity, "_x0_constants", constants)
    with pytest.raises(CertificateError, match="every .* degenerated") as err:
        compute_rate_certificate(model, V1)
    assert err.value.step == "contraction"
    assert outs == [None] * 31


_FIELDS = [f.name for f in fields(RateCertificate) if f.name not in ("weight", "validation")]


def _search_outcome(model, weight, search):
    """Every certificate field by float.hex, or the CertificateError's step and text,
    with ``search`` as the x0 search and a grid check that passes unrun."""
    passed = lambda model_, cert, grid: ValidationReport(True, 0, 0, 0.0)
    with mock.patch.object(ergodicity, "_search_x0", search), \
            mock.patch.object(ergodicity, "validate_certificate", passed):
        try:
            cert = compute_rate_certificate(model, weight)
        except CertificateError as exc:
            return exc.step, str(exc)
    return {name: float.hex(float(getattr(cert, name))) for name in _FIELDS}


def _assert_lockstep_is_per_pair(model, weight):
    """The lockstep search gives the certificate, or the error, of the search one
    (lambda0, C1) pair and one x0 at a time; returns it."""
    got = _search_outcome(model, weight, ergodicity._search_x0)
    assert got == _search_outcome(model, weight, references.search_x0_per_pair)
    return got


def _corpus_configs():
    """{name: config text} of the shipped configs and the fingerprint corpus."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "fingerprint", os.path.join(root, "scripts", "fingerprint.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._configs()


def test_lockstep_search_equals_per_pair_search_on_the_corpus(tmp_path):
    """Every certificate field, by float.hex, or the same error, on every shipped and
    corpus config under both weights."""
    certified = set()
    for name, text in _corpus_configs().items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        model = load_config(str(path)).model
        for weight in (V1, VLOG):
            if isinstance(_assert_lockstep_is_per_pair(model, weight), dict):
                certified.add((name, weight.kind))
    assert certified == {("ergodic_v1", "v1"), ("stable_power_vlog", "vlog"), ("nu_jump", "v1"),
                         ("mixed_v1", "v1"), ("x_max_hits", "v1"), ("stable_nu_vlog", "vlog")}


def test_golden_steps_keep_the_tie_rules():
    """The lockstep golden-section search ends, for every candidate, at the lam and
    x0 of the search of that candidate alone, on scores with ties at every step:
    plateaus under a cap, steps, stretches that degenerate, and a candidate that
    degenerates everywhere."""
    centre = np.array([0.1, 0.5, 0.9, 0.3, 0.05, 0.7, 0.5])
    lift = np.array([1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.0])
    levels = np.array([4.0, 8.0, 3.0, 16.0, 5.0, 2.0, 4.0])
    cap = np.array([0.3, 0.5, 1.0, 0.2, 0.25, 0.4, 1.0])

    def score(x0, i=slice(None)):
        stepped = np.floor((lift[i] - np.abs(x0 - centre[i]) * 2.0) * levels[i]) / levels[i]
        return np.where(stepped > 0.0, np.minimum(cap[i], stepped), -math.inf)

    lo, hi = 1e-4, 1.0 - 1e-9
    lam, x0 = ergodicity._golden_x0(score, lo, hi, centre.size)
    for i in range(centre.size):
        alone = references.golden_x0_per_point(
            lambda x: dict(lam=float(score(x, i)), x0=x) if score(x, i) > -math.inf else None,
            lo, hi)
        if alone is None:
            assert lam[i] == -math.inf
        else:
            assert (float.hex(lam[i]), float.hex(x0[i])) == (float.hex(alone["lam"]),
                                                            float.hex(float(alone["x0"])))
    assert lam[-1] == -math.inf and (lam[:-1] > -math.inf).all()


_UNIFORM = st.builds(lambda rate, lo, width: LevyMeasure.uniform(rate, lo, lo + width),
                     st.floats(0.2, 3.0), st.floats(0.0, 0.5), st.floats(0.2, 2.0))
_ATOM = st.one_of(st.just(LevyMeasure.zero()),
                  st.builds(lambda a, m: LevyMeasure.from_atoms([(a, m)]),
                            st.floats(0.05, 3.0), st.floats(0.1, 1.0)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    c=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
    b=st.floats(-0.5, 2.0),
    mu=st.one_of(st.just(LevyMeasure.zero()), _UNIFORM,
                 st.builds(LevyMeasure.stable, st.floats(0.3, 1.8), st.floats(0.2, 1.5))),
    mu_atom=_ATOM,
    beta=st.floats(0.05, 1.0),
    nu=st.one_of(st.just(LevyMeasure.zero()),
                 st.builds(lambda rate, hi: LevyMeasure.uniform(rate, 0.0, hi),
                           st.floats(0.2, 1.5), st.floats(0.3, 1.2))),
    nu_atom=_ATOM,
    g=st.sampled_from([CompetitionMechanism.none(), CompetitionMechanism.linear(0.7),
                       CompetitionMechanism.power(1.5, 1.5), CompetitionMechanism.xlog(0.8)]),
    weight=st.sampled_from([V1, VLOG]),
)
def test_lockstep_search_equals_per_pair_search(c, b, mu, mu_atom, beta, nu, nu_atom, g, weight):
    """The same on random models: a diffusion part or none; zero, uniform or stable
    mu; zero or uniform nu; atoms added to either; each competition form."""
    model = ModelSpec(BranchingMechanism(b, c, LevyMeasure.sum_of([mu, mu_atom])),
                      ImmigrationMechanism(beta, LevyMeasure.sum_of([nu, nu_atom])), g)
    _assert_lockstep_is_per_pair(model, weight)


def _report_hex(report):
    """A ValidationReport with every float by float.hex, so that -0.0 against 0.0 and
    the sign and kind of a non-finite margin show."""
    return (report.passed, report.n_points, report.n_failures, float.hex(report.worst_margin),
            [tuple(map(float.hex, r)) for r in report.rows])


def _assert_whole_grid_is_per_row(model, weight):
    """The certificate of ``model`` (its grid check stubbed to pass), or None; its one-pass
    grid check equals the check one x-row at a time at grids 1, 2, 31 and 101, for the
    certificate and for one with a 100 times larger rate."""
    passed = lambda model_, cert, grid: ValidationReport(True, 0, 0, 0.0)
    with mock.patch.object(ergodicity, "validate_certificate", passed):
        try:
            cert = compute_rate_certificate(model, weight)
        except CertificateError:
            return None
    inflated = replace(cert, lambda2=100.0 * cert.lambda2, C1=100.0 * cert.C1,
                       lam=100.0 * cert.lam, epsilon=cert.epsilon / 100.0)
    for grid in (1, 2, 31, 101):
        for each in (cert, inflated):
            assert _report_hex(validate_certificate(model, each, grid=grid)) == \
                _report_hex(references.validate_certificate_per_row(model, each, grid=grid))
    return cert


def test_whole_grid_check_equals_per_row_check_on_the_corpus(tmp_path):
    """Rows, verdict, failure count and worst margin by float.hex, on every certifying
    shipped and corpus config."""
    certified = set()
    for name, text in _corpus_configs().items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        model = load_config(str(path)).model
        for weight in (V1, VLOG):
            if _assert_whole_grid_is_per_row(model, weight) is not None:
                certified.add((name, weight.kind))
    assert certified == {("ergodic_v1", "v1"), ("stable_power_vlog", "vlog"), ("nu_jump", "v1"),
                         ("mixed_v1", "v1"), ("x_max_hits", "v1"), ("stable_nu_vlog", "vlog")}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    c=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
    b=st.floats(-0.5, 2.0),
    mu=st.one_of(st.just(LevyMeasure.zero()), _UNIFORM,
                 st.builds(LevyMeasure.stable, st.floats(0.3, 1.8), st.floats(0.2, 1.5))),
    mu_atom=_ATOM,
    beta=st.floats(0.05, 1.0),
    nu=st.one_of(st.just(LevyMeasure.zero()),
                 st.builds(lambda rate, hi: LevyMeasure.uniform(rate, 0.0, hi),
                           st.floats(0.2, 1.5), st.floats(0.3, 1.2)),
                 st.builds(LevyMeasure.stable, st.floats(0.2, 0.8), st.floats(0.05, 0.5))),
    nu_atom=_ATOM,
    g=st.sampled_from([CompetitionMechanism.none(), CompetitionMechanism.linear(0.7),
                       CompetitionMechanism.power(1.5, 1.5), CompetitionMechanism.xlog(0.8)]),
    weight=st.sampled_from([V1, VLOG]),
)
def test_whole_grid_check_equals_per_row_check(c, b, mu, mu_atom, beta, nu, nu_atom, g, weight):
    """The same on the random models of the lockstep-search test, with stable nu parts
    added; certificates whose check fails are compared as well."""
    model = ModelSpec(BranchingMechanism(b, c, LevyMeasure.sum_of([mu, mu_atom])),
                      ImmigrationMechanism(beta, LevyMeasure.sum_of([nu, nu_atom])), g)
    _assert_whole_grid_is_per_row(model, weight)


@pytest.mark.parametrize("name", ["ergodic_v1", "nu_jump", "stable_power_vlog"])
def test_validation_rows_equal_per_point_recomputation(name, ergodic_v1_model, stable_power_model):
    """Every row of the grid check equals the bound rebuilt at that point alone:
    coupling_generator_F0's pieces (with the grid gap's overlap masses), drift(y)
    and ctrl.G0."""
    model, weight = {
        "ergodic_v1": (ergodic_v1_model, V1),
        "nu_jump": (_nu_jump_model(), V1),
        "stable_power_vlog": (stable_power_model, VLOG),
    }[name]
    cert = compute_rate_certificate(model, weight, grid=31)
    ctrl = cert.control()
    drift = LyapunovDrift(model, weight)
    want, exact_gap = [], set()
    for x in np.geomspace(1e-4, 1e4, 31):
        x = float(x)
        for g in np.geomspace(1e-4, 2.0 * cert.l, 31):
            if g > x:
                continue
            y = float(x - g)
            exact_gap.add(x - y == g)
            f0 = _coupling_F0_bound(model, ctrl, x, y, overlap_mass(model.mu, float(g)),
                                    overlap_mass(model.nu, float(g)), ctrl.psi(x - y))
            lhs = cert.epsilon * f0 + drift(x) + drift(y)
            want.append((x, y, lhs, -cert.lam * ctrl.G0(weight, x, y)))
    assert cert.validation.rows == want
    assert exact_gap == {True, False}  # per-gap values used, and recomputed, somewhere


@pytest.mark.parametrize("name", ["diffusion_power_v1", "xlog_v1", "stable_nu_vlog"])
def test_validation_rows_equal_point_evaluations_bit_for_bit(name):
    """Rows evaluated one x-row at a time equal, by float.hex (so that -0.0 against
    0.0 shows), the bound, LV and G0 evaluated at one point at a time, on features
    no shipped config has: c > 0 with power competition, xlog competition with
    branching atoms, and a stable nu part, whose sweep term takes the hyp2f1 branch
    of overlap_moment.  Some rows have gaps past l."""
    uniform = LevyMeasure.uniform(1.0, 0.0, 1.0)
    model, weight = {
        "diffusion_power_v1": (ModelSpec(BranchingMechanism(0.5, 0.3, uniform),
                                         ImmigrationMechanism(0.4),
                                         CompetitionMechanism.power(1.0, 1.5)), V1),
        "xlog_v1": (ModelSpec(BranchingMechanism(0.3, 0.0, LevyMeasure.from_atoms([(0.5, 1.0)])),
                              ImmigrationMechanism(0.5, LevyMeasure.uniform(0.5, 0.0, 0.5)),
                              CompetitionMechanism.xlog(0.5)), V1),
        "stable_nu_vlog": (ModelSpec(BranchingMechanism(0.6, 0.2, uniform),
                                     ImmigrationMechanism(0.2, LevyMeasure.stable(0.5, 0.2)),
                                     CompetitionMechanism.power(1.0, 1.5)), VLOG),
    }[name]
    cert = compute_rate_certificate(model, weight, grid=41)
    ctrl = cert.control()
    drift = LyapunovDrift(model, weight)
    want = []
    for x in np.geomspace(1e-4, 1e4, 41).tolist():
        for g in np.geomspace(1e-4, 2.0 * cert.l, 41).tolist():
            if g > x:
                continue
            y = x - g
            f0 = _coupling_F0_bound(model, ctrl, x, y, overlap_mass(model.mu, g),
                                    overlap_mass(model.nu, g), ctrl.psi(x - y))
            lhs = cert.epsilon * f0 + drift(x) + drift(y)
            want.append((x, y, lhs, -cert.lam * ctrl.G0(weight, x, y)))
    rows = cert.validation.rows
    assert [tuple(map(float.hex, r)) for r in rows] == [tuple(map(float.hex, r)) for r in want]
    assert any(x - y > cert.l for x, y, _, _ in rows)
    assert any(x < cert.x0 for x, _, _, _ in rows)  # the sweep term runs where nu != 0


_COMPETITION = st.one_of(
    st.just(CompetitionMechanism.none()),
    st.builds(CompetitionMechanism.linear, st.floats(0.0, 5.0)),
    st.builds(CompetitionMechanism.power, st.floats(0.0, 5.0), st.floats(0.1, 4.0)),
    st.builds(CompetitionMechanism.xlog, st.floats(0.0, 5.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    b=st.floats(-2.0, 2.0),
    beta=st.floats(0.0, 3.0),
    nu_cube=st.floats(0.0, 1.0),
    x0=st.floats(1e-4, 0.999),
    g=_COMPETITION,
)
def test_closed_form_q_equals_grid_max(b, beta, nu_cube, x0, g):
    """q = -D(r_* x0) is the maximum of -D over the 201-point grid, exactly."""
    model = ModelSpec(BranchingMechanism(b, 0.0), ImmigrationMechanism(beta), g)
    q, r_star = _q_and_rstar(model, x0, nu_cube)

    def D(x):
        return (
            3.0 / x0 * (abs(b) * x + float(g(x)))
            - 3.0 * beta / (4.0 * x0)
            - nu_cube / 8.0
        )

    if q is None:
        return
    grid = np.linspace(0.0, r_star * x0, 201)
    assert q == -float(max(D(float(x)) for x in grid))
    assert q > 0.0


def test_pipeline_fuzz_certifies_or_fails_structurally():
    """Random models either produce a validated certificate or a named failure."""
    rng = np.random.default_rng(20240815)
    outcomes = {"cert": 0, "failure": 0}
    for _ in range(14):
        c = float(rng.choice([0.0, rng.uniform(0.05, 1.0)]))
        b = float(rng.uniform(-1.0, 2.0))
        kind = rng.integers(0, 4)
        if kind == 0:
            mu = LevyMeasure.zero()
        elif kind == 1:
            lo = float(rng.uniform(0, 0.5))
            mu = LevyMeasure.uniform(
                float(rng.uniform(0.2, 3)), lo, lo + float(rng.uniform(0.2, 2))
            )
        elif kind == 2:
            mu = LevyMeasure.from_atoms([(float(rng.uniform(0.2, 3)), float(rng.uniform(0.1, 1)))])
        else:
            mu = LevyMeasure.stable(float(rng.uniform(0.3, 1.8)), float(rng.uniform(0.2, 1.5)))
        beta = float(rng.choice([0.0, rng.uniform(0.05, 1.0)]))
        nu = (
            LevyMeasure.zero()
            if rng.random() < 0.6
            else LevyMeasure.uniform(float(rng.uniform(0.2, 1.5)), 0.0, float(rng.uniform(0.3, 1.2)))
        )
        gk = rng.integers(0, 4)
        if gk == 0:
            g = CompetitionMechanism.none()
        elif gk == 1:
            g = CompetitionMechanism.linear(float(rng.uniform(0, 2)))
        elif gk == 2:
            g = CompetitionMechanism.power(float(rng.uniform(0.5, 4)), float(rng.uniform(1.1, 1.9)))
        else:
            g = CompetitionMechanism.xlog(float(rng.uniform(0.2, 2)))
        weight = V1 if rng.random() < 0.6 else VLOG
        model = ModelSpec(BranchingMechanism(b, c, mu), ImmigrationMechanism(beta, nu), g)
        try:
            cert = compute_rate_certificate(model, weight, grid=9)
        except CertificateError as err:
            assert err.step in (
                "non-triviality", "fluctuation", "lyapunov", "contraction", "grid-validation",
            )
            outcomes["failure"] += 1
            continue
        assert cert.lam > 0.0 and cert.validation.passed
        for f in ("kappa", "x0", "l", "lambda1", "q", "r", "H", "theta",
                  "lambda2", "C0", "C1", "epsilon"):
            v = getattr(cert, f)
            assert np.isfinite(v) and v > 0.0, (f, v)
        outcomes["cert"] += 1
    assert outcomes["cert"] >= 1 and outcomes["failure"] >= 1


class TestDecayEstimate:
    def test_degenerate_start_zero_curve(self, ergodic_v1_model):
        cfg = SimConfig(dt=5e-3, seed=3, n_paths=64)
        est = estimate_wv_decay(
            simulate_coupled_ensemble(
                ergodic_v1_model, 1.0, 1.0, cfg, record_times=[0.0, 0.5, 1.0]
            ),
            V1,
        )
        assert np.all(est.wv_upper == 0.0)

    def test_initial_point_is_exact_distance(self, ergodic_v1_model):
        cfg = SimConfig(dt=5e-3, t_end=6.0, seed=3, n_paths=256)
        est = estimate_wv_decay(
            simulate_coupled_ensemble(
                ergodic_v1_model, 2.0, 0.0, cfg, record_times=np.arange(0.0, 6.1, 0.5)
            ),
            V1,
        )
        assert est.wv_upper[0] == 4.0  # nobody has coupled at time zero
        assert est.fitted_rate > 0.0

    def test_critical_model_shows_no_decay(self, critical_cbi_model):
        cfg = SimConfig(dt=5e-3, t_end=8.0, seed=3, n_paths=512)
        est = estimate_wv_decay(
            simulate_coupled_ensemble(
                critical_cbi_model, 2.0, 0.0, cfg, record_times=np.arange(0.0, 8.1, 1.0)
            ),
            V1,
        )
        assert est.fitted_rate <= est.fit_se

    @pytest.mark.parametrize("weight", [V1, VLOG], ids=["v1", "vlog"])
    def test_each_time_has_the_bits_of_its_own_summary(self, ergodic_v1_model, weight):
        cfg = SimConfig(dt=5e-3, t_end=2.0, seed=5, n_paths=300)
        res = simulate_coupled_ensemble(ergodic_v1_model, 2.0, 0.0, cfg,
                                        record_times=np.arange(0.0, 2.1, 0.25))
        est = estimate_wv_decay(res, weight)
        for i, t in enumerate(res.times):
            unc = res.coupling_times > t
            vals = np.where(unc, 2.0 + weight.value(res.x_values[i]) + weight.value(res.y_values[i]),
                            0.0)
            assert est.wv_upper[i] == vals.mean() and est.n_uncoupled[i] == unc.sum()
            assert est.se[i] == vals.std(ddof=1) / math.sqrt(vals.size)
        assert 0 < est.n_uncoupled[-1] < est.n_uncoupled[0] == cfg.n_paths

    def test_upper_bound_dominates_binned_distance(self, ergodic_v1_model):
        cfg = SimConfig(dt=5e-3, seed=13, n_paths=2000)
        times = [0.5, 1.0]
        res = simulate_coupled_ensemble(ergodic_v1_model, 2.0, 0.0, cfg, record_times=times)
        est = estimate_wv_decay(res, V1)
        edges = np.linspace(0.0, 6.0, 41)
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        for i in range(len(times)):
            hx, _ = np.histogram(np.clip(res.x_values[i], 0, 5.999), bins=edges)
            hy, _ = np.histogram(np.clip(res.y_values[i], 0, 5.999), bins=edges)
            dist = wv_exact_discrete(
                (centers, hx / hx.sum()), (centers, hy / hy.sum()), V1
            )
            slack = 2.0 * width * 2.0  # bin transport in location and weight
            assert est.wv_upper[i] >= dist - slack


class TestStationaryEstimate:
    def test_two_start_agreement(self, ergodic_v1_model):
        est = estimate_stationary(
            ergodic_v1_model, SimConfig(dt=2e-3, seed=31), burn_in=6.0, n_samples=3000
        )
        assert est.converged
        assert est.two_start_distance <= est.threshold
        # stationary mean of this linear-drift model is beta/b
        assert est.sample_mean == pytest.approx(0.6, abs=5.0 * est.sample_mean_se + 0.02)
        # long-run mean stays under the drift-certificate envelope C0/C1
        assert est.sample_mean <= 0.3 / 0.5 + 3.0 * est.sample_mean_se

    def test_extinct_cb_concentrates_at_zero(self):
        model = ModelSpec(
            BranchingMechanism(1.0, 0.5),
            ImmigrationMechanism(0.0),
            CompetitionMechanism.none(),
        )
        est = estimate_stationary(
            model, SimConfig(dt=2e-3, seed=5), burn_in=8.0, n_samples=1000,
            starts=(1.0, 4.0),
        )
        assert est.probs[0] == pytest.approx(1.0)
        assert est.sample_mean == pytest.approx(0.0, abs=1e-12)
        assert est.converged
