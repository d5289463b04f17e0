import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cbic.generator import (
    CouplingControl,
    GeneratorDomainError,
    LyapunovCertificate,
    LyapunovDrift,
    LyapunovFailure,
    SmoothFunction,
    WeightFunction,
    _sweep_nu_term,
    apply_generator,
    coupling_generator_F0,
    lyapunov_certify,
    lyapunov_margin,
)
from cbic.mechanisms import (
    BranchingMechanism,
    CompetitionMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    ModelSpec,
    log_jump_integral,
    psi_eval,
    stable_to_generic,
)
from cbic import quadrature
from cbic.cli import _write_csv
from references import coupling_F0_exact, phi_second, sweep_nu_term_per_point

V1 = WeightFunction.v1()
VLOG = WeightFunction.vlog()


def mixed_model():
    """Diffusion + banded density branching, atom immigration, linear competition."""
    return ModelSpec(
        BranchingMechanism(0.4, 0.3, LevyMeasure.uniform(1.5, 0.0, 1.0)),
        ImmigrationMechanism(0.6, LevyMeasure.from_atoms([(0.5, 0.8)])),
        CompetitionMechanism.linear(0.2),
    )


class TestApplyGenerator:
    @pytest.mark.parametrize("x", [0.0, 0.1, 1.0, 10.0, 100.0])
    def test_linear_weight_closed_form(self, x):
        m = mixed_model()
        closed = (
            m.beta
            - m.b * x
            - float(m.g(x))
            + x * m.mu.linear_tail()
            + sum(mass * loc for loc, mass in m.nu.atoms())
        )
        assert apply_generator(m, V1, x) == pytest.approx(closed, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.1, 1.0, 10.0, 100.0])
    def test_log_weight_closed_form(self, x):
        m = mixed_model()
        w = 1.0 + x
        mu_int, _ = quad(
            lambda z: (math.log1p(z / w) - z / w * (z <= 1.0)) * 1.5,
            0.0,
            1.0,
            epsabs=1e-13,
        )
        nu_int = sum(mass * math.log1p(loc / w) for loc, mass in m.nu.atoms())
        closed = (
            -m.c * x / w**2 + x * mu_int + (m.beta - m.b * x - float(m.g(x))) / w + nu_int
        )
        assert apply_generator(m, VLOG, x) == pytest.approx(closed, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.5, 2.0, 25.0])
    def test_neveu_xlog_closed_form(self, x, neveu_xlog_model):
        m = neveu_xlog_model
        sigma, beta = 1.3, 0.7
        want = (
            sigma * x * (1.0 + math.log1p(x)) / (1.0 + x)
            - float(m.g(x)) / (1.0 + x)
            + beta / (1.0 + x)
        )
        assert apply_generator(m, VLOG, x) == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_neveu_xlog_at_zero_is_beta(self, neveu_xlog_model):
        assert apply_generator(neveu_xlog_model, VLOG, 0.0) == pytest.approx(0.7)

    @pytest.mark.parametrize("lam", [0.5, 1.5])
    @pytest.mark.parametrize("x", [0.3, 2.0, 7.0])
    def test_exponential_eigenrelation(self, lam, x):
        # with no immigration and no competition, L e^{-lam x} = x Psi(lam) e^{-lam x}
        mech = BranchingMechanism(0.4, 0.3, LevyMeasure.uniform(1.5, 0.0, 1.0))
        model = ModelSpec(mech, ImmigrationMechanism(0.0), CompetitionMechanism.none())
        f = SmoothFunction(
            value=lambda u: math.exp(-lam * u),
            deriv=lambda u: -lam * math.exp(-lam * u),
            second=lambda u: lam * lam * math.exp(-lam * u),
        )
        want = x * psi_eval(mech, lam) * math.exp(-lam * x)
        assert apply_generator(model, f, x) == pytest.approx(want, rel=1e-6, abs=1e-12)

    def test_linear_weight_requires_first_moment_tail(self):
        model = ModelSpec(
            stable_to_generic(0.0, 0.0, 1.0, 0.8),
            ImmigrationMechanism(0.1),
            CompetitionMechanism.none(),
        )
        with pytest.raises(GeneratorDomainError, match="z mu"):
            apply_generator(model, V1, 1.0)

    def test_negative_state_is_outside_the_domain(self, ergodic_v1_model):
        with pytest.raises(GeneratorDomainError, match="state must be >= 0"):
            apply_generator(ergodic_v1_model, V1, -0.5)


class TestIdentities:
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("x", [0.0, 1.0, 10.0])
    def test_log_moment_closed_form(self, alpha, x):
        # int_0^inf log(1 + z/(1+x)) z^(-1-alpha) dz = pi / (alpha sin(alpha pi) (1+x)^alpha)
        w = 1.0 + x
        val = quadrature.integrate(
            lambda z: math.log1p(z / w) * z ** (-1.0 - alpha), 0.0, math.inf, singular_at_0=True
        )
        want = math.pi / (alpha * math.sin(alpha * math.pi) * w**alpha)
        assert val == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize(
        "mu", [LevyMeasure.uniform(2.0, 0.0, 1.0), LevyMeasure.stable(1.5, 1.0)]
    )
    def test_small_jump_log_compensation_vanishes(self, mu):
        # (x/log x) int_0^1 [log(1 + z/(1+x)) - z/(1+x)] mu(dz) -> 0
        seq = []
        for x in (1e2, 1e3, 1e4):
            val = mu.integrate(
                lambda z: math.log1p(z / (1.0 + x)) - z / (1.0 + x), 0.0, 1.0
            )
            seq.append(abs(x / math.log(x) * val))
        assert seq[0] > seq[1] > seq[2]


class TestLyapunovCertify:
    def test_linear_competition_certifies_v1(self):
        # g(x) = a x with a + drift margin > 0
        model = ModelSpec(
            BranchingMechanism(-0.2, 0.1, LevyMeasure.uniform(1.0, 0.0, 1.0)),
            ImmigrationMechanism(0.4),
            CompetitionMechanism.linear(0.7),
        )
        cert = lyapunov_certify(model, V1)
        assert isinstance(cert, LyapunovCertificate)
        assert cert.c0 > 0 and cert.c1 > 0
        assert (cert.grid_margin <= 1e-12).all()

    def test_ergodic_v1_constants(self, ergodic_v1_model):
        cert = lyapunov_certify(ergodic_v1_model, V1)
        assert isinstance(cert, LyapunovCertificate)
        # drift is beta - b x exactly: the sweep tops out at C1 = b, C0 = beta
        assert cert.c1 == pytest.approx(0.5)
        assert cert.c0 == pytest.approx(0.3, rel=1e-6)

    def test_power_competition_certifies_vlog(self, stable_power_model):
        cert = lyapunov_certify(stable_power_model, VLOG)
        assert isinstance(cert, LyapunovCertificate)
        assert lyapunov_margin(stable_power_model, VLOG) > 0

    def test_critical_cbi_fails_with_zero_margin(self, critical_cbi_model):
        res = lyapunov_certify(critical_cbi_model, V1)
        assert isinstance(res, LyapunovFailure)
        assert res.margin == pytest.approx(0.0, abs=1e-12)
        assert res.margin >= 0.0

    def test_neveu_xlog_fails_with_positive_floor(self, neveu_xlog_model):
        res = lyapunov_certify(neveu_xlog_model, VLOG)
        assert isinstance(res, LyapunovFailure)
        # LV stays above a positive constant: min(sigma, beta) here
        assert res.lv_grid_min >= 0.5 * min(1.3, 0.7)
        assert "positive constant" in res.reason

    def test_pairs_are_every_feasible_c1_largest_first(self, ergodic_v1_model):
        cert = lyapunov_certify(ergodic_v1_model, V1)
        assert (cert.c1, cert.c0) == cert.pairs[0]
        c1s = [c1 for c1, _ in cert.pairs]
        assert len(c1s) > 1 and c1s == sorted(c1s, reverse=True)
        lv = LyapunovDrift(ergodic_v1_model, V1).many(cert.grid_x)
        for c1, c0 in cert.pairs:
            assert (lv + c1 * cert.grid_x <= c0).all()

    @pytest.mark.parametrize("alpha", [0.1, 0.05])
    def test_small_stable_index_reaches_a_verdict(self, alpha):
        # a failure: the x^(1-alpha) branching term of the margin outgrows the x^0.5
        # competition
        model = ModelSpec(stable_to_generic(1.0, 0.0, 1.0, alpha), ImmigrationMechanism(0.5),
                          CompetitionMechanism.power(3.0, 1.5))
        res = lyapunov_certify(model, VLOG)
        assert isinstance(res, LyapunovFailure) and res.margin < 0.0

    def test_margin_sees_the_stable_tail_beyond_x_1e4(self):
        # g/(x log x) = 30 x^0.2/log x wins at x = 1e3, but the stable term (x/log x)
        # sqrt(pi) x^-0.5 (1 + o(1)) outgrows it by x = 1e6
        model = ModelSpec(stable_to_generic(1.0, 0.0, 1.0, 0.5), ImmigrationMechanism(0.5),
                          CompetitionMechanism.power(30.0, 1.2))
        assert lyapunov_margin(model, VLOG) < 0.0

    def test_no_feasible_c1_in_the_sweep(self):
        """g = 1e-4 x^1.1 makes the margin infinite, but it overtakes C1 x only
        beyond x = 1e6 for every swept C1, so no sup closes on the grid; b = 0.5
        closes it."""

        def model(b):
            return ModelSpec(BranchingMechanism(b, 0.5), ImmigrationMechanism(0.3),
                             CompetitionMechanism.power(1e-4, 1.1))

        res = lyapunov_certify(model(0.0), V1)
        assert isinstance(res, LyapunovFailure)
        assert res.reason == "no feasible C1 in the sweep" and res.margin == math.inf
        assert isinstance(lyapunov_certify(model(0.5), V1), LyapunovCertificate)

    def test_sweep_keeps_no_c1_that_underflowed(self):
        """A margin of 4.9e-324 halves to 0 after one sweep step: only that one
        positive C1 is a pair."""
        model = ModelSpec(BranchingMechanism(5e-324, 0.0),
                          ImmigrationMechanism(0.3, LevyMeasure.uniform(1.0, 0.0, 1.0)),
                          CompetitionMechanism.none())
        res = lyapunov_certify(model, V1)
        assert isinstance(res, LyapunovCertificate)
        assert [c1 for c1, _ in res.pairs] == [5e-324]


def _control(theta=6.0, lambda0=0.8, x0=0.25, l=2.0, psi0=0.5, eps=1.0):
    return CouplingControl(
        lambda0=lambda0, x0=x0, theta=theta, epsilon=eps, l=l, psi_at_lambda0=psi0
    )


class TestCouplingControl:
    def test_envelope_bounds(self):
        ctrl = _control()
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.uniform(0.0, 10.0)
            y = rng.uniform(0.0, x) if x > 0 else 0.0
            if x == y:
                continue
            f0 = ctrl.F0(x, y)
            assert ctrl.theta <= f0 <= 2.0 * (1.0 + ctrl.theta)

    def test_diagonal_vanishes(self):
        ctrl = _control()
        for z in (0.0, 0.4, 3.0):
            assert ctrl.F0(z, z) == 0.0
            assert ctrl.G0(V1, z, z) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _control(theta=2.0)
        with pytest.raises(ValueError):
            _control(x0=1.5)
        with pytest.raises(ValueError):
            _control(psi0=-0.1)


class TestCouplingGeneratorF0:
    def test_pure_diffusion_exact_matches_hand_expansion(self):
        model = ModelSpec(
            BranchingMechanism(0.0, 0.7),
            ImmigrationMechanism(0.0),
            CompetitionMechanism.none(),
        )
        ctrl = _control(psi0=psi_eval(model.branching, 0.8))
        lam0, c = ctrl.lambda0, model.c
        for x, y in ((0.5, 0.2), (0.1, 0.0), (2.0, 1.0)):
            got = coupling_F0_exact(model, ctrl, x, y)
            g = x - y
            psig = -math.expm1(-lam0 * g)
            psip = lam0 * math.exp(-lam0 * g)
            psipp = -lam0 * psip
            phix, php, phpp = ctrl.phi(x), ctrl.phi_prime(x), phi_second(ctrl, x)
            want = c * (
                x * (phpp * (1 + psig) + 2 * php * psip + phix * psipp)
                + 3 * y * phix * psipp
                + 2 * y * php * psip
            )
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_exact_below_bound_on_grid(self, ergodic_v1_model):
        models = [
            ergodic_v1_model,
            ModelSpec(  # nu-bearing variant hits the immigration sweep term
                ergodic_v1_model.branching,
                ImmigrationMechanism(0.2, LevyMeasure.uniform(0.8, 0.0, 0.9)),
                ergodic_v1_model.competition,
            ),
            ModelSpec(  # branching jumps above 1 reach the leader jump's z > 1 branch
                BranchingMechanism(2.0, 0.0, LevyMeasure.uniform(1.0, 0.0, 2.0)),
                ergodic_v1_model.immigration,
                ergodic_v1_model.competition,
            ),
        ]
        for model in models:
            ctrl = _control(psi0=psi_eval(model.branching, 0.8))
            for x in (0.05, 0.2, 0.7, 2.0, 9.0):
                for gap in (0.01, 0.15, 0.8, 1.9):
                    if gap > x:
                        continue
                    y = x - gap
                    ub = coupling_generator_F0(model, ctrl, x, y)
                    exact = coupling_F0_exact(model, ctrl, x, y)
                    assert exact <= ub + 1e-6 * abs(ub) + 1e-9

    def test_sweep_nu_term_closed_form_on_nu_jump(self):
        # nu = 0.8 on (0, 0.9); its overlap at shift -gap is 0.4 on (0, 0.9 - gap).
        # Below the cut x0 - x, phi(x+z) - phi(x) = (w - z/x0)^3 - w^3 with
        # w = 1 - x/x0, so each piece of the term integrates in closed form.
        # theta = 4 keeps the cancellation in phi(x+z) - phi(x) near 1e-16.
        model = ModelSpec(
            BranchingMechanism(0.6, 0.0, LevyMeasure.uniform(1.0, 0.0, 1.0)),
            ImmigrationMechanism(0.2, LevyMeasure.uniform(0.8, 0.0, 0.9)),
            CompetitionMechanism.none(),
        )
        ctrl = _control(theta=4.0, psi0=psi_eval(model.branching, 0.8))
        x0 = ctrl.x0
        for x in (0.0, 0.01, 0.1, 0.2):
            w, cut = 1.0 - x / x0, x0 - x

            def lebesgue(hi):  # int_0^hi [phi(x+z) - phi(x)] dz for hi <= cut
                return x0 / 4.0 * (w**4 - (w - hi / x0) ** 4) - w**3 * hi

            t_nu = 0.8 * (lebesgue(cut) - w**3 * (0.9 - cut))
            for gap in (1e-3, 0.1, 0.6, 0.7, 0.85, 1.5):
                top = max(0.0, 0.9 - gap)
                t_ov = 0.4 * (lebesgue(min(cut, top)) - w**3 * max(0.0, top - cut))
                got = _sweep_nu_term(model, ctrl, x, gap)
                assert got == pytest.approx(t_nu - t_ov, rel=1e-12), (x, gap)

    _ATOMS = ((0.05, 0.3), (0.2, 0.5), (0.25, 0.1), (0.6, 0.2))
    SWEEP_NUS = {"uniform": LevyMeasure.uniform(0.8, 0.1, 0.9),
                 "atoms": LevyMeasure.from_atoms(_ATOMS),
                 "stable": LevyMeasure.stable(0.5, 0.2)}
    SWEEP_NUS["sum"] = LevyMeasure.sum_of(list(SWEEP_NUS.values()))

    @pytest.mark.parametrize("name", list(SWEEP_NUS))
    def test_sweep_nu_term_on_arrays_equals_per_gap(self, name):
        """The term over an array of gaps equals, by float.hex, the term at one float
        gap at a time, at gaps on both sides of each cut: where the uniform part's
        overlap ends at the cut and where it vanishes, at each atom spacing (the
        pairing slack is 1e-12) and at 1e-100 cut (the stable part's expansion)."""
        nu = self.SWEEP_NUS[name]
        model = ModelSpec(BranchingMechanism(0.5, 0.0), ImmigrationMechanism(0.2, nu),
                          CompetitionMechanism.none())
        ctrl = _control(x0=0.4)
        for x in (0.0, 0.1, 0.25, 0.37):
            cut = ctrl.x0 - x
            edges = [0.9 - cut, 0.8, 1e-100 * cut] + [b - a for a, _ in self._ATOMS
                                                     for b, _ in self._ATOMS if b > a]
            gaps = np.concatenate([np.geomspace(1e-6, 3.0, 40)] + [
                [g * (1.0 - 1e-9), np.nextafter(g, 0.0), g, np.nextafter(g, 1.0), g * (1.0 + 1e-9)]
                for g in edges])
            got = _sweep_nu_term(model, ctrl, x, gaps)
            want = [sweep_nu_term_per_point(model, ctrl, x, g) for g in gaps.tolist()]
            assert list(map(float.hex, got.tolist())) == list(map(float.hex, want)), x

    def test_nonpositive_beyond_l_away_from_origin(self, ergodic_v1_model):
        ctrl = _control(psi0=psi_eval(ergodic_v1_model.branching, 0.8))
        for x, y in ((3.0, 0.5), (10.0, 2.0), (5.0, 0.0)):
            assert x - y > ctrl.l and x > ctrl.x0
            assert coupling_generator_F0(ergodic_v1_model, ctrl, x, y) <= 0.0
            assert coupling_F0_exact(ergodic_v1_model, ctrl, x, y) <= 1e-10

    def test_requires_ordered_pair(self, ergodic_v1_model):
        ctrl = _control(psi0=0.5)
        with pytest.raises(ValueError):
            coupling_generator_F0(ergodic_v1_model, ctrl, 1.0, 1.0)

    def test_g0_is_eps_f0_plus_drifts(self, ergodic_v1_model):
        ctrl = _control(psi0=psi_eval(ergodic_v1_model.branching, 0.8))
        drift = LyapunovDrift(ergodic_v1_model, V1)
        x, y = 1.2, 0.4
        f0 = coupling_generator_F0(ergodic_v1_model, ctrl, x, y)
        lv = lambda u: 0.3 - 0.5 * u
        got = ctrl.epsilon * f0 + drift(x) + drift(y)
        assert got == pytest.approx(ctrl.epsilon * f0 + lv(x) + lv(y), rel=1e-9)


class TestLogJumpIntegral:
    # J(alpha, w) = int [log(1 + z/w) - (z/w) 1{z<=1}] z^(-1-alpha) dz to 40 digits
    J = {
        0.5: (4.28318530717958648, 3.17383530631844049, 0.196691765315922025,
              0.00628118530717958648),
        1.3: (0.346239427601846291, 0.425665667849442969, 0.00295728049079924737,
              3.2859910853689742e-6),
        1.5: (-0.0943951023931954923, 0.270155292490874601, 0.00193376941156135933,
              1.9979056048976068e-6),
    }

    @pytest.mark.parametrize("alpha", [0.5, 1.3, 1.5])
    def test_stable_part_equals_the_reference(self, alpha):
        mu = LevyMeasure.stable(alpha, 1.0)
        for w, j in zip((1.0, 2.5, 1e3, 1e6), self.J[alpha]):
            assert log_jump_integral(mu, w, 1) == pytest.approx(mu._dens_scale * j, rel=1e-13, abs=0)

    # int [log(1 + z/w) - k (z/w) 1{z<=1}] m(dz) for m = stable(alpha, 1) at w = 1, 1e3, 1e6,
    # to 40 digits at the double nearest alpha: near index 1 the closed form's two terms
    # of size 1/|alpha - 1| cancel, and evaluated as written they lose up to every digit
    NEAR_ONE = [
        (1, 1.0 - 1e-3, ("1.002222444109768779537632411036954023584e-3",
                         "7.937899225864908061144235292147807383163e-6",
                         "1.492165182233432087237560233066628795822e-8")),
        (1, 1.0 + 1e-3, ("9.977781430997831220805140232279899691876e-4",
                         "7.877762999850686424233285071601528952687e-6",
                         "1.471038637398301280435856884594818216209e-8")),
        (1, 1.0 - 1e-6, ("1.000002222178781146487100804442828094042e-6",
                         "7.907785347241150540005148371899218643487e-9",
                         "1.481561618974367952881213356168763581899e-11")),
        (1, 1.0 + 1e-6, ("9.99997777768295580778310012040691108376e-7",
                         "7.907725210451645770489865693914773695253e-9",
                         "1.481540492640916891966465159805362413363e-11")),
        (1, 1.0 - 1e-9, ("9.999999739402181429247113340499540433142e-10",
                         "7.907755085403498382652908279116836093294e-12",
                         "1.481551024458385927478513472885209033537e-14")),
        (1, 1.0 + 1e-9, ("1.000000080518220899911216276927369374929e-9",
                         "7.907755903204781919979880000213775887376e-12",
                         "1.481551167817425240664540190082127097825e-14")),
        (1, 1.0 - 1e-12, ("9.999778782821005473768536831715450753841e-13",
                          "7.907580345863132688606162497721704228589e-15",
                          "1.481518281349187980168557533524559508644e-17")),
        (1, 1.0 + 1e-12, ("1.000088900580118466763485191984277969507e-12",
                          "7.908458283001375470652847763863749983305e-15",
                          "1.481682766537490690701820732544958039204e-17")),
        (0, 1.0 - 1e-3, ("1.000578205629358648504527450284682061796",
                         "1.007513882411113787786134053165792915156e-3",
                         "1.014497635007583200597365420204311395731e-6")),
        (0, 1.0 - 1e-6, ("1.000000577216653975033945532290800350314",
                         "1.000007484999779037403339050338367806705e-3",
                         "1.000014392830621539932327857323557595122e-6")),
        (0, 1.0 - 1e-9, ("1.000000000577215649565814926536531100885",
                         "1.000000007484970761029095166264728045952e-3",
                         "1.000000014392725920209456058396954495687e-6")),
        (0, 1.0 - 1e-12, ("1.000000000000577202895899133173270084136",
                          "1.000000000007484805363480165314499392951e-3",
                          "1.000000000014392407831108912427578805788e-6")),
    ]

    @pytest.mark.parametrize("k, alpha, refs", NEAR_ONE,
                             ids=[f"k{k}-{alpha!r}" for k, alpha, _ in NEAR_ONE])
    def test_stable_part_near_index_one_equals_the_reference(self, k, alpha, refs):
        mu = LevyMeasure.stable(alpha, 1.0)
        for w, ref in zip((1.0, 1e3, 1e6), refs):
            assert log_jump_integral(mu, w, k) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


class TestHoistedConstants:
    """Values computed once per drift or per call equal their per-call forms."""

    def test_margin_csv_equals_per_value_format(self, tmp_path):
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308,
                    0.1, 1.0 / 3.0, np.float64(2.0 / 3.0), np.float64(-1e-300), 123456789.0]
        rows = [(specials[i], specials[(i + 1) % 14], specials[(i + 5) % 14],
                 specials[(i + 9) % 14]) for i in range(14)]
        rows += [(a, b, 1.0, 2.0) for a in specials for b in specials]
        self._check(tmp_path / "m.csv", rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4),
                    max_size=20))
    def test_margin_csv_equals_per_value_format_on_random_rows(self, tmp_path_factory, rows):
        self._check(tmp_path_factory.mktemp("csv") / "m.csv", rows)

    @staticmethod
    def _check(path, rows):
        _write_csv(path, ("x", "y", "lhs", "rhs", "margin"),
                   ((x, y, lhs, rhs, rhs - lhs) for x, y, lhs, rhs in rows))
        want = "x,y,lhs,rhs,margin\n" + "".join(
            ",".join(format(v, ".17g") for v in (x, y, lhs, rhs, rhs - lhs)) + "\n"
            for x, y, lhs, rhs in rows
        )
        assert path.read_bytes() == want.encode()
