import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad

from cbic import quadrature
from cbic.config import parse_measure
from cbic.mechanisms import (
    BranchingMechanism,
    CompetitionMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    MechanismError,
    conservative_condition,
    log_jump_integral,
    phi_eval,
    psi_eval,
    psi_prime_at_zero,
    stable_density_prefactor,
    stable_to_generic,
)


def uniform_mech(rate=1.0, lo=0.0, hi=1.0, b=0.0, c=0.0):
    return BranchingMechanism(b, c, LevyMeasure.uniform(rate, lo, hi))


class TestUniformDensity:
    def test_scalar_density_equals_array_density(self):
        m = LevyMeasure.uniform(0.8, 0.1, 0.9)
        zs = np.concatenate([[-1.0, 0.0, 0.1, 0.9, 2.0], np.nextafter([0.1, 0.9], 0.5),
                             np.linspace(-0.5, 1.5, 101)])
        assert [m._dens1(float(z)) for z in zs] == list(m.density(zs))
        assert m._dens1(0.5) == 0.8

    def test_carries_no_callable(self):
        m = LevyMeasure.uniform(0.8, 0.0, 0.9)
        assert not any(callable(getattr(m, f.name)) for f in dataclasses.fields(m))
        assert pickle.loads(pickle.dumps(m)) == m


class TestStableDensityScale:
    """The stable density's factor alpha sigma C_alpha is computed once per measure."""

    ZS = [-1.0, -0.0, 0.0, 1e-12, 0.3, 1.0, 2.5, 1e6, 1e300]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_density_equals_the_per_call_factor(self, alpha):
        m = LevyMeasure.stable(alpha, 0.7)
        for z in self.ZS:
            want = 0.0
            if z > 0:
                want = alpha * 0.7 * stable_density_prefactor(alpha) * z ** (-1.0 - alpha)
            assert m._dens1(z) == want
            assert m.density(z)[0] == want
        zs = np.array(self.ZS)
        pos = zs > 0
        want = np.zeros_like(zs)
        want[pos] = alpha * 0.7 * stable_density_prefactor(alpha) * zs[pos] ** (-1.0 - alpha)
        assert np.array_equal(m.density(zs), want)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_moment_equals_the_per_call_factor(self, alpha):
        m = LevyMeasure.stable(alpha, 0.7)
        c = alpha * 0.7 * stable_density_prefactor(alpha)
        p = 2.0 - alpha
        assert m.moment(2.0, 0.0, 1.0) == c * (1.0 ** p - 0.0 ** p) / p

    def test_finite_with_sigma_near_the_float_maximum(self):
        # alpha*sigma overflows before the small C_alpha (alpha -> 2) is applied; where the
        # product is finite its bits stay, as above (at alpha = 1.5, alpha*(0.7*C) differs)
        alpha, sigma = 1.999999, 1e308
        m = LevyMeasure.stable(alpha, sigma)
        assert m._dens_scale == alpha * (sigma * stable_density_prefactor(alpha))
        assert math.isfinite(m.density(2.0)[0]) and math.isfinite(log_jump_integral(m, 2.0, 1))


class TestCompetitionGuard:
    FORMS = [CompetitionMechanism.linear(0.7), CompetitionMechanism.power(1.3, 1.5),
             CompetitionMechanism.xlog(1.3), CompetitionMechanism.power(1e308, 2.0),
             CompetitionMechanism.xlog(1e308)]
    XS = [0.0, 1e-3, 0.5, 2.0, 1e3, 1e200, math.inf]

    @pytest.mark.parametrize("g", FORMS)
    def test_unguarded_equals_call(self, g):
        """The simulator's g, run inside its errstate, is g's own arithmetic."""
        with np.errstate(over="ignore"):
            got = g._unguarded(np.array(self.XS))
            assert [g._unguarded(x) for x in self.XS] == [g(x) for x in self.XS]
        assert np.array_equal(got, g(np.array(self.XS)))

    @pytest.mark.parametrize("g", FORMS + [CompetitionMechanism.power(1.3, 3.0)])
    def test_on_states_equals_unguarded(self, g):
        """The steppers' g has g's bits at every state a stepper holds."""
        xs = np.array(self.XS + [5e-324, math.nan])
        with np.errstate(over="ignore", invalid="ignore"):
            assert g.on_states()(xs).tobytes() == g._unguarded(xs).tobytes()

    @pytest.mark.parametrize("g", FORMS[1:])
    def test_call_guards_overflow(self, g):
        with np.errstate(over="raise"):
            assert g(np.array([1e308]))[0] == math.inf
            with pytest.raises(FloatingPointError):
                g._unguarded(np.array([1e308]))


class TestDensityIntegral:
    """Masses, moments and log tails of every part kind are closed forms."""

    UNI = LevyMeasure.uniform(0.8, 0.0, 0.9)
    MEASURES = [
        UNI,
        LevyMeasure.stable(0.5, 1.0),  # its density blows up at the support edge 0
        LevyMeasure.from_atoms([(0.5, 0.3), (1.5, 0.2)]),
        LevyMeasure.sum_of([LevyMeasure.from_atoms([(0.5, 0.3)]), UNI]),
    ]

    @pytest.mark.parametrize("m", MEASURES, ids=["uniform", "edge-singular", "atoms", "sum"])
    @pytest.mark.parametrize("z0", [0.0, 0.3, 1.0, 2.0])
    def test_mass_equals_zeroth_moment(self, m, z0):
        assert m.mass_above(z0) == m.moment(0.0, z0)

    @pytest.mark.parametrize("rate, lo, hi", [(1.0, 0.0, 1.0), (0.8, 0.0, 0.9), (0.7, 0.2, 2.5)])
    def test_uniform_masses_and_moments_are_the_closed_forms(self, rate, lo, hi):
        # a uniform density is not singular at its support edge: a range that
        # starts there is one quadrature, with no edge shells left out
        m = LevyMeasure.uniform(rate, lo, hi)
        close = lambda got, want: abs(got - want) <= 4 * np.spacing(want)
        for z0 in (0.0, lo, 0.5 * (lo + hi)):
            assert close(m.mass_above(z0), rate * (hi - max(z0, lo)))
            for p in (1.0, 2.0):
                a, b = max(z0, lo), min(hi, 1.0)
                want = rate * (b ** (p + 1) - a ** (p + 1)) / (p + 1) if b > a else 0.0
                assert close(m.moment(p, z0, 1.0), want)

    def test_log_tail_from_support_edge_at_one(self):
        # int_1^3 log(1+z) dz = 4 log 4 - 2 log 2 - 2, for the uniform part on (1, 3)
        m = LevyMeasure.uniform(0.5, 1.0, 3.0)
        assert m.log_tail(1.0) == pytest.approx(0.5 * (6.0 * math.log(2.0) - 2.0), rel=1e-15)
        assert m.has_finite_log_tail

    def test_log_tail_of_atoms_counts_those_above_one(self):
        m = LevyMeasure.from_atoms([(0.5, 0.3), (1.0, 0.4), (2.0, 0.2)])
        for w in (1.0, 1e3 + 1):
            assert m.log_tail(w) == 0.2 * math.log1p(2.0 / w)


class TestUniformClosedForms:
    """Uniform masses and moments are closed forms, equal to quadrature of the
    constant density to 1e-15 relative."""

    @staticmethod
    def _ranges(slo, shi):
        w = shi - slo
        return [(0.0, math.inf), (slo + 0.5 * w, math.inf), (shi + 1.0, math.inf),  # to inf
                (slo + 0.3 * w, shi + 1.0), (0.0, slo + 0.6 * w),  # partial
                (slo + 0.25 * w, slo + 0.5 * w),  # inside
                (shi + 1.0, shi + 2.0), (0.0, slo)]  # empty

    @pytest.mark.parametrize("rate", [0.3, 1.0, 7.5])
    @pytest.mark.parametrize("slo, shi", [(0.0, 1.0), (0.2, 2.5), (1.5, 40.0)])
    def test_equal_quadrature_of_the_constant_density(self, rate, slo, shi):
        m = LevyMeasure.uniform(rate, slo, shi)
        close = lambda got, want: abs(got - want) <= 1e-15 * abs(want)
        for lo, hi in self._ranges(slo, shi):
            a, b = max(lo, slo), min(hi, shi)
            for p in (0.0, 1.0, 2.0):
                want = quadrature.integrate(lambda z: rate * z**p, a, b, singular_at_0=False)
                assert close(m.moment(p, lo, hi), want), (lo, hi, p)
            if hi == math.inf:
                want = quadrature.integrate(lambda z: rate, a, b, singular_at_0=False)
                assert close(m.mass_above(lo), want), lo

    @pytest.mark.parametrize("slo, shi", [(0.0, 1.0), (0.2, 2.5), (1.5, 40.0)])
    def test_log_tail_and_negative_powers_equal_quadrature(self, slo, shi):
        # to 1e-13 relative: QUADPACK's value of the log tail on (1.5, 40) is off by 1.7e-14
        m = LevyMeasure.uniform(0.7, slo, shi)
        a = max(slo, 1.0)
        for w in (1.0, 1e3 + 1, 1e6 + 1):
            want = quadrature.integrate(lambda z: 0.7 * math.log1p(z / w), a, shi,
                                        singular_at_0=False)
            assert m.log_tail(w) == pytest.approx(want, rel=1e-13, abs=0.0), w
        for p in (-0.5, -1.0, -2.5):
            if slo == 0.0 and p <= -1.0:
                assert m.moment(p) == math.inf  # z^p is not integrable at 0+
                continue
            want = quadrature.integrate(lambda z: 0.7 * z**p, slo, shi, singular_at_0=True)
            assert m.moment(p) == pytest.approx(want, rel=1e-13, abs=0.0), p

    def test_moment_beyond_the_float_range_is_inf(self):
        m = LevyMeasure.uniform(1.0, 0.0, 1e308)
        assert m.moment(1.0, 1.0, math.inf) == math.inf
        assert m.log_tail(1.0) == math.inf and not m.has_finite_log_tail


class TestStableLogTail:
    """int_1^inf log(1+z/w) of a stable part is the closed form
    sigma C_alpha (log1p(1/w) + int_0^1 t^(alpha-1)/(1+wt) dt)."""

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5, 1.0, 1.5])
    def test_closed_form(self, alpha):
        beta, _ = quad(lambda t: 1.0 / (1.0 + t), 0.0, 1.0, weight="alg", wvar=(alpha - 1.0, 0.0))
        want = stable_density_prefactor(alpha) * (math.log(2.0) + beta)
        assert LevyMeasure.stable(alpha, 1.0).log_tail(1.0) == pytest.approx(want, rel=1e-12)

    # 40-digit values of the integral at w = 1 + x for x = 1e3, 1e5 and 1e6, in the range
    # of lyapunov_margin's vlog samples, and beyond
    @pytest.mark.parametrize("alpha, sigma, w, want", [
        (0.5, 1.0, 1e3 + 1, 0.055458376057859719839),
        (0.5, 1.0, 1e5 + 1, 0.0055993213616378827147),
        (0.5, 1.0, 1e6 + 1, 0.0017718887757539278548),
        (0.6, 0.5, 1e3 + 1, 0.011456246133062298668),
        (0.6, 0.5, 1e5 + 1, 0.00074121051401306536266),
        (0.6, 0.5, 1e6 + 1, 0.00018669586020176792873),
        (1.0, 0.7, 1e3 + 1, 0.005530946932562183203213),
        (1.0, 0.7, 1e6 + 1, 0.00001037084806972610482304),
        (1.0, 0.7, 1e12, 2.004171478115033247428e-11),
        (1.0, 0.7, 1e100, 1.618809565095831850481e-98),
        (1.5, 1.0, 1e6 + 1, 8.453977265832387072471e-7),
        (0.05, 1.0, 1e12, 4.89066431136761857735),
    ])
    def test_equals_the_reference(self, alpha, sigma, w, want):
        assert LevyMeasure.stable(alpha, sigma).log_tail(w) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [0.05, 5e-324])
    def test_finite_for_every_index(self, alpha):
        # at alpha = 5e-324 the closed form overflows, yet the integral is finite
        assert LevyMeasure.stable(alpha, 1.0).has_finite_log_tail


class TestPsiEval:
    def test_vanishes_at_zero(self):
        for mech in (
            uniform_mech(b=1.2, c=0.3),
            stable_to_generic(0.5, 0.1, 1.0, 1.5),
            BranchingMechanism(0.0, 0.0, LevyMeasure.from_atoms([(2.0, 0.7)])),
        ):
            assert psi_eval(mech, 0.0) == 0.0

    def test_neveu_at_e(self):
        mech = stable_to_generic(0.0, 0.0, 1.0, 1.0)
        assert psi_eval(mech, math.e) == pytest.approx(math.e, rel=1e-10)

    def test_uniform_density_against_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the defining integrand
        oracle, _ = quad(lambda z: math.exp(-z) - 1.0 + z, 0.0, 1.0, epsabs=1e-13)
        got = psi_eval(uniform_mech(), 1.0)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(0.13212055882855767, rel=1e-9)

    def test_rejects_negative_argument(self):
        with pytest.raises(MechanismError):
            psi_eval(uniform_mech(), -1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0])
    def test_stable_laplace_exponent_identity(self, alpha, lam):
        mech = stable_to_generic(0.0, 0.0, 1.0, alpha)
        want = lam**alpha if alpha > 1 else -(lam**alpha)
        assert psi_eval(mech, lam) == pytest.approx(want, rel=1e-6)

    def test_stable_half_at_one(self):
        assert psi_eval(stable_to_generic(0.0, 0.0, 1.0, 0.5), 1.0) == pytest.approx(-1.0)

    def test_convexity_on_grid(self):
        lams = np.linspace(0.0, 6.0, 61)
        for mech in (uniform_mech(b=-0.5), BranchingMechanism(0.2, 0.4)):
            vals = np.array([psi_eval(mech, float(l)) for l in lams])
            assert (np.diff(vals, 2) >= -1e-8).all()

    def test_prime_matches_finite_difference(self):
        mech = uniform_mech(rate=2.0, b=0.7, c=0.1)
        h = 1e-6
        fd = (psi_eval(mech, h) - psi_eval(mech, 0.0)) / h
        value = psi_prime_at_zero(mech).value
        assert fd == pytest.approx(value, rel=1e-3)


class TestPhiEval:
    def test_pure_drift(self):
        mech = ImmigrationMechanism(1.0)
        for lam in (0.0, 0.5, 3.0):
            assert phi_eval(mech, lam) == lam

    def test_single_atom(self):
        mech = ImmigrationMechanism(0.0, LevyMeasure.from_atoms([(1.0, 1.0)]))
        assert phi_eval(mech, 1.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_vanishes_at_zero(self):
        mech = ImmigrationMechanism(0.4, LevyMeasure.uniform(1.0, 0.0, 2.0))
        assert phi_eval(mech, 0.0) == 0.0

    def test_rejects_negative_argument(self):
        with pytest.raises(MechanismError, match="lam >= 0"):
            phi_eval(ImmigrationMechanism(0.4), -1.0)

    def test_concave_nondecreasing(self):
        mech = ImmigrationMechanism(0.2, LevyMeasure.uniform(0.7, 0.0, 3.0))
        lams = np.linspace(0.0, 8.0, 81)
        vals = np.array([phi_eval(mech, float(l)) for l in lams])
        assert (np.diff(vals) >= -1e-12).all()
        assert (np.diff(vals, 2) <= 1e-8).all()


class TestCriticality:
    def test_pure_drift_subcritical(self):
        rep = psi_prime_at_zero(BranchingMechanism(1.0, 0.0))
        assert rep.value == 1.0 and rep.label == "subcritical"

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_stable_low_index_infinite_mean(self, alpha):
        rep = psi_prime_at_zero(stable_to_generic(0.0, 0.0, 1.0, alpha))
        assert rep.value == -math.inf and rep.label == "supercritical"

    def test_finite_tail_supercritical(self):
        rep = psi_prime_at_zero(BranchingMechanism(-1.0, 0.0))
        assert rep.value == -1.0 and rep.label == "supercritical"

    def test_atom_critical(self):
        mech = BranchingMechanism(2.0, 0.0, LevyMeasure.from_atoms([(2.0, 1.0)]))
        rep = psi_prime_at_zero(mech)
        assert rep.value == 0.0 and rep.label == "critical"


def test_no_atoms_is_the_zero_measure():
    assert LevyMeasure.from_atoms([]) == LevyMeasure.zero()
    assert LevyMeasure.from_atoms([]).is_zero


class TestConservativeCondition:
    def test_stable_low_index_explodes(self):
        assert conservative_condition(stable_to_generic(0.0, 0.0, 1.0, 0.5)) is False

    def test_subcritical_conservative(self):
        assert conservative_condition(BranchingMechanism(1.0, 0.0)) is True

    def test_neveu_conservative(self):
        assert conservative_condition(stable_to_generic(0.0, 0.0, 1.0, 1.0)) is True


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_stable_part_of_a_sum_decides_the_conditions(alpha):
    # a finite uniform part added to a stable mu changes neither tail verdict
    mech = stable_to_generic(0.0, 0.0, 1.0, alpha)
    mu = LevyMeasure.sum_of([mech.mu, LevyMeasure.uniform(1.0, 0.0, 1.0)])
    assert mu.kind == "sum"
    with_uniform = BranchingMechanism(mech.b, mech.c, mu)
    assert conservative_condition(with_uniform) is conservative_condition(mech)


class TestSumOfNormalForm:
    """sum_of leaves no sum inside a sum and no zero part, the form that every
    functional of a sum relies on when it hands each part to single-part code."""

    ATOMS = LevyMeasure.from_atoms([(2.0, 1.0)])
    UNI = LevyMeasure.uniform(1.0, 0.0, 1.0)
    STABLE = LevyMeasure.stable(0.5, 1.0)
    TEXT = {ATOMS: "atoms 2.0:1.0", UNI: "uniform rate=1.0 lo=0.0 hi=1.0",
            STABLE: "stable alpha=0.5 sigma=1.0"}

    def test_nested_sum_flattens(self):
        inner = LevyMeasure.sum_of([self.ATOMS, self.UNI])
        nested = LevyMeasure.sum_of([inner, self.STABLE])
        assert nested.kind == "sum" and nested.parts == (self.ATOMS, self.UNI, self.STABLE)
        parsed_inner = parse_measure(" + ".join(self.TEXT[m] for m in inner.parts), "test")
        assert parsed_inner == inner
        parsed_stable = parse_measure(self.TEXT[self.STABLE], "test")
        assert LevyMeasure.sum_of([parsed_inner, parsed_stable]) == nested
        assert parse_measure(" + ".join(self.TEXT.values()), "test") == nested
        assert nested.atoms() == ((2.0, 1.0),)
        assert nested.stable_components() == ((0.5, 1.0),)
        assert nested.mass_above(1.5) == 1.0 + self.STABLE.mass_above(1.5)

    def test_none_plus_none_is_zero(self):
        zero = LevyMeasure.zero()
        assert LevyMeasure.sum_of([zero, zero]) == zero
        assert LevyMeasure.sum_of([]) == zero
        assert parse_measure("none + none", "test") == zero

    @pytest.mark.parametrize("which", ["ATOMS", "UNI", "STABLE"])
    def test_x_plus_none_is_x(self, which):
        x = getattr(self, which)
        zero = LevyMeasure.zero()
        assert LevyMeasure.sum_of([x, zero]) is x
        assert LevyMeasure.sum_of([zero, LevyMeasure.sum_of([x])]) is x
        assert parse_measure(f"{self.TEXT[x]} + none", "test") == x
        assert parse_measure(f"none + {self.TEXT[x]}", "test") == x

    @pytest.mark.parametrize("text", ["uniform rate=0 lo=0 hi=1", "stable alpha=0.5 sigma=0"],
                             ids=["uniform-rate-0", "stable-sigma-0"])
    def test_zero_weight_part_is_zero(self, text):
        # a part of zero weight is the zero measure, so a sum drops it as it drops none
        part = parse_measure(text, "test")
        assert part == LevyMeasure.zero() and part.is_zero
        assert parse_measure(f"{text} + {self.TEXT[self.UNI]}", "test") == self.UNI
        assert parse_measure(f"{text} + {text}", "test") == LevyMeasure.zero()


@pytest.mark.parametrize("g, want", [
    (CompetitionMechanism.power(2.0, 1.5), math.inf),
    (CompetitionMechanism.power(0.0, 1.5), 0.0),
    (CompetitionMechanism.power(0.7, 1.0), 0.7),
    (CompetitionMechanism.power(2.0, 0.5), 0.0),
    (CompetitionMechanism.xlog(1.0), math.inf),
    (CompetitionMechanism.xlog(0.0), 0.0),
], ids=["power-superlinear", "power-zero", "power-linear", "power-sublinear", "xlog",
        "xlog-zero"])
def test_competition_linear_liminf(g, want):
    assert g.linear_liminf() == want


class TestStableToGeneric:
    def test_zero_scale_passthrough(self):
        mech = stable_to_generic(0.7, 0.2, 0.0, 1.3)
        assert mech.b == 0.7 and mech.c == 0.2 and mech.mu.is_zero

    def test_index_out_of_range(self):
        with pytest.raises(MechanismError):
            stable_to_generic(0.0, 0.0, 1.0, 2.0)
        with pytest.raises(MechanismError):
            stable_to_generic(0.0, 0.0, 1.0, 0.0)

    def test_closed_form_matches_quadrature_route(self):
        # the Levy-Khintchine integral of the raw density must give the same Psi
        alpha = 1.5
        c_dens = alpha * (alpha - 1.0) / math.gamma(2.0 - alpha)
        via_stable = BranchingMechanism(0.0, 0.0, LevyMeasure.stable(alpha, 1.0))
        for lam in (0.5, 2.0):
            lk = lambda z: (math.expm1(-lam * z) + lam * z * (z <= 1.0)) * c_dens * z ** (-1 - alpha)
            via_density = quadrature.integrate(lk, 0.0, math.inf, breakpoints=(1.0,),
                                               singular_at_0=True)
            assert via_density == pytest.approx(psi_eval(via_stable, lam), rel=1e-8, abs=1e-9)


class TestValidation:
    def test_negative_diffusion_rejected(self):
        with pytest.raises(MechanismError):
            BranchingMechanism(0.0, -1.0)

    def test_immigration_needs_integrable_measure(self):
        with pytest.raises(MechanismError):
            ImmigrationMechanism(0.0, LevyMeasure.stable(1.5, 1.0))

    def test_uniform_mass_beyond_the_float_range_is_refused(self):
        # rate 1e308 on (0, 10): the mass above z = 1 overflows to inf
        big = LevyMeasure.uniform(1e308, 0.0, 10.0)
        with pytest.raises(MechanismError, match="branching measure diverges"):
            BranchingMechanism(0.0, 0.0, big)
        with pytest.raises(MechanismError, match="immigration measure diverges"):
            ImmigrationMechanism(0.0, big)

    def test_negative_beta_rejected(self):
        with pytest.raises(MechanismError):
            ImmigrationMechanism(-0.1)

    def test_atoms_need_positive_location_and_mass(self):
        with pytest.raises(MechanismError):
            LevyMeasure.from_atoms([(0.0, 1.0)])
        with pytest.raises(MechanismError):
            LevyMeasure.from_atoms([(1.0, -1.0)])
