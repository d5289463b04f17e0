import math
import warnings

import numpy as np
import pytest
from scipy import integrate as sciint

from cbic import quadrature
from cbic.measures import overlap_moment
from cbic.mechanisms import (
    BranchingMechanism, ImmigrationMechanism, LevyMeasure, _phi_jump_integral, _psi_jump_integral,
    log_jump_integral,
)
from cbic.quadrature import ABS_TOL, REL_TOL, QuadratureError, _LIMIT, _quad_piece, integrate
from references import cbi_laplace, overlap_integrate, tail_integral


class TestIntegrate:
    def test_polynomial_with_breakpoints(self):
        got = integrate(lambda z: z * z, 0.0, 2.0, breakpoints=(0.5, 1.0), singular_at_0=True)
        assert got == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_improper_upper_limit(self):
        got = integrate(lambda z: math.exp(-z), 1.0, math.inf, singular_at_0=True)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_integrable_power_singularity_at_zero(self):
        got = integrate(lambda z: z**-0.5, 0.0, 1.0, singular_at_0=True)
        assert got == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("fn, match", [
        (lambda z: 1.0 / z, "did not converge"),  # QUADPACK gives up, with a message
        (lambda z: math.inf, "non-finite value"),  # QUADPACK returns inf without one
    ], ids=["non-convergent", "infinite"])
    def test_failed_piece_raises_with_its_interval(self, fn, match):
        # without the geometric cut toward 0, (0, 1) is one QUADPACK piece
        with pytest.raises(QuadratureError, match=match) as err:
            integrate(fn, 0.0, 1.0, singular_at_0=False)
        assert err.value.interval == (0.0, 1.0)
        assert len(str(err.value).splitlines()) == 1

    def test_non_finite_integrand_raises_with_interval(self):
        def bad(z):
            return math.nan if z > 0.5 else 1.0

        with pytest.raises(QuadratureError) as err:
            integrate(bad, 0.0, 1.0, singular_at_0=True)
        assert err.value.interval is not None


class TestTailIntegral:
    def test_exponential_tail_converges(self):
        assert tail_integral(lambda z: math.exp(-z), 0.5) == pytest.approx(math.exp(-0.5), rel=1e-6)

    def test_log_corrected_power_tail_converges(self):
        # log(1+z) z^-1.5 declines slowly at first but is integrable
        val = tail_integral(lambda z: math.log1p(z) * z**-1.5, 1.0)
        assert val == pytest.approx(
            integrate(lambda z: math.log1p(z) * z**-1.5, 1.0, 1e12, singular_at_0=True), rel=1e-3
        )

    def test_harmonic_tail_diverges(self):
        assert tail_integral(lambda z: 1.0 / z, 1.0) == math.inf

    def test_slow_power_tail_diverges(self):
        assert tail_integral(lambda z: z**-0.9, 1.0) == math.inf

    def test_mass_beyond_empty_decades_is_summed(self):
        # four empty decades before the mass: a zero sum never stops the shells
        assert tail_integral(lambda z: 1.0 if 1e5 < z < 1e6 else 0.0, 1.0) == 9e5


class TestQuadPiece:
    """QUADPACK's complaints reach _quad_piece as a message, never as a warning."""

    @staticmethod
    def _message(fn):
        out = sciint.quad(fn, 0.0, 1.0, epsabs=ABS_TOL, epsrel=REL_TOL, limit=_LIMIT,
                          full_output=1)
        return out[3] if len(out) > 3 else None

    def test_non_convergent_piece_raises_only_quadrature_error(self):
        assert self._message(lambda z: 1.0 / z) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="did not converge") as err:
                _quad_piece(lambda z: 1.0 / z, 0.0, 1.0)
        assert err.value.interval == (0.0, 1.0)
        assert len(str(err.value).splitlines()) == 1

    def test_accepted_hard_piece_warns_nothing(self):
        # sin(1/z) exhausts the subdivision limit with an acceptable error estimate
        assert self._message(lambda z: math.sin(1.0 / z)) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _quad_piece(lambda z: math.sin(1.0 / z), 0.0, 1.0)
        # int_0^1 sin(1/z) dz = sin(1) - Ci(1)
        assert got == pytest.approx(0.5040670619069283, abs=1e-4)


class TestSplitTowardZero:
    """Only an integrand that may be singular at 0+ gets the geometric cuts toward 0."""

    UNIFORM = LevyMeasure.uniform(0.8, 0.0, 0.9)
    STABLE = LevyMeasure.stable(0.5, 1.0)

    @pytest.fixture
    def pieces(self, monkeypatch):
        calls = []
        inner = quadrature._quad_piece

        def counted(fn, a, b):
            calls.append((a, b))
            return inner(fn, a, b)

        monkeypatch.setattr(quadrature, "_quad_piece", counted)
        return calls

    @pytest.mark.parametrize(
        "measure, n", [(UNIFORM, 1), (STABLE, 7)], ids=["uniform", "stable"],
    )
    def test_quadpack_calls_on_a_piece_from_zero(self, pieces, measure, n):
        measure.integrate(lambda z: z * z, 0.0, 0.5)
        assert len(pieces) == n
        del pieces[:]
        overlap_integrate(measure, -0.1, lambda z: z * z, 0.0, 0.5)
        assert len(pieces) == n

    def test_sum_decides_per_part(self, pieces):
        LevyMeasure.sum_of([self.UNIFORM, self.STABLE]).integrate(lambda z: z * z, 0.0, 0.5)
        assert len(pieces) == 1 + 7

    def test_time_integral_keeps_the_split(self, pieces):
        # no jump measure: the time integral of Phi is cbi_laplace's only quadrature
        cbi_laplace(BranchingMechanism(0.5, 0.0), ImmigrationMechanism(0.3), 1.0, 0.7, 2.0)
        assert len(pieces) == 7 and pieces[0][0] == 0.0

    @staticmethod
    def _pairs(m):
        """(closed form, quadrature of the same integrand) pairs against ``m``: Psi,
        Phi, the log integrals, int min(1, z^3) and overlap moments."""
        out = []
        for lam in (1e-3, 0.01, 1.0, 50.0):
            out.append((_psi_jump_integral(m, lam),
                        m.integrate(lambda z: math.expm1(-lam * z) + lam * z * (z <= 1.0))))
            out.append((_phi_jump_integral(m, lam), m.integrate(lambda z: -math.expm1(-lam * z))))
        for w in np.geomspace(1.0, 1e6, 10):
            for k in (0, 1):
                out.append((log_jump_integral(m, float(w), k),
                            m.integrate(lambda z: math.log1p(z / w) - k * z / w * (z <= 1.0))))
        out.append((m.moment(3.0, 0.0, 1.0) + m.mass_above(1.0),
                    m.integrate(lambda z: min(1.0, z**3))))
        for gap in (1e-3, 0.05, 0.3, 0.7):
            for shift in (gap, -gap):
                for k in (1, 2, 3):
                    for cut in (0.05, 0.5):
                        out.append((overlap_moment(m, shift, k, cut),
                                    overlap_integrate(m, shift, lambda z: z**k, 0.0, cut)))
        return out

    @pytest.mark.parametrize("m", [
        LevyMeasure.uniform(1.0, 0.0, 1.0),
        LevyMeasure.uniform(0.8, 0.0, 0.9),
        LevyMeasure.uniform(0.6, 0.0, 0.5),
        LevyMeasure.uniform(0.8, 0.1, 0.7),
        LevyMeasure.from_atoms([(0.2, 0.5), (0.25, 0.3), (1.5, 0.4)]),
        LevyMeasure.sum_of([LevyMeasure.from_atoms([(0.5, 0.4)]), LevyMeasure.uniform(0.5, 0.0, 1.0)]),
    ], ids=["ergodic_v1-mu", "nu_jump-nu", "mixed_v1-nu", "mixed_vlog-mu", "atoms", "sum"])
    def test_uniform_integrals_match_the_split(self, m):
        # every closed form against quadrature of the same integrand
        closed, quad = zip(*self._pairs(m))
        assert closed == pytest.approx(quad, rel=REL_TOL, abs=ABS_TOL)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_stable_overlap_moments_match_quadrature(self, alpha):
        nu = LevyMeasure.stable(alpha, 0.7)
        for gap in (1e-4, 0.05, 0.7, 10.0):
            for cut in (1e-3, 0.05):
                for k in (1, 2, 3):
                    quad = overlap_integrate(nu, -gap, lambda z: z**k, 0.0, cut)
                    assert overlap_moment(nu, -gap, k, cut) == pytest.approx(
                        quad, rel=REL_TOL, abs=ABS_TOL)
