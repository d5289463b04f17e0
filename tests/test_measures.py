import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbic.measures import kappa, overlap_mass, overlap_masses, overlap_moment, rn_ratio_many
from cbic import quadrature
import references
from references import (
    _overlap_dens1,
    overlap_atoms,
    overlap_density,
    overlap_integrate,
    overlap_moment_per_point,
)
from cbic.mechanisms import (
    BranchingMechanism,
    CompetitionMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    ModelSpec,
)

UNI = LevyMeasure.uniform(1.0, 0.0, 1.0)
STABLE = LevyMeasure.stable(1.5, 1.0)
ATOMS = LevyMeasure.from_atoms([(1.0, 0.6), (1.5, 0.4)])


class TestOverlapDensity:
    def test_zero_shift_is_half_density(self):
        zs = np.array([0.1, 0.5, 0.9])
        assert overlap_density(UNI, 0.0, zs) == pytest.approx(0.5 * np.ones(3))

    def test_vanishes_below_shift(self):
        assert overlap_density(UNI, 0.4, 0.2) == pytest.approx([0.0])

    def test_band_overlap_value(self):
        assert overlap_density(UNI, 0.4, 0.7) == pytest.approx([0.5])


class TestScalarOverlapDensity:
    """The quadrature integrand repeats overlap_density's arithmetic bit for bit on
    uniform and atom parts; on a stable part, Python's scalar float power and
    numpy's array power may differ in the last bit."""

    BASES = [
        UNI,
        LevyMeasure.uniform(0.8, 0.0, 0.9),
        LevyMeasure.uniform(1.7, 0.3, 1.1),
        ATOMS,
        LevyMeasure.sum_of([ATOMS, LevyMeasure.uniform(0.5, 0.0, 0.7)]),
        LevyMeasure.sum_of([UNI, LevyMeasure.uniform(0.3, 0.4, 2.5)]),
        LevyMeasure.stable(0.5, 1.0),
    ]

    @pytest.mark.parametrize("base", BASES)
    def test_equals_array_density(self, base):
        shifts = [0.0, 0.3, -0.3, 0.9, -0.9, 1.0, -1.0, 2.0, -2.0]
        zs = [-1.0, -0.0, 0.0, 1e-12, 0.05, 0.45, 0.7, 0.9, 1.0, 1.3, 3.0]
        for x in shifts:
            edges = [p for b in base.breakpoints() for p in (b, b + x, b - x)]
            for z in zs + edges + [a for a, _ in base.atoms()]:
                got, want = _overlap_dens1(base, x, z), overlap_density(base, x, z)[0]
                if base.kind == "stable":
                    assert abs(got - want) <= math.ulp(want)
                else:
                    assert got == want

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.floats(0.01, 5.0),
        lo=st.floats(0.0, 1.0),
        width=st.floats(1e-3, 3.0),
        x=st.floats(-4.0, 4.0),
        z=st.floats(-1.0, 5.0),
    )
    def test_equals_array_density_uniform(self, rate, lo, width, x, z):
        base = LevyMeasure.sum_of([LevyMeasure.uniform(rate, lo, lo + width), ATOMS])
        for zz in (z, lo, lo + width, lo + x, lo + width + x):
            assert _overlap_dens1(base, x, zz) == overlap_density(base, x, zz)[0]


class TestOverlapIntegrand:
    """overlap_integrate's quadrature integrands inline _overlap_dens1 bit for bit."""

    @pytest.mark.parametrize(
        "base", [b for b in TestScalarOverlapDensity.BASES if b.kind == "uniform"]
        + [LevyMeasure.stable(0.5, 1.0), STABLE]
    )
    def test_integrands_equal_the_scalar_overlap_density(self, base, monkeypatch):
        seen = []
        capture = lambda fn, *args, **kwargs: seen.append(fn) or 0.0
        monkeypatch.setattr(quadrature, "integrate", capture)
        monkeypatch.setattr(references, "tail_integral", capture)
        zs = [-1.0, -0.0, 0.0, 1e-12, 0.05, 0.45, 0.7, 0.9, 1.0, 1.3, 3.0]
        fn = lambda z: 1.0 + z * z
        checked = 0
        for x in (0.0, 0.3, -0.3, 1.0, -1.0):
            for f in (lambda z: 1.0, fn):
                for hi in (5.0, math.inf):
                    seen.clear()
                    overlap_integrate(base, x, f, 0.0, hi)
                    for integrand in seen:  # none when the overlap has no density part
                        for z in zs + [x, x + 0.2, -x]:
                            assert integrand(z) == float(f(z)) * _overlap_dens1(base, x, z)
                        checked += 1
        assert checked >= 12


class TestOverlapMass:
    def test_zero_shift_half_total(self):
        assert overlap_mass(UNI, 0.0) == pytest.approx(0.5)

    def test_band_overlap_length(self):
        # two unit bands offset by 0.4 share length 0.6
        assert overlap_mass(UNI, 0.4) == pytest.approx(0.3, abs=1e-9)

    def test_disjoint_supports(self):
        assert overlap_mass(UNI, 1.5) == 0.0

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.3])
    def test_shift_symmetry(self, x):
        for base in (UNI, STABLE):
            assert overlap_mass(base, x) == pytest.approx(overlap_mass(base, -x), abs=1e-9)

    @pytest.mark.parametrize("x", [0.05, 0.3, 0.9])
    def test_half_tail_bound(self, x):
        for base in (UNI, STABLE, ATOMS):
            assert overlap_mass(base, x) <= 0.5 * base.mass_above(abs(x)) + 1e-9

    def test_infinite_total_mass_flag(self):
        assert overlap_mass(STABLE, 0.0) == math.inf

    def test_atom_pairing_after_shift(self):
        pairs = overlap_atoms(ATOMS, 0.5)
        assert pairs == ((1.5, 0.5 * 0.4),)
        assert overlap_mass(ATOMS, 0.5) == pytest.approx(0.2)
        assert overlap_mass(ATOMS, 0.25) == 0.0


class TestOverlapMassShifts:
    """A float shift and an array of shifts give the same overlap masses."""

    # both signs, 0, atom spacings, and shifts beyond every support
    SHIFTS = [-3.0, -1.2, -0.5, -0.3, -0.05, -1e-3, 0.0, 1e-3, 0.05, 0.3, 0.5, 1.2, 3.0]
    WINDOWS = [(0.0, math.inf), (0.0, 0.05), (0.0, 0.6), (0.2, 1.1), (0.4, 0.4)]
    ATOMS_CLOSE = LevyMeasure.from_atoms([(0.5, 0.3), (0.55, 0.2), (1.0, 0.6), (1.5, 0.4)])
    BASES = {
        "stable": STABLE,
        "uniform": LevyMeasure.uniform(0.8, 0.1, 0.9),
        "atoms": ATOMS_CLOSE,
        "zero": LevyMeasure.zero(),
        "sum": LevyMeasure.sum_of([LevyMeasure.stable(0.6, 0.5), ATOMS_CLOSE,
                                   LevyMeasure.uniform(0.8, 0.1, 0.7)]),
    }

    @pytest.mark.parametrize("name", list(BASES))
    def test_array_equals_float_shifts(self, name):
        base = self.BASES[name]
        xs = np.array(self.SHIFTS)
        for lo, hi in self.WINDOWS:
            each = [overlap_mass(base, x, lo, hi) for x in self.SHIFTS]
            assert all(type(v) is float for v in each)
            many = overlap_mass(base, xs, lo, hi)
            assert isinstance(many, np.ndarray) and many.shape == xs.shape
            if base.stable_components():
                np.testing.assert_allclose(many, each, rtol=1e-14, atol=0.0)
            else:
                assert np.array_equal(many, each)

    EXACT_BASES = {
        "uniform": LevyMeasure.uniform(0.8, 0.1, 0.9),
        "atoms": ATOMS_CLOSE,
        "stable-0.5": LevyMeasure.stable(0.5, 0.7),
        "stable-1": LevyMeasure.stable(1.0, 1.3),
        "stable-1.5": STABLE,
        "sum": BASES["sum"],
    }

    @pytest.mark.parametrize("name", list(EXACT_BASES))
    def test_overlap_masses_equal_float_shifts_bit_for_bit(self, name):
        """overlap_masses gives every shift the bits of overlap_mass at its float: at the
        overlap table's x (0 included), the grid check's gaps of 1e-4 to 2 l, and the
        shifts -gap of the sweep term, over each window."""
        base = self.EXACT_BASES[name]
        xs = np.concatenate([np.linspace(0.0, 1.0, 257), np.geomspace(1e-4, 40.0, 101),
                             -np.geomspace(1e-4, 40.0, 101), self.SHIFTS])
        for lo, hi in self.WINDOWS + [(0.3, math.inf)]:
            want = [float.hex(overlap_mass(base, x, lo, hi)) for x in xs.tolist()]
            assert [float.hex(v) for v in overlap_masses(base, xs, lo, hi).tolist()] == want

    def test_atoms_pair_at_shifted_locations(self):
        xs = np.array([0.5, 0.05, -0.5, 0.45, 1.0])
        want = [0.5 * 0.3 + 0.5 * 0.4, 0.5 * 0.2, 0.5 * 0.3 + 0.5 * 0.4, 0.5 * 0.2, 0.5 * 0.3]
        assert overlap_mass(self.ATOMS_CLOSE, xs).tolist() == want


class TestOverlapMoment:
    NU = LevyMeasure.stable(0.5, 0.7)

    def test_zero_measure_and_positive_shift(self):
        assert overlap_moment(LevyMeasure.zero(), -0.1, 1, 0.5) == 0.0
        for k in (1, 2, 3):  # a stable overlap at x > 0 is half the density above x
            quad = overlap_integrate(self.NU, 0.05, lambda z: z**k, 0.0, 0.5)
            assert overlap_moment(self.NU, 0.05, k, 0.5) == pytest.approx(
                quad, rel=quadrature.REL_TOL, abs=quadrature.ABS_TOL)

    @pytest.mark.parametrize("alpha, k, gap, hi, want", [
        (0.999, 1, 1e-300, 0.05, 0.17328843138928584351),
        (0.5, 2, 5e-324, 0.05, 0.00073591365225588002397),
        (0.3, 3, 1e-200, 0.9, 0.022541722791900301335),
    ])
    def test_gap_beyond_the_hypergeometric_range(self, alpha, k, gap, hi, want):
        # 40-digit (D/2) hi^(k-a) T^(1+a) 2F1(1+a, k+1; k+2; -T)/(k+1) at T = hi/gap > 1e100
        got = overlap_moment(LevyMeasure.stable(alpha, 0.7), -gap, k, hi)
        assert got == pytest.approx(want, rel=1e-12)

    def test_power_beyond_the_float_range_is_inf(self):
        assert overlap_moment(self.NU, -1.0, 2, 1e308) == math.inf

    PARTS = {"uniform": LevyMeasure.uniform(0.8, 0.1, 0.9),
             "atoms": LevyMeasure.from_atoms([(0.05, 0.3), (0.2, 0.5), (0.25, 0.1)]),
             "stable": NU}
    PARTS["sum"] = LevyMeasure.sum_of(list(PARTS.values()))

    @pytest.mark.parametrize("name", list(PARTS))
    def test_array_of_shifts_equals_one_shift_at_a_time(self, name):
        """An array of shifts gives, by float.hex, the moment at each float shift
        evaluated alone, for both signs of the shift, with a cut inside the support."""
        m = self.PARTS[name]
        shifts = np.concatenate([-np.geomspace(1e-6, 2.0, 30), [0.0, -0.15, -0.2, 0.15, 0.05],
                                 np.geomspace(1e-6, 2.0, 30)])
        for k in (1, 2, 3):
            for hi in (0.22, 0.5):
                got = overlap_moment(m, shifts, k, hi)
                want = [overlap_moment_per_point(m, s, k, hi) for s in shifts.tolist()]
                assert list(map(float.hex, got.tolist())) == [float.hex(float(w)) for w in want]
                assert float.hex(overlap_moment(m, float(shifts[3]), k, hi)) == float.hex(
                    float(want[3]))  # a float shift gives a float


class TestKappa:
    def test_full_masses_at_zero(self):
        model = ModelSpec(
            BranchingMechanism(0.0, 0.0, UNI),
            ImmigrationMechanism(0.0, UNI),
            CompetitionMechanism.none(),
        )
        assert kappa(model, 0.0) == pytest.approx(2.0)

    def test_single_band(self):
        model = ModelSpec(
            BranchingMechanism(0.0, 0.0, UNI),
            ImmigrationMechanism(0.3),
            CompetitionMechanism.none(),
        )
        assert kappa(model, 0.4) == pytest.approx(0.6, abs=1e-9)

    def test_no_jump_measures(self):
        model = ModelSpec(
            BranchingMechanism(0.0, 1.0),
            ImmigrationMechanism(0.3),
            CompetitionMechanism.none(),
        )
        assert kappa(model, 0.7) == 0.0


class TestRnRatio:
    def test_zero_below_positive_shift(self):
        zs = np.array([0.05, 0.2, 0.39])
        assert rn_ratio_many(UNI, 0.4, zs) == pytest.approx(np.zeros(3))

    def test_half_at_zero_shift(self):
        assert rn_ratio_many(UNI, 0.0, 0.5) == pytest.approx([0.5])

    def test_stable_ratio_caps_at_half(self):
        # shifted density exceeds the base density, so the ratio saturates
        assert rn_ratio_many(STABLE, 1.0, 2.0) == pytest.approx([0.5])

    def test_stable_ratio_value(self):
        z, x = 2.0, -1.0
        want = 0.5 * min(1.0, (z - x) ** -2.5 / z**-2.5)
        assert rn_ratio_many(STABLE, x, z) == pytest.approx([want])

    @pytest.mark.parametrize("base", [UNI, STABLE, ATOMS])
    @pytest.mark.parametrize("x", [-0.7, 0.0, 0.5, 1.2])
    def test_range_on_grid(self, base, x):
        zs = np.linspace(1e-3, 4.0, 200)
        vals = rn_ratio_many(base, x, zs)
        assert (vals >= 0.0).all() and (vals <= 0.5).all()

    def test_pair_symmetry_on_grid(self):
        zs = np.linspace(1e-3, 4.0, 200)
        for x, y in ((1.3, 0.4), (2.0, 0.0), (0.9, 0.8)):
            fwd = rn_ratio_many(UNI, x - y, zs) + rn_ratio_many(UNI, y - x, zs)
            rev = rn_ratio_many(UNI, y - x, zs) + rn_ratio_many(UNI, x - y, zs)
            assert fwd == pytest.approx(rev)

    def test_atom_matching(self):
        # shift 0.5 maps the 1.0-atom onto the 1.5-atom
        val = rn_ratio_many(ATOMS, 0.5, 1.5)
        assert val == pytest.approx([0.5 * min(1.0, 0.6 / 0.4)])
        assert rn_ratio_many(ATOMS, 0.3, 1.5) == pytest.approx([0.0])

    @pytest.mark.parametrize("base", [
        LevyMeasure.uniform(1.3, 0.1, 2.0),
        LevyMeasure.stable(0.5, 1.0),
        LevyMeasure.stable(1.0, 0.7),
        LevyMeasure.sum_of([ATOMS, LevyMeasure.uniform(1.3, 0.1, 2.0)]),
        LevyMeasure.sum_of([LevyMeasure.stable(0.5, 1.0), ATOMS, LevyMeasure.uniform(1.3, 0.1, 2.0)]),
    ], ids=["uniform", "stable-0.5", "stable-1", "atoms+uniform", "stable+atoms+uniform"])
    def test_shift_stack_matches_one_call_per_row(self, base):
        # the coupled event pass takes both thresholds from one call at (-gap, gap)
        rng = np.random.default_rng(7)
        z = np.concatenate([rng.exponential(1.0, 40), [1.0, 1.5, 1.5, 0.7]])  # atoms among them
        gap = np.concatenate([rng.exponential(0.5, 40), [0.0, 0.5, -0.5, 0.0]])
        gap[::5] *= -1.0
        got = rn_ratio_many(base, np.stack([-gap, gap]), z)
        want = np.stack([rn_ratio_many(base, -gap, z), rn_ratio_many(base, gap, z)])
        assert got.shape == (2, z.size) and got.tobytes() == want.tobytes()
        assert (got > 0).any()

    def test_many_matches_scalar(self):
        zs = np.array([0.3, 0.7, 1.0])
        xs = np.array([0.1, -0.2, 0.4])
        many = rn_ratio_many(UNI, xs, zs)
        each = [rn_ratio_many(UNI, float(x), float(z))[0] for x, z in zip(xs, zs)]
        assert many == pytest.approx(np.asarray(each))


class TestOverlapIntegrate:
    def test_matches_mass_for_unit_function(self):
        # one quadrature path: exact except where the stable mass has a closed form
        mixed = LevyMeasure.sum_of([ATOMS, LevyMeasure.uniform(0.7, 0.2, 2.5)])
        for base, x in ((UNI, 0.3), (ATOMS, 0.5), (mixed, 0.5), (mixed, -0.3)):
            assert overlap_integrate(base, x, lambda z: 1.0) == overlap_mass(base, x)
        assert overlap_integrate(STABLE, 0.5, lambda z: 1.0) == pytest.approx(
            overlap_mass(STABLE, 0.5), rel=1e-8
        )


@settings(max_examples=40, deadline=None)
@given(
    rate=st.floats(0.1, 3.0),
    width=st.floats(0.2, 2.0),
    lo=st.floats(0.0, 1.0),
    x=st.floats(-2.0, 2.0),
)
def test_overlap_mass_properties(rate, width, lo, x):
    base = LevyMeasure.uniform(rate, lo, lo + width)
    m = overlap_mass(base, x)
    assert m == pytest.approx(overlap_mass(base, -x), abs=1e-9)
    assert m <= 0.5 * base.mass_above(abs(x)) + 1e-9
    assert m == pytest.approx(0.5 * rate * max(width - abs(x), 0.0), abs=1e-8)
