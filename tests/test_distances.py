import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbic.generator import WeightFunction
from cbic.ergodicity import wv_exact_discrete, wv_ot_small

V1 = WeightFunction.v1()
VLOG = WeightFunction.vlog()


def dist(atoms, probs):
    return np.asarray(atoms, dtype=float), np.asarray(probs, dtype=float)


class TestExactDiscrete:
    def test_identical_laws(self):
        g = dist([0.0, 1.0, 2.5], [0.2, 0.5, 0.3])
        assert wv_exact_discrete(g, g, V1) == 0.0

    def test_two_point_masses(self):
        d1 = dist([2.0], [1.0])
        d2 = dist([5.0], [1.0])
        assert wv_exact_discrete(d1, d2, V1) == pytest.approx(2.0 + 2.0 + 5.0)

    def test_quarter_three_quarter_oracle(self):
        # hand atom-by-atom: 0.5*(1+V(0)) + 0.5*(1+V(1)) = 1.5 under the linear weight
        g = dist([0.0, 1.0], [0.25, 0.75])
        e = dist([0.0, 1.0], [0.75, 0.25])
        assert wv_exact_discrete(g, e, V1) == pytest.approx(1.5)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            wv_exact_discrete(dist([1.0], [0.9]), dist([1.0], [1.0]), V1)

    @pytest.mark.parametrize("atoms, probs", [([0.0, 1.0], [1.0]), ([[0.0, 1.0]], [[0.5, 0.5]])],
                             ids=["lengths", "2-d"])
    def test_rejects_a_malformed_law(self, atoms, probs):
        with pytest.raises(ValueError, match="equal 1-d shape"):
            wv_exact_discrete((atoms, probs), dist([1.0], [1.0]), V1)


class TestTransportSmall:
    def test_identical_laws(self):
        g = dist([0.5, 2.0], [0.4, 0.6])
        assert wv_ot_small(g, g, V1) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_masses(self):
        assert wv_ot_small(dist([2.0], [1.0]), dist([5.0], [1.0]), V1) == pytest.approx(9.0)

    def test_support_cap(self):
        atoms = np.arange(1.0, 14.0)
        probs = np.full(13, 1.0 / 13.0)
        with pytest.raises(ValueError, match="12 atoms"):
            wv_ot_small((atoms, probs), dist([1.0], [1.0]), V1)

    @pytest.mark.parametrize("weight", [V1, VLOG])
    def test_matches_exact_route_on_random_pairs(self, weight):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(250):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            pool = np.round(rng.uniform(0.0, 5.0, 8), 3)
            ga = rng.choice(pool, n, replace=False)
            ea = rng.choice(pool, m, replace=False)
            gp = rng.dirichlet(np.ones(n))
            ep = rng.dirichlet(np.ones(m))
            a = wv_exact_discrete((ga, gp), (ea, ep), weight)
            b = wv_ot_small((ga, gp), (ea, ep), weight)
            worst = max(worst, abs(a - b))
        assert worst <= 1e-9


@settings(max_examples=50, deadline=None)
@given(
    locs=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5, unique=True),
    seed=st.integers(0, 2**31 - 1),
)
def test_metric_properties(locs, seed):
    rng = np.random.default_rng(seed)
    atoms = np.asarray(locs)
    g = (atoms, rng.dirichlet(np.ones(atoms.size)))
    e = (atoms, rng.dirichlet(np.ones(atoms.size)))
    d_ge = wv_exact_discrete(g, e, V1)
    d_eg = wv_exact_discrete(e, g, V1)
    assert d_ge == pytest.approx(d_eg, rel=1e-12, abs=1e-12)
    assert d_ge >= 0.0
    assert wv_exact_discrete(g, g, V1) == 0.0
