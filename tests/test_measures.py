import numpy as np
import pytest

from kchaos import (
    MEAN_R_GOE,
    MEAN_R_POISSON,
    DegenerateSpectrumError,
    DispersionConfig,
    eta,
    normalize_to_eta,
    r_ratio_mean,
    sigma_moving,
)
from oracles import sigma_log, spearman_rank_correlation


class TestRRatio:
    def test_equally_spaced(self):
        assert r_ratio_mean(np.arange(5.0)) == 1.0

    def test_hand_case(self):
        # spacings (1, 2, 1) -> ratios (1/2, 1/2)
        assert r_ratio_mean(np.array([0.0, 1.0, 3.0, 4.0])) == 0.5

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ev = np.sort(rng.uniform(0, 1, 64))
            r = r_ratio_mean(ev)
            assert 0.0 < r <= 1.0

    def test_repeated_level_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            r_ratio_mean(np.array([0.0, 1.0, 1.0, 2.0]))

    def test_too_short(self):
        with pytest.raises(ValueError):
            r_ratio_mean(np.array([0.0, 1.0]))


class TestEta:
    def test_endpoints(self):
        assert eta(MEAN_R_POISSON) == 0.0
        assert eta(MEAN_R_GOE) == 1.0

    def test_midpoint(self):
        assert eta(0.46110) == pytest.approx(0.5, abs=1e-3)

    def test_strictly_increasing_affine(self):
        xs = np.linspace(0.3, 0.6, 7)
        ys = np.array([eta(x) for x in xs])
        assert np.all(np.diff(ys) > 0)
        assert np.allclose(np.diff(ys, 2), 0.0, atol=1e-14)


class TestSigmaLog:
    def test_constant_sequence(self):
        assert sigma_log(np.full(8, 3.7)) == 0.0

    def test_equal_ratio_pairs(self):
        # pairs (1/2, 1/2): identical log ratios, zero variance
        assert sigma_log(np.array([1.0, 2.0, 1.0, 2.0])) == 0.0

    def test_opposite_ratio_pairs(self):
        # log ratios (-ln 2, ln 2): population std is ln 2
        assert sigma_log(np.array([1.0, 2.0, 2.0, 1.0])) == pytest.approx(np.log(2), rel=1e-14)

    def test_incomplete_pair_ignored(self):
        assert sigma_log(np.array([1.0, 2.0, 2.0, 1.0, 5.0])) == pytest.approx(np.log(2))

    def test_errors(self):
        with pytest.raises(ValueError):
            sigma_log(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="zero"):
            sigma_log(np.array([1.0, 0.0, 2.0, 1.0]))


class TestSigmaMoving:
    def test_constant_sequence(self):
        assert sigma_moving(np.full(100, 2.5)) == 0.0

    def test_linear_ramp(self):
        # centered moving average of a linear sequence equals the value
        assert sigma_moving(np.arange(100.0)) == pytest.approx(0.0, abs=1e-12)

    def test_alternating_hand_value(self):
        # with w=1 each 3-point window holds two of one value and one of the
        # other, so the center deviates by 2/3 in absolute value
        cfg = DispersionConfig(w_frac=0.025, n0_frac=0.025)
        assert sigma_moving(np.array([1.0, 2.0] * 20), cfg) == pytest.approx(
            2.0 / 3.0, rel=1e-12
        )

    def test_too_short_for_window(self):
        # w = round(0.025 * 10) = 0: no window
        assert np.isnan(sigma_moving(np.arange(10.0)))
        # w = 1, but n0 = round(0.95 * 21) = 20 lies past the last center 19
        cfg = DispersionConfig(n0_frac=0.95)
        assert np.isnan(sigma_moving(np.arange(21.0), cfg))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DispersionConfig(w_frac=0.6)
        with pytest.raises(ValueError):
            DispersionConfig(n0_frac=1.0)


class TestNormalizeToEta:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.eta_ref = np.sort(rng.uniform(0, 1, 25))

    def test_identity(self):
        out = normalize_to_eta(self.eta_ref, self.eta_ref)
        assert np.allclose(out, self.eta_ref, atol=1e-14)

    def test_recovers_affine_transform(self):
        out = normalize_to_eta(2.0 * self.eta_ref + 3.0, self.eta_ref)
        assert np.allclose(out, self.eta_ref, atol=1e-12)

    def test_zero_mean_residual(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, 25)
        out = normalize_to_eta(x, self.eta_ref)
        assert np.mean(out - self.eta_ref) == pytest.approx(0.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 10, 25)
        base = normalize_to_eta(x, self.eta_ref)
        for a, c in [(2.0, 0.0), (0.3, -4.0), (17.0, 123.0)]:
            assert np.allclose(normalize_to_eta(a * x + c, self.eta_ref), base, atol=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            normalize_to_eta(np.full(25, 2.0), self.eta_ref)

    @pytest.mark.parametrize(
        "x, eta_ref",
        [(np.arange(3.0), np.arange(4.0)), ([1.0], [0.5])],
        ids=["unequal-lengths", "length-1"],
    )
    def test_needs_equal_lengths_of_two_or_more(self, x, eta_ref):
        with pytest.raises(ValueError, match="equal-length vectors of length >= 2"):
            normalize_to_eta(x, eta_ref)


class TestSpearman:
    def test_monotone(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman_rank_correlation(x, x**3) == pytest.approx(1.0)
        assert spearman_rank_correlation(x, -x) == pytest.approx(-1.0)

    def test_ties_averaged(self):
        r = spearman_rank_correlation(
            np.array([1.0, 1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0, 4.0])
        )
        assert 0.9 < r < 1.0
