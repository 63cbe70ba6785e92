import math

import numpy as np
import pytest

from equimine.allocation import PovertyPolicy, allocate, poverty_multipliers
from equimine.errors import ValidationError


class TestPovertyMultipliers:
    def test_bottom_group_gets_boost(self):
        gdp = {f"c{i}": float(100 + i) for i in range(25)}
        gammas = poverty_multipliers(gdp)  # default bottom 20 at 1.2
        boosted = [c for c, g in gammas.items() if g == 1.2]
        assert len(boosted) == 20
        assert set(boosted) == {f"c{i}" for i in range(20)}
        assert gammas["c24"] == 1.0

    def test_everyone_poor_when_bottom_count_covers_all(self):
        gammas = poverty_multipliers({"a": 5.0, "b": 9.0}, PovertyPolicy(bottom_count=2))
        assert gammas == {"a": 1.2, "b": 1.2}

    def test_tie_breaks_lexicographically(self):
        gdp = {"delta": 10.0, "alpha": 10.0, "beta": 1.0}
        gammas = poverty_multipliers(gdp, PovertyPolicy(bottom_count=2))
        assert gammas == {"delta": 1.0, "alpha": 1.2, "beta": 1.2}

    def test_validation(self):
        with pytest.raises(ValidationError):
            poverty_multipliers({"a": 1.0}, PovertyPolicy(bottom_count=2))
        with pytest.raises(ValidationError):
            poverty_multipliers({"a": float("nan")}, PovertyPolicy(bottom_count=1))
        with pytest.raises(ValidationError):
            PovertyPolicy(multiplier=0.9)

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf, -math.inf])
    def test_non_finite_multiplier_rejected(self, multiplier):
        with pytest.raises(ValidationError, match="multiplier"):
            PovertyPolicy(multiplier=multiplier)

    @pytest.mark.parametrize("bottom_count", [1.5, True, "2", None])
    def test_non_integer_bottom_count_rejected(self, bottom_count):
        with pytest.raises(ValidationError, match="bottom_count"):
            poverty_multipliers({"a": 1.0, "b": 2.0, "c": 3.0},
                                PovertyPolicy(bottom_count=bottom_count))

    @pytest.mark.parametrize("bottom_count", [2, np.int64(2), 2.0])
    def test_integral_bottom_count_accepted(self, bottom_count):
        policy = PovertyPolicy(bottom_count=bottom_count)
        assert policy.bottom_count == 2 and type(policy.bottom_count) is int
        assert poverty_multipliers({"a": 1.0, "b": 2.0, "c": 3.0}, policy) == {
            "a": 1.2, "b": 1.2, "c": 1.0}


class TestAllocate:
    def test_uniform_case(self):
        scores = {"a": 2.0, "b": 2.0, "c": 2.0}
        gammas = {"a": 1.0, "b": 1.0, "c": 1.0}
        for mode in ("conserve", "paper-literal"):
            result = allocate(300.0, scores, gammas, mode=mode)
            for share in result.shares:
                assert share.raw_share == pytest.approx(100.0)
                assert share.conserved_share == pytest.approx(100.0)
            assert result.over_allocation == pytest.approx(0.0)

    def test_hand_derived_dual_mode_case(self):
        scores = {"poor": 1.0, "rich": 1.0}
        gammas = {"poor": 1.2, "rich": 1.0}
        result = allocate(110.0, scores, gammas)
        poor, rich = result.shares
        assert poor.raw_share == 66.0
        assert rich.raw_share == 55.0
        assert result.over_allocation == pytest.approx(11.0, abs=1e-12)
        assert poor.conserved_share == pytest.approx(60.0, rel=1e-12)
        assert rich.conserved_share == pytest.approx(50.0, rel=1e-12)

    def test_score_scaling_leaves_shares_unchanged(self, rng):
        scores = {c: float(v) for c, v in zip("abcd", rng.uniform(0.5, 3.0, 4))}
        gammas = {"a": 1.2, "b": 1.0, "c": 1.2, "d": 1.0}
        base = allocate(500.0, scores, gammas)
        doubled = allocate(500.0, {c: 2 * v for c, v in scores.items()}, gammas)
        for s1, s2 in zip(base.shares, doubled.shares):
            assert s2.raw_share == pytest.approx(s1.raw_share, rel=1e-12)
            assert s2.conserved_share == pytest.approx(s1.conserved_share, rel=1e-12)

    def test_conservation_over_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            labels = [f"c{i}" for i in range(n)]
            scores = {c: float(v) for c, v in zip(labels, rng.uniform(0.01, 5.0, n))}
            gammas = {c: (1.2 if rng.uniform() < 0.4 else 1.0) for c in labels}
            total = float(rng.uniform(1.0, 1e12))
            result = allocate(total, scores, gammas)
            conserved = sum(s.conserved_share for s in result.shares)
            assert conserved == pytest.approx(total, rel=1e-9)
            assert all(s.conserved_share >= 0 for s in result.shares)

    def test_boosted_country_gets_strictly_more(self):
        scores = {"x": 1.0, "y": 1.0}
        result = allocate(100.0, scores, {"x": 1.2, "y": 1.0})
        x, y = result.shares
        assert x.raw_share > y.raw_share
        assert x.conserved_share > y.conserved_share

    def test_over_allocation_identity(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            labels = [f"c{i}" for i in range(n)]
            s = rng.uniform(0.1, 4.0, n)
            g = np.where(rng.uniform(size=n) < 0.5, 1.2, 1.0)
            total = float(rng.uniform(10.0, 1000.0))
            result = allocate(total, dict(zip(labels, s)), dict(zip(labels, g)))
            expected = total * (float((g * s).sum()) / float(s.sum()) - 1.0)
            assert result.over_allocation == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            allocate(10.0, {"a": 0.0}, {"a": 1.0})
        with pytest.raises(ValidationError):
            allocate(10.0, {"a": -1.0, "b": 2.0}, {"a": 1.0, "b": 1.0})
        with pytest.raises(ValidationError):
            allocate(10.0, {"a": 1.0}, {"b": 1.0})
        with pytest.raises(ValidationError):
            allocate(-1.0, {"a": 1.0}, {"a": 1.0})
        with pytest.raises(ValidationError):
            allocate(10.0, {"a": 1.0}, {"a": 1.0}, mode="greedy")
