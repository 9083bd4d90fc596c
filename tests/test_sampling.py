import json
import math

import numpy as np
import pytest

from joltsql.errors import MissingCacheEntry
from joltsql.sampling import (WeightCache, draw_noise_count, example_rng,
                              hash_id, sample_noisy)


class TestNoiseCount:
    def test_bounds_always_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            beta = float(rng.uniform(0.05, 0.95))
            k = draw_noise_count(n, beta, rng)
            assert 0 <= k <= math.floor(beta * n)

    def test_uniform_frequencies_within_2_percent(self):
        # beta=0.5, 10 columns -> bound 5, six outcomes
        rng = np.random.default_rng(123)
        bound = math.floor(0.5 * 10)
        counts = np.zeros(bound + 1)
        draws = 30_000
        for _ in range(draws):
            counts[draw_noise_count(10, 0.5, rng)] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 1 / (bound + 1)) < 0.02)

    def test_small_beta_small_pool_always_zero(self):
        rng = np.random.default_rng(1)
        assert all(draw_noise_count(3, 0.2, rng) == 0 for _ in range(100))

    def test_invalid_beta(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            draw_noise_count(10, 0.0, rng)
        with pytest.raises(ValueError):
            draw_noise_count(10, 1.0, rng)


class TestSampleNoisy:
    def test_no_replacement_and_pool_membership(self):
        rng = np.random.default_rng(3)
        pool = list(range(20))
        weights = list(np.random.default_rng(4).uniform(0.1, 1, 20))
        for _ in range(500):
            k = int(rng.integers(0, 8))
            picked = sample_noisy(pool, weights, k, rng)
            assert len(picked) == k
            assert picked <= set(pool)

    def test_excluded_items_never_sampled(self):
        # ground-truth columns are simply not in the pool; over many draws
        # nothing outside the pool ever appears
        rng = np.random.default_rng(5)
        pool = [2, 5, 7]
        weights = [1.0, 1.0, 1.0]
        seen = set()
        for _ in range(100_000):
            seen |= sample_noisy(pool, weights, 1, rng)
        assert seen == {2, 5, 7}

    def test_inclusion_rank_matches_weight_rank(self):
        # well-separated weights, k=1: inclusion frequency must follow weight
        rng = np.random.default_rng(6)
        pool = [0, 1, 2, 3, 4]
        weights = [1.0, 2.0, 4.0, 8.0, 16.0]
        counts = np.zeros(5)
        for _ in range(10_000):
            (x,) = sample_noisy(pool, weights, 1, rng)
            counts[x] += 1
        freq_rank = np.argsort(np.argsort(counts))
        weight_rank = np.argsort(np.argsort(weights))
        corr = np.corrcoef(freq_rank, weight_rank)[0, 1]
        assert corr > 0.99

    def test_k_one_frequencies_proportional(self):
        rng = np.random.default_rng(7)
        pool = [0, 1, 2]
        weights = [1.0, 2.0, 7.0]
        counts = np.zeros(3)
        n = 30_000
        for _ in range(n):
            (x,) = sample_noisy(pool, weights, 1, rng)
            counts[x] += 1
        assert np.allclose(counts / n, [0.1, 0.2, 0.7], atol=0.02)

    def test_zero_weights_uniform_fallback(self):
        rng = np.random.default_rng(8)
        counts = np.zeros(4)
        for _ in range(8000):
            (x,) = sample_noisy([0, 1, 2, 3], [0.0, 0.0, 0.0, 0.0], 1, rng)
            counts[x] += 1
        assert np.all(np.abs(counts / 8000 - 0.25) < 0.03)

    def test_k_clamped_to_pool(self):
        rng = np.random.default_rng(9)
        assert sample_noisy([1, 2], [1.0, 1.0], 10, rng) == {1, 2}

    def test_negative_weight_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            sample_noisy([1], [-0.5], 1, rng)

    def test_misaligned_weights_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            sample_noisy([1, 2], [1.0], 1, rng)

    def test_deterministic_given_rng_state(self):
        a = sample_noisy(list(range(10)), [1.0] * 10, 3, np.random.default_rng(99))
        b = sample_noisy(list(range(10)), [1.0] * 10, 3, np.random.default_rng(99))
        assert a == b


class TestExampleRng:
    def test_streams_independent_across_keys(self):
        base = example_rng(0, "ex-1", 1).integers(0, 1 << 30, 8).tolist()
        assert example_rng(0, "ex-1", 1).integers(0, 1 << 30, 8).tolist() == base
        assert example_rng(0, "ex-2", 1).integers(0, 1 << 30, 8).tolist() != base
        assert example_rng(0, "ex-1", 2).integers(0, 1 << 30, 8).tolist() != base
        assert example_rng(1, "ex-1", 1).integers(0, 1 << 30, 8).tolist() != base
        assert example_rng(0, "ex-1", 1, step=5).integers(0, 1 << 30, 8).tolist() != base

    def test_hash_id_stable(self):
        assert hash_id("db000-001") == hash_id("db000-001")
        assert hash_id("a") != hash_id("b")
        assert 0 <= hash_id("anything") < 2 ** 32


class TestWeightCache:
    def test_record_once(self):
        cache = WeightCache()
        cache.record("e1", [0.1, 0.2])
        assert cache.capture_count == 1
        with pytest.raises(ValueError):
            cache.record("e1", [0.3])

    def test_lookup_missing(self):
        with pytest.raises(MissingCacheEntry):
            WeightCache().lookup("nope")

    def test_lookup_returns_recorded(self):
        cache = WeightCache()
        cache.record("e1", [0.5, 0.25])
        assert cache.lookup("e1") == [0.5, 0.25]
        assert cache.capture_count == 1

    def test_save_writes_an_object_of_id_to_weights(self, tmp_path):
        cache = WeightCache()
        cache.record("e1", [0.125, 0.875])
        cache.record("e2", [])
        p = tmp_path / "weights.json"
        cache.save(str(p))
        with open(p) as f:
            assert json.load(f) == {"e1": [0.125, 0.875], "e2": []}
