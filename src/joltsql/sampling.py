"""Confusion-aware noisy schema sampling with first-epoch weight caching.

The number of noisy columns k is drawn uniformly from {0..floor(beta * |S|)};
the columns themselves come from sequential weighted draws without
replacement over the non-ground-truth pool, weighted by the model's own
predicted relevance probabilities captured once in epoch 1.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import MissingCacheEntry


def example_rng(global_seed: int, example_id: str, epoch: int, step: int = 0) -> np.random.Generator:
    """Independent stream per (seed, example, epoch, step)."""
    digest = hash_id(example_id)
    return np.random.default_rng(np.random.SeedSequence([global_seed, digest, epoch, step]))


def hash_id(example_id: str) -> int:
    h = 2166136261
    for ch in example_id.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


def draw_noise_count(num_columns: int, beta: float, rng: np.random.Generator) -> int:
    """k ~ uniform over {0, 1, ..., floor(beta * num_columns)} inclusive."""
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    bound = int(np.floor(beta * num_columns))
    return int(rng.integers(0, bound + 1))


def sample_noisy(pool: list, weights: list[float], k: int,
                 rng: np.random.Generator) -> set:
    """Sequential weighted sampling without replacement; all-zero weights
    fall back to uniform. k is clamped to the pool size."""
    if len(weights) != len(pool):
        raise ValueError("weights must align with pool")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    remaining = list(pool)
    w = [float(x) for x in weights]
    k = min(k, len(pool))
    chosen = set()
    for _ in range(k):
        total = sum(w)
        if total <= 0:
            probs = [1.0 / len(remaining)] * len(remaining)
        else:
            probs = [x / total for x in w]
        idx = int(rng.choice(len(remaining), p=probs))
        chosen.add(remaining.pop(idx))
        w.pop(idx)
    return chosen


class WeightCache:
    """Per-example sampling weights (predicted probabilities at non-GT
    markers), written once during epoch 1 and read-only afterwards."""

    def __init__(self):
        self._store: dict[str, list[float]] = {}

    @property
    def capture_count(self) -> int:
        return len(self._store)

    def record(self, example_id: str, weights: list[float]):
        if example_id in self._store:
            raise ValueError(f"weights for {example_id!r} already recorded")
        self._store[example_id] = [float(w) for w in weights]

    def lookup(self, example_id: str) -> list[float]:
        if example_id not in self._store:
            raise MissingCacheEntry(f"no cached weights for {example_id!r}")
        return self._store[example_id]

    def save(self, path: str):
        with open(path, "w") as f:
            json.dump(self._store, f)
