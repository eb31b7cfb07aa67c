"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from pairloss import ScoreSet


def make_set(scores, labels) -> ScoreSet:
    return ScoreSet(scores=np.asarray(scores, dtype=np.float64), labels=np.asarray(labels, dtype=np.int64))


def assert_compares_by_identity(x, y) -> None:
    """x and y hold equal values: they compare unequal without raising, and each equals and hashes as itself."""
    assert x is not y
    assert x != y and not x == y
    assert x == x
    assert hash(x) == hash(x)
    assert x in {x} and y not in {x}


def random_score_set(rng: np.random.Generator, n: int, p_pos: float = 0.35, p_ignore: float = 0.1) -> ScoreSet:
    """A random labelled set; label mix is random, so degenerate mixes occur."""
    scores = rng.uniform(-1.0, 2.0, n)
    u = rng.uniform(size=n)
    labels = np.zeros(n, dtype=np.int64)
    labels[u < p_pos] = 1
    labels[u > 1.0 - p_ignore] = -1
    return make_set(scores, labels)


def nondegenerate_set(
    rng: np.random.Generator,
    n_pos: int,
    n_neg: int,
    n_ignore: int = 0,
    kinks: tuple[float, ...] = (0.5, -0.5, 0.25),
    margin: float = 2e-3,
) -> ScoreSet:
    """Random set whose pairwise differences stay clear of ramp kinks and the
    filter threshold, so finite differences probe smooth territory."""
    n = n_pos + n_neg + n_ignore
    labels = np.array([1] * n_pos + [0] * n_neg + [-1] * n_ignore, dtype=np.int64)
    while True:
        scores = rng.uniform(0.0, 1.0, n)
        diffs = (scores[None, :] - scores[:, None]).ravel()
        ok = True
        for kink in kinks:
            if np.any(np.abs(diffs - kink) < margin):
                ok = False
                break
        if ok:
            perm = rng.permutation(n)
            return make_set(scores[perm], labels[perm])
