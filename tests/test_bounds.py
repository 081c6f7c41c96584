import math

import numpy as np
import pytest

from sprkit.bounds import (
    chernoff_bound,
    coin_box_batch,
    exp_tail_bounds,
    validate_tail_bounds,
)
from sprkit.graph import GraphError


# --- closed-form tail bounds --------------------------------------------------


def test_upper_bound_at_twice_mean_is_one():
    tb = exp_tail_bounds([1.0] * 10, 20.0)
    assert tb.upper == pytest.approx(1.0)
    assert tb.upper_applicable


def test_upper_bound_example():
    tb = exp_tail_bounds([1.0] * 10, 30.0)
    assert tb.upper == pytest.approx(math.exp(-5.0))
    assert tb.upper_applicable
    assert not tb.lower_applicable


def test_lower_bound_example():
    tb = exp_tail_bounds([1.0] * 10, 2.0)
    assert tb.lower == pytest.approx(math.exp(-3.0))
    assert tb.lower_applicable
    assert not tb.upper_applicable


def test_empty_lambdas_rejected():
    with pytest.raises(GraphError):
        exp_tail_bounds([], 1.0)
    with pytest.raises(GraphError):
        exp_tail_bounds([1.0, -2.0], 1.0)


def test_bound_monotonicity():
    lams = [0.5, 1.0, 2.0]
    mu = sum(lams)
    uppers = [exp_tail_bounds(lams, a).upper for a in np.linspace(2 * mu, 6 * mu, 9)]
    assert all(x >= y for x, y in zip(uppers, uppers[1:]))
    lowers = [exp_tail_bounds(lams, a).lower for a in np.linspace(mu / 2, mu / 16, 9)]
    assert all(x >= y for x, y in zip(lowers, lowers[1:]))


def test_validate_upper_tail():
    res = validate_tail_bounds([1.0] * 10, 30.0, trials=10**5, rng=np.random.default_rng(1))
    assert res.upper_ok
    assert res.upper_empirical <= math.exp(-5.0) + 0.01


def test_validate_degenerate_single_rate():
    # one exponential at twice its mean: the true tail exp(-2) sits under
    # the (vacuous) bound of one
    res = validate_tail_bounds([1.0], 2.0, trials=10**5, rng=np.random.default_rng(2))
    assert res.bound.upper == pytest.approx(1.0)
    assert res.upper_empirical == pytest.approx(math.exp(-2.0), abs=0.01)
    assert res.ok


def test_validate_lower_tail():
    res = validate_tail_bounds([1.0] * 10, 2.0, trials=10**5, rng=np.random.default_rng(3))
    assert res.lower_ok
    assert res.lower_empirical <= math.exp(-3.0) + 0.01


# --- coin boxes ---------------------------------------------------------------


def test_first_toss_success_gives_one():
    class _Never:
        def random(self, n):
            return np.full(n, 0.99)  # never below p

    assert coin_box_batch(0.2, 3, _Never()).tolist() == [1, 1, 1]


def test_counts_are_odd_and_match_failures():
    rng = np.random.default_rng(4)
    counts = coin_box_batch(0.3, 500, rng)
    for c in counts:
        assert c % 2 == 1
        assert (c - 1) % 2 == 0  # failures = (count - 1) / 2 exactly


def test_batch_matches_process_distribution():
    rng = np.random.default_rng(5)
    batch = coin_box_batch(0.2, 200_000, rng)
    assert np.all(batch % 2 == 1)
    # P[count = 1] = 1 - p
    assert np.mean(batch == 1) == pytest.approx(0.8, abs=0.01)
    # P[count >= 3] = p
    assert np.mean(batch >= 3) == pytest.approx(0.2, abs=0.01)


def test_guard_trips_near_half():
    rng = np.random.default_rng(6)
    with pytest.raises(GraphError):
        coin_box_batch(0.499, 50, rng, max_tosses=20)


def test_bad_probability_rejected():
    rng = np.random.default_rng(7)
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(GraphError):
            coin_box_batch(p, 1, rng)


def test_tail_below_geometric_envelope():
    rng = np.random.default_rng(8)
    counts = coin_box_batch(0.2, 300_000, rng)
    n = len(counts)
    for m in range(1, 8):
        emp = float(np.mean(counts >= 2 * m + 1))
        bound = math.exp(-9 * m / 40)
        assert emp <= bound + 3 * math.sqrt(bound * (1 - bound) / n)
        assert emp <= math.exp(-m / 5) + 3 * math.sqrt(bound / n)


# --- binomial upper tail --------------------------------------------------------


def test_chernoff_instantiation():
    # twenty tosses at p = 0.2, deviation delta = 1/(2p) - 1 = 1.5
    assert chernoff_bound(20, 0.2, 1.5) == pytest.approx(math.exp(-2.25))


def test_chernoff_small_delta_tends_to_one():
    assert chernoff_bound(20, 0.2, 1e-9) == pytest.approx(1.0)


def test_chernoff_rejects_out_of_range():
    with pytest.raises(GraphError):
        chernoff_bound(20, 0.2, 0.0)
    with pytest.raises(GraphError):
        chernoff_bound(20, 0.2, 2 * math.e)
    with pytest.raises(GraphError):
        chernoff_bound(20, 1.2, 0.5)


def test_chernoff_against_monte_carlo():
    rng = np.random.default_rng(9)
    n, p, delta = 20, 0.2, 1.5
    trials = 10**5
    counts = rng.binomial(n, p, size=trials)
    emp = float(np.mean(counts >= (1 + delta) * n * p))
    bound = chernoff_bound(n, p, delta)
    assert emp <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)
