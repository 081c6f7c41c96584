"""Concentration bounds for sums of exponentials, and the coin-box process.

The tail bounds: for independent X_i ~ Exp(lambda_i), X their sum,
mu the sum of means and lam_max the largest mean,

    upper tail, valid for a >= 2 mu:   P[X >= a] <= exp(-(a - 2 mu) / (2 lam_max))
    lower tail, valid for a <= mu / 2: P[X <= a] <= exp(-(mu / 2 - a) / lam_max)

Both are reported raw (no clamping to 1) together with applicability flags,
and can be validated by seeded Monte Carlo.

The coin-box process models repeated charging of one interval: a box starts
with one active coin; tossing deactivates it, and a failure (probability p)
adds two fresh active coins.  The final inactive count is always odd, and
for p < 1/2 its tail is dominated by a geometric decay, which the Chernoff
helper quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphError


@dataclass(frozen=True)
class TailBound:
    lambdas: tuple[float, ...]
    lam_max: float
    mu: float
    a: float
    upper: float
    lower: float
    upper_applicable: bool  # a >= 2 mu
    lower_applicable: bool  # a <= mu / 2


def exp_tail_bounds(lambdas, a: float) -> TailBound:
    lams = tuple(float(x) for x in lambdas)
    if not lams:
        raise GraphError("at least one rate parameter required")
    if any(not (x > 0 and math.isfinite(x)) for x in lams):
        raise GraphError("all means must be positive and finite")
    lam_max = max(lams)
    mu = sum(lams)
    upper = math.exp(-(a - 2.0 * mu) / (2.0 * lam_max))
    lower = math.exp(-(mu / 2.0 - a) / lam_max)
    return TailBound(
        lambdas=lams,
        lam_max=lam_max,
        mu=mu,
        a=a,
        upper=upper,
        lower=lower,
        upper_applicable=a >= 2.0 * mu,
        lower_applicable=a <= mu / 2.0,
    )


@dataclass(frozen=True)
class TailValidation:
    bound: TailBound
    trials: int
    upper_empirical: float | None
    lower_empirical: float | None
    upper_ok: bool | None
    lower_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.upper_ok is not False and self.lower_ok is not False


def _mc_slack(bound: float, trials: int) -> float:
    p = min(max(bound, 0.0), 1.0)
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def validate_tail_bounds(
    lambdas, a: float, trials: int, rng: np.random.Generator | None = None
) -> TailValidation:
    """Monte Carlo check that empirical tail frequencies respect the bounds.

    A regime passes when its empirical frequency is at most the bound plus
    three sampling sigmas (computed at the bound value).  Regimes whose
    applicability flag is off are skipped, not failed.
    """
    tb = exp_tail_bounds(lambdas, a)
    if rng is None:
        rng = np.random.default_rng(0)
    total = np.zeros(trials)
    for lam in tb.lambdas:
        total += rng.exponential(scale=lam, size=trials)
    upper_emp = lower_emp = None
    upper_ok = lower_ok = None
    if tb.upper_applicable:
        upper_emp = float(np.mean(total >= a))
        upper_ok = upper_emp <= tb.upper + _mc_slack(tb.upper, trials)
    if tb.lower_applicable:
        lower_emp = float(np.mean(total <= a))
        lower_ok = lower_emp <= tb.lower + _mc_slack(tb.lower, trials)
    return TailValidation(
        bound=tb,
        trials=trials,
        upper_empirical=upper_emp,
        lower_empirical=lower_emp,
        upper_ok=upper_ok,
        lower_ok=lower_ok,
    )


def coin_box_batch(
    p: float, trials: int, rng: np.random.Generator, max_tosses: int = 10**7
) -> np.ndarray:
    """Final inactive-coin counts of ``trials`` boxes, tossed together.

    Each box runs until no active coin remains, which is almost sure for
    p < 1/2; more than ``max_tosses`` tosses per box, summed over the boxes,
    turn a p-too-close-to-1/2 stall into an error.
    """
    if not (0.0 < p < 1.0):
        raise GraphError(f"failure probability must be in (0, 1), got {p}")
    active = np.ones(trials, dtype=np.int64)
    inactive = np.zeros(trials, dtype=np.int64)
    tosses = 0
    while True:
        running = active > 0
        n_run = int(running.sum())
        if n_run == 0:
            break
        tosses += n_run
        if tosses > max_tosses * trials:
            raise GraphError("coin-box batch exceeded the toss guard")
        fails = rng.random(n_run) < p
        active[running] += np.where(fails, 1, -1)
        inactive[running] += 1
    return inactive


def chernoff_bound(n: int, p: float, delta: float) -> float:
    """Upper-tail bound exp(-n p delta^2 / 4) for a Binomial(n, p) count.

    Bounds P[X >= (1 + delta) n p] for 0 < delta <= 2e - 1.
    """
    if not (0.0 < p < 1.0):
        raise GraphError(f"p must be in (0, 1), got {p}")
    if not (0.0 < delta <= 2.0 * math.e - 1.0):
        raise GraphError(f"delta must be in (0, 2e-1], got {delta}")
    if n < 1:
        raise GraphError("n must be positive")
    return math.exp(-n * p * delta * delta / 4.0)
