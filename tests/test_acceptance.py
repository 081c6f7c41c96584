"""Acceptance gate: one test per criterion, each printing a PASS line.

Probabilistic criteria use seeded generators throughout, so every run of
this module sees identical numbers; the Monte Carlo slack conventions are
three sampling sigmas computed at the bound value (or at the target rate
for rate gates).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    all_pairs_relaxation,
    coarse_subdivided_random,
    fine_pair_graph,
    random_connected_graph,
    star_3,
)
from paths_reference import shortest_paths
from sprkit import (
    SprParams,
    build_interval_partition,
    check_covering,
    coin_box_batch,
    cost_bound_check,
    failure_rate,
    preprocess_subdivide,
    reconstruct_ledger,
    run_and_contract,
    run_rng,
    run_spr,
    sample_exponential,
    summarize_covering,
    validate_tail_bounds,
)
from sprkit.bounds import chernoff_bound
from sprkit.experiment import ExperimentSpec, rows_to_csv, run_experiment
from sprkit.generators import generate
from sprkit.minor import contract, distortion, validate_partition
from sprkit.oracle import best_partition, compare_to_spr

CAL_PATH = Path(__file__).resolve().parent.parent / "calibration" / "distortion.json"

SWEEP_CONFIGS = {
    8: dict(family="random-weighted", n=48, edge_prob=0.12, k=8),
    16: dict(family="random-weighted", n=80, edge_prob=0.08, k=16),
    32: dict(family="random-weighted", n=160, edge_prob=0.05, k=32),
    64: dict(family="random-weighted", n=256, edge_prob=0.035, k=64),
}


def _passline(num: int, name: str, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d} ({name}): PASS  {detail}")


def distortion_sweep(seeds_per_k: int = 50) -> dict[int, float]:
    """Deterministic distortion sweep shared with the calibration script."""
    out = {}
    for k, cfg in SWEEP_CONFIGS.items():
        cfg = dict(cfg)
        cfg.pop("family")
        graph = generate("random-weighted", cfg, seed=1000 + k)
        worst = 1.0
        for seed in range(seeds_per_k):
            _, report, _ = run_and_contract(
                graph, SprParams.for_graph(graph, seed=seed)
            )
            worst = max(worst, report.max_ratio)
        out[k] = worst
    return out


@pytest.mark.slow
def test_criterion_01_minor_validity_sweep():
    configs = [
        ("path", {"n": 200}),
        ("cycle", {"n": 240, "k": 16}),
        ("star", {"k": 64}),
        ("complete-binary-tree", {"depth": 5}),
        ("complete-binary-tree", {"depth": 6}),
        ("grid", {"width": 12, "height": 10}),
        ("grid", {"width": 14, "height": 14, "terminals": "random", "k": 32}),
        ("random-weighted", {"n": 150, "edge_prob": 0.05, "k": 16}),
        ("random-weighted", {"n": 300, "edge_prob": 0.03, "k": 48}),
        ("random-weighted", {"n": 480, "edge_prob": 0.02, "k": 64}),
    ]
    t0 = time.perf_counter()
    runs = 0
    for ci, (family, params) in enumerate(configs):
        graph = generate(family, params, seed=500 + ci)
        assert graph.n <= 500 and graph.k <= 64
        for seed in range(100):
            p = SprParams.for_graph(graph, seed=seed)
            partition, trace = run_spr(graph, p)
            assert validate_partition(graph, partition) == []
            report = distortion(graph, contract(graph, partition))
            assert all(pair.ratio >= 1.0 - 1e-9 for pair in report.pairs)
            runs += 1
    elapsed = time.perf_counter() - t0
    assert runs == 1000
    assert elapsed < 300.0
    _passline(1, "minor validity", f"1000 runs, {elapsed:.1f}s")


def test_criterion_02_oracle_floor():
    violations = 0
    for i in range(50):
        n = 7 + (i % 4)
        k = 2 + (i % 2)
        graph = random_connected_graph(n, k, seed=2000 + i, extra_edges=2)
        rows = compare_to_spr(graph, seeds=range(20))
        for row in rows:
            if row.spr_distortion < row.oracle_distortion - 1e-9:
                violations += 1
    assert violations == 0

    star = star_3()
    assert best_partition(star).best_distortion == pytest.approx(2.0)
    for row in compare_to_spr(star, seeds=range(20)):
        assert row.spr_distortion == pytest.approx(2.0)
        assert row.oracle_distortion == pytest.approx(2.0)
    _passline(2, "oracle floor", "50 graphs x 20 seeds, star exactly 2.0")


def test_criterion_03_determinism():
    graph = generate("random-weighted", {"n": 60, "edge_prob": 0.12, "k": 8}, seed=3)
    params = SprParams.for_graph(graph, seed=999)
    _, _, trace1 = run_and_contract(graph, params)
    _, _, trace2 = run_and_contract(graph, params)
    assert trace1.to_json() == trace2.to_json()

    spec = ExperimentSpec(
        configs=(
            {"family": "star", "k": 6},
            {"family": "random-weighted", "n": 40, "edge_prob": 0.15, "k": 6},
        ),
        seeds_per_config=5,
        base_seed=17,
    )
    csv1 = rows_to_csv(run_experiment(spec))
    csv2 = rows_to_csv(run_experiment(spec))
    assert csv1.encode() == csv2.encode()
    _passline(3, "determinism", "trace JSON and CSV byte-identical twice")


def test_criterion_04_subdivision_exactness():
    worst = 0.0
    for i in range(100):
        graph = random_connected_graph(
            8 + (i % 3), 2, seed=4000 + i, extra_edges=1, weight_range=(0.8, 1.2)
        )
        oracle = all_pairs_relaxation(graph)
        result = preprocess_subdivide(graph, SprParams.for_graph(graph))
        maps = {t: shortest_paths(result.graph, t) for t in graph.terminals}
        for a in graph.terminals:
            for b in graph.terminals:
                if a == b:
                    continue
                rel = abs(maps[a].distance(b) - oracle[a][b]) / oracle[a][b]
                worst = max(worst, rel)
    assert worst <= 1e-9
    _passline(4, "subdivision exactness", f"100 graphs, worst rel err {worst:.2e}")


def test_criterion_05_exponential_sampler():
    n = 10**6
    for mean in (0.01, 1.0, 100.0):
        rng = run_rng(55, stream=int(mean * 100))
        total = 0.0
        for _ in range(n):
            total += sample_exponential(mean, rng)
        emp = total / n
        assert abs(emp - mean) <= 3 * mean / math.sqrt(n)

    rng = run_rng(56)
    samples = np.array([sample_exponential(1.0, rng) for _ in range(n)])
    for a, b in ((1.0, 1.0), (2.0, 0.5)):
        above = samples[samples >= a]
        conditional = float(np.mean(above >= a + b))
        unconditional = float(np.mean(samples >= b))
        assert abs(conditional - unconditional) <= 0.01
    _passline(5, "exponential sampler", "means and memorylessness at 1e6 samples")


def test_criterion_06_exp_tail_bounds():
    trials = 10**5
    params32 = SprParams(k=32)
    base, ratio = params32.base_mean, params32.ratio
    deadline = math.floor(math.log(4.0) / math.log(ratio))
    geometric = [base * ratio**i for i in range(deadline + 1)]
    mu_g = sum(geometric)

    cases = [
        ([1.0] * 10, 30.0),          # upper, plain grid
        ([1.0] * 10, 20.0),          # upper, boundary a = 2 mu
        ([1.0] * 10, 2.0),           # lower, plain grid
        ([1.0] * 10, 5.0),           # lower, boundary a = mu / 2
        ([0.5, 1.0, 2.0, 4.0], 2.5 * 7.5),   # upper, mixed rates
        ([0.5, 1.0, 2.0, 4.0], 0.3 * 7.5),   # lower, mixed rates
        (geometric, 1.0),            # lower, the round-schedule sum
        (geometric, 2.5 * mu_g),     # upper, the round-schedule sum
    ]
    for idx, (lams, a) in enumerate(cases):
        res = validate_tail_bounds(lams, a, trials, rng=np.random.default_rng(600 + idx))
        assert res.bound.upper_applicable or res.bound.lower_applicable
        assert res.ok, (lams[:3], a, res)
    _passline(6, "exp tail bounds", f"{len(cases)} grids x {trials} trials")


def test_criterion_07_coin_box_domination():
    trials = 10**6
    counts = coin_box_batch(0.2, trials, np.random.default_rng(7))
    assert np.all(counts % 2 == 1)
    for m in range(1, 11):
        emp = float(np.mean(counts >= 2 * m + 1))
        sharp = math.exp(-9 * m / 40)
        relaxed = math.exp(-m / 5)
        slack = 3 * math.sqrt(sharp * (1 - sharp) / trials)
        assert emp <= sharp + slack
        assert emp <= relaxed + slack  # a fortiori
    _passline(7, "coin-box tails", "1e6 trials, odd counts, geometric envelope")


def test_criterion_08_chernoff_instantiation():
    trials = 10**6
    n, p = 20, 0.2
    delta = 1 / (2 * p) - 1
    bound = chernoff_bound(n, p, delta)
    assert bound == pytest.approx(math.exp(-2.25))
    draws = np.random.default_rng(8).binomial(n, p, size=trials)
    emp = float(np.mean(draws >= 10))
    assert emp <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)
    _passline(8, "binomial tail", f"freq {emp:.5f} <= {bound:.5f} + slack")


@pytest.mark.slow
def test_criterion_09_charging_failure_rate():
    ledgers = []
    per_graph = []
    for gseed in (1, 2):
        graph = fine_pair_graph(64, seed=gseed, fineness=0.5)
        params0 = SprParams.for_graph(graph)
        partition = build_interval_partition(graph, 0, 8, params0)
        # the analyzed pair's path satisfies the per-pair edge-weight
        # requirement: every edge at most (weight_factor / ln k) * d(t, t')
        tau_pair = (
            params0.weight_factor / math.log(graph.k) * partition.total_length
        )
        steps_sizes = [
            partition.positions[i + 1] - partition.positions[i]
            for i in range(len(partition.path) - 1)
        ]
        assert max(steps_sizes) <= tau_pair * (1 + 1e-9)
        graph_ledgers = []
        for seed in range(15):
            params = SprParams.for_graph(graph, seed=seed)
            _, trace = run_spr(graph, params)
            graph_ledgers.append(
                reconstruct_ledger(trace, graph, partition, params)
            )
        per_graph.append(graph_ledgers)
        ledgers.extend(graph_ledgers)
    rate = failure_rate(ledgers)
    assert rate.qualifying_steps >= 2000
    gate = 0.2 + 3 * math.sqrt(0.2 * 0.8 / rate.qualifying_steps)
    assert rate.fraction <= gate
    # cost exceedances stay rare and the external-length identity holds
    for graph_ledgers in per_graph:
        res = cost_bound_check(graph_ledgers)
        assert res.structural_ok
        assert res.rate <= 0.05
    _passline(
        9,
        "charging failure rate",
        f"{rate.failures}/{rate.qualifying_steps} = {rate.fraction:.4f} <= {gate:.4f}",
    )


def test_criterion_10_ledger_structure():
    runs = 0
    for gseed in (3, 4, 5, 6):
        graph = fine_pair_graph(8, seed=gseed, fineness=1.0)
        params0 = SprParams.for_graph(graph)
        partition = build_interval_partition(graph, 0, 8, params0)
        coef = params0.interval_factor * params0.delta / math.log(graph.k)
        nearest = graph.nearest_terminal_distance
        for q in partition.intervals:
            bound = coef * nearest[partition.path[q.anchor]]
            assert q.length_in <= bound * (1 + 1e-9)
            assert bound <= q.length_out * (1 + 1e-9)
        delta = partition.total_length
        assert delta * (1 - 1e-9) <= partition.sum_length_out() <= 2 * delta * (1 + 1e-9)

        ledgers = []
        for seed in range(25):
            params = SprParams.for_graph(graph, seed=seed)
            _, trace = run_spr(graph, params)
            ledger = reconstruct_ledger(trace, graph, partition, params)
            ledgers.append(ledger)
            runs += 1
            assert ledger.tiles_interior()
            spans = sorted((d.a, d.b) for d in ledger.surviving)
            covered = sum(b - a + 1 for a, b in spans)
            assert covered == partition.interior_size
        assert cost_bound_check(ledgers).structural_ok
    assert runs == 100
    _passline(10, "ledger structure", "100 runs tile; interval identities exact")


@pytest.mark.slow
def test_criterion_11_covering_events():
    details = []
    for k in (32, 64):
        graph, d_floor = coarse_subdivided_random(k, seed=k, threshold=0.2)
        assert graph.n <= k**4
        checks = []
        for seed in range(200):
            params = SprParams.for_graph(graph, seed=seed)
            _, trace = run_spr(graph, params)
            checks.append(check_covering(trace, graph, params))
        summary = summarize_covering(checks, d_floor=d_floor)
        # the paper-scale regime (vertices at least one distance unit out)
        # must meet the gate; the raw any-vertex rate is reported alongside
        # the asymptotic targets (1/k late, k^-3 early) for reference
        assert summary.late_run_rate_restricted <= 5.0 / k
        assert summary.early_run_rate <= 0.05
        details.append(
            f"k={k}: late(raw)={summary.late_run_rate:.2f} "
            f"late(d>={d_floor:.2f})={summary.late_run_rate_restricted:.4f} "
            f"(target 5/k={5 / k:.3f}, asymptotic 1/k={1 / k:.3f}) "
            f"early={summary.early_run_rate:.4f} "
            f"(target 0.05, asymptotic k^-3={k**-3:.1e})"
        )
    _passline(11, "covering events", "; ".join(details))


def test_criterion_12_distortion_trend_regression():
    assert CAL_PATH.exists(), (
        "calibration/distortion.json missing; run scripts/calibrate_distortion.py"
    )
    calibrated = json.loads(CAL_PATH.read_text())
    observed = distortion_sweep()
    ratios = {k: observed[k] / math.log(k) for k in observed}
    worst = max(ratios.values())
    ceiling = calibrated["max_over_lnk"] * 1.25
    assert worst <= ceiling, (ratios, calibrated)
    _passline(
        12,
        "distortion trend",
        f"max distortion/ln k = {worst:.3f} <= 1.25 x calibrated "
        f"{calibrated['max_over_lnk']:.3f}; per-k max {observed}",
    )
