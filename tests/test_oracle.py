import pytest

from conftest import path_t_s_t, random_connected_graph, star_3
from sprkit.generators import scaled
from sprkit.graph import GraphError, WeightedGraph
from sprkit.minor import validate_partition
from sprkit.oracle import CapExceededError, best_partition, compare_to_spr


def test_path_best_is_one():
    res = best_partition(path_t_s_t())
    assert res.best_distortion == pytest.approx(1.0)
    assert res.candidates_valid == 2  # inner vertex joins either side
    assert validate_partition(path_t_s_t(), res.best_partition) == []


def test_star_best_is_two_with_three_candidates():
    res = best_partition(star_3())
    assert res.best_distortion == pytest.approx(2.0)
    assert res.candidates_valid == 3
    # lexicographically smallest arg-min: hub goes to the first terminal
    assert res.best_partition.assignment[0] == 1


def test_six_cycle_best_is_one():
    # terminals and inner vertices alternate around a six-cycle
    edges = [(i, (i + 1) % 6, 1.0) for i in range(6)]
    g = WeightedGraph.build(range(6), edges, [0, 2, 4])
    res = best_partition(g)
    assert res.best_distortion == pytest.approx(1.0)
    assert res.candidates_valid <= 27


def test_multi_terminal_path_best_is_one():
    # inner vertices sit on unique terminal-to-terminal shortest paths, so
    # a consistent assignment achieves distortion one
    edges = [(i, i + 1, 1.0) for i in range(6)]
    g = WeightedGraph.build(range(7), edges, [0, 3, 6])
    res = best_partition(g)
    assert res.best_distortion == pytest.approx(1.0)


def test_cap_enforced():
    g = random_connected_graph(14, 3, seed=2, extra_edges=4)
    with pytest.raises(CapExceededError) as exc:
        best_partition(g, cap=12)
    assert exc.value.required == 14


def test_single_terminal_rejected():
    g = random_connected_graph(5, 1, seed=3, extra_edges=1)
    with pytest.raises(GraphError):
        best_partition(g)


def test_scale_invariance():
    g = random_connected_graph(9, 3, seed=11, extra_edges=4)
    a = best_partition(g)
    b = best_partition(scaled(g, 7.5))
    assert a.best_distortion == pytest.approx(b.best_distortion, rel=1e-9)
    assert a.best_partition.assignment == b.best_partition.assignment


def test_compare_to_spr_star_and_path():
    rows = compare_to_spr(star_3(), best_partition(star_3()), seeds=range(10))
    for row in rows:
        assert row.spr_distortion == pytest.approx(2.0)
        assert row.oracle_distortion == pytest.approx(2.0)
        assert row.ratio == pytest.approx(1.0)
    rows = compare_to_spr(path_t_s_t(), best_partition(path_t_s_t()), seeds=range(10))
    for row in rows:
        assert row.ratio == pytest.approx(1.0)


def test_spr_never_beats_oracle_small_sweep():
    for gseed in range(8):
        g = random_connected_graph(9, 3, seed=100 + gseed, extra_edges=3)
        rows = compare_to_spr(g, best_partition(g), seeds=range(5))
        for row in rows:
            assert row.spr_distortion >= row.oracle_distortion - 1e-9
