import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from micod.core import DomainError
from micod.env import F_PICKUP, F_PRICE, N_PAIR_FEATURES, OuterState
from micod.matching import (CostMatrix, FixedDelayPolicy, blocking_pairs,
                            brute_force_match, greedy_match, gs_match, km_match,
                            pool_cost_matrix, prefs_from_cost, solve_pool)


def test_greedy_1x1():
    m = CostMatrix(np.array([[5.0]]))
    assert greedy_match(m) == [(0, 0)]
    assert m.total([(0, 0)]) == 5.0


def test_greedy_suboptimal_classic():
    m = CostMatrix(np.array([[1.0, 2.0], [2.0, 100.0]]))
    pairs = greedy_match(m)
    assert pairs == [(0, 0), (1, 1)]
    assert m.total(pairs) == 101.0
    assert m.total(km_match(m)) == 4.0


def test_greedy_all_forbidden():
    m = CostMatrix(np.zeros((2, 2)), forbidden=np.ones((2, 2), dtype=bool))
    assert greedy_match(m) == []


def test_km_3x3_hand_instance():
    m = CostMatrix(np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]))
    assert m.total(km_match(m)) == 5.0


def test_km_2x2():
    m = CostMatrix(np.array([[1.0, 2.0], [2.0, 100.0]]))
    assert km_match(m) == [(0, 1), (1, 0)]


def test_km_diagonal_identity():
    vals = np.full((3, 3), 10.0)
    np.fill_diagonal(vals, 1.0)
    m = CostMatrix(vals)
    assert km_match(m) == [(0, 0), (1, 1), (2, 2)]


def test_km_max_mode():
    m = CostMatrix(np.array([[1.0, 2.0], [2.0, 100.0]]), mode="max")
    assert m.total(km_match(m)) == 101.0
    assert km_match(m) == [(0, 0), (1, 1)]


def test_km_tie_break_pinned():
    """Values that depend only on the row, like TDI prices, make many
    assignments optimal; the padded (rows + cols)^2 solve picks these. A
    rows x cols solve picks others (here [(0, 1), (1, 0)] and
    [(0, 0), (1, 1)]), and with them it changes 256 of perfbench's 512
    eval_classical reference rows: every km and fixed_delay(5) case."""
    prices = np.array([2.0, 4.0, 1.0, 1.0])
    m = CostMatrix(np.repeat(prices[:, None], 2, axis=1), mode="max",
                   forbidden=[[0, 0], [0, 0], [0, 0], [1, 0]])
    assert km_match(m) == [(0, 0), (1, 1)]
    prices = np.array([3.0, 1.0, 1.0])
    m = CostMatrix(np.repeat(prices[:, None], 2, axis=1), mode="max",
                   forbidden=[[0, 0], [0, 0], [1, 0]])
    assert km_match(m) == [(0, 0), (2, 1)]


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
def test_km_empty_matrix(shape):
    assert km_match(CostMatrix(np.zeros(shape))) == []
    assert km_match(CostMatrix(np.zeros(shape), mode="max")) == []


def test_cost_matrix_validation():
    with pytest.raises(DomainError, match="2-dimensional"):
        CostMatrix(np.zeros((2, 2, 2)))
    with pytest.raises(DomainError, match="mode"):
        CostMatrix(np.zeros((2, 2)), mode="best")
    with pytest.raises(DomainError, match="forbidden mask shape"):
        CostMatrix(np.zeros((2, 3)), forbidden=np.zeros((3, 2), dtype=bool))


def test_brute_force_1x3():
    m = CostMatrix(np.array([[7.0, 2.0, 9.0]]))
    assert brute_force_match(m) == [(0, 1)]


def test_brute_force_empty():
    assert brute_force_match(CostMatrix(np.zeros((0, 3)))) == []


def test_brute_force_size_guard():
    with pytest.raises(DomainError):
        brute_force_match(CostMatrix(np.zeros((9, 9))))


def _random_matrix(rng):
    r = int(rng.integers(1, 8))
    c = int(rng.integers(1, 8))
    values = rng.uniform(0, 100, size=(r, c))
    forbidden = rng.random((r, c)) < 0.25
    mode = "min" if rng.random() < 0.5 else "max"
    return CostMatrix(values, mode=mode, forbidden=forbidden)


def test_km_equals_brute_force_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = _random_matrix(rng)
        km = km_match(m)
        bf = brute_force_match(m)
        assert len(km) == len(bf), (m.values, m.forbidden, m.mode)
        assert m.total(km) == pytest.approx(m.total(bf), abs=0.0), \
            (m.values, m.forbidden, m.mode)


def test_greedy_never_beats_km_on_full_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r, c = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        m = CostMatrix(rng.uniform(0, 50, size=(r, c)))
        assert m.total(greedy_match(m)) >= m.total(km_match(m)) - 1e-12


def test_solvers_respect_forbidden_and_one_to_one():
    rng = np.random.default_rng(99)
    for _ in range(100):
        m = _random_matrix(rng)
        for solver in (greedy_match, km_match, brute_force_match):
            pairs = solver(m)
            rows = [r for r, _ in pairs]
            cols = [c for _, c in pairs]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)
            assert all(not m.forbidden[r, c] for r, c in pairs)


def test_gs_1x1():
    assert gs_match([[0]], [[0]]) == [(0, 0)]


def test_gs_contested_driver():
    # both orders prefer driver 0; driver 0 prefers order 0
    order_prefs = [[0, 1], [0, 1]]
    driver_prefs = [[0, 1], [0, 1]]
    assert gs_match(order_prefs, driver_prefs) == [(0, 0), (1, 1)]


def test_gs_mutually_aligned():
    order_prefs = [[0, 1, 2], [1, 0, 2], [2, 0, 1]]
    driver_prefs = [[0, 1, 2], [1, 0, 2], [2, 0, 1]]
    assert gs_match(order_prefs, driver_prefs) == [(0, 0), (1, 1), (2, 2)]


def test_blocking_pairs_reports_the_pair_of_an_unstable_matching():
    # order 1 and driver 0 each prefer the other to their partners
    order_prefs = [[0, 1], [0, 1]]
    driver_prefs = [[1, 0], [0, 1]]
    assert blocking_pairs(order_prefs, driver_prefs, [(0, 0), (1, 1)]) == [(1, 0)]
    assert gs_match(order_prefs, driver_prefs) == [(0, 1), (1, 0)]
    assert blocking_pairs(order_prefs, driver_prefs, [(0, 1), (1, 0)]) == []


def test_gs_and_blocking_pairs_with_one_sided_acceptability():
    # order 0 lists driver 1, who does not list order 0: never a pair
    order_prefs = [[1, 0], [1]]
    driver_prefs = [[0], [1]]
    matching = gs_match(order_prefs, driver_prefs)
    assert matching == [(0, 0), (1, 1)]
    assert blocking_pairs(order_prefs, driver_prefs, matching) == []
    assert blocking_pairs(order_prefs, driver_prefs, [(1, 1)]) == [(0, 0)]


def test_gs_stability_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_o, n_d = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        m = CostMatrix(rng.uniform(0, 10, size=(n_o, n_d)),
                       forbidden=rng.random((n_o, n_d)) < 0.2)
        order_prefs, driver_prefs = prefs_from_cost(m)
        matching = gs_match(order_prefs, driver_prefs)
        assert blocking_pairs(order_prefs, driver_prefs, matching) == []


def test_prefs_from_cost_orders_by_value_then_id():
    m = CostMatrix(np.array([[3.0, 1.0, 1.0]]))
    order_prefs, driver_prefs = prefs_from_cost(m)
    assert order_prefs == [[1, 2, 0]]
    assert driver_prefs == [[0], [0], [0]]


def reference_greedy_match(m):
    """Dense loop over every (row, col) cell: the best remaining eligible
    entry first, ties broken by (row, col)."""
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return []
    cost = m.cost_space()
    entries = [(cost[r, c], r, c)
               for r in range(rows) for c in range(cols)
               if not m.forbidden[r, c]]
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    used_r, used_c, out = set(), set(), []
    for _, r, c in entries:
        if r in used_r or c in used_c:
            continue
        out.append((r, c))
        used_r.add(r)
        used_c.add(c)
    out.sort()
    return out


def reference_prefs_from_cost(m):
    """Dense loops over every cell of each row and each column."""
    rows, cols = m.shape
    cost = m.cost_space()
    order_prefs = []
    for r in range(rows):
        eligible = [c for c in range(cols) if not m.forbidden[r, c]]
        eligible.sort(key=lambda c: (cost[r, c], c))
        order_prefs.append(eligible)
    driver_prefs = []
    for c in range(cols):
        eligible = [r for r in range(rows) if not m.forbidden[r, c]]
        eligible.sort(key=lambda r: (cost[r, c], r))
        driver_prefs.append(eligible)
    return order_prefs, driver_prefs


def test_greedy_and_prefs_equal_their_dense_reference_loops():
    rng = np.random.default_rng(12)
    for case in range(2400):
        r, c = (int(n) for n in rng.integers(0, 9, size=2))
        if case % 2:
            values = rng.integers(-3, 4, size=(r, c)).astype(float)  # many ties, signed zeros
        else:
            values = rng.normal(size=(r, c))
        if case % 3 == 0:
            values = -values
        forbidden = rng.random((r, c)) < rng.random()
        m = CostMatrix(values, mode=("min", "max")[case // 2 % 2], forbidden=forbidden)
        assert greedy_match(m) == reference_greedy_match(m), (m.values, m.forbidden, m.mode)
        assert prefs_from_cost(m) == reference_prefs_from_cost(m), \
            (m.values, m.forbidden, m.mode)


def test_pool_cost_matrix_hand_instance():
    # rows: (order 5, driver 2), (order 3, driver 2), (order 5, driver 9)
    feats = np.zeros((3, N_PAIR_FEATURES))
    feats[:, F_PRICE] = [1.0, 2.0, 3.0]
    feats[:, F_PICKUP] = [0.5, 0.25, 0.75]
    state = OuterState(global_info=np.zeros(4), order_ids=np.array([5, 3, 5]),
                       driver_ids=np.array([2, 2, 9]), feature_matrix=feats)
    # rows are orders 3, 5 and columns drivers 2, 9, each in id order
    m, row_of_rc = pool_cost_matrix(state, "TDI")
    assert m.mode == "max"
    assert m.values.tolist() == [[2.0, 0.0], [1.0, 3.0]]
    assert m.forbidden.tolist() == [[False, True], [False, False]]
    assert row_of_rc.tolist() == [[1, -1], [0, 2]]
    m, _ = pool_cost_matrix(state, "APD")
    assert m.mode == "min" and m.values.tolist() == [[0.25, 0.0], [0.5, 0.75]]
    for solver in ("km", "greedy", "gs"):
        assert solve_pool(state, "TDI", solver) == [1, 2]
    with pytest.raises(DomainError, match="'APD' or 'TDI'"):
        pool_cost_matrix(state, "price")


def test_pool_cost_matrix_of_an_empty_pool():
    empty = np.zeros(0, dtype=np.int64)
    state = OuterState(global_info=np.zeros(4), order_ids=empty, driver_ids=empty,
                       feature_matrix=np.zeros((0, N_PAIR_FEATURES)))
    m, row_of_rc = pool_cost_matrix(state, "TDI")
    assert m.shape == (0, 0) and row_of_rc.shape == (0, 0)


def test_solve_pool_rejects_unknown_solver():
    feats = np.zeros((1, N_PAIR_FEATURES))
    state = OuterState(global_info=np.zeros(4), order_ids=np.array([0]),
                       driver_ids=np.array([0]), feature_matrix=feats)
    with pytest.raises(DomainError, match="unknown solver 'hungarian'"):
        solve_pool(state, "TDI", "hungarian")


def test_pool_cost_matrix_unsorted_sparse_ids():
    """A caller-built pool in no particular row order, with ids far apart,
    gives np.unique's ranking in memory bounded by the pool."""
    rng = np.random.default_rng(5)
    order_pool = np.array([0, 2**40, 7, 2**40 + 3, 19, 2**62])
    driver_pool = np.array([2**40, 0, 3, 2**33, 11])
    n_d = len(driver_pool)
    cells = rng.permutation(len(order_pool) * n_d)[:20]  # distinct pairs
    order_ids, driver_ids = order_pool[cells // n_d], driver_pool[cells % n_d]
    feats = rng.random((20, N_PAIR_FEATURES))
    state = OuterState(global_info=np.zeros(4), order_ids=order_ids,
                       driver_ids=driver_ids, feature_matrix=feats)
    tracemalloc.start()
    try:
        m, row_of_rc = pool_cost_matrix(state, "APD")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024

    _, r = np.unique(order_ids, return_inverse=True)
    _, c = np.unique(driver_ids, return_inverse=True)
    shape = (len(set(order_ids.tolist())), len(set(driver_ids.tolist())))
    values, expected_rows = np.zeros(shape), np.full(shape, -1)
    values[r, c] = feats[:, F_PICKUP]
    expected_rows[r, c] = np.arange(20)
    assert np.array_equal(m.values, values)
    assert np.array_equal(m.forbidden, expected_rows < 0)
    assert np.array_equal(row_of_rc, expected_rows)


def test_fixed_delay_schedule():
    pol = FixedDelayPolicy(3)
    pol.reset(total_batches=6)
    assert [pol.should_match(t) for t in range(6)] == [False, False, True,
                                                       False, False, True]


def test_fixed_delay_one_is_every_batch():
    pol = FixedDelayPolicy(1)
    pol.reset(total_batches=4)
    assert all(pol.should_match(t) for t in range(4))


def test_fixed_delay_longer_than_episode_matches_terminal():
    pol = FixedDelayPolicy(10)
    pol.reset(total_batches=6)
    assert [pol.should_match(t) for t in range(6)] == [False] * 5 + [True]


def test_fixed_delay_rejects_zero():
    with pytest.raises(DomainError):
        FixedDelayPolicy(0)
