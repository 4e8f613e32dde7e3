"""Single-batch assignment solvers used both as baseline policies and as
correctness oracles for each other.

All solvers share one objective so their totals are comparable: assign as many
pairs as possible first, then optimize the total (minimum cost or maximum gain
per the matrix mode). Forbidden entries are never part of any output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError
from .env import F_PICKUP, F_PRICE

Assignment = list[tuple[int, int]]  # (row, col) = (order index, driver index)

BRUTE_FORCE_MAX_SIDE = 8


@dataclass
class CostMatrix:
    """Rectangular batch matrix: rows are orders, columns are drivers.
    ``mode`` is "min" (entries are costs) or "max" (entries are gains);
    ``forbidden`` marks ineligible pairs."""

    values: np.ndarray
    mode: str = "min"
    forbidden: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DomainError("cost matrix must be 2-dimensional")
        if self.mode not in ("min", "max"):
            raise DomainError(f"mode must be 'min' or 'max', got {self.mode!r}")
        if self.forbidden is None:
            self.forbidden = np.zeros(self.values.shape, dtype=bool)
        else:
            self.forbidden = np.asarray(self.forbidden, dtype=bool)
            if self.forbidden.shape != self.values.shape:
                raise DomainError("forbidden mask shape must match values")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def cost_space(self) -> np.ndarray:
        """Values mapped so that smaller is always better."""
        return self.values if self.mode == "min" else -self.values

    def total(self, pairs: Assignment) -> float:
        return float(sum(self.values[r, c] for r, c in pairs))


def greedy_match(m: CostMatrix) -> Assignment:
    """Repeatedly take the best remaining eligible entry, ties broken by
    (row, col) ascending."""
    rr, cc = np.nonzero(~m.forbidden)  # row-major, so a stable sort keeps (row, col) ties
    order = np.argsort(m.cost_space()[rr, cc], kind="stable")
    used_r: set[int] = set()
    used_c: set[int] = set()
    out: Assignment = []
    for r, c in zip(rr[order].tolist(), cc[order].tolist()):
        if r in used_r or c in used_c:
            continue
        out.append((r, c))
        used_r.add(r)
        used_c.add(c)
    out.sort()
    return out


def km_match(m: CostMatrix) -> Assignment:
    """Optimal assignment: maximum cardinality, best total among those.

    Rectangular and forbidden-entry handling by padding to a square
    (rows + cols) matrix: entries are shifted to be non-negative (a per-pair
    constant shift cannot change the optimum within a cardinality class) and
    each side gets an unassigned-dummy diagonal priced above any augmenting
    path's cost swing, so the solver never trades cardinality for cost.

    Solving the rows x cols matrix directly, with forbidden entries at the
    same pad, finds an optimum too, and faster, but not always this one. In
    TDI mode a pair's value is its order's price, so which driver serves an
    order is a tie, and the direct solve breaks such ties another way: it
    changes the episode of every ``km`` and ``fixed_delay(k)`` evaluation.
    """
    rows, cols = m.shape
    cost = m.cost_space()
    allowed = ~m.forbidden
    eligible = cost[allowed]
    if not len(eligible):
        return []
    low = float(eligible.min())
    span = float(eligible.max() - low)  # the largest shifted entry: shifting is monotone
    pad = (min(rows, cols) + 1) * (span + 1.0)

    k = rows + cols
    big = np.full((k, k), np.inf)
    np.subtract(cost, low, out=big[:rows, :cols], where=allowed)
    flat = big.ravel()
    flat[cols:rows * k:k + 1] = pad  # (r, cols + r): row r unassigned
    flat[rows * k::k + 1] = pad      # (rows + c, c): column c unassigned
    big[rows:, cols:] = 0.0

    from scipy.optimize import linear_sum_assignment  # only KM loads scipy
    rr, cc = linear_sum_assignment(big)  # rr is 0..k-1, so the pairs come out sorted
    real = (rr < rows) & (cc < cols)
    rr, cc = rr[real], cc[real]
    real = allowed[rr, cc]
    return list(zip(rr[real].tolist(), cc[real].tolist()))


def brute_force_match(m: CostMatrix) -> Assignment:
    """Exhaustive optimum over all one-to-one assignments; exactness oracle
    for km_match. Refuses instances with min side above
    BRUTE_FORCE_MAX_SIDE."""
    rows, cols = m.shape
    if min(rows, cols) > BRUTE_FORCE_MAX_SIDE:
        raise DomainError(f"brute force limited to min side {BRUTE_FORCE_MAX_SIDE}, "
                          f"got {rows}x{cols}")
    if rows == 0 or cols == 0:
        return []
    cost = m.cost_space()
    allowed = ~m.forbidden

    best: tuple[int, float, tuple] | None = None  # (-cardinality, total, pairs)

    def recurse(r: int, used_cols: int, pairs: list[tuple[int, int]], total: float):
        nonlocal best
        if r == rows:
            key = (-len(pairs), total, tuple(pairs))
            if best is None or key < best:
                best = key
            return
        recurse(r + 1, used_cols, pairs, total)  # leave row r unassigned
        for c in range(cols):
            if allowed[r, c] and not used_cols & (1 << c):
                pairs.append((r, c))
                recurse(r + 1, used_cols | (1 << c), pairs, total + cost[r, c])
                pairs.pop()

    recurse(0, 0, [], 0.0)
    assert best is not None
    return list(best[2])


# -- stable matching -----------------------------------------------------------

def prefs_from_cost(m: CostMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Strict preference lists over eligible partners derived from the matrix:
    better entry preferred, ties broken by partner index."""
    rows, cols = m.shape
    rr, cc = np.nonzero(~m.forbidden)
    cost = m.cost_space()[rr, cc]
    sides = []
    for owner, partner, n_owners in ((rr, cc, rows), (cc, rr, cols)):
        partners = partner[np.lexsort((partner, cost, owner))].tolist()
        # cut by per-owner counts: np.split would give one piece for no owners
        ends = np.cumsum(np.bincount(owner, minlength=n_owners)).tolist()
        sides.append([partners[start:end] for start, end in zip([0] + ends[:-1], ends)])
    return sides[0], sides[1]


def gs_match(order_prefs: list[list[int]], driver_prefs: list[list[int]]) -> Assignment:
    """Order-proposing deferred acceptance. Preference lists may be partial;
    unlisted partners are unacceptable. The result has no blocking pair."""
    n_orders = len(order_prefs)
    driver_rank = [{r: k for k, r in enumerate(prefs)} for prefs in driver_prefs]
    match_of_driver: dict[int, int] = {}
    next_choice = [0] * n_orders
    free = list(range(n_orders - 1, -1, -1))  # pop() proposes in ascending order
    while free:
        o = free.pop()
        while next_choice[o] < len(order_prefs[o]):
            d = order_prefs[o][next_choice[o]]
            next_choice[o] += 1
            if o not in driver_rank[d]:
                continue  # driver finds this order unacceptable
            cur = match_of_driver.get(d)
            if cur is None:
                match_of_driver[d] = o
                break
            if driver_rank[d][o] < driver_rank[d][cur]:
                match_of_driver[d] = o
                free.append(cur)
                break
        # exhausted list: order stays unmatched
    out = sorted((o, d) for d, o in match_of_driver.items())
    return out


def blocking_pairs(order_prefs: list[list[int]], driver_prefs: list[list[int]],
                   matching: Assignment) -> list[tuple[int, int]]:
    """All mutually-acceptable pairs that would both rather be together than
    stay with their current partners. Empty for a stable matching."""
    order_rank = [{d: k for k, d in enumerate(prefs)} for prefs in order_prefs]
    driver_rank = [{r: k for k, r in enumerate(prefs)} for prefs in driver_prefs]
    match_of_order = {o: d for o, d in matching}
    match_of_driver = {d: o for o, d in matching}
    blocking = []
    for o, prefs in enumerate(order_prefs):
        for d in prefs:
            if o not in driver_rank[d]:
                continue
            cur_d = match_of_order.get(o)
            cur_o = match_of_driver.get(d)
            o_prefers = cur_d is None or order_rank[o][d] < order_rank[o][cur_d]
            d_prefers = cur_o is None or driver_rank[d][o] < driver_rank[d][cur_o]
            if o_prefers and d_prefers:
                blocking.append((o, d))
    return blocking


# -- pool helpers and the fixed-delay batch policy ------------------------------

def pool_cost_matrix(state, reward_mode: str) -> tuple[CostMatrix, np.ndarray]:
    """Build the batch matrix for an outer state's pool, one row per order
    and one column per driver, each in id order.

    Reward mode "APD" minimizes normalized pickup distance (passenger task);
    "TDI" maximizes normalized price (income task). Returns the matrix and a
    rows x cols array of the pool row behind each eligible entry (-1 where
    forbidden).
    """
    if reward_mode not in ("APD", "TDI"):
        raise DomainError(f"reward mode must be 'APD' or 'TDI', got {reward_mode!r}")
    r, n_rows = _ranks(state.order_ids)
    c, n_cols = _ranks(state.driver_ids)
    cell = r * n_cols + c
    values = np.zeros(n_rows * n_cols)
    row_of_rc = np.full(n_rows * n_cols, -1, dtype=np.int64)
    values[cell] = state.feature(F_PICKUP if reward_mode == "APD" else F_PRICE)
    row_of_rc[cell] = np.arange(state.n_pairs)
    shape = (n_rows, n_cols)
    mode = "min" if reward_mode == "APD" else "max"
    row_of_rc = row_of_rc.reshape(shape)
    return CostMatrix(values.reshape(shape), mode=mode, forbidden=row_of_rc < 0), row_of_rc


def _ranks(ids: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each id among the distinct ids (``np.unique``'s inverse), and
    how many there are, from one ``argsort``: memory in proportion to
    ``len(ids)``, whatever the id values."""
    if not len(ids):
        return np.zeros(0, dtype=np.int64), 0
    by_id = ids.argsort()
    sorted_ids = ids[by_id]
    rank = np.zeros(len(ids), dtype=np.int64)
    (sorted_ids[1:] != sorted_ids[:-1]).cumsum(out=rank[1:])
    ranked = np.empty_like(rank)
    ranked[by_id] = rank
    return ranked, int(rank[-1]) + 1


def solve_pool(state, reward_mode: str, solver: str = "km") -> list[int]:
    """Run a one-batch solver over the pool; returns selected pool rows."""
    if state.n_pairs == 0:
        return []
    matrix, row_of_rc = pool_cost_matrix(state, reward_mode)
    if solver == "km":
        pairs = km_match(matrix)
    elif solver == "greedy":
        pairs = greedy_match(matrix)
    elif solver == "gs":
        pairs = gs_match(*prefs_from_cost(matrix))
    else:
        raise DomainError(f"unknown solver {solver!r}")
    return sorted(int(row_of_rc[r, c]) for r, c in pairs)


class FixedDelayPolicy:
    """Plumbing baseline: run the optimal matcher every k-th batch and at the
    final batch, hold everything in between."""

    def __init__(self, delay_batches: int, reward_mode: str = "TDI"):
        if delay_batches < 1:
            raise DomainError(f"delay_batches must be >= 1, got {delay_batches}")
        self.delay = int(delay_batches)
        self.reward_mode = reward_mode
        self._t = 0
        self._total = None

    def reset(self, total_batches: int, seed: int = 0) -> None:
        self._t = 0
        self._total = int(total_batches)

    def should_match(self, t: int) -> bool:
        if self._total is not None and t == self._total - 1:
            return True
        return (t + 1) % self.delay == 0

    def act(self, state) -> tuple[list[int], list[int]]:
        t = self._t
        self._t += 1
        if not self.should_match(t):
            return [], list(range(state.n_pairs))
        # max-cardinality matching leaves only rows that conflict with a
        # selection, so nothing survives to be held on matching batches
        return solve_pool(state, self.reward_mode, "km"), []
