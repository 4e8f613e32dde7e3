"""Shared domain vocabulary: planar geometry inside a rectangular geo-fence,
grid cells, supply/demand entities and episode configuration.

Entities and configuration are immutable value objects; grid cells are flat
indices that :func:`cell_ids` computes for whole arrays of points. The
simulator copies the entities once per episode into id-sorted entity tables
(one numpy structured array per kind, with grid cells as columns) whose
``state`` column carries the mutable lifecycle; the per-batch candidate pool
is a set of id arrays plus a feature matrix on :class:`micod.env.OuterState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class DomainError(ValueError):
    """Invalid domain value or operation."""


class OutOfFenceError(DomainError):
    """Location outside the geo-fence; ``index`` is its position in the input."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Location:
    """Point in the fence, meters east (x) and north (y) of the origin."""

    x: float
    y: float


def _require_finite(what: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{what}: {name} must be finite, got {value}")


@dataclass(frozen=True)
class Order:
    id: int
    origin: Location
    destination: Location
    price: float
    appear_time: float
    patience: float
    trip_duration: float

    def __post_init__(self):
        _require_finite(f"order {self.id}", price=self.price, patience=self.patience,
                        appear_time=self.appear_time, trip_duration=self.trip_duration,
                        origin_x=self.origin.x, origin_y=self.origin.y,
                        destination_x=self.destination.x, destination_y=self.destination.y)
        if self.price <= 0:
            raise DomainError(f"order {self.id}: price must be positive, got {self.price}")
        if self.patience <= 0:
            raise DomainError(f"order {self.id}: patience must be positive, got {self.patience}")
        if self.appear_time < 0:
            raise DomainError(f"order {self.id}: appear_time must be >= 0")
        if self.trip_duration < 0:
            raise DomainError(f"order {self.id}: trip_duration must be >= 0")


@dataclass(frozen=True)
class Driver:
    id: int
    position: Location
    appear_time: float
    offline_hazard: float = 0.0  # per-batch probability of leaving while idle

    def __post_init__(self):
        _require_finite(f"driver {self.id}", appear_time=self.appear_time,
                        offline_hazard=self.offline_hazard,
                        x=self.position.x, y=self.position.y)
        if not 0.0 <= self.offline_hazard < 1.0:
            raise DomainError(f"driver {self.id}: offline_hazard must be in [0, 1)")
        if self.appear_time < 0:
            raise DomainError(f"driver {self.id}: appear_time must be >= 0")


@dataclass(frozen=True)
class EpisodeConfig:
    """Fence, grid and timing parameters shared by generation, simulation
    and the environment. Defaults give a 10-minute episode of 300 two-second
    batches over a 6.4 km x 4.8 km fence cut into 48 cells of 800 m.
    """

    episode_length_s: float = 600.0
    batch_window_s: float = 2.0
    fence_width_m: float = 6400.0
    fence_height_m: float = 4800.0
    cell_size_m: float = 800.0
    match_radius_m: float = 3000.0
    pickup_speed_mps: float = 6.0
    reward_mode: str = "TDI"
    seed: int = 0

    def __post_init__(self):
        _require_finite("episode config", **{f.name: getattr(self, f.name)
                                             for f in fields(self) if f.type == "float"})
        if self.episode_length_s <= 0 or self.batch_window_s <= 0:
            raise DomainError("episode_length_s and batch_window_s must be positive")
        ratio = self.episode_length_s / self.batch_window_s
        if abs(ratio - round(ratio)) > 1e-9:
            raise DomainError("episode_length_s must be divisible by batch_window_s")
        if self.fence_width_m <= 0 or self.fence_height_m <= 0 or self.cell_size_m <= 0:
            raise DomainError("fence and cell dimensions must be positive")
        if self.match_radius_m <= 0 or self.pickup_speed_mps <= 0:
            raise DomainError("match_radius_m and pickup_speed_mps must be positive")
        if self.reward_mode not in ("APD", "TDI"):
            raise DomainError(f"reward_mode must be APD or TDI, got {self.reward_mode!r}")

    @property
    def n_batches(self) -> int:
        return int(round(self.episode_length_s / self.batch_window_s))

    @property
    def grid_rows(self) -> int:
        return max(1, math.ceil(self.fence_height_m / self.cell_size_m))

    @property
    def grid_cols(self) -> int:
        return max(1, math.ceil(self.fence_width_m / self.cell_size_m))

    @property
    def n_cells(self) -> int:
        return self.grid_rows * self.grid_cols


def distance(a: Location, b: Location) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def cell_ids(xs, ys, cfg: EpisodeConfig) -> np.ndarray:
    """Flat grid-cell index of each point (``xs[i]``, ``ys[i]``); the fence
    boundary belongs to the last cell. Raises :class:`OutOfFenceError` naming
    the first point outside the fence."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = (0.0 <= xs) & (xs <= cfg.fence_width_m) & (0.0 <= ys) & (ys <= cfg.fence_height_m)
    if not inside.all():
        i = int(np.argmin(inside))
        raise OutOfFenceError(i, f"({xs[i]}, {ys[i]}) outside fence "
                                 f"{cfg.fence_width_m} x {cfg.fence_height_m}")
    rows = np.minimum(ys // cfg.cell_size_m, cfg.grid_rows - 1).astype(np.int64)
    cols = np.minimum(xs // cfg.cell_size_m, cfg.grid_cols - 1).astype(np.int64)
    return rows * cfg.grid_cols + cols
