"""Synthetic benchmark datasets organized by demand/supply ratio level
(L1..L4) and driver-capacity bin (<=400, <=550, <=800), plus line-delimited
persistence and taxonomy classification.

The world model's constants (hotspots, patience, offline hazard, trip speed,
pricing) are module-level; nothing is fitted to real data.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Driver, DomainError, EpisodeConfig, Location, Order, OutOfFenceError, cell_ids

RATIO_BANDS: dict[str, tuple[float, float]] = {
    "L1": (1.0, 1.1),
    "L2": (1.1, 1.5),
    "L3": (1.5, 2.0),
    "L4": (2.0, 4.0),
}

# Capacity bins share their table endpoints (300-400, 400-550, 550-800).
# Generation draws from half-open upper bins so a driver count maps back to
# exactly one bin and classification round-trips.
CAPACITY_BINS: tuple[int, ...] = (400, 550, 800)
_CAPACITY_TABLE: dict[int, tuple[int, int]] = {400: (300, 400), 550: (400, 550), 800: (550, 800)}


class DatasetParseError(DomainError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# The synthetic world model.
_N_HOTSPOTS = 4
_HOTSPOT_SPREAD_M = 600.0
_INITIAL_SUPPLY_FRAC = 0.5   # share of drivers present at t = 0
_ARRIVAL_WAVE_AMP = 0.8      # order intensity bump at mid-episode
_PATIENCE_MIN_S = 30.0
_PATIENCE_MEAN_S = 120.0     # shifted-exponential mean
_OFFLINE_HAZARD_MAX = 0.005
_TRIP_SPEED_MPS = 7.0
_TRIP_MIN_S = 60.0
_PRICE_BASE = 2.0
_PRICE_PER_KM = 1.2
_PRICE_NOISE = 0.3


@dataclass(frozen=True)
class ScenarioSpec:
    level: str
    capacity_bin: int
    seed: int = 0
    scale_factor: float = 1.0

    def __post_init__(self):
        if self.level not in RATIO_BANDS:
            raise DomainError(f"unknown level {self.level!r}; expected one of {sorted(RATIO_BANDS)}")
        if self.capacity_bin not in _CAPACITY_TABLE:
            raise DomainError(f"unknown capacity bin {self.capacity_bin}; expected one of {CAPACITY_BINS}")
        if not 0.0 < self.scale_factor <= 1.0:
            raise DomainError(f"scale_factor must be in (0, 1], got {self.scale_factor}")


@dataclass
class Dataset:
    """Episode config plus the time-ordered arrival stream."""

    config: EpisodeConfig
    drivers: list[Driver]
    orders: list[Order]
    scale_factor: float = 1.0
    meta: dict = field(default_factory=dict)

    def events(self) -> list[Driver | Order]:
        """Merged arrival stream, drivers before orders at equal times."""
        tagged = [(d.appear_time, 0, d.id, d) for d in self.drivers]
        tagged += [(o.appear_time, 1, o.id, o) for o in self.orders]
        tagged.sort(key=lambda t: t[:3])
        return [t[3] for t in tagged]

    def ds_ratio(self) -> float:
        if not self.drivers:
            return math.inf if self.orders else 0.0
        return len(self.orders) / len(self.drivers)


def scaled_capacity_range(capacity_bin: int, scale_factor: float) -> tuple[int, int]:
    """Inclusive driver-count range generated for a bin at a given scale.

    The lower edge of the 550 and 800 bins sits one above the scaled upper
    edge of the previous bin, keeping the three ranges disjoint.
    """
    if not 0.0 < scale_factor <= 1.0:
        raise DomainError(f"scale_factor must be in (0, 1], got {scale_factor}")
    lo_t, hi_t = _CAPACITY_TABLE[capacity_bin]
    hi = int(math.floor(hi_t * scale_factor))
    if capacity_bin == 400:
        lo = int(math.ceil(lo_t * scale_factor))
    else:
        lo = int(math.floor(lo_t * scale_factor)) + 1
    lo = max(lo, 1)
    hi = max(hi, lo)
    return lo, hi


def _order_arrival_times(rng: np.random.Generator, n: int, length: float, amp: float) -> np.ndarray:
    """Inverse-CDF sampling from intensity 1 + amp*sin(pi*t/L) (mid-episode wave)."""
    grid = np.linspace(0.0, length, 2049)
    intensity = 1.0 + amp * np.sin(np.pi * grid / length)
    cdf = np.concatenate([[0.0], np.cumsum((intensity[1:] + intensity[:-1]) / 2.0 * np.diff(grid))])
    cdf /= cdf[-1]
    u = rng.random(n)
    times = np.interp(u, cdf, grid)
    return np.minimum(times, np.nextafter(length, 0.0))


def generate(spec: ScenarioSpec, config: EpisodeConfig | None = None) -> Dataset:
    """Synthesize a dataset whose realized driver count and D&S ratio fall in
    the spec's scaled capacity range and ratio band. Deterministic per seed.
    """
    cfg = config if config is not None else EpisodeConfig(seed=spec.seed)
    rng = np.random.default_rng(spec.seed)

    lo, hi = scaled_capacity_range(spec.capacity_bin, spec.scale_factor)
    n_drivers = int(rng.integers(lo, hi + 1))
    band_lo, band_hi = RATIO_BANDS[spec.level]
    target = rng.uniform(band_lo, band_hi)
    n_orders = max(int(math.floor(n_drivers * target)), int(math.ceil(n_drivers * band_lo)))

    centers = [Location(rng.uniform(0, cfg.fence_width_m), rng.uniform(0, cfg.fence_height_m))
               for _ in range(_N_HOTSPOTS)]
    weights = rng.dirichlet(np.ones(_N_HOTSPOTS))
    # rng.choice(_N_HOTSPOTS, p=weights) draws one rng.random() and searches
    # this cdf; doing so here keeps its draws without its per-call checks
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    width, height = float(cfg.fence_width_m), float(cfg.fence_height_m)

    def hotspot_point() -> Location:
        k = int(cdf.searchsorted(rng.random(), side="right"))
        x = min(max(centers[k].x + rng.normal(0, _HOTSPOT_SPREAD_M), 0.0), width)
        y = min(max(centers[k].y + rng.normal(0, _HOTSPOT_SPREAD_M), 0.0), height)
        return Location(x, y)

    drivers = []
    n_initial = int(round(n_drivers * _INITIAL_SUPPLY_FRAC))
    for i in range(n_drivers):
        if i < n_initial:
            t = 0.0
        else:
            t = float(rng.uniform(0, cfg.episode_length_s))
        drivers.append(Driver(
            id=i,
            position=hotspot_point(),
            appear_time=t,
            offline_hazard=float(rng.uniform(0, _OFFLINE_HAZARD_MAX)),
        ))

    order_times = _order_arrival_times(rng, n_orders, cfg.episode_length_s, _ARRIVAL_WAVE_AMP)
    orders = []
    for j in range(n_orders):
        origin = hotspot_point()
        dest = hotspot_point()
        trip_m = math.hypot(origin.x - dest.x, origin.y - dest.y)
        trip_s = max(_TRIP_MIN_S, trip_m / _TRIP_SPEED_MPS + float(rng.normal(0, 30.0)))
        price = max(1.0, round(_PRICE_BASE + _PRICE_PER_KM * trip_m / 1000.0
                               + float(rng.normal(0, _PRICE_NOISE)), 2))
        orders.append(Order(
            id=j,
            origin=origin,
            destination=dest,
            price=price,
            appear_time=float(order_times[j]),
            patience=_PATIENCE_MIN_S + float(rng.exponential(_PATIENCE_MEAN_S - _PATIENCE_MIN_S)),
            trip_duration=trip_s,
        ))

    drivers.sort(key=lambda d: (d.appear_time, d.id))
    orders.sort(key=lambda o: (o.appear_time, o.id))
    meta = {"level": spec.level, "capacity_bin": spec.capacity_bin,
            "seed": spec.seed, "scale_factor": spec.scale_factor}
    return Dataset(config=cfg, drivers=drivers, orders=orders,
                   scale_factor=spec.scale_factor, meta=meta)


def classify(ds: Dataset) -> tuple[str, int] | None:
    """Recompute the taxonomy cell from realized counts, rescaled by the
    dataset's scale factor. Returns None when outside every band.
    """
    if not ds.drivers:
        return None
    ratio = ds.ds_ratio()
    level = None
    for name, (lo, hi) in RATIO_BANDS.items():
        if (lo <= ratio < hi) or (name == "L4" and lo <= ratio <= hi):
            level = name
            break
    if level is None:
        return None
    n = len(ds.drivers)
    for cap in CAPACITY_BINS:
        lo, hi = scaled_capacity_range(cap, ds.scale_factor)
        if lo <= n <= hi:
            return (level, cap)
    return None


# -- persistence: one JSON record per line, header first ----------------------

def save(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = {"kind": "config", "config": asdict(ds.config),
                  "scale_factor": ds.scale_factor, "meta": ds.meta}
        fh.write(json.dumps(header) + "\n")
        for ev in ds.events():
            if isinstance(ev, Driver):
                rec = {"kind": "driver", "id": ev.id, "x": ev.position.x, "y": ev.position.y,
                       "appear_time": ev.appear_time, "offline_hazard": ev.offline_hazard}
            else:
                rec = {"kind": "order", "id": ev.id,
                       "ox": ev.origin.x, "oy": ev.origin.y,
                       "dx": ev.destination.x, "dy": ev.destination.y,
                       "price": ev.price, "appear_time": ev.appear_time,
                       "patience": ev.patience, "trip_duration": ev.trip_duration}
            fh.write(json.dumps(rec) + "\n")


def load(path) -> Dataset:
    """Read a dataset written by :func:`save`. Bad records, a header
    ``scale_factor`` outside (0, 1], repeated driver or order ids and points
    outside the header's fence raise :class:`DatasetParseError` with the
    offending line."""
    entities: dict[str, dict] = {"driver": {}, "order": {}}
    points: list[tuple[int, Location]] = []  # (line, point) of every location read
    config = None
    scale = 1.0
    meta: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetParseError(line_no, f"invalid JSON: {exc.msg}") from exc
            kind = rec.get("kind")
            try:
                if line_no == 1:
                    if kind != "config":
                        raise DatasetParseError(line_no, "first record must have kind 'config'")
                    config = EpisodeConfig(**rec["config"])
                    scale = float(rec.get("scale_factor", 1.0))
                    if not 0.0 < scale <= 1.0:
                        raise DatasetParseError(line_no, f"scale_factor must be in (0, 1], "
                                                         f"got {scale}")
                    meta = rec.get("meta", {}) or {}
                    continue
                if kind in ("driver", "order") and type(rec["id"]) is not int:
                    raise DatasetParseError(line_no, f"{kind} id must be an integer, "
                                                     f"got {rec['id']!r}")
                if kind == "driver":
                    ev = Driver(
                        id=rec["id"],
                        position=Location(float(rec["x"]), float(rec["y"])),
                        appear_time=float(rec["appear_time"]),
                        offline_hazard=float(rec["offline_hazard"]),
                    )
                    points.append((line_no, ev.position))
                elif kind == "order":
                    ev = Order(
                        id=rec["id"],
                        origin=Location(float(rec["ox"]), float(rec["oy"])),
                        destination=Location(float(rec["dx"]), float(rec["dy"])),
                        price=float(rec["price"]),
                        appear_time=float(rec["appear_time"]),
                        patience=float(rec["patience"]),
                        trip_duration=float(rec["trip_duration"]),
                    )
                    points += [(line_no, ev.origin), (line_no, ev.destination)]
                else:
                    raise DatasetParseError(line_no, f"unknown record kind {kind!r}")
            except DatasetParseError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetParseError(line_no, f"bad record: {exc}") from exc
            if ev.id in entities[kind]:
                raise DatasetParseError(line_no, f"duplicate {kind} id {ev.id}")
            entities[kind][ev.id] = ev
    if config is None:
        raise DatasetParseError(0, "empty file: missing config header")
    try:
        cell_ids([p.x for _, p in points], [p.y for _, p in points], config)
    except OutOfFenceError as exc:
        raise DatasetParseError(points[exc.index][0], str(exc)) from exc
    drivers = sorted(entities["driver"].values(), key=lambda d: (d.appear_time, d.id))
    orders = sorted(entities["order"].values(), key=lambda o: (o.appear_time, o.id))
    return Dataset(config=config, drivers=drivers, orders=orders, scale_factor=scale, meta=meta)
