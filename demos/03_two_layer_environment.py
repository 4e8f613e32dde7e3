"""Step through the two-layer decision process by hand: observe a batch's
candidate pool (id arrays plus a feature matrix, one row per pair), pick pairs
one at a time with ``mask_after_selection`` (watching related rows vanish),
hold the rest with ``finalize_batch``, and see the episode metrics at the end.

Run:  python3 demos/03_two_layer_environment.py
"""

import numpy as np

from micod.core import Driver, EpisodeConfig, Location, Order
from micod.env import F_PICKUP, F_PRICE, DispatchEnv, mask_after_selection
from micod.scenario import Dataset

cfg = EpisodeConfig(episode_length_s=20.0, batch_window_s=2.0)
drivers = [Driver(0, Location(500, 500), 0.0),
           Driver(1, Location(600, 480), 0.0)]
orders = [Order(0, Location(520, 700), Location(2000, 2000), 6.0, 0.0, 60.0, 120.0),
          Order(1, Location(800, 500), Location(2500, 900), 9.0, 0.0, 60.0, 150.0)]
env = DispatchEnv(Dataset(config=cfg, drivers=drivers, orders=orders), seed=0)
state = env.reset()

print(f"batch 0 pool ({state.n_pairs} candidate pairs):")
for i in range(state.n_pairs):
    f = state.feature_matrix[i]
    print(f"  row {i}: order {state.order_ids[i]} x driver {state.driver_ids[i]} "
          f"pickup={f[F_PICKUP]:.3f} price={f[F_PRICE]:.3f}")

# Inner layer: the sub-state is a mask over pool rows. Select row 0, then
# hold whatever remains.
mask = np.ones(state.n_pairs, dtype=bool)
mask = mask_after_selection(state, mask, 0)
selected, held = [0], np.flatnonzero(mask).tolist()
print(f"\nafter selecting row 0, available rows: {held}")
print(f"hold ends the batch: selected={selected} held={held}")

reward, state, done = env.finalize_batch(selected, held)
print(f"\nbatch reward (order prices, income task): {reward}")

# Let the rest of the episode run with nothing else dispatched.
while not done:
    reward, state, done = env.finalize_batch([], list(range(state.n_pairs)))

report = env.metrics()
print("\nepisode metrics:")
for key, value in report.to_flat_dict().items():
    print(f"  {key:>18}: {value}")
