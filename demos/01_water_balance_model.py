"""A first look at the monthly water-balance model.

The model tracks two stores. A soil (production) store of capacity theta1 mm
receives rain, loses evaporation and leaks percolation; a routing store of
fixed 60 mm capacity collects that water, exchanges some with the
neighbourhood (factor theta2), and releases the monthly streamflow.

This script steps the model through two years of strongly seasonal forcing,
prints the monthly trace, and checks the closure property: with theta2 = 1
(no net exchange) every millimetre of rain is accounted for by storage
change, evaporation and flow.
"""

import numpy as np

from ensflow.gr2m import simulate_flow, step

theta1, theta2 = 350.0, 1.0
soil, routing = 175.0, 30.0

months = np.arange(24)
precip = 90.0 * (1.0 + 0.6 * np.sin(2.0 * np.pi * months / 12.0))
pet = 55.0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * months / 12.0 + np.pi))

print(f"{'month':>5} {'P':>7} {'PET':>7} {'flow':>7} {'soil':>8} {'routing':>8}")
initial_storage = soil + routing
total_flow = 0.0
for t in months:
    soil, routing, flow = step(theta1, theta2, soil, routing, float(precip[t]), float(pet[t]))
    total_flow += flow
    print(f"{t:>5d} {precip[t]:>7.1f} {pet[t]:>7.1f} {flow:>7.1f} {soil:>8.1f} {routing:>8.1f}")

# closure at theta2 = 1: initial storage + rain = final storage + flow + actual evaporation
balance = initial_storage + precip.sum() - (soil + routing + total_flow)
print(f"\nwater not explained by storage and flow (must be evaporation): {balance:.1f} mm")
assert balance > 0.0

# the one-call variant runs the same recursion from half-full stores and discards
# the warm-up months where that arbitrary initial state still matters
flows = simulate_flow(theta1, theta2, precip, pet, 12, 12)
print(f"simulate_flow() after a 12-month warm-up: {len(flows)} months, mean {flows.mean():.1f} mm")
