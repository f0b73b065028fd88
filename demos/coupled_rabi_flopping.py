"""Full coupled run against the effective-tensor picture.

Builds a hierarchy-compressed setup (optical tier, nuclear Zeeman tier,
coupling tier, each thirty times down), then drives the 3/2 -> 1/2
transition two ways: with the complete electron-nucleus density matrix,
and with the cheap effective model that replaces the electron by its
periodic steady cycle.  Both should flop at the analytically predicted
Rabi frequency, and their destination populations should agree.
"""

import numpy as np

from onersim import (
    NqiTensor,
    NucleusRecord,
    StatePairNqi,
    axial_nqi,
    fit_rabi,
    plan,
    simulate_coupled,
    simulate_spin_effective,
)
from onersim.constants import TWO_PI
from onersim.oner import TwoLevelParams

omega_hz = 1.0e6
params = TwoLevelParams.from_hz(omega_hz, 0.4 * omega_hz)
gamma_b0_hz = omega_hz / 30.0
nucleus = NucleusRecord(
    name="demo", two_I=3, q_barn=0.05, gamma_mhz_per_t=gamma_b0_hz / 1e6
)
pair = StatePairNqi(
    qg=NqiTensor(np.zeros((3, 3))),
    qe=axial_nqi(TWO_PI * gamma_b0_hz / 30.0),
)
theta = np.pi / 4.0
transition = (1.5, 0.5)

the_plan = plan(pair, nucleus, 1.0, theta, params, transition)
print(f"repetition rate:  {the_plan.repetition_rate_hz:12.2f} Hz")
print(f"predicted Rabi:   {the_plan.predicted_rabi_hz:12.2f} Hz")

duration = 2.0 / the_plan.predicted_rabi_hz
coupled = simulate_coupled(
    pair, nucleus, 1.0, theta, params, transition, duration, plan_=the_plan, n_samples=400
)
effective = simulate_spin_effective(
    the_plan, pair, nucleus, 1.0, theta, duration, n_samples=400
)

dest_c = coupled.population_of(transition[1])
dest_e = effective.population_of(transition[1])
fit_c = fit_rabi(coupled.times, dest_c, the_plan.predicted_rabi_hz)
fit_e = fit_rabi(effective.times, dest_e, the_plan.predicted_rabi_hz)

print(f"coupled-run fit:  {fit_c.frequency_hz:12.2f} Hz "
      f"({abs(fit_c.frequency_hz - the_plan.predicted_rabi_hz) / the_plan.predicted_rabi_hz:.2%} off)")
print(f"effective fit:    {fit_e.frequency_hz:12.2f} Hz "
      f"({abs(fit_e.frequency_hz - the_plan.predicted_rabi_hz) / the_plan.predicted_rabi_hz:.2%} off)")
print(f"peak transfer:    {dest_c.max():12.4f} (coupled), {dest_e.max():.4f} (effective)")
print(f"model gap:        {np.max(np.abs(dest_c - dest_e)):12.4f} max population difference")

print()
print("two Rabi periods, every fourth sample:")
print(f"{'t*rabi':>8} {'coupled':>10} {'effective':>10}")
scale = the_plan.predicted_rabi_hz
for k in range(0, 401, 40):
    print(f"{coupled.times[k] * scale:8.2f} {dest_c[k]:10.4f} {dest_e[k]:10.4f}")
