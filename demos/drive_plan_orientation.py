"""Orientation dependence of the modulation-driven spin transitions.

Takes the packaged beryllium-9 setup (axial excited-state coupling
tensor, no ground-state gradient) and sweeps the angle between the
tensor's symmetry axis and the magnetic field.  The single-quantum
branch follows |sin 2 theta| and dies at 0 and 90 degrees; the
two-quantum branch grows as sin^2 theta.  Repetition rates shift with
the orientation through the static part of the effective tensor.
"""

import numpy as np

from onersim import NqiTensor, StatePairNqi, axial_nqi, get_nucleus, plan, steady_state
from onersim.constants import TWO_PI
from onersim.oner import TwoLevelParams, transition_table

nucleus = get_nucleus("9Be")
params = TwoLevelParams.from_hz(1.0e9, 4.0e8)
pair = StatePairNqi(
    qg=NqiTensor(np.zeros((3, 3))),
    qe=axial_nqi(TWO_PI * 248e3),  # 248 kHz axial coupling
)

print(f"nucleus {nucleus.name}: Zeeman {nucleus.gamma_hz_per_t / 1e6:.4f} MHz at 1 T")
print()
print(f"{'theta/deg':>9} {'dm=1 rabi/Hz':>14} {'dm=2 rabi/Hz':>14} {'rep dm=1/Hz':>16}")
# one table for every orientation: a (m_from, m_to, zeeman, rate, rabi) row per transition
degrees = np.arange(0, 95, 15)
rho_inf, _ = steady_state(params)
_, _, table = transition_table(
    pair, nucleus, 1.0, np.deg2rad(degrees), rho_inf, [(1.5, 0.5), (1.5, -0.5)]
)
for deg, (single, double) in zip(degrees, table):
    print(f"{deg:9d} {single[4]:14.2f} {double[4]:14.2f} {single[3]:16.2f}")

print()
print("dm=1 peaks at 45 degrees and vanishes at both ends of the sweep;")
print("dm=2 needs transverse anisotropy, absent only at perfect alignment")

best = plan(pair, nucleus, 1.0, np.pi / 4.0, params, (1.5, 0.5))
print()
print(
    f"best single-quantum point: {best.predicted_rabi_hz:.2f} Hz at a repetition "
    f"rate of {best.repetition_rate_hz / 1e6:.6f} MHz"
)
