"""Physical constants and unit conversion factors.

Single source of truth for every unit conversion in the package.  The
internal convention is:

* Hamiltonians and NQI tensor components: angular frequency (rad/s, hbar = 1)
* user-facing frequencies (transition energies, Rabi rates): ordinary Hz
* EFG tensors: atomic units (e / a0^3) or SI (V/m^2)
* quadrupole moments: barn

Gyromagnetic ratios are tabulated as ordinary frequency per Tesla (MHz/T),
matching the convention of standard nuclear data tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018 exact values
ELEMENTARY_CHARGE = 1.602176634e-19  # C
PLANCK = 6.62607015e-34  # J s

# one atomic unit of electric field gradient, in V/m^2
EFG_AU_TO_SI = 9.717e21

# quadrupole moment conversion
BARN_TO_M2 = 1e-28

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NucleusRecord:
    """Nuclear species data needed to build Zeeman and quadrupole terms.

    Attributes:
        name: species label, e.g. "9Be".
        two_I: twice the nuclear spin quantum number (integer).
        q_barn: electric quadrupole moment in barn.
        gamma_mhz_per_t: gyromagnetic ratio as ordinary frequency per
            Tesla.  Stored unsigned; only transition magnitudes are
            exported so the sign never reaches an observable.
    """

    name: str
    two_I: int
    q_barn: float
    gamma_mhz_per_t: float

    def __post_init__(self) -> None:
        if self.two_I < 0 or int(self.two_I) != self.two_I:
            raise ValueError(f"two_I must be a non-negative integer, got {self.two_I}")

    @property
    def spin(self) -> float:
        return self.two_I / 2.0

    @property
    def gamma_hz_per_t(self) -> float:
        return self.gamma_mhz_per_t * 1e6

    @property
    def has_quadrupole(self) -> bool:
        # spin < 1 nuclei carry no quadrupole moment
        return self.two_I >= 2


# Embedded species table.  Quadrupole-active light nuclei commonly used in
# trapped-ion and defect-center work.
NUCLEI: dict[str, NucleusRecord] = {
    "9Be": NucleusRecord(name="9Be", two_I=3, q_barn=0.0529, gamma_mhz_per_t=8.9755),
    "2H": NucleusRecord(name="2H", two_I=2, q_barn=0.00286, gamma_mhz_per_t=6.5359),
    "7Li": NucleusRecord(name="7Li", two_I=3, q_barn=-0.0400, gamma_mhz_per_t=16.5478),
    "14N": NucleusRecord(name="14N", two_I=2, q_barn=0.02044, gamma_mhz_per_t=3.0777),
    "23Na": NucleusRecord(name="23Na", two_I=3, q_barn=0.104, gamma_mhz_per_t=11.2688),
    "43Ca": NucleusRecord(name="43Ca", two_I=7, q_barn=-0.0408, gamma_mhz_per_t=2.8697),
}


def get_nucleus(name: str) -> NucleusRecord:
    """Look up a species in the embedded table by label."""
    try:
        return NUCLEI[name]
    except KeyError:
        known = ", ".join(sorted(NUCLEI))
        raise KeyError(f"unknown nucleus {name!r}; embedded table has: {known}") from None
