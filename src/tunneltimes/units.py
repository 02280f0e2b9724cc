"""Hartree atomic units and conversions to laboratory units.

All internal computation in this package happens in atomic units
(hbar = m_e = e = 1); conversions live only at input parsing and output
formatting. The constants are CODATA 2018 values.
"""

from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "to_attoseconds",
    "from_attoseconds",
    "to_femtoseconds",
    "from_femtoseconds",
    "ev_to_au",
    "au_to_ev",
    "angstrom_to_au",
    "au_to_angstrom",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit-system constants, fixed at module load.

    Attributes
    ----------
    au_time_in_as : float
        Attoseconds per atomic unit of time.
    au_energy_in_ev : float
        Electronvolts per Hartree.
    au_length_in_angstrom : float
        Angstroms per Bohr radius.
    speed_of_light_au : float
        Speed of light in atomic units (inverse fine-structure constant).
    """

    au_time_in_as: float = 24.188843265
    au_energy_in_ev: float = 27.211386245
    au_length_in_angstrom: float = 0.5291772109
    speed_of_light_au: float = 137.035999


CONSTANTS = PhysicalConstants()

# 1 fs = 1000 as
_AU_TIME_IN_FS = CONSTANTS.au_time_in_as * 1e-3


def to_attoseconds(t: float) -> float:
    """Convert a time from atomic units to attoseconds."""
    return t * CONSTANTS.au_time_in_as


def from_attoseconds(t: float) -> float:
    """Convert a time from attoseconds to atomic units."""
    return t / CONSTANTS.au_time_in_as


def to_femtoseconds(t: float) -> float:
    """Convert a time from atomic units to femtoseconds."""
    return t * _AU_TIME_IN_FS


def from_femtoseconds(t: float) -> float:
    """Convert a time from femtoseconds to atomic units."""
    return t / _AU_TIME_IN_FS


def ev_to_au(e: float) -> float:
    """Convert an energy from electronvolts to Hartree."""
    return e / CONSTANTS.au_energy_in_ev


def au_to_ev(e: float) -> float:
    """Convert an energy from Hartree to electronvolts."""
    return e * CONSTANTS.au_energy_in_ev


def angstrom_to_au(length: float) -> float:
    """Convert a length from Angstrom to Bohr."""
    return length / CONSTANTS.au_length_in_angstrom


def au_to_angstrom(length: float) -> float:
    """Convert a length from Bohr to Angstrom."""
    return length * CONSTANTS.au_length_in_angstrom
