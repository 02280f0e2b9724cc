import pytest

from tunneltimes import units


def test_constants_are_pinned():
    c = units.CONSTANTS
    assert c.au_time_in_as == 24.188843265
    assert c.au_energy_in_ev == 27.211386245
    assert c.au_length_in_angstrom == 0.5291772109
    assert c.speed_of_light_au == 137.035999


def test_to_attoseconds_examples():
    assert units.to_attoseconds(0.0) == 0.0
    assert units.to_attoseconds(1.0) == 24.188843265
    # classical time of the benchmark's first row, back-converted
    assert units.to_attoseconds(34.471) == pytest.approx(833.82, abs=0.01)


def test_named_conversion_examples():
    assert units.ev_to_au(27.211386245) == pytest.approx(1.0, rel=1e-15)
    assert units.angstrom_to_au(5.0) == pytest.approx(5.0 / 0.5291772109, rel=1e-15)
    assert units.angstrom_to_au(5.0) == pytest.approx(9.4486, abs=1e-3)
    assert units.to_femtoseconds(41.3414) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize(
    "forward,inverse",
    [
        (units.to_attoseconds, units.from_attoseconds),
        (units.to_femtoseconds, units.from_femtoseconds),
        (units.ev_to_au, units.au_to_ev),
        (units.angstrom_to_au, units.au_to_angstrom),
    ],
)
@pytest.mark.parametrize("value", [1e-6, 0.04, 1.0, 34.471, 5000.0])
def test_round_trip_recovers_input(forward, inverse, value):
    assert inverse(forward(value)) == pytest.approx(value, rel=1e-12)
    assert forward(inverse(value)) == pytest.approx(value, rel=1e-12)
