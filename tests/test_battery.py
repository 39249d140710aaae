"""Linear battery model: update formula, clamping, efficiencies, SOC bounds."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemsim import BatteryLinear, BatteryMode, BatteryStepInput
from cemsim.core import NS_PER_SECOND as NS
from oracles import battery_linear_step

# Small reference pack used by the worked examples: 1 kWh at 50 V.
EXAMPLE = dict(capacity_j=3.6e6, nominal_voltage=50.0, eta_charge=0.9, eta_discharge=0.9)

CHARGE = BatteryStepInput(BatteryMode.CHARGE, 10.0)
DISCHARGE = BatteryStepInput(BatteryMode.DISCHARGE, 10.0)
IDLE = BatteryStepInput(BatteryMode.IDLE, 7.0)


def _battery(initial_soc, **overrides):
    return BatteryLinear(**{**EXAMPLE, **overrides, "initial_soc": initial_soc})


def test_idle_step_changes_nothing():
    """Idle holds the state regardless of the commanded current."""
    battery = _battery(0.5)
    result = battery.step(0, 120 * NS, IDLE)
    assert result.soc == 0.5
    assert result.delta_energy == 0.0
    assert result.delta_charge == 0.0
    assert result.voltage == 50.0
    assert battery.energy_j == 1.8e6


def test_charge_step_example():
    """One hour at 10 A and 90% efficiency stores 1.62 MJ of the 1.8 MJ drawn."""
    battery = _battery(0.0)
    result = battery.step(0, 3600 * NS, CHARGE)
    assert result.delta_energy == 1.62e6
    assert result.soc == 0.45
    assert result.delta_charge == 1.62e6 / 50.0
    assert battery.energy_j == 1.62e6


def test_charge_clamps_at_capacity():
    """Charging a 90%-full store absorbs only the remaining headroom."""
    battery = _battery(0.9)
    result = battery.step(0, 3600 * NS, CHARGE)
    assert result.soc == 1.0
    assert result.delta_energy == pytest.approx(3.6e5, rel=1e-12)
    # A further hour is fully absorbed by the clamp.
    again = battery.step(0, 3600 * NS, CHARGE)
    assert again.soc == 1.0
    assert again.delta_energy == 0.0


def test_discharge_step_example():
    """Draining through 90% discharge efficiency releases 2 MJ for 1.8 MJ out."""
    battery = _battery(1.0)
    result = battery.step(0, 3600 * NS, DISCHARGE)
    assert result.delta_energy == -2.0e6
    assert result.soc == 4 / 9
    assert result.delta_charge == -2.0e6 / 50.0


def test_discharge_clamps_at_empty():
    battery = _battery(0.1)
    result = battery.step(0, 3600 * NS, DISCHARGE)
    assert result.soc == 0.0
    assert result.delta_energy == -3.6e5


def test_snapshot_does_not_advance_state():
    battery = _battery(0.25)
    snap = battery.snapshot(0)
    assert snap.soc == 0.25
    assert snap.delta_energy == 0.0
    assert battery.snapshot(0) == snap
    battery.step(0, 3600 * NS, CHARGE)
    assert battery.snapshot(0).soc > 0.25


def test_idle_result_reflects_prior_charging():
    """The reused idle record is refreshed once the store actually moves."""
    battery = _battery(0.0)
    first_idle = battery.step(0, 60 * NS, IDLE)
    assert first_idle.soc == 0.0
    battery.step(0, 3600 * NS, CHARGE)
    second_idle = battery.step(0, 60 * NS, IDLE)
    assert second_idle.soc == 0.45
    assert second_idle.delta_energy == 0.0


def test_config_validation():
    with pytest.raises(ValueError, match=r"^capacity_j must be > 0$"):
        _battery(0.5, capacity_j=0.0)
    with pytest.raises(ValueError, match=r"^eta_charge must be in \(0, 1\]$"):
        _battery(0.5, eta_charge=0.0)
    with pytest.raises(ValueError, match=r"^eta_discharge must be in \(0, 1\]$"):
        _battery(0.5, eta_discharge=1.2)
    with pytest.raises(ValueError, match=r"^initial_soc must be in \[0, 1\]$"):
        _battery(1.5)
    with pytest.raises(ValueError, match=r"^nominal_voltage must be > 0$"):
        _battery(0.5, nominal_voltage=-50.0)


_random_inputs = st.lists(
    st.tuples(
        st.sampled_from(list(BatteryMode)),
        st.floats(min_value=0.0, max_value=200.0),
        st.integers(min_value=1, max_value=7200),
    ),
    max_size=40,
)


@given(commands=_random_inputs, initial_soc=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150)
def test_soc_stays_within_bounds(commands, initial_soc):
    """No command sequence can push the state of charge outside [0, 1]."""
    battery = _battery(initial_soc)
    for mode, current, seconds in commands:
        result = battery.step(0, seconds * NS, BatteryStepInput(mode, current))
        assert 0.0 <= result.soc <= 1.0
        assert 0.0 <= battery.energy_j <= battery.capacity_j
        if mode is BatteryMode.CHARGE:
            assert result.delta_energy >= 0.0
        elif mode is BatteryMode.DISCHARGE:
            assert result.delta_energy <= 0.0
        else:
            assert result.delta_energy == 0.0


@given(current=st.integers(min_value=1, max_value=10), seconds=st.integers(min_value=60, max_value=3600))
def test_lossless_charge_discharge_returns_exactly(current, seconds):
    """With unit efficiencies and exactly representable flows, a charge and an
    equal discharge restore the stored energy bit for bit."""
    battery = _battery(0.5, eta_charge=1.0, eta_discharge=1.0)
    battery.step(0, seconds * NS, BatteryStepInput(BatteryMode.CHARGE, float(current)))
    battery.step(0, seconds * NS, BatteryStepInput(BatteryMode.DISCHARGE, float(current)))
    assert battery.energy_j == 1.8e6
    assert battery.snapshot(0).soc == 0.5


@given(
    eta_charge=st.floats(min_value=0.5, max_value=1.0),
    eta_discharge=st.floats(min_value=0.5, max_value=1.0),
    current=st.floats(min_value=0.5, max_value=14.0),
)
@settings(max_examples=150)
def test_round_trip_efficiency_is_the_product_of_the_path_efficiencies(
    eta_charge, eta_discharge, current
):
    """Terminal energy out over terminal energy in equals eta_c * eta_d."""
    battery = _battery(0.25, eta_charge=eta_charge, eta_discharge=eta_discharge)
    charged = battery.step(0, 3600 * NS, BatteryStepInput(BatteryMode.CHARGE, current))
    stored = charged.delta_energy
    assert stored > 0.0
    terminal_in = 3600.0 * 50.0 * current
    # Drain exactly what was stored; the discharge current follows from the
    # measured stored energy, not from the charge formula.
    drain_current = stored * eta_discharge / (3600.0 * 50.0)
    drained = battery.step(0, 3600 * NS, BatteryStepInput(BatteryMode.DISCHARGE, drain_current))
    terminal_out = 3600.0 * 50.0 * drain_current
    assert drained.delta_energy == pytest.approx(-stored, rel=1e-9)
    assert battery.snapshot(0).soc == pytest.approx(0.25, abs=1e-9)
    round_trip = terminal_out / terminal_in
    assert round_trip == pytest.approx(eta_charge * eta_discharge, rel=1e-9)


def test_pure_step_function_matches_stateful_wrapper():
    """The battery steps as the free step function it replaced (kept in
    oracles) did on the battery's parameters."""
    battery = BatteryLinear(**EXAMPLE, initial_soc=0.5)
    energy, result = battery_linear_step(1.8e6, CHARGE, battery, 3600.0)
    assert battery.step(0, 3600 * NS, CHARGE) == result
    assert battery.energy_j == energy


def _bits(record):
    return [value.hex() if type(value) is float else value for value in record]


_EFFICIENCIES = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0))


@given(
    capacity_j=st.floats(min_value=1.0, max_value=1e9),
    eta_charge=_EFFICIENCIES,
    eta_discharge=_EFFICIENCIES,
    nominal_voltage=st.floats(min_value=1.0, max_value=1000.0),
    initial_soc=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(min_value=0.0, max_value=1.0)),
    commands=st.lists(
        st.tuples(
            st.sampled_from(list(BatteryMode)),
            # 1e6 A drains or fills any drawn store within a second
            st.one_of(st.just(1e6), st.floats(min_value=0.0, max_value=500.0)),
            st.integers(min_value=0, max_value=7200 * NS),
        ),
        max_size=30,
    ),
)
@settings(max_examples=300)
def test_battery_steps_as_the_reference_step_bit_for_bit(
    capacity_j, eta_charge, eta_discharge, nominal_voltage, initial_soc, commands
):
    """Over drawn parameters, modes, currents and step lengths, clamps at
    empty and at capacity included, every step result and the stored
    energy after it have the bits of the free step function's."""
    battery = BatteryLinear(
        capacity_j=capacity_j,
        eta_charge=eta_charge,
        eta_discharge=eta_discharge,
        nominal_voltage=nominal_voltage,
        initial_soc=initial_soc,
    )
    energy = initial_soc * capacity_j
    start = 0
    for mode, current, length in commands:
        command = BatteryStepInput(mode, current)
        energy, expected = battery_linear_step(energy, command, battery, length / NS)
        assert _bits(battery.step(start, start + length, command)) == _bits(expected)
        assert battery.energy_j.hex() == energy.hex()
        start += length
