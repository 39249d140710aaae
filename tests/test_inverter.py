"""Inverter dispatch kernel: allocation order, caps, SOC window, balance,
with and without a planned grid purchase."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemsim import (
    BatteryMode,
    BatteryStepResult,
    InverterPVFirst,
    InverterPVFirstConfig,
    InverterStepInput,
    LoadStepResult,
    PowerSourceStepResult,
    inverter_pv_first_step,
)
from cemsim.core import NS_PER_SECOND as NS

LOSSLESS = InverterPVFirstConfig(
    eta_pv_to_batt=1.0, eta_pv_to_load=1.0, eta_batt_to_load=1.0, soc_min=0.1
)


def _inverter_input(pv_w, load_w, soc, apparent_w=None):
    return InverterStepInput(
        power_source=PowerSourceStepResult(400.0, pv_w / 400.0, pv_w),
        battery=BatteryStepResult(soc, 50.0, 0.0, 0.0),
        load=LoadStepResult(load_w, load_w if apparent_w is None else apparent_w),
    )


def _step(inverter_input, config=LOSSLESS, dt_s=3600.0, planned=None):
    return inverter_pv_first_step(inverter_input, config, dt_s, planned)


def test_pv_exactly_covers_load():
    """Matched generation and demand leave the battery and grid untouched."""
    result = _step(_inverter_input(pv_w=300.0, load_w=300.0, soc=0.5))
    assert result.grid_input.requested_active_power == 0.0
    assert result.battery_input.mode is BatteryMode.IDLE
    assert result.pv_power_drawn == 300.0


def test_pv_surplus_charges_battery():
    """200 W of surplus generation becomes a 200 W battery-side charge."""
    result = _step(_inverter_input(pv_w=500.0, load_w=300.0, soc=0.5))
    assert result.battery_input.mode is BatteryMode.CHARGE
    assert result.battery_input.current == pytest.approx(200.0 / 50.0, rel=1e-12)
    assert result.grid_input.requested_active_power == 0.0
    assert result.pv_power_drawn == pytest.approx(500.0, rel=1e-12)


def test_empty_battery_defers_to_grid():
    """At the SOC floor the whole deficit goes to the grid, battery idle."""
    result = _step(_inverter_input(pv_w=0.0, load_w=400.0, soc=0.1))
    assert result.battery_input.mode is BatteryMode.IDLE
    assert result.grid_input.requested_active_power == 400.0


def test_discharge_accounts_for_path_losses():
    """Serving 180 W of load through a 90% path drains 200 W battery-side."""
    config = InverterPVFirstConfig(
        eta_pv_to_batt=1.0, eta_pv_to_load=1.0, eta_batt_to_load=0.9, soc_min=0.1
    )
    result = _step(_inverter_input(pv_w=0.0, load_w=180.0, soc=0.5), config)
    assert result.battery_input.mode is BatteryMode.DISCHARGE
    assert result.battery_input.current * 50.0 == pytest.approx(200.0, rel=1e-12)
    assert result.grid_input.requested_active_power == 0.0


def test_self_power_is_part_of_demand():
    config = InverterPVFirstConfig(
        eta_pv_to_batt=1.0, eta_pv_to_load=1.0, eta_batt_to_load=1.0,
        soc_min=0.1, self_power=50.0,
    )
    result = _step(_inverter_input(pv_w=0.0, load_w=0.0, soc=0.1), config)
    assert result.grid_input.requested_active_power == 50.0


def test_discharge_power_cap_splits_deficit():
    config = InverterPVFirstConfig(
        eta_pv_to_batt=1.0, eta_pv_to_load=1.0, eta_batt_to_load=1.0,
        soc_min=0.1, max_discharge_power=300.0,
    )
    result = _step(_inverter_input(pv_w=0.0, load_w=1000.0, soc=0.9), config)
    assert result.battery_input.mode is BatteryMode.DISCHARGE
    assert result.battery_input.current * 50.0 == pytest.approx(300.0, rel=1e-12)
    assert result.grid_input.requested_active_power == pytest.approx(700.0, rel=1e-12)


def test_charge_current_limited_by_soc_headroom():
    """With the capacity known, charging cannot overshoot soc_max in one step."""
    config = InverterPVFirstConfig(
        eta_pv_to_batt=1.0, eta_pv_to_load=1.0, eta_batt_to_load=1.0,
        soc_min=0.1, battery_capacity=3.6e6,
    )
    result = _step(_inverter_input(pv_w=500.0, load_w=0.0, soc=0.95), config)
    # Headroom is 0.05 * 3.6e6 J = 50 W-hours-worth over the 3600 s step.
    assert result.battery_input.current * 50.0 == pytest.approx(50.0, rel=1e-12)


def test_discharge_current_limited_by_soc_floor():
    config = InverterPVFirstConfig(
        eta_pv_to_batt=1.0, eta_pv_to_load=1.0, eta_batt_to_load=1.0,
        soc_min=0.1, battery_capacity=3.6e6,
    )
    result = _step(_inverter_input(pv_w=0.0, load_w=1000.0, soc=0.2), config)
    available_w = (0.2 - 0.1) * 3.6e6 / 3600.0
    assert result.battery_input.current * 50.0 == pytest.approx(available_w, rel=1e-9)
    assert result.grid_input.requested_active_power == pytest.approx(
        1000.0 - available_w, rel=1e-9
    )


def test_reactive_demand_survives_full_pv_coverage():
    """Covering the active power still leaves the apparent residual on the grid."""
    result = _step(_inverter_input(pv_w=800.0, load_w=800.0, soc=0.5, apparent_w=1000.0))
    assert result.grid_input.requested_active_power == 0.0
    assert result.grid_input.requested_apparent_power == pytest.approx(200.0, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        InverterPVFirstConfig(eta_pv_to_load=0.0)
    with pytest.raises(ValueError):
        InverterPVFirstConfig(soc_min=0.8, soc_max=0.5)
    with pytest.raises(ValueError):
        InverterPVFirstConfig(self_power=-1.0)
    with pytest.raises(ValueError):
        InverterPVFirstConfig(battery_capacity=0.0)


def test_stateful_wrapper_matches_pure_function():
    inverter = InverterPVFirst(LOSSLESS)
    inverter_input = _inverter_input(pv_w=500.0, load_w=300.0, soc=0.5)
    assert inverter.step(0, 3600 * NS, inverter_input) == _step(inverter_input)


# planned: None is PV-first dispatch, a float a planned grid purchase (W)
_planned = st.none() | st.floats(min_value=0.0, max_value=2500.0)

_dispatch_cases = dict(
    pv_w=st.floats(min_value=0.0, max_value=2000.0),
    load_w=st.floats(min_value=0.0, max_value=2000.0),
    soc=st.floats(min_value=0.0, max_value=1.0),
    planned=_planned,
)


@given(**_dispatch_cases)
@settings(max_examples=200)
def test_battery_never_charges_and_discharges_in_one_step(pv_w, load_w, soc, planned):
    """One mode per step: the battery charges only from a PV surplus or a
    purchase beyond the deficit, and discharges only into a deficit the
    purchase leaves open."""
    result = _step(_inverter_input(pv_w, load_w, soc), planned=planned)
    mode = result.battery_input.mode
    assert mode in (BatteryMode.IDLE, BatteryMode.CHARGE, BatteryMode.DISCHARGE)
    deficit = load_w - pv_w if load_w > pv_w else 0.0  # lossless
    if mode is BatteryMode.CHARGE:
        assert pv_w > load_w or (planned is not None and planned > deficit)
    if mode is BatteryMode.DISCHARGE:
        assert load_w > pv_w and (planned is None or planned < deficit)


@given(**_dispatch_cases)
@settings(max_examples=200)
def test_pv_drawn_never_exceeds_offered(pv_w, load_w, soc, planned):
    result = _step(_inverter_input(pv_w, load_w, soc), planned=planned)
    assert result.pv_power_drawn <= pv_w * (1.0 + 1e-12) + 1e-9


@given(**_dispatch_cases)
@settings(max_examples=200)
def test_lossless_dispatch_conserves_power(pv_w, load_w, soc, planned):
    """With unit efficiencies: drawn PV + grid request + discharge covers
    demand + charge, as an identity."""
    result = _step(_inverter_input(pv_w, load_w, soc), planned=planned)
    battery_power = result.battery_input.current * 50.0
    charge = battery_power if result.battery_input.mode is BatteryMode.CHARGE else 0.0
    discharge = battery_power if result.battery_input.mode is BatteryMode.DISCHARGE else 0.0
    supplied = result.pv_power_drawn + result.grid_input.requested_active_power + discharge
    scale = max(pv_w, load_w, planned or 0.0, 1.0)
    assert abs(supplied - (load_w + charge)) <= 1e-6 * scale
    assert load_w <= supplied + 1e-6 * scale
    assert result.grid_input.requested_apparent_power >= result.grid_input.requested_active_power


@given(
    pv_w=st.floats(min_value=0.0, max_value=5000.0),
    load_w=st.floats(min_value=0.0, max_value=2000.0),
    soc=st.floats(min_value=0.0, max_value=1.0),
    planned=_planned,
    dt_s=st.floats(min_value=60.0, max_value=7200.0),
)
@settings(max_examples=200)
def test_soc_projection_caps_both_directions(pv_w, load_w, soc, planned, dt_s):
    """Energy-aware limits keep the projected SOC inside the window."""
    config = InverterPVFirstConfig(
        eta_pv_to_batt=1.0, eta_pv_to_load=1.0, eta_batt_to_load=1.0,
        soc_min=0.1, soc_max=0.9, battery_capacity=3.6e6,
        battery_eta_charge=0.95, battery_eta_discharge=0.95,
    )
    result = _step(_inverter_input(pv_w, load_w, soc), config, dt_s, planned)
    battery_power = result.battery_input.current * 50.0
    if result.battery_input.mode is BatteryMode.CHARGE:
        projected = soc + battery_power * 0.95 * dt_s / 3.6e6
        assert projected <= 0.9 + 1e-9
    elif result.battery_input.mode is BatteryMode.DISCHARGE:
        projected = soc - battery_power / 0.95 * dt_s / 3.6e6
        assert projected >= 0.1 - 1e-9


def test_infinite_or_negative_inputs_rejected():
    with pytest.raises(ValueError):
        _inverter_input(pv_w=-1.0, load_w=0.0, soc=0.5)
    with pytest.raises(ValueError):
        _inverter_input(pv_w=0.0, load_w=math.inf, soc=0.5)
