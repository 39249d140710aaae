"""Inverter dispatch: allocation order, caps, SOC window, balance, with
and without a planned grid purchase."""
import math
import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemsim import (
    BatteryMode,
    BatteryStepResult,
    InverterPVFirst,
    InverterStepInput,
    LoadStepResult,
    PowerSourceStepResult,
    scenario_from_dict,
)
from cemsim.core import NS_PER_SECOND as NS
from cemsim.engine import run
from cemsim.scenario import build_bundle
from defaults import defaults

#: A 10 kWh battery: roomy enough that no example's step fills or drains
#: it unless the example says so
CAPACITY_J = 3.6e7

#: the default inverter block (no caps, no self power, SOC up to 1) with
#: lossless paths, a 0.1 SOC floor and a lossless battery of CAPACITY_J
LOSSLESS = defaults(
    "inverter",
    eta_pv_to_batt=1.0,
    eta_pv_to_load=1.0,
    eta_batt_to_load=1.0,
    soc_min=0.1,
    battery_capacity_j=CAPACITY_J,
    battery_eta_charge=1.0,
    battery_eta_discharge=1.0,
)


def _inverter_input(pv_w, load_w, soc, apparent_w=None):
    return InverterStepInput(
        power_source=PowerSourceStepResult(400.0, pv_w / 400.0, pv_w),
        battery=BatteryStepResult(soc, 50.0, 0.0, 0.0),
        load=LoadStepResult(load_w, load_w if apparent_w is None else apparent_w),
    )


def _step(inverter_input, parameters=LOSSLESS, dt_s=3600.0, planned=None):
    return InverterPVFirst(**parameters).dispatch(inverter_input, dt_s, planned)


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
    parameters = dict(LOSSLESS, eta_batt_to_load=0.9)
    result = _step(_inverter_input(pv_w=0.0, load_w=180.0, soc=0.5), parameters)
    assert result.battery_input.mode is BatteryMode.DISCHARGE
    assert result.battery_input.current * 50.0 == pytest.approx(200.0, rel=1e-12)
    assert result.grid_input.requested_active_power == 0.0


def test_self_power_is_part_of_demand():
    parameters = dict(LOSSLESS, self_power_w=50.0)
    result = _step(_inverter_input(pv_w=0.0, load_w=0.0, soc=0.1), parameters)
    assert result.grid_input.requested_active_power == 50.0


def test_discharge_power_cap_splits_deficit():
    parameters = dict(LOSSLESS, max_discharge_power_w=300.0)
    result = _step(_inverter_input(pv_w=0.0, load_w=1000.0, soc=0.9), parameters)
    assert result.battery_input.mode is BatteryMode.DISCHARGE
    assert result.battery_input.current * 50.0 == pytest.approx(300.0, rel=1e-12)
    assert result.grid_input.requested_active_power == pytest.approx(700.0, rel=1e-12)


def test_charge_current_limited_by_soc_headroom():
    """Charging cannot overshoot soc_max in one step."""
    parameters = dict(LOSSLESS, battery_capacity_j=3.6e6)
    result = _step(_inverter_input(pv_w=500.0, load_w=0.0, soc=0.95), parameters)
    # Headroom is 0.05 * 3.6e6 J = 50 W-hours-worth over the 3600 s step.
    assert result.battery_input.current * 50.0 == pytest.approx(50.0, rel=1e-12)


def test_discharge_current_limited_by_soc_floor():
    parameters = dict(LOSSLESS, battery_capacity_j=3.6e6)
    result = _step(_inverter_input(pv_w=0.0, load_w=1000.0, soc=0.2), parameters)
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


_EFFICIENCIES = ("eta_pv_to_batt", "eta_pv_to_load", "eta_batt_to_load", "battery_eta_charge", "battery_eta_discharge")
#: (parameters, the message naming them): one case per check, at and past
#: each bound, nan included
_INVALID = [
    *(
        ({name: value}, f"{name} must be in (0, 1]")
        for name in _EFFICIENCIES
        for value in (0.0, -0.5, 1.0000000000000002, math.nan)
    ),
    *(
        ({name: value}, f"{name} must be >= 0")
        for name in ("max_charge_power_w", "max_discharge_power_w", "self_power_w")
        for value in (-1.0, -5e-324, math.nan)
    ),
    *(
        (dict(zip(("soc_min", "soc_max"), band)), "need 0 <= soc_min < soc_max <= 1")
        for band in ((0.8, 0.5), (0.5, 0.5), (-0.1, 0.5), (0.1, 1.5), (math.nan, 1.0), (0.1, math.nan))
    ),
    *(({"battery_capacity_j": value}, "battery_capacity_j must be > 0") for value in (0.0, -1.0, math.nan)),
]


def test_config_validation():
    """Every check of the constructor rejects its bad values with a message
    naming the parameter; the bounds themselves are accepted."""
    for parameters, message in _INVALID:
        with pytest.raises(ValueError, match=re.escape(message)):
            InverterPVFirst(**{**LOSSLESS, **parameters})
    edges = dict(
        eta_pv_to_batt=1.0, eta_pv_to_load=5e-324, eta_batt_to_load=1.0,
        max_charge_power_w=0.0, max_discharge_power_w=math.inf, soc_min=0.0, soc_max=1.0,
        self_power_w=0.0, battery_capacity_j=5e-324, battery_eta_charge=1.0, battery_eta_discharge=5e-324,
    )
    inverter = InverterPVFirst(**edges)
    assert {name: getattr(inverter, name) for name in edges} == edges
    uncapped = InverterPVFirst(**dict(LOSSLESS, max_charge_power_w=None, max_discharge_power_w=None))
    assert uncapped.max_charge_power_w == uncapped.max_discharge_power_w == math.inf


def test_the_battery_capacity_is_required():
    """There is no capacity-less dispatch: the capacity has no default, and
    None is no capacity."""
    without = {name: value for name, value in LOSSLESS.items() if name != "battery_capacity_j"}
    with pytest.raises(TypeError, match="missing 1 required keyword-only argument: 'battery_capacity_j'"):
        InverterPVFirst(**without)
    with pytest.raises(TypeError):
        InverterPVFirst(**without, battery_capacity_j=None)


#: how a step's input record relates to the last step's: the same
#: object, an equal but distinct one, or a record of newly drawn values
_REPEAT = st.sampled_from(("same", "equal", "changed"))


@given(
    steps=st.lists(
        st.tuples(
            # all three the same objects as often as any other mix
            st.one_of(st.just(("same",) * 3), st.tuples(_REPEAT, _REPEAT, _REPEAT)),
            st.one_of(st.sampled_from((60, 3600)), st.integers(1, 7200)),
            st.floats(min_value=0.0, max_value=2000.0),
            st.floats(min_value=0.0, max_value=2000.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=8,
    )
)
# three times the loaded profile's examples: 300, or 3,000 under cemsim-deep
@settings(max_examples=3 * settings.default.max_examples)
def test_stateful_wrapper_matches_pure_function(steps):
    """step dispatches over its interval as dispatch does, bit for bit,
    over runs of steps whose pv, battery and load records each repeat as
    the same object, repeat as an equal but distinct object, or change,
    and whose length holds or changes.  It returns its last result, the
    same object, exactly when all three records are the last step's
    objects and the step is as long; dispatch keeps no state."""
    inverter = InverterPVFirst(**LOSSLESS)
    records = last = None
    start_ns = 0
    for repeats, step_s, pv_w, load_w, soc in steps:
        drawn = _inverter_input(pv_w, load_w, soc)
        if records is None:
            chosen = tuple(drawn)
        else:
            chosen = tuple(
                old if repeat == "same" else type(old)(*old) if repeat == "equal" else new
                for repeat, old, new in zip(repeats, records, drawn)
            )
        inverter_input = InverterStepInput(*chosen)
        result = inverter.step(start_ns, start_ns + step_s * NS, inverter_input)
        expected = _step(inverter_input, dt_s=float(step_s))
        assert repr(result) == repr(expected)
        assert inverter.dispatch(inverter_input, float(step_s)) == expected
        reused = last is not None and step_s == last[0] and all(map(operator.is_, chosen, records))
        assert (last is not None and result is last[1]) == reused
        records, last = chosen, (step_s, result)
        start_ns += step_s * NS


def test_a_pv_first_run_dispatches_only_when_its_inputs_change(monkeypatch):
    """The 2 d @ 60 s PV-first run of the golden tests (seed 7) dispatches
    1,581 of its 2,880 steps: at night, while the load holds and the
    battery idles, its inputs are the same records as the step before,
    and the inverter hands back its last result."""
    calls = []
    dispatch = InverterPVFirst.dispatch

    def counted(self, *args):
        calls.append(args)
        return dispatch(self, *args)

    monkeypatch.setattr(InverterPVFirst, "dispatch", counted)
    document = {"seed": 7, "start_epoch_seconds": 1_704_067_200, "horizon_seconds": 2 * 86_400, "step_seconds": 60}
    bundle = build_bundle(scenario_from_dict(document, None))
    steps = run(bundle.simulator, bundle.scenario.horizon_ns, bundle.scenario.step_ns, lambda output: None)
    assert (steps, len(calls)) == (2_880, 1_581)


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
    parameters = dict(
        LOSSLESS, soc_max=0.9, battery_capacity_j=3.6e6, battery_eta_charge=0.95, battery_eta_discharge=0.95
    )
    result = _step(_inverter_input(pv_w, load_w, soc), parameters, dt_s, planned)
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
