"""Priced grid: schedule lookup, delivery clamping, violation flags, metering."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemsim import (
    ConfigurationError,
    GridPriced,
    GridPricedConfig,
    GridStepInput,
    PriceSchedule,
    grid_energy_cost,
    grid_priced_step,
)

NS = 1_000_000_000
FLAT = PriceSchedule(((0, 0.5),))


def _config(**kwargs):
    return GridPricedConfig(schedule=FLAT, **kwargs)


def test_delivery_is_metered_at_the_schedule_price():
    """1 kW for one hour at 0.5 per kWh costs exactly 0.5."""
    result = grid_priced_step(GridStepInput(1000.0, 1000.0), _config(), now_ns=0, dt_s=3600.0)
    assert result.delivered_active_power == 1000.0
    assert result.delivered_apparent_power == 1000.0
    assert result.cost == 0.5
    assert result.limit_violation is False


def test_zero_request_costs_nothing():
    result = grid_priced_step(GridStepInput(0.0, 0.0), _config(), now_ns=0, dt_s=3600.0)
    assert result.delivered_active_power == 0.0
    assert result.cost == 0.0
    assert result.limit_violation is False


def test_active_limit_clamps_and_flags():
    """An 800 W request against a 500 W limit delivers 500 W and flags it."""
    config = _config(active_power_limit=500.0)
    result = grid_priced_step(GridStepInput(800.0, 800.0), config, now_ns=0, dt_s=3600.0)
    assert result.delivered_active_power == 500.0
    assert result.limit_violation is True
    assert result.cost == grid_energy_cost(0.5, 500.0, 3600.0)


def test_apparent_limit_drags_active_down_with_it():
    """Clamped apparent power cannot fall below the delivered active power."""
    config = _config(apparent_power_limit=500.0)
    result = grid_priced_step(GridStepInput(800.0, 800.0), config, now_ns=0, dt_s=3600.0)
    assert result.delivered_apparent_power == 500.0
    assert result.delivered_active_power == 500.0
    assert result.limit_violation is True


def test_request_at_the_limit_is_not_a_violation():
    config = _config(active_power_limit=500.0, apparent_power_limit=500.0)
    result = grid_priced_step(GridStepInput(500.0, 500.0), config, now_ns=0, dt_s=60.0)
    assert result.limit_violation is False


def test_price_schedule_is_right_open():
    schedule = PriceSchedule(((0, 1.0), (3600 * NS, 2.0)))
    assert schedule.price_at(3600 * NS - 1) == 1.0
    assert schedule.price_at(3600 * NS) == 2.0


def test_price_lookup_before_first_breakpoint_fails():
    schedule = PriceSchedule(((3600 * NS, 2.0),))
    with pytest.raises(ConfigurationError):
        schedule.price_at(0)


def test_price_schedule_validation():
    with pytest.raises(ValueError):
        PriceSchedule(())
    with pytest.raises(ValueError):
        PriceSchedule(((0, 1.0), (0, 2.0)))
    with pytest.raises(ValueError):
        PriceSchedule(((3600 * NS, 1.0), (0, 2.0)))
    with pytest.raises(ValueError):
        PriceSchedule(((0, -0.1),))


def test_prices_for_window_samples_step_starts():
    schedule = PriceSchedule(((0, 1.0), (3600 * NS, 2.0)))
    assert schedule.prices_for_window(0, 3600 * NS, 3) == [1.0, 2.0, 2.0]
    assert schedule.prices_for_window(1800 * NS, 1800 * NS, 2) == [1.0, 2.0]


def test_stateful_grid_prices_each_step_at_its_start():
    """The step that crosses a price change is billed at its start price."""
    schedule = PriceSchedule(((0, 1.0), (3600 * NS, 2.0)))
    grid = GridPriced(GridPricedConfig(schedule=schedule))
    first = grid.step(0, 3600 * NS, GridStepInput(1000.0, 1000.0))
    second = grid.step(3600 * NS, 7200 * NS, GridStepInput(1000.0, 1000.0))
    assert first.cost == grid_energy_cost(1.0, 1000.0, 3600.0)
    assert second.cost == grid_energy_cost(2.0, 1000.0, 3600.0)


def test_limit_config_validation():
    with pytest.raises(ValueError):
        _config(active_power_limit=-1.0)
    with pytest.raises(ValueError):
        _config(apparent_power_limit=-1.0)


@given(
    price=st.floats(min_value=0.0, max_value=10.0),
    power=st.floats(min_value=0.0, max_value=1e5),
    dt_s=st.floats(min_value=1.0, max_value=86400.0),
)
@settings(max_examples=200)
def test_unlimited_grid_delivers_requests_verbatim(price, power, dt_s):
    """Without limits: delivery equals request, no violation, linear metering."""
    config = GridPricedConfig(schedule=PriceSchedule(((0, price),)))
    result = grid_priced_step(GridStepInput(power, power), config, now_ns=0, dt_s=dt_s)
    assert result.delivered_active_power == power
    assert result.delivered_apparent_power == power
    assert result.limit_violation is False
    assert result.cost == price * (power * dt_s) / 3.6e6


@given(
    power=st.floats(min_value=0.0, max_value=1e5),
    active_limit=st.floats(min_value=0.0, max_value=1e5),
    apparent_limit=st.floats(min_value=0.0, max_value=1e5),
)
@settings(max_examples=200)
def test_delivery_never_exceeds_limits(power, active_limit, apparent_limit):
    config = _config(active_power_limit=active_limit, apparent_power_limit=apparent_limit)
    result = grid_priced_step(GridStepInput(power, power), config, now_ns=0, dt_s=60.0)
    assert result.delivered_active_power <= min(active_limit, apparent_limit)
    assert result.delivered_apparent_power <= apparent_limit
    assert result.delivered_active_power <= result.delivered_apparent_power
    assert result.limit_violation is (power > min(active_limit, apparent_limit))
