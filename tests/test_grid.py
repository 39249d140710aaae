"""Priced grid: tariff lookup, delivery clamping, violation flags, metering."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemsim import GridPriced, GridStepInput, PriceSchedule, grid_energy_cost
from cemsim.core import NS_PER_DAY, NS_PER_HOUR
from oracles import build_breakpoint_schedule, grid_priced_step

NS = 1_000_000_000
FLAT = PriceSchedule(0.5, 0.5)


def _grid(**kwargs):
    return GridPriced(FLAT, **kwargs)


def _hour_step(grid, request):
    return grid.step(0, 3600 * NS, request)


def test_delivery_is_metered_at_the_schedule_price():
    """1 kW for one hour at 0.5 per kWh costs exactly 0.5."""
    result = _hour_step(_grid(), GridStepInput(1000.0, 1000.0))
    assert result.delivered_active_power == 1000.0
    assert result.delivered_apparent_power == 1000.0
    assert result.cost == 0.5
    assert result.limit_violation is False


def test_zero_request_costs_nothing():
    result = _hour_step(_grid(), GridStepInput(0.0, 0.0))
    assert result.delivered_active_power == 0.0
    assert result.cost == 0.0
    assert result.limit_violation is False


def test_active_limit_clamps_and_flags():
    """An 800 W request against a 500 W limit delivers 500 W and flags it."""
    result = _hour_step(_grid(max_active_power_w=500.0), GridStepInput(800.0, 800.0))
    assert result.delivered_active_power == 500.0
    assert result.limit_violation is True
    assert result.cost == grid_energy_cost(0.5, 500.0, 3600.0)


def test_apparent_limit_drags_active_down_with_it():
    """Clamped apparent power cannot fall below the delivered active power."""
    result = _hour_step(_grid(max_apparent_power_va=500.0), GridStepInput(800.0, 800.0))
    assert result.delivered_apparent_power == 500.0
    assert result.delivered_active_power == 500.0
    assert result.limit_violation is True


def test_request_at_the_limit_is_not_a_violation():
    grid = _grid(max_active_power_w=500.0, max_apparent_power_va=500.0)
    result = grid.step(0, 60 * NS, GridStepInput(500.0, 500.0))
    assert result.limit_violation is False


def test_price_schedule_is_right_open():
    schedule = PriceSchedule(1.0, 2.0, peak_start_hour=1, peak_end_hour=2)
    assert schedule.price_at(3600 * NS - 1) == 1.0
    assert schedule.price_at(3600 * NS) == 2.0
    assert schedule.price_at(7200 * NS - 1) == 2.0
    assert schedule.price_at(7200 * NS) == 1.0


def test_a_tariff_prices_every_day():
    """The tariff has no first or last day: the same hours are peak on
    every day, before 1970 and thousands of days past any horizon alike."""
    schedule = PriceSchedule()
    for day in (-10_000, -1, 0, 1, 2, 365, 10_000):
        midnight = day * NS_PER_DAY
        assert schedule.price_at(midnight - 1) == 0.10
        assert schedule.price_at(midnight) == 0.10
        assert schedule.price_at(midnight + 8 * NS_PER_HOUR - 1) == 0.10
        assert schedule.price_at(midnight + 8 * NS_PER_HOUR) == 0.40
        assert schedule.price_at(midnight + 20 * NS_PER_HOUR - 1) == 0.40
        assert schedule.price_at(midnight + 20 * NS_PER_HOUR) == 0.10
    night = PriceSchedule(0.3, 0.05, peak_start_hour=0, peak_end_hour=6)
    assert night.prices_for_window(-NS_PER_HOUR, NS_PER_HOUR, 3) == [0.3, 0.05, 0.05]
    assert night.prices_for_window(1000 * NS_PER_DAY + 5 * NS_PER_HOUR, NS_PER_HOUR, 2) == [0.05, 0.3]


def test_price_schedule_validation():
    with pytest.raises(ValueError, match="off_peak_price must be >= 0"):
        PriceSchedule(off_peak_price=-0.1)
    with pytest.raises(ValueError, match="peak_price must be >= 0"):
        PriceSchedule(peak_price=-0.1)
    for start, end in ((20, 8), (8, 8), (-1, 8), (8, 25)):
        with pytest.raises(ValueError, match="need 0 <= peak_start_hour < peak_end_hour <= 24"):
            PriceSchedule(peak_start_hour=start, peak_end_hour=end)


def test_prices_for_window_samples_step_starts():
    schedule = PriceSchedule(1.0, 2.0, peak_start_hour=1, peak_end_hour=24)
    assert schedule.prices_for_window(0, 3600 * NS, 3) == [1.0, 2.0, 2.0]
    assert schedule.prices_for_window(1800 * NS, 1800 * NS, 2) == [1.0, 2.0]


_PRICES = st.floats(min_value=0.0, max_value=10.0)
_HOURS = st.tuples(st.integers(0, 24), st.integers(0, 24)).filter(lambda hours: hours[0] < hours[1])
# whole seconds like a scenario's start, some on an hour, some next to one
_START_S = st.one_of(
    st.integers(-(10**9), 4 * 10**9),
    st.builds(lambda hour, offset: hour * 3600 + offset, st.integers(-(10**5), 10**6), st.sampled_from((-1, 0, 1))),
)


@given(
    prices=st.tuples(_PRICES, _PRICES),
    hours=_HOURS,
    start_s=_START_S,
    step_s=st.one_of(st.sampled_from((60, 240, 900, 3600)), st.integers(1, 86_400)),
    steps=st.integers(1, 2_000),
)
@settings(max_examples=300, deadline=None)
def test_tariff_prices_as_the_breakpoint_schedule_did(prices, hours, start_s, step_s, steps):
    """Over a horizon of up to 20 d, the tariff gives every step start, and
    each instant next to a price change, the price the breakpoint schedule
    built for the calendar days the horizon touches gave (kept in oracles)."""
    schedule = PriceSchedule(*prices, *hours)
    start_ns = start_s * NS
    step_ns = step_s * NS
    count = min(steps, 20 * NS_PER_DAY // step_ns)
    end_ns = start_ns + count * step_ns
    first_midnight = start_ns // NS_PER_DAY * NS_PER_DAY
    reference = build_breakpoint_schedule(schedule, start_ns, -(-(end_ns - first_midnight) // NS_PER_DAY))
    assert schedule.prices_for_window(start_ns, step_ns, count) == reference.prices_for_window(start_ns, step_ns, count)
    edges = [t + offset for t in reference._starts for offset in (-1, 0, 1)]
    for t_ns in [t for t in edges if first_midnight <= t < end_ns]:
        assert schedule.price_at(t_ns) == reference.price_at(t_ns), t_ns


def test_stateful_grid_prices_each_step_at_its_start():
    """The step that crosses a price change is billed at its start price."""
    schedule = PriceSchedule(1.0, 2.0, peak_start_hour=1, peak_end_hour=24)
    grid = GridPriced(schedule)
    first = grid.step(0, 3600 * NS, GridStepInput(1000.0, 1000.0))
    second = grid.step(3600 * NS, 7200 * NS, GridStepInput(1000.0, 1000.0))
    assert first.cost == grid_energy_cost(1.0, 1000.0, 3600.0)
    assert second.cost == grid_energy_cost(2.0, 1000.0, 3600.0)


def test_limit_config_validation():
    with pytest.raises(ValueError, match=r"^max_active_power_w must be >= 0$"):
        _grid(max_active_power_w=-1.0)
    with pytest.raises(ValueError, match=r"^max_apparent_power_va must be >= 0$"):
        _grid(max_apparent_power_va=-1.0)


@given(
    price=st.floats(min_value=0.0, max_value=10.0),
    power=st.floats(min_value=0.0, max_value=1e5),
    dt_ns=st.integers(min_value=NS, max_value=86400 * NS),
)
@settings(max_examples=200)
def test_unlimited_grid_delivers_requests_verbatim(price, power, dt_ns):
    """Without limits: delivery equals request, no violation, linear metering."""
    dt_s = dt_ns / NS
    result = GridPriced(PriceSchedule(price, price)).step(0, dt_ns, GridStepInput(power, power))
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
    grid = _grid(max_active_power_w=active_limit, max_apparent_power_va=apparent_limit)
    result = grid.step(0, 60 * NS, GridStepInput(power, power))
    assert result.delivered_active_power <= min(active_limit, apparent_limit)
    assert result.delivered_apparent_power <= apparent_limit
    assert result.delivered_active_power <= result.delivered_apparent_power
    assert result.limit_violation is (power > min(active_limit, apparent_limit))


def _bits(record):
    return [value.hex() if type(value) is float else value for value in record]


_POWERS = st.one_of(st.sampled_from((0.0, 500.0)), st.floats(min_value=0.0, max_value=1e5))
_LIMITS = st.one_of(st.none(), st.sampled_from((0.0, 500.0)), st.floats(min_value=0.0, max_value=1e5))


@given(
    prices=st.tuples(_PRICES, _PRICES),
    hours=_HOURS,
    active_limit=_LIMITS,
    apparent_limit=_LIMITS,
    steps=st.lists(
        st.tuples(_START_S, st.integers(min_value=0, max_value=86_400 * NS), _POWERS, _POWERS),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=300)
def test_grid_steps_as_the_reference_step_bit_for_bit(prices, hours, active_limit, apparent_limit, steps):
    """Over drawn tariffs, active and apparent limits (or none), requests
    and step lengths, every step result has the bits of the free step
    function's."""
    grid = GridPriced(PriceSchedule(*prices, *hours), active_limit, apparent_limit)
    for start_s, length, active, apparent in steps:
        request = GridStepInput(active, apparent)
        start = start_s * NS
        result = grid.step(start, start + length, request)
        expected = grid_priced_step(request, grid, start, length / NS)
        assert _bits(result) == _bits(expected)
