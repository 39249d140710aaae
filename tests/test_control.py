"""Charging plan solver and the receding-horizon control loop."""
import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cemsim.control
from cemsim import (
    BatteryMode,
    BatteryStepResult,
    ChargingPlan,
    ChargingProblem,
    ControlDecision,
    ForecastWindow,
    InfeasibleProblemError,
    InverterPVFirst,
    InverterPVFirstConfig,
    InverterStepInput,
    LoadStepResult,
    MPCInverter,
    PowerSourceStepResult,
    RecedingHorizonController,
    build_bundle,
    grid_energy_cost,
    run,
    scenario_from_dict,
    solve_charging,
)
from cemsim.core import NS_PER_SECOND as NS
from oracles import (
    brute_force_charging,
    greedy_charging,
    linprog_charging,
    plan_cost,
    random_coarse_instance,
)

HOUR = 3600 * NS
AMPLE = dict(step_seconds=3600.0, capacity_j=3.6e7, soc_min=0.1, soc_max=1.0)


def _problem(prices, load, pv=None, **overrides):
    kwargs = {**AMPLE, "soc_initial": 0.1, **overrides}
    return ChargingProblem(
        prices=tuple(prices),
        load_w=tuple(load),
        pv_w=tuple(pv) if pv is not None else (0.0,) * len(load),
        **kwargs,
    )


def test_buys_ahead_of_a_price_spike():
    """With a 10x price jump, the whole second-step load is bought early."""
    plan = solve_charging(_problem([0.1, 1.0], [0.0, 1000.0]))
    assert plan.grid_power_w == (1000.0, 0.0)
    assert plan.total_cost == 0.1
    assert plan.soc_trajectory == (0.1, 0.2, 0.1)


def test_flat_prices_buy_as_late_as_possible():
    """Equal prices tie-break towards the later step: no idle storage time."""
    plan = solve_charging(_problem([0.5, 0.5], [0.0, 1000.0]))
    assert plan.grid_power_w == (0.0, 1000.0)
    assert plan.total_cost == 0.5


def test_limited_headroom_splits_the_purchase():
    """Only 0.5 kWh of headroom: half pre-bought cheap, half bought at peak."""
    plan = solve_charging(
        _problem(
            [0.1, 1.0], [0.0, 1000.0],
            capacity_j=3.6e6, soc_min=0.0, soc_max=0.5, soc_initial=0.0,
        )
    )
    assert plan.grid_power_w == (500.0, 500.0)
    assert plan.total_cost == pytest.approx(0.55, rel=1e-12)


def test_nothing_to_buy_costs_nothing():
    plan = solve_charging(_problem([0.3, 0.3, 0.3], [0.0, 0.0, 0.0], soc_initial=0.5))
    assert plan.grid_power_w == (0.0, 0.0, 0.0)
    assert plan.total_cost == 0.0
    assert plan.purchased_energy_j == 0.0
    assert plan.soc_trajectory == (0.5,) * 4


def test_single_step_window_buys_the_deficit():
    plan = solve_charging(_problem([0.2], [800.0], pv=[100.0]))
    assert plan.grid_power_w == (700.0,)
    assert plan.purchased_energy_j == 700.0 * 3600.0


def test_zero_price_still_buys_only_whats_needed():
    """Free energy is not hoarded: the minimal-energy tie-break holds."""
    plan = solve_charging(_problem([0.0, 0.0], [1000.0, 0.0]))
    assert plan.total_cost == 0.0
    assert plan.purchased_energy_j == 1000.0 * 3600.0


def test_infeasible_overfill_names_the_step():
    with pytest.raises(InfeasibleProblemError) as excinfo:
        solve_charging(
            _problem([0.5], [0.0], pv=[10000.0], capacity_j=3.6e6,
                     soc_min=0.0, soc_max=1.0, soc_initial=1.0)
        )
    assert excinfo.value.step_index == 0
    assert "overfill" in str(excinfo.value)


def test_infeasible_power_cap_names_the_step():
    with pytest.raises(InfeasibleProblemError) as excinfo:
        solve_charging(_problem([0.5, 0.5], [1000.0, 0.0], max_grid_power_w=100.0))
    assert excinfo.value.step_index == 0
    assert "cap" in str(excinfo.value)


def test_infeasible_storage_transit_names_the_step():
    """Energy owed by boundary 1 cannot coexist with the PV flood after it."""
    with pytest.raises(InfeasibleProblemError) as excinfo:
        solve_charging(
            _problem([0.5, 0.5], [2000.0, 0.0], pv=[0.0, 3000.0],
                     capacity_j=3.6e6, soc_min=0.0, soc_max=1.0, soc_initial=0.0)
        )
    assert excinfo.value.step_index == 1


def test_problem_validation():
    with pytest.raises(ValueError):
        _problem([0.1], [100.0, 200.0])
    with pytest.raises(ValueError):
        _problem([-0.1], [100.0])
    with pytest.raises(ValueError):
        _problem([0.1], [100.0], soc_initial=0.05)
    with pytest.raises(ValueError):
        _problem([0.1], [100.0], soc_min=0.9, soc_max=0.2)
    with pytest.raises(ValueError):
        ChargingProblem(step_seconds=0.0, prices=(0.1,), load_w=(1.0,), pv_w=(0.0,),
                        capacity_j=1.0, soc_min=0.0, soc_max=1.0, soc_initial=0.5)
    # Sub-tolerance drift outside the band is accepted and clamped.
    plan = solve_charging(_problem([0.1], [0.0], soc_initial=0.1 - 1e-10))
    assert plan.soc_trajectory[0] == 0.1


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("field", ["prices", "load_w", "pv_w", "step_seconds", "capacity_j"])
def test_a_non_finite_input_is_rejected_naming_it(field, value):
    """An infinite load, step or capacity once planned to a nan SOC
    trajectory and cost."""
    fields = {**AMPLE, "soc_initial": 0.5, "prices": (0.1, 0.1), "load_w": (100.0, 100.0), "pv_w": (0.0, 0.0)}
    fields[field] = (value, 0.1) if type(fields[field]) is tuple else value
    bound = ">= 0" if field in ("prices", "load_w", "pv_w") else "> 0"
    with pytest.raises(ValueError, match=f"^{field} must be finite and {bound}$"):
        ChargingProblem(**fields)


@given(scale=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=100)
def test_price_scaling_changes_cost_not_purchases(scale):
    """Prices are only compared, so scaling them rescales the cost and
    leaves the purchase schedule identical."""
    base = solve_charging(_problem([0.1, 0.4, 0.2, 0.4], [500.0, 800.0, 0.0, 900.0]))
    scaled = solve_charging(
        _problem([0.1 * scale, 0.4 * scale, 0.2 * scale, 0.4 * scale],
                 [500.0, 800.0, 0.0, 900.0])
    )
    assert scaled.grid_power_w == base.grid_power_w
    assert scaled.total_cost == pytest.approx(scale * base.total_cost, rel=1e-12)


def _check_plan_internals(problem, plan):
    capacity = problem.capacity_j
    dt = problem.step_seconds
    assert len(plan.grid_power_w) == problem.horizon
    assert len(plan.soc_trajectory) == problem.horizon + 1
    energy = plan.soc_trajectory[0] * capacity
    purchased = 0.0
    for k, power in enumerate(plan.grid_power_w):
        assert power >= 0.0
        if problem.max_grid_power_w is not None:
            assert power <= problem.max_grid_power_w + 1e-9 * max(problem.max_grid_power_w, 1.0)
        energy += (problem.pv_w[k] - problem.load_w[k] + power) * dt
        purchased += power * dt
        soc = plan.soc_trajectory[k + 1]
        assert problem.soc_min - 1e-9 <= soc <= problem.soc_max + 1e-9
        assert energy == pytest.approx(soc * capacity, abs=1e-6 * capacity)
    assert purchased == pytest.approx(plan.purchased_energy_j, abs=1e-6 * max(purchased, 1.0))
    recomputed = sum(
        grid_energy_cost(p, w, dt) for p, w in zip(plan.prices, plan.grid_power_w)
    )
    assert plan.total_cost == pytest.approx(recomputed, abs=1e-9 * max(recomputed, 1.0))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120)
def test_solver_matches_brute_force_and_lp(seed):
    """On coarse-grid instances the greedy cost agrees with an exhaustive
    dynamic program and an LP solve; infeasibility verdicts agree too."""
    instance = random_coarse_instance(random.Random(seed))
    oracle_cost = brute_force_charging(**instance)
    lp_cost = linprog_charging(**instance)
    problem = ChargingProblem(**instance)
    try:
        plan = solve_charging(problem)
    except InfeasibleProblemError:
        assert oracle_cost is None
        assert lp_cost is None
        return
    assert oracle_cost is not None
    assert lp_cost is not None
    tolerance = 1e-6 * max(1.0, plan.total_cost)
    assert abs(plan.total_cost - oracle_cost) <= tolerance
    assert abs(plan.total_cost - lp_cost) <= tolerance
    _check_plan_internals(problem, plan)


@st.composite
def _charging_problems(draw):
    """Continuous-valued windows: tiered (tied, zero) or free prices, with
    and without a grid cap.  Powers are drawn relative to the storage band,
    so boundaries saturate often and a large share is infeasible."""
    horizon = draw(st.integers(1, 24))
    price = st.sampled_from((0.0, 0.1, 0.2, 0.3)) if draw(st.booleans()) else st.floats(0.0, 1.0)
    capacity = draw(st.floats(1e5, 3e7))
    soc_min = draw(st.floats(0.0, 0.8))
    soc_max = draw(st.floats(soc_min + 0.05, 1.0))
    step_seconds = draw(st.sampled_from((60.0, 240.0, 3600.0)))
    band_w = capacity * (soc_max - soc_min) / step_seconds
    power = st.one_of(st.just(0.0), st.floats(0.0, 1.5).map(lambda share: share * band_w))
    return ChargingProblem(
        step_seconds=step_seconds,
        prices=draw(st.lists(price, min_size=horizon, max_size=horizon)),
        load_w=draw(st.lists(power, min_size=horizon, max_size=horizon)),
        pv_w=draw(st.lists(power, min_size=horizon, max_size=horizon)),
        capacity_j=capacity,
        soc_min=soc_min,
        soc_max=soc_max,
        soc_initial=draw(st.floats(soc_min, soc_max)),
        max_grid_power_w=draw(st.one_of(st.none(), power)),
    )


def _solve_like_the_reference(problem, solve=solve_charging):
    """solve(problem), checked to return the reference greedy's plan bit for
    bit, its cost agreeing with an independent sum, or to fail where the
    greedy fails, at the same step for the same reason.  Returns the plan,
    or None when both fail.  solve failing alone is a test failure, never
    an InfeasibleProblemError that a caller could swallow."""
    try:
        expected = greedy_charging(problem)
    except InfeasibleProblemError as exc:
        with pytest.raises(InfeasibleProblemError) as caught:
            solve(problem)
        assert (caught.value.step_index, caught.value.reason) == (exc.step_index, exc.reason)
        return None
    try:
        plan = solve(problem)
    except InfeasibleProblemError as exc:
        pytest.fail(f"the reference greedy solves a window that solve rejects: {exc}")
    assert plan == expected
    assert repr(plan) == repr(expected)
    assert plan.purchased_energy_j.hex() == expected.purchased_energy_j.hex()
    assert plan.total_cost == pytest.approx(plan_cost(expected), rel=1e-12)
    return plan


@given(problem=_charging_problems())
@settings(max_examples=200)
def test_solver_matches_the_greedy_reference(problem):
    """The heap walk returns the reference greedy's plan bit for bit, and
    fails where it fails, at the same step for the same reason."""
    _solve_like_the_reference(problem)


@st.composite
def _own_step_windows(draw):
    """Windows whose boundaries mostly need energy, so a step usually buys
    for its own boundary before any candidate in the heap:

    * prices come from one or two tiers, so the own step often ties the
      heap top's price (and wins the tie, being the later step);
    * the grid cap is often 0 or a share of the largest load, below one
      step's need, and some windows' loads are tiny, so a window with a
      zero cap passes the set-up checks and its own steps have no room;
    * loads spread over six decades; or a window starts at ``soc_min``
      with a first deficit of a small share of the minimum stored energy
      and a second that lifts the requirement a binade or two above it,
      the first nudged until boundary 2's need is left an ulp short after
      the own step's buy (as in
      :func:`test_a_same_step_purchase_an_ulp_short_is_topped_up_earlier`),
      so the heap tops it up."""
    horizon = draw(st.integers(1, 30))
    capacity = draw(st.floats(1e3, 3e7))
    soc_min = draw(st.floats(0.0, 0.5))
    soc_max = draw(st.floats(soc_min + 0.05, 1.0))
    step_seconds = draw(st.sampled_from((60.0, 240.0, 3600.0)))
    band_w = capacity * (soc_max - soc_min) / step_seconds
    tiny_w = 1e-9 * capacity / step_seconds / horizon  # a whole window's deficit within the tolerance
    shape = draw(st.sampled_from(("spread", "jump", "tiny")))
    if shape == "tiny":
        load = st.floats(0.0, 1.0).map(lambda share: share * tiny_w)
    else:
        load = st.one_of(st.just(0.0), st.floats(-6.0, 0.0).map(lambda decade: 10.0**decade * band_w))
    loads = draw(st.lists(load, min_size=horizon, max_size=horizon))
    pv = st.one_of(st.just(0.0), st.floats(0.0, 0.05).map(lambda share: share * band_w))
    pv_w = draw(st.lists(pv, min_size=horizon, max_size=horizon))
    soc_initial = draw(st.one_of(st.just(soc_min), st.floats(soc_min, soc_max)))
    if shape == "jump":
        e_min = soc_min * capacity
        first = draw(st.floats(0.01, 0.5)) * e_min / step_seconds
        second = draw(st.floats(1.5, 3.5)) * e_min / step_seconds
        loads[:2] = _ulp_short_loads(e_min, step_seconds, first, second)
        pv_w[:2] = [0.0, 0.0]
        soc_initial = soc_min
        horizon = len(loads)
    tiers = draw(st.sampled_from(((0.1,), (0.1, 0.2), (0.0, 0.3))))
    cap = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.2, 1.0).map(lambda share: share * max(loads))))
    return ChargingProblem(
        step_seconds=step_seconds,
        prices=draw(st.lists(st.sampled_from(tiers), min_size=horizon, max_size=horizon)),
        load_w=loads,
        pv_w=pv_w,
        capacity_j=capacity,
        soc_min=soc_min,
        soc_max=soc_max,
        soc_initial=soc_initial,
        max_grid_power_w=cap,
    )


def _ulp_short_loads(e_min, step_seconds, first, second):
    """``(first, second)``, with ``first`` moved up by up to 63 steps of
    the minimum stored energy's ulp until a window starting at ``e_min``
    with these loads (and no PV) leaves boundary 2's need an ulp short
    once the own step bought it.  The requirements are summed as the
    solver's set-up sums them; about a quarter of the draws get there."""
    nudge = math.ulp(e_min) / step_seconds
    for _ in range(64):
        floor_1 = e_min - (e_min + -first * step_seconds)
        floor_2 = max(e_min - (e_min + (-first * step_seconds + -second * step_seconds)), floor_1)
        if floor_1 + (floor_2 - floor_1) < floor_2:
            break
        first += nudge
    return first, second


_TIED = ChargingProblem(
    step_seconds=3600.0, prices=(0.1, 0.2, 0.1, 0.1), load_w=(0.0, 0.0, 500.0, 700.0), pv_w=(0.0,) * 4,
    capacity_j=3.6e6, soc_min=0.1, soc_max=1.0, soc_initial=0.1, max_grid_power_w=600.0,
)
_ZERO_CAP = ChargingProblem(
    step_seconds=60.0, prices=(0.1, 0.1, 0.2), load_w=(2e-8, 3e-8, 1e-8), pv_w=(0.0,) * 3,
    capacity_j=1e4, soc_min=0.1, soc_max=1.0, soc_initial=0.1, max_grid_power_w=0.0,
)


@given(problem=_own_step_windows())
@example(problem=_TIED)
@example(problem=_ZERO_CAP)
@settings(max_examples=400)
def test_own_step_purchases_match_the_greedy_reference(problem):
    """A boundary's own step buys first, without a push and a pop, when it
    sorts below the heap top: a price tie with an earlier step, a grid cap
    of 0 or below the step's need, and a need left an ulp short after the
    own step's buy all give the reference greedy's plan, equal by repr and
    by the purchased energy's bits, or fail at the same step for the same
    reason."""
    _solve_like_the_reference(problem)


def _long_tiered_problem(rng):
    """A 100-400 step window with prices in flat tiers, so same-step
    purchases, long carries and saturated boundaries all occur.  Powers are
    drawn relative to the storage band, some windows with a grid cap."""
    horizon = rng.randrange(100, 401)
    prices = []
    while len(prices) < horizon:
        prices += [rng.choice((0.0, 0.1, 0.2, 0.3))] * rng.randrange(1, 61)
    capacity = rng.uniform(1e5, 3e7)
    soc_min = rng.uniform(0.0, 0.8)
    soc_max = rng.uniform(soc_min + 0.05, 1.0)
    step_seconds = rng.choice((60.0, 240.0, 3600.0))
    scale = rng.choice((0.01, 0.04, 0.15)) * capacity * (soc_max - soc_min) / step_seconds

    def powers(idle):
        return [0.0 if rng.random() < idle else rng.uniform(0.0, scale) for _ in range(horizon)]

    return ChargingProblem(
        step_seconds=step_seconds,
        prices=prices[:horizon],
        load_w=powers(0.2),
        pv_w=powers(0.7),
        capacity_j=capacity,
        soc_min=soc_min,
        soc_max=soc_max,
        soc_initial=rng.uniform(soc_min, soc_max),
        max_grid_power_w=None if rng.random() < 0.5 else rng.uniform(0.0, 2.0) * scale,
    )


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300)
def test_long_tiered_windows_match_the_greedy_reference(seed):
    """On long windows the walk's plan equals the reference greedy's bit for
    bit, or both fail at the same step for the same reason."""
    _solve_like_the_reference(_long_tiered_problem(random.Random(seed)))


def test_a_same_step_purchase_an_ulp_short_is_topped_up_earlier():
    """Boundary 2 needs 2757.6 J after 187.20000000000005 J bought for
    boundary 1.  Step 1 is cheapest and buys the difference at once, but
    187.20000000000005 + (2757.6 - 187.20000000000005) rounds to one ulp
    below 2757.6.  The greedy pops the next candidate, step 0, for that
    ulp and carries it through boundary 1."""
    problem = ChargingProblem(
        step_seconds=60.0,
        prices=(0.2, 0.1),
        load_w=(3.12, 42.84),
        pv_w=(0.0, 0.0),
        capacity_j=1e4,
        soc_min=0.1,
        soc_max=1.0,
        soc_initial=0.1,
    )
    plan = _solve_like_the_reference(problem)
    assert plan.grid_power_w == (3.1200000000000085, 42.839999999999996)
    assert plan.purchased_energy_j == 2757.6
    assert plan.soc_trajectory[1] > 0.1


def test_a_headroom_capped_step_buys_again():
    """Step 0 is cut to the headroom of boundary 1 while serving boundary 2;
    the sum lands one ulp below the ceiling, and the greedy buys that ulp
    at step 0 when it serves boundary 3."""
    problem = ChargingProblem(
        step_seconds=3600.0,
        prices=(0.1, 0.2, 0.3),
        load_w=(322.0, 942.0, 1266.0),
        pv_w=(0.0, 0.0, 0.0),
        capacity_j=3.6e6,
        soc_min=0.28,
        soc_max=0.58,
        soc_initial=0.52,
    )
    plan = _solve_like_the_reference(problem)
    assert plan.soc_trajectory[1] == 0.58


def test_forecast_revision_shrinks_remaining_purchases():
    """When a job is cancelled from the forecast, the re-planned window buys
    less than the stale plan had scheduled."""
    prices = [0.1, 0.2, 0.9, 1.0]
    original = solve_charging(_problem(prices, [500.0, 500.0, 1500.0, 1500.0]))
    revised = solve_charging(_problem(prices, [500.0, 500.0, 200.0, 200.0]))
    assert revised.purchased_energy_j < original.purchased_energy_j
    assert revised.total_cost < original.total_cost
    assert sum(revised.grid_power_w[2:]) <= sum(original.grid_power_w[2:])


def test_forecast_window_validation():
    with pytest.raises(ValueError):
        ForecastWindow(0, HOUR, (1.0, 2.0), (0.0,), (0.1, 0.1))
    with pytest.raises(ValueError):
        ForecastWindow(0, 0, (1.0,), (0.0,), (0.1,))
    assert ForecastWindow(0, HOUR, (1,), (0,), (0,)).step_seconds == 3600.0


# ---------------------------------------------------------------------------
# Receding-horizon controller
# ---------------------------------------------------------------------------

MASTER = ForecastWindow(
    start_ns=0,
    step_ns=HOUR,
    load_w=(200.0, 900.0, 100.0, 1200.0, 400.0, 800.0),
    pv_w=(0.0, 300.0, 500.0, 0.0, 100.0, 0.0),
    prices=(0.1, 0.4, 0.1, 0.5, 0.2, 0.5),
)


def _controller(window=MASTER, **overrides):
    kwargs = dict(
        capacity_j=3.6e6, soc_min=0.1, soc_max=1.0,
        forecast_provider=lambda now_ns: window,
    )
    kwargs.update(overrides)
    return RecedingHorizonController(**kwargs)


def test_on_plan_execution_replays_the_first_plan():
    """Feeding back the plan's own SOC trajectory step by step returns the
    original plan's purchases bit for bit."""
    controller = _controller()
    first = controller.decide(0, 0.5)
    plan = first.plan
    assert controller.first_plan is plan
    assert first.planned_grid_power_w == plan.grid_power_w[0]
    for k in range(1, 6):
        decision = controller.decide(k * HOUR, plan.soc_trajectory[k])
        assert decision.planned_grid_power_w == plan.grid_power_w[k]
        assert decision.plan is plan
        assert decision.fallback is False


def test_state_drift_forces_a_replan():
    controller = _controller()
    first = controller.decide(0, 0.5)
    plan = first.plan
    drifted_soc = plan.soc_trajectory[1] + 0.01
    decision = controller.decide(HOUR, drifted_soc)
    assert decision.fallback is False
    assert decision.plan is not plan
    assert decision.plan.soc_trajectory[0] == pytest.approx(drifted_soc, abs=1e-12)


def test_forecast_revision_forces_a_replan():
    controller = _controller()
    plan = controller.decide(0, 0.5).plan
    revised = ForecastWindow(HOUR, HOUR, (50.0,) * 5, (0.0,) * 5, MASTER.prices[1:])
    controller.forecast_provider = lambda now_ns: revised
    decision = controller.decide(HOUR, plan.soc_trajectory[1])
    assert decision.plan is not plan


def test_a_new_window_object_forces_a_replan_even_with_equal_values():
    """Identity, not value, tells the controller its forecast is unrevised:
    a provider that rebuilds an equal window every step re-solves every step."""
    controller = _controller(forecast_provider=lambda now_ns: dataclasses.replace(MASTER))
    plan = controller.decide(0, 0.5).plan
    decision = controller.decide(HOUR, plan.soc_trajectory[1])
    assert decision.plan is not plan
    assert decision.plan.grid_power_w == pytest.approx(plan.grid_power_w[1:], abs=1e-9)


def test_the_plan_is_solved_on_the_tail_from_now():
    controller = _controller()
    decision = controller.decide(2 * HOUR, 0.5)
    assert len(decision.plan.grid_power_w) == 4
    assert decision.plan.prices == MASTER.prices[2:]
    # later steps of the same window reuse that plan at their offset
    again = controller.decide(3 * HOUR, decision.plan.soc_trajectory[1])
    assert again.plan is decision.plan
    assert again.planned_grid_power_w == decision.plan.grid_power_w[1]


def test_an_int_valued_window_plans_bit_for_bit_as_its_float_copy():
    """A window keeps its series as given; the ChargingProblem each solve
    builds is the one place they become floats.  So a window of ints,
    planned from its start and re-planned from a drifted state mid-window,
    gives plans equal bit for bit (floats, not ints, in every field) to
    those of the same window in floats."""
    ints = ForecastWindow(0, HOUR, (200, 900, 100, 1200, 400, 800), (0, 300, 500, 0, 100, 0), (1, 4, 1, 5, 2, 5))
    floats = ForecastWindow(0, HOUR, *(tuple(map(float, s)) for s in (ints.load_w, ints.pv_w, ints.prices)))
    plans = []
    for window in (ints, floats):
        controller = _controller(window)
        first = controller.decide(0, 0.5).plan
        plans.append((first, controller.decide(2 * HOUR, first.soc_trajectory[2] + 0.01).plan))
    for int_plan, float_plan in zip(*plans):
        assert int_plan is not None
        assert repr(int_plan) == repr(float_plan)
        assert int_plan.total_cost.hex() == float_plan.total_cost.hex()
        assert all(type(price) is float for price in int_plan.prices)


def test_re_solves_on_one_window_convert_and_check_it_once(monkeypatch):
    """A controller converts and checks a window object's series once, in
    the ChargingProblem of its first solve.  Every re-solve on that window
    slices the converted series, checks only its starting SOC and plans bit
    for bit as a ChargingProblem built from the window's tail."""
    socs = [0.5 + 0.01 * k for k in range(6)]  # off the plan, so every step re-solves
    expected = [
        solve_charging(
            ChargingProblem(
                step_seconds=3600.0, prices=MASTER.prices[k:], load_w=MASTER.load_w[k:], pv_w=MASTER.pv_w[k:],
                capacity_j=3.6e6, soc_min=0.1, soc_max=1.0, soc_initial=soc,
            )
        )
        for k, soc in enumerate(socs)
    ]
    check = cemsim.control._finite_and_nonnegative
    checked = []
    monkeypatch.setattr(cemsim.control, "_finite_and_nonnegative", lambda series: checked.append(series) or check(series))
    solve = cemsim.control.solve_charging
    solved = []
    monkeypatch.setattr(cemsim.control, "solve_charging", lambda problem: solved.append(problem) or solve(problem))
    controller = _controller()
    plans = [controller.decide(k * HOUR, soc).plan for k, soc in enumerate(socs)]
    assert len(solved) == 6
    assert [repr(plan) for plan in plans] == [repr(plan) for plan in expected]
    assert [len(series) for series in checked] == [6, 6, 6]
    with pytest.raises(ValueError, match=r"^soc_initial 1\.5 outside \[0\.1, 1\.0\]$"):
        solved[0].tail(1, 1.5)


def test_a_window_holding_a_nan_fails_its_first_solve():
    """A nan in a window fails the solve that first converts it, with the
    message a ChargingProblem gives; a nan before the offset of that solve
    is not in the tail it converts, as before."""
    window = dataclasses.replace(MASTER, load_w=(200.0, 900.0, float("nan"), 1200.0, 400.0, 800.0))
    with pytest.raises(ValueError, match="^load_w must be finite and >= 0$"):
        _controller(window).decide(0, 0.5)
    assert _controller(window).decide(3 * HOUR, 0.5).plan.prices == MASTER.prices[3:]


def test_exhausted_window_falls_back():
    controller = _controller()
    decision = controller.decide(6 * HOUR, 0.5)
    assert decision.fallback is True
    assert decision.planned_grid_power_w is None
    assert decision.plan is None
    # a window that starts after now does not cover it either
    assert controller.decide(-HOUR, 0.5).fallback is True


def test_infeasible_window_falls_back_with_a_warning(caplog):
    window = ForecastWindow(0, HOUR, (5000.0,), (0.0,), (0.5,))
    controller = _controller(window, max_grid_power_w=100.0)
    with caplog.at_level("WARNING", logger="cemsim.control"):
        decision = controller.decide(0, 0.1)
    assert decision.fallback is True
    assert any("infeasible" in message for message in caplog.messages)


@pytest.mark.parametrize("strategy, solves", [("mpc-perfect", 101), ("mpc-nocontext", 261)])
def test_closed_loop_plans_match_the_greedy_reference(monkeypatch, strategy, solves):
    """Every window a closed-loop day solves, the drift- and revision-shaped
    re-plans included, gets the reference greedy's plan bit for bit; the
    controller therefore solves as often as it always has."""
    scenario = scenario_from_dict(
        {"seed": 7, "start_epoch_seconds": 1_704_067_200, "horizon_seconds": 86_400, "step_seconds": 240},
        None,
    )
    solve = cemsim.control.solve_charging
    solved = []

    def checked(problem):
        solved.append(problem)
        plan = _solve_like_the_reference(problem, solve)
        if plan is None:
            return solve(problem)  # raises the reference's failure, so decide falls back
        return plan

    monkeypatch.setattr(cemsim.control, "solve_charging", checked)
    bundle = build_bundle(scenario, strategy)
    run(bundle.simulator, scenario.horizon_ns, scenario.step_ns, lambda output: None)
    assert len(solved) == solves


def test_controller_validation():
    with pytest.raises(ValueError):
        _controller(capacity_j=0.0)
    with pytest.raises(ValueError):
        _controller(soc_min=0.9, soc_max=0.1)
    with pytest.raises(ValueError, match="max_grid_power_w"):
        _controller(max_grid_power_w=-5.0)


# ---------------------------------------------------------------------------
# Plan-following inverter
# ---------------------------------------------------------------------------

LOSSLESS = InverterPVFirstConfig(
    eta_pv_to_batt=1.0, eta_pv_to_load=1.0, eta_batt_to_load=1.0,
    soc_min=0.0, battery_capacity=3.6e6,
)


def _fixed_decision_controller(window):
    return RecedingHorizonController(
        capacity_j=3.6e6, soc_min=0.0, soc_max=1.0,
        forecast_provider=lambda now_ns: window,
    )


def _mpc_input(pv_w, load_w, soc):
    return InverterStepInput(
        power_source=PowerSourceStepResult(400.0, pv_w / 400.0, pv_w),
        battery=BatteryStepResult(soc, 50.0, 0.0, 0.0),
        load=LoadStepResult(load_w, load_w),
    )


def test_overbuying_routes_the_surplus_into_the_battery():
    """A 600 W plan against a 100 W deficit grid-charges the other 500 W."""
    window = ForecastWindow(0, HOUR, (100.0, 1000.0), (0.0, 0.0), (0.1, 1.0))
    inverter = MPCInverter(LOSSLESS, _fixed_decision_controller(window))
    result = inverter.step(0, 3600 * NS, _mpc_input(pv_w=0.0, load_w=100.0, soc=0.5))
    assert result.grid_input.requested_active_power == pytest.approx(600.0, rel=1e-12)
    assert result.battery_input.mode is BatteryMode.CHARGE
    assert result.battery_input.current == pytest.approx(10.0, rel=1e-12)


def test_underbuying_discharges_to_cover_the_gap():
    """A 100 W plan against a 1000 W load lets the battery supply 900 W."""
    window = ForecastWindow(0, HOUR, (1000.0,), (0.0,), (5.0,))
    inverter = MPCInverter(LOSSLESS, _fixed_decision_controller(window))
    result = inverter.step(0, 3600 * NS, _mpc_input(pv_w=0.0, load_w=1000.0, soc=0.9))
    assert result.grid_input.requested_active_power == pytest.approx(100.0, rel=1e-9)
    assert result.battery_input.mode is BatteryMode.DISCHARGE
    assert result.battery_input.current * 50.0 == pytest.approx(900.0, rel=1e-9)


def test_load_above_forecast_is_served_despite_the_plan():
    """The forecast said 100 W so the plan buys nothing; the actual 1000 W
    load drains what the battery has (900 W) and the rest goes to the grid."""
    window = ForecastWindow(0, HOUR, (100.0,), (0.0,), (5.0,))
    inverter = MPCInverter(LOSSLESS, _fixed_decision_controller(window))
    result = inverter.step(0, 3600 * NS, _mpc_input(pv_w=0.0, load_w=1000.0, soc=0.9))
    assert result.battery_input.mode is BatteryMode.DISCHARGE
    assert result.battery_input.current * 50.0 == pytest.approx(900.0, rel=1e-9)
    assert result.grid_input.requested_active_power == pytest.approx(100.0, rel=1e-9)


def test_without_a_plan_dispatch_is_plain_pv_first():
    controller = RecedingHorizonController(
        capacity_j=3.6e6, soc_min=0.0, soc_max=1.0,
        forecast_provider=lambda now_ns: None,
    )
    mpc = MPCInverter(LOSSLESS, controller)
    plain = InverterPVFirst(LOSSLESS)
    for pv_w, load_w, soc in [(500.0, 300.0, 0.5), (0.0, 400.0, 0.8), (200.0, 200.0, 0.1)]:
        assert mpc.step(0, 3600 * NS, _mpc_input(pv_w, load_w, soc)) == plain.step(
            0, 3600 * NS, _mpc_input(pv_w, load_w, soc)
        )


def test_decision_record_shape():
    decision = ControlDecision(None, None)
    assert decision.planned_soc is None
    assert decision.fallback is True
