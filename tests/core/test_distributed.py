"""Tests for the distributed PDCS extraction (§5)."""

import numpy as np
import pytest

from repro.core import (
    CandidateGenerator,
    assign_tasks,
    build_candidate_set,
    extraction_pool,
    measure_task_costs,
    positions_by_type_pooled,
    simulate_distributed_times,
)

from conftest import simple_scenario


def scenario():
    return simple_scenario(
        [(4.0, 4.0), (8.0, 6.0), (12.0, 10.0), (16.0, 14.0)], budget=2
    )


def test_measure_task_costs_shape():
    sc = scenario()
    meas = measure_task_costs(sc)
    assert len(meas.durations) == sc.num_devices
    assert np.all(meas.durations >= 0.0)
    assert meas.serial_total > 0.0
    assert set(meas.positions_by_type) == {"ct"}


def test_task_union_equals_serial_positions():
    """The distributed tasks together produce the same candidate set as the
    serial generator (Algorithm 4's pair-splitting is lossless)."""
    sc = scenario()
    gen = CandidateGenerator(sc)
    ct = sc.charger_types[0]
    serial = gen.positions(ct)
    meas = measure_task_costs(sc)
    # Same array, not just the same point set: tasks merge in device order.
    assert np.array_equal(meas.positions_by_type["ct"], serial)


def test_assign_tasks_one_per_machine_when_enough():
    durations = np.array([3.0, 1.0, 2.0])
    sched = assign_tasks(durations, machines=5)
    assert sched.makespan == 3.0
    assert len(set(sched.assignment)) == 3


def test_assign_tasks_lpt_otherwise():
    durations = np.array([3.0, 3.0, 2.0, 2.0, 2.0])
    sched = assign_tasks(durations, machines=2)
    assert np.isclose(sum(sched.loads), 12.0)
    assert sched.makespan < 12.0


def test_simulate_distributed_times_monotone():
    sc = scenario()
    times = simulate_distributed_times(sc, [1, 2, 4])
    assert times["serial"] >= times[1] - 1e-9  # LPT(1) == serial
    assert times[1] >= times[2] - 1e-9 >= 0.0
    assert times[2] >= times[4] - 1e-9
    # Makespan never drops below the longest single task.
    meas_floor = 0.0
    assert times[4] >= meas_floor


def test_parallel_positions_match_serial_workers1():
    """A one-worker extraction pool reproduces the serial positions."""
    sc = scenario()
    serial = CandidateGenerator(sc).positions(sc.charger_types[0])
    with extraction_pool(sc, 0.15, 1) as pool:
        pooled = positions_by_type_pooled(pool, sc)["ct"]
    assert np.array_equal(pooled, serial)


@pytest.mark.slow
def test_pooled_positions_equal_serial_positions():
    sc = scenario()
    serial = CandidateGenerator(sc).positions(sc.charger_types[0])
    with extraction_pool(sc, 0.15, 2) as pool:
        pooled = positions_by_type_pooled(pool, sc)["ct"]
    assert np.array_equal(pooled, serial)


def test_pooled_positions_empty_scenario():
    sc = simple_scenario([(4.0, 4.0)]).with_devices([])
    with extraction_pool(sc, 0.15, 2) as pool:
        out = positions_by_type_pooled(pool, sc)
    assert out["ct"].shape == (0, 2)


def test_cancel_token_stops_measurement():
    import threading

    from repro.core import SolveCancelled, check_cancel

    cancel = threading.Event()
    cancel.set()
    with pytest.raises(SolveCancelled):
        measure_task_costs(scenario(), cancel=cancel)
    with pytest.raises(SolveCancelled):
        build_candidate_set(scenario(), workers=2, cancel=cancel)
    # A None token (the default) never fires.
    check_cancel(None)
    check_cancel(threading.Event())
