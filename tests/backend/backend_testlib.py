"""Helpers shared by the backend test modules.

``PyLoopBackend`` (:mod:`repro.backend.pyloop_backend`) is the second,
scalar-loop implementation of the four kernels; every test here compares
it bit for bit against the numpy kernels.
"""

from __future__ import annotations

import math

import pytest

from repro.backend.numpy_backend import NumpyBackend
from repro.geometry import rectangle
from repro.model import (
    ChargerType,
    CoefficientTable,
    Device,
    DeviceType,
    PairCoefficients,
    Scenario,
)


@pytest.fixture(scope="session")
def numpy_backend() -> NumpyBackend:
    return NumpyBackend()


def solve_scenario() -> Scenario:
    """A small obstacle-rich instance for end-to-end byte-equality tests."""
    ct = ChargerType("ct", math.pi / 2.0, 1.0, 6.0)
    dt = DeviceType("dt", 2.0 * math.pi)
    table = CoefficientTable({("ct", "dt"): PairCoefficients(100.0, 5.0)})
    positions = [(4.0, 4.0), (8.0, 11.0), (12.0, 10.0), (16.0, 14.0), (5.0, 15.0)]
    devices = tuple(Device(p, 0.0, dt, 0.5) for p in positions)
    return Scenario(
        bounds=(0.0, 0.0, 20.0, 20.0),
        devices=devices,
        obstacles=(rectangle(6.0, 6.0, 9.0, 9.0), rectangle(12.0, 3.0, 14.0, 5.0)),
        charger_types=(ct,),
        budgets={"ct": 2},
        table=table,
    )
