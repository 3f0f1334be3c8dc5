"""Output checks and digests shared by the workloads."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Sequence

#: Largest allowed gap between a reported utility and a recomputation.
UTILITY_TOL = 1e-12


def solution_record(strategies: Sequence[Any], utility: float) -> dict[str, Any]:
    """The result of one solve in plain JSON types (floats kept exact)."""
    return {
        "utility": float(utility),
        "strategies": [
            [float(s.position[0]), float(s.position[1]), float(s.orientation), s.ctype.name]
            for s in strategies
        ],
    }


def payload_record(payload: dict[str, Any]) -> dict[str, Any]:
    """:func:`solution_record` of a ``POST /v1/solve`` result payload."""
    return {
        "utility": float(payload["utility"]),
        "strategies": [
            [float(s["position"][0]), float(s["position"][1]), float(s["orientation"]), s["type"]]
            for s in payload["strategies"]
        ],
    }


def record_bytes(record: dict[str, Any]) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def digest(records: Sequence[dict[str, Any]]) -> str:
    """A short hash of an ordered list of result records."""
    h = hashlib.sha256()
    for rec in records:
        h.update(record_bytes(rec))
        h.update(b"\n")
    return h.hexdigest()[:16]


def check_solution(scenario: Any, record: dict[str, Any]) -> list[str]:
    """Errors in one result: its utility must equal the scenario's own
    evaluation of its placement, and no charger type may exceed its budget."""
    from repro.model import Strategy

    types = {ct.name: ct for ct in scenario.charger_types}
    strategies = [Strategy((x, y), theta, types[name]) for x, y, theta, name in record["strategies"]]
    errors = []
    recomputed = scenario.utility_of(strategies)
    if abs(recomputed - record["utility"]) > UTILITY_TOL:
        errors.append(f"utility {record['utility']!r} != utility_of(strategies) {recomputed!r}")
    for name, used in Counter(s.ctype.name for s in strategies).items():
        if used > scenario.budgets.get(name, 0):
            errors.append(f"{used} chargers of {name} exceed its budget {scenario.budgets.get(name, 0)}")
    return errors
