"""Equivalence and determinism of the in-process / multi-worker extraction.

The guarantee: the batched sweep equals Algorithm 1 run one position at a
time (the ``cross_impl`` scalar oracle), and the in-process and
process-pool runs of the one extraction path produce *identical* candidate
sets (same strategies in the same order), hence identical greedy
selections and utilities.
"""

import numpy as np
import pytest

from repro.core import CandidateGenerator, build_candidate_set, solve_hipo
from repro.geometry import rectangle
from repro.variation import (
    InvariantContext,
    VariedScenario,
    check_invariant,
    family_names,
    get_family,
)

from conftest import simple_scenario


def scenario_no_obstacles():
    return simple_scenario(
        [(4.0, 4.0), (8.0, 6.0), (12.0, 10.0), (16.0, 14.0), (6.0, 12.0)], budget=2
    )


def scenario_with_obstacles():
    return simple_scenario(
        [(4.0, 4.0), (8.0, 11.0), (12.0, 10.0), (16.0, 14.0), (5.0, 15.0)],
        obstacles=[rectangle(6.0, 6.0, 9.0, 9.0), rectangle(12.0, 3.0, 14.0, 5.0)],
        budget=2,
    )


def assert_candidate_sets_identical(a, b):
    assert a.num_candidates == b.num_candidates
    assert a.part_of == b.part_of
    assert np.array_equal(a.approx_power, b.approx_power)
    assert np.array_equal(a.exact_power, b.exact_power)
    assert [(s.position, s.orientation, s.ctype.name) for s in a.strategies] == [
        (s.position, s.orientation, s.ctype.name) for s in b.strategies
    ]


def _fixed(make):
    return VariedScenario(make.__name__, {}, 0, make())


@pytest.mark.parametrize(
    "varied",
    [_fixed(scenario_no_obstacles), _fixed(scenario_with_obstacles)]
    + [get_family(name).build(seed=1) for name in family_names()],
    ids=lambda v: v.family,
)
def test_cross_impl_scalar_oracle(varied):
    """Batched sweep records == per-position Algorithm 1, and numpy == pyloop."""
    assert check_invariant("cross_impl", varied, InvariantContext(eps=0.4)) is None


@pytest.mark.parametrize("make", [scenario_no_obstacles, scenario_with_obstacles])
def test_parallel_matches_serial_candidates(make):
    sc = make()
    serial = build_candidate_set(sc, workers=1)
    parallel = build_candidate_set(sc, workers=4)
    assert_candidate_sets_identical(serial, parallel)


@pytest.mark.parametrize("make", [scenario_no_obstacles, scenario_with_obstacles])
def test_solve_equivalence_and_determinism(make):
    """``workers=1`` and ``workers=4`` give the same utility and candidate
    count, and repeated runs are bit-identical (determinism)."""
    sc = make()
    s1 = solve_hipo(sc, workers=1, keep_candidates=True)
    s4 = solve_hipo(sc, workers=4, keep_candidates=True)
    assert s1.utility == s4.utility
    assert s1.approx_utility == s4.approx_utility
    assert s1.candidate_set.num_candidates == s4.candidate_set.num_candidates
    assert [s.position for s in s1.strategies] == [s.position for s in s4.strategies]
    # Determinism: a repeat of the parallel solve is bit-identical.
    again = solve_hipo(sc, workers=4, keep_candidates=True)
    assert again.utility == s4.utility
    assert again.candidate_set.num_candidates == s4.candidate_set.num_candidates


def test_chunk_size_invariance():
    sc = scenario_with_obstacles()
    base = build_candidate_set(sc)
    for chunk in (1, 7, 64):
        other = build_candidate_set(sc, extraction_chunk_size=chunk)
        assert_candidate_sets_identical(base, other)


def test_chunk_size_recorded_in_sweeps_span():
    from repro.obs import Tracer

    sc = scenario_no_obstacles()
    trace = Tracer()
    build_candidate_set(sc, extraction_chunk_size=33, tracer=trace)
    sweeps = trace.find_all("sweeps")
    assert sweeps and sweeps[-1].attrs["chunk_size"] == 33


def test_timings_populated():
    sc = scenario_no_obstacles()
    sol = solve_hipo(sc, keep_candidates=True)
    t = sol.timings
    assert t is not None
    assert t.workers == 1
    assert t.num_candidates == sol.candidate_set.num_candidates
    assert t.num_positions == sum(sol.candidate_set.positions_per_type.values())
    assert t.extraction_seconds >= 0.0 and t.selection_seconds >= 0.0
    assert "workers=1" in t.format()


@pytest.mark.parametrize("max_positions", [None, 25])
def test_custom_generator_parallel_matches_serial(max_positions):
    """A plain generator with non-default approximation parameters must pool
    identically to the serial path: the pool ships ``eps`` and
    ``max_positions``, and the position cap is applied by the parent after
    gathering (the regression this guards: phase 2 used to rebuild workers
    from defaults, and phase 1 never pooled custom generators at all)."""
    sc = scenario_with_obstacles()
    gen = CandidateGenerator(sc, eps=0.3, max_positions=max_positions)
    serial = build_candidate_set(sc, generator=gen, workers=1)
    pooled = build_candidate_set(sc, generator=gen, workers=2)
    assert_candidate_sets_identical(serial, pooled)


class _EveryOtherPositionGenerator(CandidateGenerator):
    """A subclass the pool cannot reproduce (overridden position logic)."""

    def positions(self, ctype):
        return super().positions(ctype)[::2]


def test_subclassed_generator_falls_back_in_process():
    """Generator subclasses must not be silently replaced by stock workers:
    both pooled phases fall back to the in-process path, so ``workers=2``
    equals the serial run even for exotic extractors."""
    sc = scenario_no_obstacles()
    gen = _EveryOtherPositionGenerator(sc, eps=0.2)
    serial = build_candidate_set(sc, generator=gen, workers=1)
    pooled = build_candidate_set(sc, generator=gen, workers=2)
    assert_candidate_sets_identical(serial, pooled)
    # And the subclass genuinely changed extraction vs the stock generator.
    stock = build_candidate_set(sc, generator=CandidateGenerator(sc, eps=0.2))
    assert stock.num_candidates != serial.num_candidates


def test_subclassed_generator_fallback_is_not_labelled_pooled():
    """With a subclassed generator ``workers=2`` starts no pool, so the
    ``sweeps`` span must record ``pooled=False`` and :class:`PhaseTimings`
    must carve the in-process sweep time out of extraction: extraction,
    sweep and dedupe then add up to the extraction span's wall time instead
    of exceeding it."""
    from repro.obs import Tracer

    sc = scenario_with_obstacles()
    trace = Tracer()
    gen = _EveryOtherPositionGenerator(sc, eps=0.2)
    cs = build_candidate_set(sc, generator=gen, workers=2, tracer=trace)
    assert trace.find_all("sweeps")[-1].attrs["pooled"] is False
    t = cs.timings
    assert t.workers == 2 and t.sweep_seconds > 0.0
    wall = trace.find_all("extraction")[-1].wall_s
    assert t.extraction_seconds + t.sweep_seconds + t.dedupe_seconds == pytest.approx(wall)

    # A plain generator does pool its sweeps, and says so.
    trace = Tracer()
    build_candidate_set(sc, workers=2, tracer=trace)
    assert trace.find_all("sweeps")[-1].attrs["pooled"] is True


def test_positions_by_type_override_with_workers():
    """Explicit positions short-circuit generation but still sweep in the pool."""
    sc = scenario_no_obstacles()
    rng = np.random.default_rng(5)
    override = {"ct": rng.uniform(0.0, 20.0, size=(40, 2))}
    serial = build_candidate_set(sc, positions_by_type=override, workers=1)
    parallel = build_candidate_set(sc, positions_by_type=override, workers=3)
    assert_candidate_sets_identical(serial, parallel)
