"""Checks of the benchmark's own arithmetic and inputs.

Run from the root of a checkout: ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import random

import pytest

import env
import gen
import spans

dmono = env.import_dmono()


# ---- percentile rule ----------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 95) == 95
    assert spans.percentile(values, 100) == 100
    assert spans.percentile([7.5], 95) == 7.5
    assert spans.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_percentile_needs_ten_samples_beyond_it():
    assert spans.samples_beyond(200, 95) == 10
    assert spans.reportable(200, 95)
    assert not spans.reportable(199, 95)
    assert spans.reportable(20, 50)
    assert not spans.reportable(19, 50)
    assert not spans.reportable(0, 50)


# ---- self-time arithmetic -----------------------------------------------------


def test_self_times_subtract_direct_children_only():
    rows = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 2.0, 3.0, 1, 1],
        ["c", 5.0, 9.0, 0, 2],
    ]
    assert spans.self_times(rows) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(rows)) == spans.roots_wall(rows) == 10.0


def test_summarize_counts_reentrant_spans_once():
    rows = [
        ["root", 0.0, 10.0, -1, 0],
        ["x", 1.0, 9.0, 0, 0],
        ["x", 2.0, 5.0, 1, 0],
        ["y", 3.0, 4.0, 2, 0],
    ]
    table = spans.summarize(rows)
    assert table["x"]["calls"] == 2
    assert table["x"]["incl_s"] == 8.0
    assert table["x"]["self_s"] == 5.0 + 2.0
    assert table["y"]["self_s"] == 1.0


def test_tracer_spans_a_learning_run_and_restores_the_package():
    learner = __import__("dmono.learner", fromlist=["learner"])
    original = learner.consistent
    target = dmono.tightness_family(2, 2)
    tracer = spans.Tracer()
    with tracer.spanning():
        root = tracer.open("root")
        dmono.learn(
            2, target.lattice, dmono.MembershipOracle.for_function(target),
            dmono.EquivalenceOracle(target),
        )
        wall = tracer.close(root)
    assert learner.consistent is original
    table = spans.summarize(tracer.spans)
    assert table["consistent"]["calls"] >= 1
    assert table["learner.eq"]["calls"] == table["consistent"]["calls"]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(wall, abs=1e-9)
    assert min(spans.self_times(tracer.spans)) >= 0


def test_counting_pass_counts_primitives():
    target = dmono.tightness_family(2, 2)
    original = dmono.ComposedTarget.__dict__["evaluate"]
    tracer = spans.Tracer()
    with tracer.counting():
        target.evaluate(3)
        target.lattice.leq(1, 3)
    # one composed evaluation evaluates each of its two inner functions
    assert tracer.extra["boolfn.evaluate.calls"] == 3
    assert tracer.extra["lattice.leq.calls"] >= 1
    assert dmono.ComposedTarget.__dict__["evaluate"] is original


# ---- generators ---------------------------------------------------------------


def test_generators_are_byte_identical_per_seed():
    explicit = lambda seed: gen.render_explicit(gen.learn_explicit_inputs(seed))
    assert explicit(7) == explicit(7)
    assert explicit(7) != explicit(8)
    assert gen.learn_cube_files(dmono, 7) == gen.learn_cube_files(dmono, 7)
    assert gen.cli_decompose_files(dmono, 7) == gen.cli_decompose_files(dmono, 7)
    assert gen.cli_decompose_files(dmono, 7) != gen.cli_decompose_files(dmono, 8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_lattices_validate_with_non_topological_ids(seed):
    for name, glat, targets in gen.learn_explicit_inputs(seed):
        lat = dmono.parse_lattice(glat.text(), name)
        assert lat.size == len(glat.names)
        assert any(
            b > a for a in range(lat.size) for b in lat.immediate_predecessors(a)
        ), f"{name}: ids are in topological order"
        rng = random.Random(seed)
        for _ in range(300):
            a, b = rng.randrange(lat.size), rng.randrange(lat.size)
            assert lat.leq(a, b) == bool(glat.ups[a] >> b & 1)
        for spec in targets:
            assert spec["F"][0] == "0" and "1" in spec["F"]
            for g in spec["g"]:
                ids = [lat.parse_element(nm) for nm in g]
                assert all(not lat.leq(a, b) for a in ids for b in ids if a != b)


def test_moore_family_is_intersection_closed_with_full_set():
    glat = gen.moore_family(8, 60, random.Random(3))
    sets = {int(nm[1:], 16) for nm in glat.names}
    assert len(sets) == 60
    assert 0xFF in sets
    assert all(a & b in sets for a in sets for b in sets)
