"""The per-link flit counter every engine keeps, and the observers on it.

``link_flits()`` is one cumulative ``int64`` counter per directed link in
the graph's CSR edge order, counting every grant from
``attach_link_telemetry()`` on, in every phase of a run; observers own
their windows by differencing snapshots of it.  Whole runs under
observers are compared across the cycle paths in
``tests/test_differential.py``; these tests pin the counter's own
contract on each path.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.flitsim.engine import SimulatorCore
from repro.flitsim.telemetry import LinkCounts, LinkTelemetry, link_map

from oracles import PATHS, build

#: topology, policy, traffic, load
CELL = ("polarfly:conc=2,q=5", "min", "uniform", 0.3)
#: cycles per chunk, chunks
CHUNK, CHUNKS = 40, 3


def on_path(engine, path, per_cycle):
    """The :data:`CELL` simulator on one path of :data:`oracles.PATHS`."""
    with path():
        sim = build(*CELL, seed=11, engine=engine)
    if per_cycle:
        sim.advance = functools.partial(SimulatorCore.advance, sim)
    return sim


@pytest.fixture(params=[p[1:] for p in PATHS], ids=[p[0] for p in PATHS])
def sim(request):
    return on_path(*request.param)


def test_counter_reads_zero_until_attached(sim):
    sim.advance(CHUNK)
    flits = sim.link_flits()
    assert flits.dtype == np.int64
    assert flits.shape == (sim.topo.graph.indices.size,)
    assert not flits.any()


def test_counter_ticks_outside_the_measure_window(sim):
    sim.attach_link_telemetry()
    assert not sim._measuring
    seen = [sim.link_flits()]
    for _ in range(CHUNKS):
        sim.advance(CHUNK)
        seen.append(sim.link_flits())
    # Cumulative: never decreasing on any link, and growing under load.
    steps = np.diff(np.stack(seen), axis=0)
    assert (steps >= 0).all()
    assert (steps.sum(axis=1) > 0).all()


def test_snapshots_do_not_alias_the_counter(sim):
    sim.attach_link_telemetry()
    sim.advance(CHUNK)
    snap = sim.link_flits()
    kept = snap.copy()
    snap[:] = -1
    np.testing.assert_array_equal(sim.link_flits(), kept)
    sim.advance(CHUNK)
    assert (sim.link_flits() >= kept).all()


def test_attaching_again_keeps_the_count(sim):
    sim.attach_link_telemetry()
    sim.advance(CHUNK)
    before = sim.link_flits()
    assert before.any()
    sim.attach_link_telemetry()
    np.testing.assert_array_equal(sim.link_flits(), before)


def test_counters_agree_across_paths_after_unmeasured_advances():
    counts = {}
    for name, engine, path, per_cycle in PATHS:
        s = on_path(engine, path, per_cycle)
        s.attach_link_telemetry()
        for _ in range(CHUNKS):
            s.advance(CHUNK)
        counts[name] = s.link_flits()
    ref = counts["reference"]
    assert ref.sum() > 0
    for name, flits in counts.items():
        np.testing.assert_array_equal(flits, ref, name)


#: the triangle 0 - 1 - 2 as a CSR graph
TRIANGLE = SimpleNamespace(
    n=3,
    indptr=np.array([0, 2, 4, 6]),
    indices=np.array([1, 2, 0, 2, 0, 1]),
)


def test_link_map_keeps_nonzero_links_in_csr_order():
    got = link_map(TRIANGLE, np.array([0, 5, 2, 0, 7, 1]))
    assert list(got.items()) == [((0, 2), 5), ((1, 0), 2), ((2, 0), 7), ((2, 1), 1)]


def test_link_map_of_an_idle_network_is_empty():
    assert link_map(TRIANGLE, np.zeros(6, dtype=np.int64)) == {}


def test_link_map_names_every_directed_edge_once():
    graph = build(*CELL).topo.graph
    got = link_map(graph, np.ones(graph.indices.size, dtype=np.int64))
    assert len(got) == graph.indices.size
    for u in range(graph.n):
        row = graph.indices[graph.indptr[u]:graph.indptr[u + 1]]
        assert all(got[(u, int(v))] == 1 for v in row)


class _Counter:
    """The counter surface a :class:`LinkCounts` reads, set by hand."""

    def __init__(self, flits):
        self.topo = SimpleNamespace(graph=TRIANGLE)
        self.flits = np.asarray(flits, dtype=np.int64)
        self.attached = 0

    def attach_link_telemetry(self):
        self.attached += 1

    def link_flits(self):
        return self.flits.copy()


def test_link_counts_difference_the_counter_over_the_window():
    sim = _Counter([3, 0, 1, 0, 0, 4])  # counted before the window opened
    counts = LinkCounts()
    counts.start(sim, start=0)
    assert sim.attached == 1
    sim.flits += [0, 2, 1, 0, 0, 6]
    counts.end(sim)
    assert list(counts.counts.items()) == [((0, 2), 2), ((1, 0), 1), ((2, 1), 6)]


def test_max_utilization_breaks_ties_by_link_order():
    tied = link_map(TRIANGLE, np.array([0, 4, 1, 0, 4, 0]))
    assert LinkTelemetry(8, link_flits=tied).max_utilization() == ((0, 2), 0.5)
