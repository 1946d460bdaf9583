"""Workload layer: DAG golden shapes, eligibility, trace replay.

The generator tests pin the *structural* contracts (message counts,
dependency chains, root sets) the collectives literature defines —
e.g. ring all-reduce on N ranks is a 2(N-1)-message chain per rank —
and the eligibility tests drive the shared
:class:`~repro.workloads.state.WorkloadState` machine directly, since
both engines delegate every closed-loop semantic decision to it.
"""

import numpy as np
import pytest

from repro.core import PolarFly
from repro.experiments import WORKLOADS
from repro.flitsim.engine import SimConfig
from repro.workloads import (
    Message,
    Workload,
    WorkloadState,
    all_to_all,
    halo_exchange,
    incast,
    load_trace,
    recursive_doubling_allreduce,
    ring_allreduce,
    terminal_routers,
)


@pytest.fixture(scope="module")
def pf(pf7):
    # PolarFly(7) with endpoints: 57 terminal routers.
    return PolarFly(7, concentration=2)


# ----------------------------------------------------------------------
# Generator golden shapes
# ----------------------------------------------------------------------
class TestGeneratorShapes:
    def test_registry_exposes_all_generators(self):
        assert {"allreduce", "alltoall", "halo", "incast", "trace"} <= set(
            WORKLOADS.names()
        )

    def test_ring_allreduce_shape(self, pf):
        n = terminal_routers(pf).size
        wl = ring_allreduce(pf, size=64)
        # 2(N-1) steps, one message per rank per step.
        assert wl.num_messages == 2 * (n - 1) * n
        # Chunked payload: size/N flits each, at least 1.
        assert np.all(wl.size == max(1, 64 // n))
        # Step 0 messages are the only roots.
        assert np.array_equal(wl.roots, np.arange(n))
        # Per-rank chain: message (s, i) depends on (s-1, (i-1) mod n).
        assert np.all(wl.dep_counts[n:] == 1)
        deps = wl.messages()
        for s in range(1, 2 * (n - 1)):
            for i in range(n):
                assert deps[s * n + i].deps == ((s - 1) * n + (i - 1) % n,)

    def test_ring_allreduce_chain_depth(self, pf):
        # The critical path of the DAG is exactly 2(N-1) messages long.
        n = terminal_routers(pf).size
        wl = ring_allreduce(pf, size=64)
        depth = np.zeros(wl.num_messages, dtype=np.int64)
        for mid in range(wl.num_messages):
            span = wl.dependents_indices[
                wl.dependents_indptr[mid] : wl.dependents_indptr[mid + 1]
            ]
            depth[span] = np.maximum(depth[span], depth[mid] + 1)
        assert depth.max() == 2 * (n - 1) - 1

    def test_recursive_doubling_shape(self, pf):
        n = terminal_routers(pf).size  # 57 -> power-of-two subset is 32
        p = 1 << (n.bit_length() - 1)
        wl = recursive_doubling_allreduce(pf, size=16)
        rounds = p.bit_length() - 1
        assert wl.num_messages == p * rounds
        assert np.all(wl.size == 16)
        msgs = wl.messages()
        t = terminal_routers(pf)
        for s in range(rounds):
            for i in range(p):
                msg = msgs[s * p + i]
                assert msg.src == int(t[i])
                assert msg.dst == int(t[i ^ (1 << s)])
                if s:
                    assert msg.deps == ((s - 1) * p + (i ^ (1 << (s - 1))),)

    def test_alltoall_shape(self, pf):
        n = terminal_routers(pf).size
        wl = all_to_all(pf, size=8)
        assert wl.num_messages == n * (n - 1)
        assert np.all(wl.dep_counts == 0)
        # Every ordered terminal pair appears exactly once.
        pairs = set(zip(wl.src.tolist(), wl.dst.tolist()))
        assert len(pairs) == wl.num_messages

    def test_halo_shape(self, pf):
        n = terminal_routers(pf).size  # 57 = 3 x 19 torus
        wl = halo_exchange(pf, size=16, iters=3)
        per_iter = wl.num_messages // 3
        assert wl.num_messages == 3 * per_iter
        # First iteration is dependency-free; later ones are gated.
        assert np.all(wl.dep_counts[:per_iter] == 0)
        assert np.all(wl.dep_counts[per_iter:] > 0)
        # A 3x19 torus rank has 4 distinct neighbors.
        assert per_iter == 4 * n

    def test_incast_shape(self, pf):
        t = terminal_routers(pf)
        wl = incast(pf, size=32, reply=True)
        workers = t.size - 1
        assert wl.num_messages == 2 * workers
        # Replies are barrier-gated on every incast message.
        assert np.all(wl.dep_counts[:workers] == 0)
        assert np.all(wl.dep_counts[workers:] == workers)
        assert np.all(wl.dst[:workers] == int(t[0]))
        assert np.all(wl.src[workers:] == int(t[0]))


class TestArrayBuild:
    """The generators emit arrays directly, identical to the Message-list build."""

    #: registered spec -> keyword arguments of the Message-list oracle
    SPECS = {
        "allreduce:algo=ring,size=64": ("ring", {"size": 64}),
        "allreduce:algo=ring,size=3": ("ring", {"size": 3}),
        "allreduce:algo=rd,size=16": ("rd", {"size": 16}),
        "alltoall:size=8": ("alltoall", {"size": 8}),
        "halo:iters=1,size=16": ("halo", {"size": 16, "iters": 1}),
        "halo:iters=3,size=4": ("halo", {"size": 4, "iters": 3}),
        "incast:size=32": ("incast", {"size": 32}),
        "incast:reply=true,root=3,size=32": (
            "incast", {"size": 32, "root": 3, "reply": True}
        ),
    }

    def test_every_array_built_generator_is_covered(self):
        # ``trace`` alone still builds Message objects (one per JSONL line).
        covered = {WORKLOADS.parse(spec)[0] for spec in self.SPECS}
        assert covered == set(WORKLOADS.names()) - {"trace"}

    @pytest.mark.parametrize(
        "topo_spec", ["polarfly:conc=2,q=7", "polarfly:conc=2,q=9", "fattree:k=4,n=3"]
    )
    def test_matches_message_list_build(self, topo_spec):
        from oracles import message_list_workload

        from repro.experiments.registry import TOPOLOGIES

        topo = TOPOLOGIES.create(topo_spec)
        for spec, (kind, kw) in self.SPECS.items():
            got = WORKLOADS.create(spec, topo)
            want = message_list_workload(topo, kind, **kw)
            for attr in (
                "src", "dst", "size", "dep_counts",
                "dependents_indptr", "dependents_indices",
            ):
                a, b = getattr(got, attr), getattr(want, attr)
                assert a.dtype == b.dtype == np.int64, (spec, attr)
                assert np.array_equal(a, b), (topo_spec, spec, attr)

    def test_from_arrays_validates_like_messages(self):
        ok = Workload.from_arrays("ok", [0, 1], [1, 2], [4, 4], [0, 1], [0])
        assert ok.messages() == [Message(0, 1, 4), Message(1, 2, 4, (0,))]
        with pytest.raises(ValueError, match="cycle"):
            Workload.from_arrays("bad", [0, 1], [1, 0], [4, 4], [1, 1], [1, 0])
        with pytest.raises(ValueError, match="src != dst"):
            Workload.from_arrays("bad", [3], [3], [4], [0], [])
        with pytest.raises(ValueError, match="out of range"):
            Workload.from_arrays("bad", [0], [1], [4], [1], [7])
        with pytest.raises(ValueError, match="at least one"):
            Workload.from_arrays("bad", [], [], [], [], [])
        with pytest.raises(ValueError, match="equal lengths"):
            Workload.from_arrays("bad", [0, 1], [1], [4, 4], [0, 0], [])
        with pytest.raises(ValueError, match="partition"):
            Workload.from_arrays("bad", [0], [1], [4], [2], [0])


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Workload("bad", [
                Message(0, 1, 4, (1,)),
                Message(1, 0, 4, (0,)),
            ])

    def test_cycle_behind_a_chain_counts_the_unreachable(self):
        # 0 -> 1 retire; 2 <-> 3 feed each other and 4 hangs off them.
        with pytest.raises(ValueError) as err:
            Workload("loop", [
                Message(0, 1, 4),
                Message(1, 2, 4, (0,)),
                Message(2, 3, 4, (1, 3)),
                Message(3, 2, 4, (2,)),
                Message(3, 4, 4, (3,)),
            ])
        assert str(err.value) == (
            "workload 'loop' dependency graph has a cycle "
            "(3 unreachable messages)"
        )

    def test_diamond_and_repeated_edges_are_acyclic(self):
        # 3 waits on both arms of the diamond (two frontier members feed
        # it in one round), 4 names the same prerequisite twice.
        wl = Workload("diamond", [
            Message(0, 1, 4),
            Message(1, 2, 4, (0,)),
            Message(1, 3, 4, (0,)),
            Message(2, 0, 4, (1, 2)),
            Message(3, 0, 4, (3, 3)),
        ])
        assert wl.dep_counts.tolist() == [0, 1, 1, 2, 2]
        assert wl.roots.tolist() == [0]

    def test_self_send_rejected(self):
        with pytest.raises(ValueError, match="src != dst"):
            Workload("bad", [Message(3, 3, 4)])

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Workload("bad", [Message(0, 1, 0)])

    @pytest.mark.parametrize(
        "make",
        [
            lambda pf: ring_allreduce(pf, size=2.5),
            lambda pf: all_to_all(pf, size=2.5),
            lambda pf: all_to_all(pf, size=True),
            lambda pf: incast(pf, size=True),
            lambda pf: halo_exchange(pf, iters=1.5),
        ],
        ids=["ring-float", "alltoall-float", "alltoall-bool", "incast-bool",
             "halo-iters-float"],
    )
    def test_generator_sizes_must_be_integers(self, pf, make):
        # The Python API refuses what the registry refuses in spec strings.
        with pytest.raises(ValueError, match=r"^(size|iters) must be an integer"):
            make(pf)

    def test_dep_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Workload("bad", [Message(0, 1, 4, (7,))])

    def test_non_terminal_router_rejected(self, pf):
        ft_like = Workload("w", [Message(0, 1, 4)])
        conc = np.zeros(pf.num_routers, dtype=np.int64)
        conc[0] = 1

        class FakeTopo:
            num_routers = pf.num_routers
            concentration = conc

        with pytest.raises(ValueError, match="terminal"):
            ft_like.validate_topology(FakeTopo())


# ----------------------------------------------------------------------
# Eligibility state machine
# ----------------------------------------------------------------------
class TestEligibility:
    def _state(self, pf, msgs, packet_size=4):
        wl = Workload("t", msgs)
        return WorkloadState(wl, packet_size, pf)

    def test_roots_ready_at_cycle_zero(self, pf):
        t = terminal_routers(pf)
        a, b, c = int(t[0]), int(t[1]), int(t[2])
        st = self._state(pf, [
            Message(a, b, 4),
            Message(b, c, 4, (0,)),
            Message(a, c, 4),
        ])
        assert st.pop_ready().tolist() == [0, 2]
        assert st.pop_ready().size == 0  # drained

    def test_completion_unblocks_dependents_next_commit(self, pf):
        t = terminal_routers(pf)
        a, b, c = int(t[0]), int(t[1]), int(t[2])
        st = self._state(pf, [
            Message(a, b, 8),          # 2 packets at ps=4
            Message(b, c, 4, (0,)),
            Message(c, a, 4, (0, 1)),
        ])
        st.pop_ready()
        # First packet of message 0 ejects: not complete yet.
        st.note_tails(np.array([0]), 8)
        st.commit(now=10)
        assert st.pop_ready().size == 0
        assert st.completed == 0
        # Second packet completes message 0 -> message 1 eligible.
        st.note_tails(np.array([0]), 8)
        st.commit(now=12)
        assert st.completed == 1
        assert st.complete_cycle[0] == 12
        assert st.pop_ready().tolist() == [1]
        assert st.eligible_cycle[1] == 12
        # Message 2 still waits on message 1.
        st.note_tails(np.array([1]), 4)
        st.commit(now=20)
        assert st.pop_ready().tolist() == [2]
        assert st.done is False
        st.note_tails(np.array([2]), 4)
        st.commit(now=25)
        assert st.done is True
        assert st.flit_hops == 8 + 8 + 4 + 4

    def test_same_cycle_multi_completion_commits_in_id_order(self, pf):
        t = terminal_routers(pf)
        a, b, c = int(t[0]), int(t[1]), int(t[2])
        st = self._state(pf, [
            Message(a, b, 4),
            Message(b, c, 4),
            Message(c, a, 4, (0, 1)),
        ])
        st.pop_ready()
        # Both prerequisites' tails eject in the same cycle, reported
        # out of order; the dependent becomes ready exactly once.
        st.note_tails(np.array([1, 0]), 8)
        st.commit(now=5)
        assert st.pop_ready().tolist() == [2]
        assert st.eligible_cycle[2] == 5

    def test_packet_rounding(self, pf):
        t = terminal_routers(pf)
        st = self._state(pf, [Message(int(t[0]), int(t[1]), 5)], packet_size=4)
        assert st.msg_pkts[0] == 2          # 5 flits -> 2 packets
        assert st.wire_flits == 8

    def test_round_robin_endpoints(self, pf):
        t = terminal_routers(pf)
        a, b = int(t[0]), int(t[1])
        st = self._state(pf, [
            Message(a, b, 4), Message(a, b, 4), Message(a, b, 4),
        ])
        # conc=2: scalar round robin wraps over the router's endpoints.
        assert [st.next_endpoint(a) for _ in range(3)] == [0, 1, 0]
        # Vectorized form continues the same counter.
        assert st.next_endpoints(np.array([a, a, b])).tolist() == [1, 0, 0]


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
class TestTrace:
    def test_round_trip(self, tmp_path, pf):
        t = terminal_routers(pf)
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join([
                '# comment lines are ignored',
                f'{{"id": "a", "src": {t[0]}, "dst": {t[1]}, "size": 6}}',
                f'{{"id": "b", "src": {t[1]}, "dst": {t[2]}, "size": 3, "deps": ["a"]}}',
                f'{{"id": 7, "src": {t[2]}, "dst": {t[0]}, "size": 1, "deps": ["a", "b"]}}',
            ])
        )
        wl = load_trace(str(path), pf)
        assert wl.num_messages == 3
        assert wl.size.tolist() == [6, 3, 1]
        assert wl.dep_counts.tolist() == [0, 1, 2]
        # Also constructible through the registry spec path.
        wl2 = WORKLOADS.create("trace", pf, path=str(path))
        assert wl2.num_messages == 3

    def test_unknown_dep_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1, "src": 0, "dst": 1, "size": 2, "deps": [9]}\n')
        with pytest.raises(ValueError, match="unknown id"):
            load_trace(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id": 1, "src": 0, "dst": 1, "size": 2}\n'
            '{"id": 1, "src": 1, "dst": 0, "size": 2}\n'
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_trace(str(path))


# ----------------------------------------------------------------------
# Spec/registry integration
# ----------------------------------------------------------------------
class TestSpecIntegration:
    def test_workload_examples_construct(self, pf):
        for name in WORKLOADS.names():
            if name == "trace":  # needs a file; covered in TestTrace
                continue
            wl = WORKLOADS.create(WORKLOADS.example(name), pf)
            assert wl.num_messages > 0, name

    def test_combo_requires_exactly_one_axis(self):
        from repro.experiments import Combo

        with pytest.raises(ValueError, match="exactly one"):
            Combo("polarfly:conc=2,q=5", "min")
        with pytest.raises(ValueError, match="exactly one"):
            Combo("polarfly:conc=2,q=5", "min", "uniform",
                  workload="alltoall")

    def test_workload_cells_keyed_by_workload(self):
        from repro.experiments import ExperimentSpec

        s1 = ExperimentSpec.workload_grid(
            ["polarfly:conc=2,q=5"], ["min"], ["alltoall:size=8"]
        )
        s2 = ExperimentSpec.workload_grid(
            ["polarfly:conc=2,q=5"], ["min"], ["alltoall:size=4"]
        )
        c1, c2 = s1.cells()[0], s2.cells()[0]
        assert c1["key"] != c2["key"]
        assert c1["seed"] != c2["seed"]
        assert c1["workload"] == "alltoall:size=8"

    def test_workload_cells_ignore_open_loop_window(self):
        # A workload runs to completion: the warmup/measure/drain
        # window must not appear in (or perturb) its cache key.
        from repro.experiments import ExperimentSpec

        s1 = ExperimentSpec.workload_grid(
            ["polarfly:conc=2,q=5"], ["min"], ["alltoall:size=8"]
        )
        s2 = s1.with_(warmup=50, measure=100, drain=10)
        c1, c2 = s1.cells()[0], s2.cells()[0]
        for window in ("warmup", "measure", "drain"):
            assert window not in c1
        assert c1["key"] == c2["key"]

    def test_simconfig_unchanged_for_open_loop(self):
        # Workload mode must not perturb the open-loop config surface.
        cfg = SimConfig()
        assert cfg.packet_size == 4 and cfg.num_vcs == 4
