"""Tests for the simulated-time backend and machine cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.parallel import MachineSpec, TimedComm, WorkCounters, run_spmd
from repro.parallel.simtime import payload_nbytes


class TestMachineSpec:
    def test_sp2_profile(self):
        m = MachineSpec.ibm_sp2()
        assert m.comm_latency == pytest.approx(29.3e-6)
        assert m.comm_bandwidth == pytest.approx(102e6)

    def test_pentium_is_faster_per_op(self):
        sp2, pii = MachineSpec.ibm_sp2(), MachineSpec.pentium_ii_400()
        assert pii.record_cell_op < sp2.record_cell_op

    def test_cost_helpers_linear(self):
        m = MachineSpec.ibm_sp2()
        assert m.cell_seconds(10) == pytest.approx(10 * m.record_cell_op)
        assert m.pair_seconds(10) == pytest.approx(10 * m.unit_pair_op)
        assert m.io_seconds(1000, chunks=2) == pytest.approx(
            2 * m.io_latency + 1000 / m.io_bandwidth)
        assert m.message_seconds(0) == pytest.approx(m.comm_latency)

    def test_invalid_constants_rejected(self):
        with pytest.raises(ParameterError):
            MachineSpec(comm_latency=0)
        with pytest.raises(ParameterError):
            MachineSpec(io_bandwidth=-1)


class TestWorkCounters:
    def test_merge_sums_fields(self):
        a = WorkCounters(record_cell_ops=1, unit_pair_ops=2, io_bytes=3,
                         io_chunks=4, messages=5, message_bytes=6)
        b = WorkCounters(record_cell_ops=10, unit_pair_ops=20, io_bytes=30,
                         io_chunks=40, messages=50, message_bytes=60)
        m = a.merge(b)
        assert (m.record_cell_ops, m.unit_pair_ops, m.io_bytes,
                m.io_chunks, m.messages, m.message_bytes) == (11, 22, 33, 44, 55, 66)

    def test_seconds_on_composes_cost_categories(self):
        m = MachineSpec.ibm_sp2()
        w = WorkCounters(record_cell_ops=100, unit_pair_ops=10,
                         io_bytes=1e6, io_chunks=1, messages=2,
                         message_bytes=2048)
        expected = (m.cell_seconds(100) + m.pair_seconds(10)
                    + m.io_seconds(1e6, 1) + 2 * m.comm_latency
                    + 2048 / m.comm_bandwidth)
        assert w.seconds_on(m) == pytest.approx(expected)

    def test_zero_work_costs_nothing(self):
        assert WorkCounters().seconds_on(MachineSpec.ibm_sp2()) == 0.0


class TestPayloadSize:
    def test_numpy_exact_plus_frame(self):
        a = np.zeros(100, dtype=np.float64)
        assert payload_nbytes(a) == a.nbytes + 64

    def test_bytes_and_str(self):
        assert payload_nbytes(b"abcd") == 4 + 16
        assert payload_nbytes("abcd") == 4 + 16

    def test_containers_recursive(self):
        inner = payload_nbytes(b"xy")
        assert payload_nbytes([b"xy", b"xy"]) == 16 + 2 * inner

    def test_none_and_scalars_small(self):
        assert payload_nbytes(None) == 8
        assert payload_nbytes(3) == 16
        assert payload_nbytes(3.5) == 16


class TestTimedComm:
    def test_charges_advance_clock(self):
        m = MachineSpec.ibm_sp2()

        def prog(comm):
            comm.charge_cells(1000)
            comm.charge_pairs(10)
            comm.charge_io(1_000_000, chunks=2)
            return comm.time()

        [r] = run_spmd(prog, 1, backend="sim", machine=m)
        expected = (m.cell_seconds(1000) + m.pair_seconds(10)
                    + m.io_seconds(1_000_000, 2))
        assert r.value == pytest.approx(expected)
        assert r.time == pytest.approx(expected)
        assert r.counters.record_cell_ops == 1000
        assert r.counters.io_chunks == 2

    def test_collective_synchronises_clocks(self):
        """After an allreduce, the slow rank's time dominates everyone."""
        m = MachineSpec.ibm_sp2()

        def prog(comm):
            comm.charge_cells(1_000_000 if comm.rank == 1 else 10)
            comm.allreduce(np.zeros(4))
            return comm.time()

        results = run_spmd(prog, 3, backend="sim", machine=m)
        slow = m.cell_seconds(1_000_000)
        for r in results:
            assert r.value >= slow

    def test_messages_cost_latency_plus_bandwidth(self):
        m = MachineSpec(comm_latency=1.0, comm_bandwidth=100.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.uint8), 1)  # 164 bytes
                return comm.time()
            comm.recv(0)
            return comm.time()

        r0, r1 = run_spmd(prog, 2, backend="sim", machine=m)
        send_cost = 1.0 + 164 / 100.0
        assert r0.value == pytest.approx(send_cost)
        # receiver synchronises to the arrival stamp
        assert r1.value == pytest.approx(send_cost)

    def test_receiver_never_goes_back_in_time(self):
        m = MachineSpec(comm_latency=1e-6, comm_bandwidth=1e9)

        def prog(comm):
            if comm.rank == 0:
                comm.send("hello", 1)
            else:
                comm.charge_cells(10_000_000)  # receiver is already late
                before = comm.time()
                comm.recv(0)
                assert comm.time() == before
            return comm.time()

        run_spmd(prog, 2, backend="sim", machine=m)

    def test_untimed_backend_reports_zero_time(self):
        [r] = run_spmd(lambda c: c.time(), 1, backend="serial")
        assert r.value == 0.0 and r.time == 0.0

    def test_default_machine_is_sp2(self):
        def prog(comm):
            return comm.machine.name

        [r] = run_spmd(prog, 1, backend="sim")
        assert r.value == "ibm-sp2"


class TestInjectedDelayAccounting:
    """Audit of MessageFault delays on the simulated-time backend: an
    injected delay is charged to the *sender's virtual clock*, never
    slept for real, and reaches other ranks only through the arrival
    stamps of the delayed rank's subsequent sends."""

    def test_delay_charges_virtual_time_not_wall_time(self):
        import time as _time

        from repro.parallel import FaultPlan, MessageFault

        m = MachineSpec(comm_latency=1e-6, comm_bandwidth=1e9)
        plan = FaultPlan(message_faults=(
            MessageFault(rank=0, action="delay", nth=0, delay=50.0),))

        def prog(comm):
            if comm.rank == 0:
                comm.send("hello", 1)
            elif comm.rank == 1:
                comm.recv(0)
            else:
                comm.charge_cells(10)  # bystander: no contact with rank 0
            return comm.time()

        start = _time.perf_counter()
        r0, r1, r2 = run_spmd(prog, 3, backend="sim", machine=m,
                              faults=plan)
        wall = _time.perf_counter() - start
        # the sender pays the 50 virtual seconds...
        assert r0.value >= 50.0
        # ...the receiver inherits them through the arrival stamp...
        assert r1.value >= 50.0
        # ...the bystander never sees them...
        assert r2.value < 1.0
        # ...and nobody actually slept
        assert wall < 5.0

    def test_delay_sleeps_for_real_on_wall_backends(self):
        import time as _time

        from repro.parallel import FaultPlan, MessageFault

        plan = FaultPlan(message_faults=(
            MessageFault(rank=0, action="delay", nth=0, delay=0.2),))

        def prog(comm):
            if comm.rank == 0:
                comm.send("hello", 1)
            else:
                comm.recv(0)
            return comm.rank

        start = _time.perf_counter()
        run_spmd(prog, 2, backend="thread", faults=plan)
        assert _time.perf_counter() - start >= 0.2

    def test_collective_delay_stays_on_affected_subtree(self):
        """Under an allreduce only ranks downstream of the delayed
        contribution inherit the virtual delay; with flat collectives
        the root gathers everyone, so the whole world synchronises —
        the sim must still not wall-sleep in either pattern."""
        import time as _time

        from repro.parallel import FaultPlan, MessageFault

        m = MachineSpec(comm_latency=1e-6, comm_bandwidth=1e9)
        plan = FaultPlan(message_faults=(
            MessageFault(rank=1, action="delay", nth=0, delay=30.0),))

        def prog(comm):
            comm.allreduce(np.ones(4))
            return comm.time()

        start = _time.perf_counter()
        results = run_spmd(prog, 3, backend="sim", machine=m,
                           faults=plan, collectives="flat")
        wall = _time.perf_counter() - start
        # flat allreduce: rank 1's delayed contribution stalls the
        # root's gather, and the broadcast spreads it everywhere
        for r in results:
            assert r.value >= 30.0
        assert wall < 5.0
