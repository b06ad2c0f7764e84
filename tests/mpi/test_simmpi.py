"""SimMPI collective/point-to-point/topology semantics tests."""

import time

import numpy as np
import pytest

from repro.mpi.simmpi import Communicator, SimMPIError, run_spmd, waitall


class TestCollectives:
    def test_alltoall_permutation(self):
        def prog(comm):
            chunks = [np.array([comm.rank, d]) for d in range(comm.size)]
            got = comm.alltoall(chunks)
            for src in range(comm.size):
                assert got[src][0] == src and got[src][1] == comm.rank
            return True

        assert all(run_spmd(6, prog))

    def test_alltoall_variable_sizes(self):
        """alltoallv semantics: chunk shapes may differ per destination."""

        def prog(comm):
            chunks = [np.full(d + 1, comm.rank) for d in range(comm.size)]
            got = comm.alltoall(chunks)
            for src in range(comm.size):
                assert got[src].shape == (comm.rank + 1,)
                assert np.all(got[src] == src)
            return True

        assert all(run_spmd(4, prog))

    def test_alltoall_wrong_chunk_count(self):
        def prog(comm):
            with pytest.raises(ValueError):
                comm.alltoall([np.zeros(1)] * (comm.size + 1))
            comm.barrier()
            return True

        assert all(run_spmd(3, prog))

    def test_bcast(self):
        def prog(comm):
            return comm.bcast("payload" if comm.rank == 1 else None, root=1)

        assert run_spmd(4, prog) == ["payload"] * 4

    def test_allgather_ordering(self):
        def prog(comm):
            return comm.allgather(comm.rank * 2)

        for out in run_spmd(5, prog):
            assert out == [0, 2, 4, 6, 8]

    def test_allreduce_sum_and_custom_op(self):
        def prog(comm):
            return comm.allreduce(comm.rank), comm.allreduce(comm.rank, op=max)

        for s, m in run_spmd(5, prog):
            assert s == 10 and m == 4

    def test_reduce_root_only(self):
        def prog(comm):
            return comm.reduce(1, root=2)

        out = run_spmd(4, prog)
        assert out[2] == 4
        assert out[0] is None

    def test_repeated_collectives_no_crosstalk(self):
        """Board reuse across many rounds must never mix generations."""

        def prog(comm):
            for round_ in range(20):
                got = comm.alltoall([np.array([round_, comm.rank])] * comm.size)
                for g in got:
                    assert g[0] == round_
            return True

        assert all(run_spmd(4, prog))


class TestNonblocking:
    def test_ialltoall_matches_alltoall(self):
        def prog(comm):
            chunks = [np.array([comm.rank, d]) for d in range(comm.size)]
            req = comm.ialltoall(chunks)
            got = req.wait()
            ref = comm.alltoall(chunks)
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)
            req.wait_acks()
            return True

        assert all(run_spmd(5, prog))

    def test_ialltoallv_variable_sizes(self):
        def prog(comm):
            chunks = [np.full(d + 1, comm.rank) for d in range(comm.size)]
            got = comm.ialltoallv(chunks).wait()
            for src in range(comm.size):
                assert got[src].shape == (comm.rank + 1,)
                assert np.all(got[src] == src)
            return True

        assert all(run_spmd(4, prog))

    def test_ialltoall_out_views(self):
        """wait(out=...) assembles into caller buffers without allocating."""

        def prog(comm):
            chunks = [np.array([float(comm.rank * 10 + d)]) for d in range(comm.size)]
            out = [np.zeros(1) for _ in range(comm.size)]
            got = comm.ialltoall(chunks).wait(out=out)
            assert all(g is o for g, o in zip(got, out))
            for src in range(comm.size):
                assert out[src][0] == src * 10 + comm.rank
            return True

        assert all(run_spmd(3, prog))

    def test_overlap_with_compute_between_post_and_wait(self):
        """Chunks delivered during the compute window count as overlapped."""

        def prog(comm):
            chunks = [np.zeros(100) + comm.rank for _ in range(comm.size)]
            req = comm.ialltoall(chunks)
            # a real compute window: by the time we wait, peers posted too
            comm.barrier()
            req.wait()
            return req.overlapped_bytes, req.posted_bytes

        for overlapped, posted in run_spmd(4, prog):
            assert posted == 3 * 100 * 8
            assert overlapped == posted  # everything arrived before the wait

    def test_test_reports_completion(self):
        def prog(comm):
            req = comm.ialltoall([np.ones(4)] * comm.size)
            comm.barrier()  # all posts are in
            deadline = 200
            while not req.test() and deadline:
                deadline -= 1
            assert req.test()
            got = req.wait()
            assert len(got) == comm.size
            return True

        assert all(run_spmd(3, prog))

    def test_waitall_many_rounds_in_flight(self):
        """Sequence tags keep several outstanding ialltoalls separated."""

        def prog(comm):
            reqs = [
                comm.ialltoall([np.array([r, comm.rank])] * comm.size)
                for r in range(5)
            ]
            for r, got in enumerate(waitall(reqs)):
                for src in range(comm.size):
                    assert got[src][0] == r and got[src][1] == src
            return True

        assert all(run_spmd(4, prog))

    def test_isend_irecv_ring(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            rreq = comm.irecv(source=left)
            sreq = comm.isend(np.array([comm.rank]), dest=right)
            got = rreq.wait()
            sreq.wait()
            sreq.wait_acks()
            return int(got[0]) == left

        assert all(run_spmd(5, prog))

    def test_ack_credit_allows_buffer_reuse(self):
        """After wait_acks the posted staging buffer is provably free."""

        def prog(comm):
            buf = np.array([comm.rank, 0.0])
            for round_ in range(4):
                buf[1] = round_
                req = comm.ialltoall([buf] * comm.size)
                got = req.wait()
                for src in range(comm.size):
                    assert got[src][1] == round_
                req.wait_acks()  # every receiver consumed: safe to refill
            return True

        assert all(run_spmd(4, prog))

    def test_integrity_wraps_each_chunk(self):
        def prog(comm):
            got = comm.ialltoall([np.arange(3.0)] * comm.size).wait()
            for g in got:
                np.testing.assert_array_equal(g, np.arange(3.0))
            return True

        assert all(run_spmd(3, prog, integrity=True))

    def test_nonblocking_message_accounting(self):
        def prog(comm):
            comm.ialltoall([np.zeros(10)] * comm.size).wait()
            return comm.stats.messages, comm.stats.bytes

        msgs, byts = run_spmd(4, prog)[0]
        assert msgs == 4 * 3
        assert byts == 4 * 3 * 10 * 8

    def test_wrong_chunk_count_rejected(self):
        def prog(comm):
            with pytest.raises(ValueError):
                comm.ialltoall([np.zeros(1)] * (comm.size + 1))
            comm.barrier()
            return True

        assert all(run_spmd(3, prog))


class TestPointToPoint:
    def test_ring_exchange(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = comm.sendrecv(comm.rank, dest=right, source=left)
            return got == left

        assert all(run_spmd(5, prog))

    def test_tags_separate_messages(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
            elif comm.rank == 1:
                # receive in swapped order
                b = comm.recv(source=0, tag=2)
                a = comm.recv(source=0, tag=1)
                assert (a, b) == ("a", "b")
            comm.barrier()
            return True

        assert all(run_spmd(2, prog))


class TestErrorHandling:
    def test_exception_propagates_not_deadlocks(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(4, prog)

    def test_completed_barrier_survives_a_later_abort(self):
        """A rank the barrier already released keeps that barrier when the
        releasing peer fails before this rank wakes up: it passed."""
        for trial in range(20):
            passed = []

            def prog(comm):
                if comm.rank == 0:
                    time.sleep(0.002)  # arrive last: rank 0 releases rank 1
                    comm.barrier()
                    raise ValueError("rank 0 failed after the barrier")
                comm.barrier()
                passed.append(comm.rank)

            with pytest.raises(ValueError, match="after the barrier"):
                run_spmd(2, prog)
            assert passed == [1], f"trial {trial}: rank 1 lost its completed barrier"

    def test_recv_timeout_raises(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1, timeout=0.1)
            return True

        with pytest.raises(SimMPIError):
            run_spmd(2, prog)


class TestSplitAndCartesian:
    def test_split_groups_by_color(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            return sub.size, sub.rank, sorted(sub.world_ranks)

        res = run_spmd(6, prog)
        assert res[0] == (3, 0, [0, 2, 4])
        assert res[3] == (3, 1, [1, 3, 5])

    def test_split_key_reorders(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        assert run_spmd(4, prog) == [3, 2, 1, 0]

    def test_cart_coords_row_major(self):
        def prog(comm):
            cart = comm.cart_create((2, 3))
            return cart.coords

        assert run_spmd(6, prog) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_cart_create_bad_dims(self):
        def prog(comm):
            with pytest.raises(ValueError):
                comm.cart_create((2, 2))
            comm.barrier()
            return True

        assert all(run_spmd(6, prog))

    def test_cart_sub_comm_a_and_b(self):
        """CommA = same b coordinate; CommB = same a coordinate."""

        def prog(comm):
            cart = comm.cart_create((2, 4))
            comm_a = cart.cart_sub([True, False])
            comm_b = cart.cart_sub([False, True])
            a, b = cart.coords
            return (
                sorted(comm_a.world_ranks),
                sorted(comm_b.world_ranks),
                a,
                b,
            )

        res = run_spmd(8, prog)
        for rank, (wa, wb, a, b) in enumerate(res):
            assert wa == [b, 4 + b]
            assert wb == [4 * a + j for j in range(4)]

    def test_collectives_in_subcommunicators(self):
        def prog(comm):
            cart = comm.cart_create((2, 2))
            comm_b = cart.cart_sub([False, True])
            return comm_b.allreduce(comm.rank)

        assert run_spmd(4, prog) == [1, 1, 5, 5]


class TestInstrumentation:
    def test_alltoall_message_accounting(self):
        def prog(comm):
            comm.alltoall([np.zeros(10)] * comm.size)
            return comm.stats.messages, comm.stats.bytes

        res = run_spmd(4, prog)
        # stats are shared communicator-wide: every rank reports the total
        msgs, byts = res[0]
        assert msgs == 4 * 3  # off-diagonal chunks only
        assert byts == 4 * 3 * 10 * 8

    def test_accounting_is_exact_under_concurrent_records(self):
        """All rank threads record into one shared MessageStats; the
        totals are compared for equality elsewhere, so no update may be
        lost: 4 ranks x 500 alltoalls give the closed form, every time."""
        rounds = 500

        def prog(comm):
            chunks = [np.zeros(1)] * comm.size
            for _ in range(rounds):
                comm.alltoall(chunks)
            comm.barrier()
            return comm.stats.messages, comm.stats.bytes

        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches inside record()
        try:
            for _ in range(10):
                for msgs, byts in run_spmd(4, prog):
                    assert msgs == rounds * 4 * 3
                    assert byts == rounds * 4 * 3 * 8
        finally:
            sys.setswitchinterval(interval)

    def test_snapshot_is_consistent_under_concurrent_records(self):
        """A snapshot reads both counters under the lock record() holds,
        so it never sees one message's count without its bytes."""
        import sys
        import threading

        from repro.mpi.simmpi import MessageStats

        stats = MessageStats()
        payload = np.zeros(16)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                stats.record(payload)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches between the reads
        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(10_000):
                snap = stats.snapshot()
                assert snap["bytes"] == snap["messages"] * payload.nbytes, snap
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert stats.messages > 0

    def test_timeout_guard(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()  # others never arrive
            return True

        with pytest.raises(SimMPIError):
            run_spmd(2, prog, timeout=1.0)
