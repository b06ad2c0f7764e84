"""Parallel FFT kernel tests: custom (Nyquist-free) and P3DFFT baseline."""

import numpy as np
import pytest

from repro.core.grid import ChannelGrid
from repro.core.transforms import to_quadrature_grid
from repro.mpi.simmpi import FaultEvent, FaultPlan, ShrinkRequired, run_spmd
from repro.pencil.decomp import choose_grid
from repro.pencil.p3dfft import P3DFFTBaseline
from repro.pencil.parallel_fft import PencilTransforms
from repro.pencil.transpose import TransposeMethod, exchange_op

NX, NY, NZ = 16, 12, 16


def make_spectral(grid, seed=0):
    rng = np.random.default_rng(seed)
    spec = rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(
        grid.spectral_shape
    )
    spec[0, 0] = rng.standard_normal(grid.ny)
    half = grid.nz // 2
    for j in range(1, half):
        spec[0, grid.mz - j] = np.conj(spec[0, j])
    return spec


class TestCustomKernel:
    @pytest.mark.parametrize("pa,pb", [(1, 1), (2, 2), (4, 1), (1, 4), (2, 3)])
    def test_matches_serial_reference(self, pa, pb):
        grid = ChannelGrid(NX, NY, NZ)
        spec = make_spectral(grid)
        phys_ref = to_quadrature_grid(spec, grid)

        def prog(comm):
            cart = comm.cart_create((pa, pb))
            tr = PencilTransforms(cart, NX, NY, NZ, dealias=True)
            d = tr.decomp
            local = np.ascontiguousarray(spec[d.x_slice, d.z_spec_slice, :])
            phys = tr.to_physical(local)
            ref = phys_ref[:, d.zq_slice, d.y_slice]
            assert np.abs(phys - ref).max() < 1e-12
            back = tr.from_physical(phys)
            assert np.abs(back - local).max() < 1e-12
            return True

        assert all(run_spmd(pa * pb, prog))

    def test_fft_cycle_identity_without_dealiasing(self):
        grid = ChannelGrid(NX, NY, NZ)
        spec = make_spectral(grid, seed=3)

        def prog(comm):
            cart = comm.cart_create((2, 2))
            tr = PencilTransforms(cart, NX, NY, NZ, dealias=False)
            d = tr.decomp
            local = np.ascontiguousarray(spec[d.x_slice, d.z_spec_slice, :])
            out = tr.fft_cycle(local)
            assert np.abs(out - local).max() < 1e-12
            return True

        assert all(run_spmd(4, prog))

    def test_shape_validation(self):
        def prog(comm):
            cart = comm.cart_create((2, 2))
            tr = PencilTransforms(cart, NX, NY, NZ)
            with pytest.raises(ValueError):
                tr.to_physical(np.zeros((1, 1, 1), complex))
            comm.barrier()
            return True

        assert all(run_spmd(4, prog))

    def test_work_buffer_is_order_input(self):
        def prog(comm):
            cart = comm.cart_create((2, 2))
            tr = PencilTransforms(cart, NX, NY, NZ, dealias=False)
            return tr.work_buffer_elements() / tr.input_elements()

        ratios = run_spmd(4, prog)
        assert all(r <= 1.6 for r in ratios)  # ~1x (padding-free)

    @pytest.mark.parametrize("method", list(TransposeMethod), ids=lambda m: m.name)
    def test_timers_populated(self, method):
        """Every method books its FFT stages under ``fft`` and its
        exchanges under ``transpose``: one of each per stage, both ways."""

        def prog(comm):
            cart = comm.cart_create((2, 2))
            tr = PencilTransforms(cart, NX, NY, NZ, method=method)
            d = tr.decomp
            tr.from_physical(tr.to_physical(np.zeros(d.y_pencil_shape, complex)))
            return dict(tr.timers.elapsed), dict(tr.timers.calls)

        for elapsed, calls in run_spmd(4, prog):
            assert elapsed["transpose"] > 0.0
            assert elapsed["fft"] > 0.0
            assert calls["fft"] == calls["transpose"] == 4


def _pipelined_vs_sync(comm, pa, pb, seed=9):
    """Build the ``ALLTOALL`` kernel and the ``PIPELINED`` one on one
    cartesian grid and compare bitwise."""
    grid = ChannelGrid(NX, NY, NZ)
    spec = make_spectral(grid, seed=seed)
    cart = comm.cart_create((pa, pb))
    sync = PencilTransforms(cart, NX, NY, NZ, method=TransposeMethod.ALLTOALL)
    d = sync.decomp
    local = np.ascontiguousarray(spec[d.x_slice, d.z_spec_slice, :])
    phys_s = sync.to_physical(local)
    back_s = sync.from_physical(phys_s)
    pipe = PencilTransforms(cart, NX, NY, NZ, method=TransposeMethod.PIPELINED)
    phys_p = pipe.to_physical(local)
    np.testing.assert_array_equal(phys_p, phys_s)
    back_p = pipe.from_physical(phys_p)
    np.testing.assert_array_equal(back_p, back_s)
    return True


class TestPipelinedKernel:
    """The ``PIPELINED`` transposes must be bit-for-bit."""

    @pytest.mark.parametrize("pa,pb", [(1, 4), (4, 1), (2, 2), (2, 3)])
    def test_bitwise_identical_to_synchronous(self, pa, pb):
        assert all(run_spmd(pa * pb, lambda comm: _pipelined_vs_sync(comm, pa, pb)))

    def test_bitwise_identical_on_shrunk_grid(self):
        """After a real mid-exchange ShrinkRequired, the survivor-count
        grid chosen by the elastic planner still runs pipelined bitwise.
        The kill lands at rank 3's third exchange call, the first
        transpose of the second transform."""
        op = exchange_op(TransposeMethod.PIPELINED)
        plan = FaultPlan([FaultEvent(action="kill", rank=3, op=op, call=2)])

        def doomed(comm):
            cart = comm.cart_create((2, 2))
            tr = PencilTransforms(cart, NX, NY, NZ, method=TransposeMethod.PIPELINED)
            local = np.zeros(tr.decomp.y_pencil_shape, complex)
            for _ in range(6):
                tr.to_physical(local)
            return True

        with pytest.raises(ShrinkRequired) as info:
            run_spmd(4, doomed, fault_plan=plan, elastic=True, timeout=60.0)
        survivors = info.value.survivors
        assert len(survivors) == 3
        pa, pb = choose_grid(len(survivors), NX // 2, NZ - 1, NY)
        assert all(
            run_spmd(
                len(survivors),
                lambda comm: _pipelined_vs_sync(comm, pa, pb, seed=13),
            )
        )

    def test_fft_cycle_identity_pipelined(self):
        grid = ChannelGrid(NX, NY, NZ)
        spec = make_spectral(grid, seed=3)

        def prog(comm):
            cart = comm.cart_create((2, 2))
            tr = PencilTransforms(
                cart, NX, NY, NZ, dealias=False, method=TransposeMethod.PIPELINED
            )
            d = tr.decomp
            local = np.ascontiguousarray(spec[d.x_slice, d.z_spec_slice, :])
            out = tr.fft_cycle(local)
            assert np.abs(out - local).max() < 1e-12
            return True

        assert all(run_spmd(4, prog))

    def test_pipelined_cycles_leak_no_queues(self):
        """The contexts hold the same number of message queues after 5
        cycles as after 200: an exchange leaves no channel behind."""
        grid = ChannelGrid(NX, NY, NZ)
        spec = make_spectral(grid, seed=3)

        def prog(comm):
            cart = comm.cart_create((2, 2))
            tr = PencilTransforms(
                cart, NX, NY, NZ, dealias=False, method=TransposeMethod.PIPELINED
            )
            d = tr.decomp
            local = np.ascontiguousarray(spec[d.x_slice, d.z_spec_slice, :])
            contexts = [c._ctx for c in (comm, cart, tr.comm_a, tr.comm_b)]
            counts = []
            for ncycles in (5, 195):
                for _ in range(ncycles):
                    tr.fft_cycle(local)
                comm.barrier()  # every rank drained its payloads
                counts.append([len(ctx.queues) for ctx in contexts])
                comm.barrier()
            return counts

        for after_5, after_200 in run_spmd(4, prog):
            assert after_5 == after_200

    def test_steady_state_execute_makes_only_its_exchanges(self):
        """A warm pipelined transform makes no collective besides its
        four ``alltoall`` exchanges per cycle: the receive extents need
        no per-call ``allgather``."""
        ops = (None, "alltoall")  # None watches every operation
        plan = FaultPlan(
            [FaultEvent("delay", rank=r, op=op, call=2**62) for r in range(4) for op in ops]
        )
        cycles = 3

        def prog(comm):
            cart = comm.cart_create((2, 2))
            tr = PencilTransforms(cart, NX, NY, NZ, method=TransposeMethod.PIPELINED)
            local = np.zeros(tr.decomp.y_pencil_shape, complex)
            tr.fft_cycle(local)
            mine = range(len(ops) * comm.rank, len(ops) * (comm.rank + 1))
            before = [plan.seen(i) for i in mine]
            for _ in range(cycles):
                local = tr.fft_cycle(local)
            after = [plan.seen(i) for i in mine]
            comm.barrier()
            return [b - a for a, b in zip(before, after)]

        assert run_spmd(4, prog, fault_plan=plan) == [[4 * cycles, 4 * cycles]] * 4


class TestP3DFFTBaseline:
    def test_cycle_identity_with_nyquist_kept(self):
        grid = ChannelGrid(NX, NY, NZ)
        spec = make_spectral(grid, seed=5)
        half = NZ // 2
        full = np.zeros((NX // 2 + 1, NZ, NY), complex)
        full[: grid.mx, :half] = spec[:, :half]
        full[: grid.mx, half + 1 :] = spec[:, half:]

        def prog(comm):
            cart = comm.cart_create((2, 2))
            p3 = P3DFFTBaseline(cart, NX, NY, NZ)
            d = p3.decomp
            local = np.ascontiguousarray(full[d.x_slice, d.z_spec_slice, :])
            out = p3.fft_cycle(local)
            assert np.abs(out - local).max() < 1e-12
            return True

        assert all(run_spmd(4, prog))

    def test_buffers_are_3x(self):
        def prog(comm):
            cart = comm.cart_create((2, 2))
            p3 = P3DFFTBaseline(cart, NX, NY, NZ)
            return p3.work_buffer_elements() / p3.input_elements()

        assert all(r == 3.0 for r in run_spmd(4, prog))

    def test_transposes_carry_more_data_than_custom(self):
        """The Nyquist mode inflates P3DFFT's communication volume."""

        def prog(comm):
            cart = comm.cart_create((2, 2))
            custom = PencilTransforms(cart, NX, NY, NZ, dealias=False)
            p3 = P3DFFTBaseline(cart, NX, NY, NZ)
            c_in = comm.allreduce(custom.input_elements())
            p_in = comm.allreduce(p3.input_elements())
            return c_in, p_in

        res = run_spmd(4, prog)
        c_in, p_in = res[0]
        assert p_in > c_in
