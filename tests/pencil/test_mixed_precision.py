"""Mixed-precision transpose wire: float32 payloads, float64 results.

The contract (DESIGN.md section 6h): ``wire="mixed"`` down-casts
transpose payloads to float32/complex64 for the exchange only —
staging buffers are allocated at the wire dtype, the unpack widens back
into float64 accumulation — so results match the full-precision oracle
to single-precision tolerance (~1e-6 relative per cast) while moving
half the bytes.  The mode composes with CRC envelopes, fault injection
and elastic shrink because the narrowed views are ordinary payloads to
the communication layer.
"""

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.core.grid import ChannelGrid
from repro.instrument import PrecisionCounters
from repro.mpi.simmpi import FaultEvent, FaultPlan, run_spmd
from repro.pencil.decomp import block_range
from repro.pencil.parallel_fft import PencilTransforms
from repro.pencil.transpose import GlobalTranspose, TransposeMethod, exchange_op, transpose_class

from tests.pencil.test_transpose import move, staged

#: documented single-precision tolerance for a short mixed-wire trajectory
MIXED_RTOL = 1e-5


def _roundtrip_prog(method, dtype):
    """Mixed vs full wire on one transpose of ``method``."""

    def prog(comm):
        rng = np.random.default_rng(comm.rank)
        lo, hi = block_range(12, comm.size, comm.rank)
        a = rng.standard_normal((8, 5, hi - lo)).astype(dtype)
        if np.issubdtype(dtype, np.complexfloating):
            a = a + 1j * rng.standard_normal((8, 5, hi - lo))
        pc = PrecisionCounters()
        make = transpose_class(method)
        mixed = staged(make(comm, method=method, wire="mixed", precision=pc), a, 0)
        full = staged(make(comm, method=method), a, 0)
        out_m, out_f = move(mixed, a, 0, 2), move(full, a, 0, 2)
        assert out_m.dtype == out_f.dtype == dtype  # accumulation stays wide
        scale = max(float(np.abs(out_f).max()), 1e-30)
        rel = float(np.abs(out_m - out_f).max()) / scale
        assert rel < 1e-6, f"mixed wire off by {rel:.2e} relative"
        assert pc.exchanges > 0 and pc.casts == pc.exchanges
        assert pc.bytes_wire <= 0.55 * pc.bytes_full
        assert pc.wire_fraction() == pytest.approx(0.5)
        return True

    return prog


class TestMixedWire:
    @pytest.mark.parametrize("method", list(TransposeMethod))
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_matches_full_precision_oracle(self, method, dtype):
        assert all(run_spmd(4, _roundtrip_prog(method, dtype)))

    def test_narrow_dtypes_pass_through(self):
        """float32 input is already at wire width: no cast, no extra bytes."""

        def prog(comm):
            lo, hi = block_range(8, comm.size, comm.rank)
            a = np.arange(6.0 * 2 * (hi - lo), dtype=np.float32).reshape(6, 2, hi - lo)
            pc = PrecisionCounters()
            t = staged(GlobalTranspose(comm, wire="mixed", precision=pc), a, 0)
            out = move(t, a, 0, 2)
            assert out.dtype == np.float32
            assert pc.casts == 0 and pc.bytes_wire == pc.bytes_full
            return True

        assert all(run_spmd(2, prog))

    def test_rejects_unknown_wire_mode(self):
        def prog(comm):
            with pytest.raises(ValueError):
                GlobalTranspose(comm, wire="float16")
            comm.barrier()
            return True

        assert all(run_spmd(2, prog))

    def test_composes_with_crc_integrity(self):
        """CRC envelopes checksum the narrowed payloads — no conflict."""
        assert all(
            run_spmd(4, _roundtrip_prog(TransposeMethod.PIPELINED, np.float64), integrity=True)
        )

    def test_composes_with_fault_injection(self):
        """A delayed mixed-wire exchange still lands bit-correctly."""
        op = exchange_op(TransposeMethod.PIPELINED)
        plan = FaultPlan(
            [FaultEvent("delay", rank=r, op=op, call=0, delay=0.005) for r in range(4)]
        )
        assert all(
            run_spmd(4, _roundtrip_prog(TransposeMethod.PIPELINED, np.complex128), fault_plan=plan)
        )


class TestMixedFFTCycle:
    def test_fft_cycle_close_to_full_precision(self):
        nx, ny, nz = 32, 16, 32
        grid = ChannelGrid(nx, ny, nz)
        rng = np.random.default_rng(0)
        spec = rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(
            grid.spectral_shape
        )

        def cyc(wire):
            def prog(comm):
                cart = comm.cart_create((2, 2))
                tr = PencilTransforms(cart, nx, ny, nz, dealias=False, wire=wire)
                d = tr.decomp
                loc = np.ascontiguousarray(spec[d.x_slice, d.z_spec_slice, :])
                out = tr.fft_cycle(loc)
                return out, tr.precision_counters.snapshot()

            return run_spmd(4, prog)

        full, mixed = cyc("full"), cyc("mixed")
        for (of, _), (om, pc) in zip(full, mixed):
            assert om.dtype == of.dtype == np.complex128
            rel = np.max(np.abs(om - of)) / max(np.max(np.abs(of)), 1e-30)
            assert rel < MIXED_RTOL
            assert pc["bytes_wire"] <= 0.55 * pc["bytes_full"]

    def test_full_wire_stays_bit_identical(self):
        """The default mode must not pay (or gain) anything from this PR."""
        nx, ny, nz = 16, 8, 16
        grid = ChannelGrid(nx, ny, nz)
        rng = np.random.default_rng(3)
        spec = rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(
            grid.spectral_shape
        )

        def prog(comm):
            cart = comm.cart_create((2, 2))
            tr = PencilTransforms(cart, nx, ny, nz, dealias=False, wire="full")
            d = tr.decomp
            loc = np.ascontiguousarray(spec[d.x_slice, d.z_spec_slice, :])
            out = tr.fft_cycle(loc)
            pc = tr.precision_counters
            assert pc.casts == 0 and pc.bytes_wire == pc.bytes_full
            return out

        r1, r2 = run_spmd(4, prog), run_spmd(4, prog)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)


class TestMixedTrajectory:
    def test_distributed_dns_matches_serial_within_tolerance(self):
        """A short mixed-wire DNS trajectory vs the serial float64 oracle."""
        from repro.pencil.distributed import DistributedChannelDNS

        cfg = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)
        serial = ChannelDNS(cfg)
        serial.initialize()
        serial.run(4)

        def prog(comm):
            d = DistributedChannelDNS(comm, cfg, pa=2, pb=2, wire_precision="mixed")
            d.initialize()
            d.run(4)
            return d.gather_state()

        full = run_spmd(4, prog)[0]
        for name in ("v", "omega_y", "u00", "w00"):
            a, b = getattr(full, name), getattr(serial.state, name)
            scale = max(float(np.abs(b).max()), 1e-30)
            rel = float(np.abs(a - b).max()) / scale
            assert rel < MIXED_RTOL, f"{name} off by {rel:.2e} relative"
