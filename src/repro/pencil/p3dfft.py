"""P3DFFT-like baseline parallel FFT (paper §4.4's comparison target).

Re-implements the algorithmic choices of P3DFFT 2.5.1 that the paper
identifies as the performance differences with the customized kernel:

1. **Keeps the Nyquist mode**: a real line of ``N`` points is stored as
   ``N/2 + 1`` complex values and the z spectrum keeps all ``N`` slots —
   both travel through every transpose, inflating communication volume by
   ``(N/2+1)/(N/2)`` in x and ``N/(N-1)`` in z.
2. **3x work buffers**: staging buffers three times the input size are
   allocated up front (P3DFFT's documented buffer discipline).  The
   allocation is real so memory-footprint comparisons are honest.
3. **No shared-memory parallelism** and **no 3/2 dealiasing support**:
   only the bare-grid transform is offered (the Table 6 benchmark is run
   exactly this way: "the padding and truncating of data for 3/2
   dealiasing is not performed, as this is not supported in P3DFFT").
4. **Fixed transpose**: the exchange is always the blocking
   ``alltoall``, matching P3DFFT 2.5.1's synchronous exchange.  The
   custom kernel's exchanges block too (neither kernel overlaps
   communication with compute), but take a ``method``.
"""

from __future__ import annotations

import numpy as np

from repro.instrument import SectionTimers
from repro.mpi.simmpi import CartesianCommunicator
from repro.pencil.parallel_fft import PencilTransforms
from repro.pencil.transpose import TransposeMethod


class P3DFFTBaseline(PencilTransforms):
    """Baseline kernel: Nyquist kept, 3x buffers, fixed transpose method."""

    drop_nyquist = False

    def __init__(
        self,
        cart: CartesianCommunicator,
        nx: int,
        ny: int,
        nz: int,
        timers: SectionTimers | None = None,
    ) -> None:
        super().__init__(
            cart,
            nx,
            ny,
            nz,
            dealias=False,
            method=TransposeMethod.ALLTOALL,
            timers=timers,
        )
        # P3DFFT's staging buffers: three times the input array, allocated
        # for real so the memory comparison with the custom kernel holds.
        self._work = np.empty(3 * self.input_elements(), dtype=complex)

    def work_buffer_elements(self) -> int:
        return self._work.size
