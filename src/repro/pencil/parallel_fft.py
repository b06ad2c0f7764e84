"""The customized parallel FFT kernel on a process grid (paper §4.4).

:class:`PencilTransforms` is the one transform of every layout
(:class:`~repro.fft.transform.PencilFFT`) on a ``PA x PB`` cartesian
communicator: it builds the CommA/CommB sub-communicators and the four
global transposes — y->z and z->y over CommB, z->x and x->z over
CommA — and the shared stages pack, exchange and unpack around them,
reordering inside the transpose as §4.2 does.  A serial run makes the
same numpy calls without the exchanges, so serial and distributed
trajectories agree bit for bit.  Construction is collective over the
cartesian communicator.
"""

from __future__ import annotations

import numpy as np

from repro.fft.plans import Planner
from repro.fft.transform import PencilFFT
from repro.instrument import PrecisionCounters, SectionTimers
from repro.mpi.simmpi import CartesianCommunicator
from repro.pencil.transpose import TransposeMethod, exchange_op, transpose_class


class PencilTransforms(PencilFFT):
    """Distributed spectral <-> physical transforms on a PA x PB grid.

    Parameters
    ----------
    cart:
        Cartesian communicator with ``dims = (pa, pb)``.
    nx, ny, nz:
        Global physical grid extents (x and z even).
    dealias:
        Pad to the 3/2 quadrature grid (production DNS) or transform on
        the bare grid (the Table 6 benchmark configuration, matching
        P3DFFT's feature set).
    method:
        Transpose method of both exchanges; None means ``ALLTOALL``.
    timers:
        Optional :class:`SectionTimers` receiving transpose/fft sections.
    planner:
        :class:`~repro.fft.plans.Planner` supplying the 1-D FFT plans
        (its ``backend``/``workers`` are the plans'); defaults to the
        process-wide shared cache.
    wire:
        ``"full"`` (default) or ``"mixed"`` — mixed precision stages
        float64/complex128 transpose payloads as float32/complex64 on
        the wire and widens them back on unpack (see
        :mod:`repro.pencil.transpose`); byte savings are accounted in
        :attr:`precision_counters`.
    """

    # to_physical / from_physical are defined in this class body, not
    # inherited: the end-to-end benchmark's span table wraps them here

    def __init__(
        self,
        cart: CartesianCommunicator,
        nx: int,
        ny: int,
        nz: int,
        dealias: bool = True,
        method: TransposeMethod | None = None,
        timers: SectionTimers | None = None,
        planner: Planner | None = None,
        wire: str = "full",
    ) -> None:
        if len(cart.dims) != 2:
            raise ValueError("need a 2-D cartesian communicator (pa, pb)")
        self.cart = cart
        # CommA: ranks sharing the B coordinate (dim 0 varies).
        self.comm_a = cart.cart_sub([True, False])
        # CommB: ranks sharing the A coordinate (dim 1 varies).
        self.comm_b = cart.cart_sub([False, True])

        #: mixed-precision wire accounting, shared by the four transposes
        self.precision_counters = PrecisionCounters()
        self.wire = wire
        make = transpose_class(method)
        kw = dict(method=method, wire=wire, precision=self.precision_counters)
        transposes = (
            make(self.comm_b, **kw),  # y -> z
            make(self.comm_a, **kw),  # z -> x
            make(self.comm_a, **kw),  # x -> z
            make(self.comm_b, **kw),  # z -> y
        )
        pa, pb = cart.dims
        super().__init__(
            nx, ny, nz, pa=pa, pb=pb, rank=cart.rank, dealias=dealias,
            transposes=transposes, timers=timers, planner=planner,
        )

    def transport(self) -> dict:
        """How the four transposes move data — ``method``, ``wire`` and
        ``exchange_op``, the SimMPI operation their exchanges call — as
        the run manifest records it."""
        method = self.t_yz.method
        return {"method": method.name, "wire": self.wire, "exchange_op": exchange_op(method)}

    def counter_groups(self) -> dict:
        """Step-record counter groups: the stages' ``transforms`` and the
        transposes' ``precision`` accounting."""
        return {**super().counter_groups(), "precision": self.precision_counters.snapshot}

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        """Steps (a)-(f): y-pencil spectral block -> x-pencil physical block."""
        return self._to_physical(spec)

    def from_physical(self, phys: np.ndarray) -> np.ndarray:
        """Reverse of :meth:`to_physical` (the Galerkin projection of step h)."""
        return self._from_physical(phys)

    def fft_cycle(self, spec: np.ndarray) -> np.ndarray:
        """One parallel-FFT benchmark cycle: 4 transposes + 4 FFT stages.

        Matches the paper's Table 6 protocol: the data is transformed in
        two directions only (no y transform) and comes back spectral.
        """
        return self.from_physical(self.to_physical(spec))
