"""SimMPI: an in-process, thread-backed MPI subset.

The execution environment has no MPI implementation, so the distributed
algorithms of the paper run on this simulated substrate instead: ranks
are Python threads, communicators carry barriers and exchange boards,
and the collective *semantics* (``alltoall``, ``sendrecv``, cartesian
topologies with ``cart_create``/``cart_sub``) match what the paper's code
gets from MPI.  Data movement is real (NumPy buffers change hands); only
the wire is simulated.  Message counts and volumes are instrumented so
that tests can verify claims like "using only MPI results in sixteen
times more MPI tasks that issue 256 times more messages that are 256
times smaller" (§5.3).

Performance *at scale* is not measured here — that is the job of
:mod:`repro.perfmodel`, which models the four benchmark machines.
"""

from repro.mpi.simmpi import (
    Communicator,
    CartesianCommunicator,
    ShrinkRequired,
    SimMPIError,
    run_spmd,
)
from repro.mpi.topology import CommPattern, comm_grid

__all__ = [
    "CartesianCommunicator",
    "CommPattern",
    "Communicator",
    "ShrinkRequired",
    "SimMPIError",
    "comm_grid",
    "run_spmd",
]
