"""Pencil decomposition, global transposes, and parallel FFT kernels.

This package is the distributed-memory heart of the paper (§2.2–2.3 and
§4.3–4.4), running on the simulated MPI substrate:

* :mod:`repro.pencil.decomp` — pencil descriptors and block arithmetic
  for the ``PA x PB`` process grid (paper Fig. 2),
* :mod:`repro.pencil.reorder` — the on-node transpose
  ``A(i,j,k) -> A(j,k,i)`` (§4.2, Table 4),
* :mod:`repro.pencil.transpose` — global transposes over the CommA/CommB
  sub-communicators, by ``alltoall``, pairwise ``sendrecv`` or pipelined
  exchanges (§4.3),
* :mod:`repro.pencil.parallel_fft` — the customized parallel FFT kernel
  (Nyquist-free, 1x work buffer, dealiasing pads) of §4.4,
* :mod:`repro.pencil.p3dfft` — a baseline re-implementing P3DFFT's
  algorithmic choices (Nyquist kept, 3x buffers, no threading),
* :mod:`repro.pencil.distributed` — the distributed channel DNS driver,
  bit-for-bit reproducing the serial trajectories.
"""

from repro.pencil.decomp import PencilDecomp, block_range, block_slices
from repro.pencil.parallel_fft import PencilTransforms
from repro.pencil.p3dfft import P3DFFTBaseline
from repro.pencil.transpose import GlobalTranspose, TransposeMethod

__all__ = [
    "GlobalTranspose",
    "P3DFFTBaseline",
    "PencilDecomp",
    "PencilTransforms",
    "TransposeMethod",
    "block_range",
    "block_slices",
]
