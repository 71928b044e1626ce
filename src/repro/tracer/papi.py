"""Virtual hardware counters (the PAPI substrate).

The acquisition process reads the number of floating-point operations of
each CPU burst from a hardware counter (``PAPI_FP_OPS``, accessed through
the perfctr-patched kernel in the paper's setup).  Here the counter is
virtual: the simulated-MPI runtime adds the declared flop volume of every
burst to the rank's counter.

Real hardware counters are not exact — §6.2 attributes the <1 % variation
of simulated times across acquisition scenarios to "hardware counter
accuracy issues".  ``jitter`` reproduces that: each increment is scaled by
``1 + jitter * u`` with ``u`` uniform in [-1, 1] from a per-rank seeded
stream, so acquisition is deterministic per seed yet scenario-dependent.
The stream is drawn in blocks (``Generator.uniform(-1, 1, n)`` yields
exactly the next ``n`` scalar draws), so a burst costs no numpy call.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

__all__ = ["VirtualCounterBank"]

_DRAW_BLOCK = 256


class VirtualCounterBank:
    """One monotonically increasing FP_OPS counter per rank."""

    def __init__(self, n_ranks: int, jitter: float = 0.0,
                 seed: Optional[int] = None) -> None:
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        if not 0.0 <= jitter < 0.05:
            raise ValueError(
                f"jitter must be a small fraction in [0, 0.05), got {jitter}"
            )
        self.n_ranks = n_ranks
        self.jitter = jitter
        self._values = [0.0] * n_ranks
        self._true_values = [0.0] * n_ranks
        self._rngs = [
            np.random.default_rng(None if seed is None else seed + 7919 * r)
            for r in range(n_ranks)
        ]
        # Per rank, the block's draws not yet used, last one first.
        self._draws = [array("d") for _ in range(n_ranks)]

    def add(self, rank: int, flops: float) -> None:
        """Count ``flops`` operations on ``rank`` (with measurement noise)."""
        if flops < 0:
            raise ValueError(f"flops must be >= 0, got {flops}")
        self._true_values[rank] += flops
        if self.jitter:
            draws = self._draws[rank]
            if not draws:
                block = self._rngs[rank].uniform(-1.0, 1.0, _DRAW_BLOCK)
                draws.frombytes(block[::-1].tobytes())
            noise = 1.0 + self.jitter * draws.pop()
            self._values[rank] += flops * noise
        else:
            self._values[rank] += flops

    def read(self, rank: int) -> int:
        """Current counter value, as the integer PAPI would report."""
        return int(round(self._values[rank]))

    def read_true(self, rank: int) -> float:
        """Noise-free total (for tests and error analysis)."""
        return self._true_values[rank]
