"""The arrays one parallel phase exposes to its morsels.

Worker threads share the pipeline's address space, so sharing an array is
handing over the array itself: inputs — file-backed memmap morsels
included — are read by address, and outputs are plain arrays the morsels
fill in disjoint slices.  :class:`SharedArena` is the one place a phase
does that, which keeps the bytes a phase shares measurable.
"""

from __future__ import annotations

import numpy as np


class SharedArena:
    """Inputs and outputs of one parallel phase, shared without copies."""

    def share(self, array: np.ndarray) -> np.ndarray:
        """Expose an input array to the morsels (no copy)."""
        return array
