"""Numeric hot kernel: all-pairs shortest paths over a dense length matrix.

``layout.graph_distances`` and ``network.hop_distance_matrix`` both call it
as ``_kernels.floyd_warshall``. The relaxation order is fixed, so results are
bitwise reproducible and the maps built on them stay byte-stable.
"""

from __future__ import annotations

import numpy as np


def floyd_warshall(dist: np.ndarray) -> np.ndarray:
    """In-place all-pairs shortest paths over a dense length matrix.

    Missing edges are ``np.inf``; the diagonal must be 0.
    """
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist
