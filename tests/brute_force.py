"""Brute-force reference oracles for the tests."""

import math

import numpy as np

from nearstat.errors import DegenerateInputError
from nearstat.stationarity import _affine_min_norm


def min_norm_brute_oracle(points) -> float:
    """Exact hull minimum norm by subset enumeration."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = P.shape
    if m > 6 or d > 5:
        raise DegenerateInputError("brute oracle is limited to <= 6 points in dim <= 5")
    best = math.inf
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        a = _affine_min_norm(P[idx])
        if np.all(a >= -1e-12):
            best = min(best, float(np.linalg.norm(a @ P[idx])))
    return best
