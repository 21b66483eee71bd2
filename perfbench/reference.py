"""A fixed computation that tells how fast the machine runs right now.

On a shared machine the same operation runs up to 50% slower or faster
from one minute to the next, because of load the benchmark can neither
see nor control.  The slowdown hits interpreter work, small numpy
operations and BLAS solves alike: over 15-second windows each of them
varied by 35-55% (IQR over median), while their ratios varied by 3-8%.
So the benchmark times this computation, which mixes the three, before
and after every operation, and scales the operation's timings to a
machine on which the computation takes ``NOMINAL_S`` seconds.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_solve

# About what ``Reference.seconds`` takes on the 2-vCPU machine the
# benchmark was defined on, in a quiet period; it sets the scale of
# every reported timing.
NOMINAL_S = 0.6


class Reference:
    """Interpreter loop, small matrix products and 256x256 Cholesky
    solves, about a third of the time each."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((256, 256))
        self.chol = np.linalg.cholesky(a @ a.T + 256 * np.eye(256))
        self.rhs = rng.standard_normal((256, 256))
        self.w = rng.standard_normal((20, 8))
        self.x = rng.standard_normal((16, 20))

    def seconds(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(5_400_000):
            total += i
        for _ in range(51_000):
            np.maximum(self.x @ self.w, 0.0).sum(axis=0)
        for _ in range(69):
            cho_solve((self.chol, True), self.rhs)
        return time.perf_counter() - start
