"""The reference loop that measures the machine's speed at a given moment.

Every timed quantity of the benchmark is divided by the speed of this loop,
measured right before and after the quantity.
"""

from __future__ import annotations

import time

import numpy as np

REF_ITERATIONS = 150     # iterations per reference block, about 8 ms


class Reference:
    """A fixed loop of small numpy calls that never touches qindirect.

    Its speed tracks how fast the machine runs numpy-dispatch-bound code
    at that moment.
    """

    def __init__(self):
        rng = np.random.default_rng(2012)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.a = z / np.linalg.norm(z)
        self.h = z + z.conj().T
        self.v = self.a[:2, :2].copy()

    def iterate(self, count: int) -> None:
        a, h, v = self.a, self.h, self.v
        for _ in range(count):
            b = a @ a
            np.trace(b.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            np.kron(v, v)
            np.linalg.eigvalsh(h)
            np.linalg.norm(b)

    def rate(self) -> float:
        """Iterations/s of one block of ``REF_ITERATIONS``."""
        t0 = time.perf_counter()
        self.iterate(REF_ITERATIONS)
        return REF_ITERATIONS / (time.perf_counter() - t0)
