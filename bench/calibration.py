"""Machine-speed calibration for the end-to-end timings.

On a machine whose cores are shared with other tenants (the 2-core machine
this benchmark was tuned on is one) the same work runs up to 1.7x slower for
seconds to minutes at a time, which moves a run's median more than any bound
a regression check could use.  The benchmark therefore runs a fixed kernel
of its own between requests (never inside a timed window) and scales each
timing by ``NOMINAL_S / (median kernel time around it)``: timings read as
they would on the machine running at the speed where the kernel takes
``NOMINAL_S``.  The kernel uses numpy and plain Python in the
proportions of the program (a small complex Hermitian eigendecomposition and
17-digit float formatting) but no twostate code, so a change to the program
cannot move it.  Raw timings are reported alongside.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time on the quiet 2-core machine the benchmark was tuned on.
NOMINAL_S = 1.7e-3
# Kernel time spent after each request, as a share of the request's latency,
# and at most this many kernel runs.
SHARE = 0.05
MAX_RUNS = 8
# Kernel runs that calibrate the machine speed just before and just after a set-up.
SETUP_CALIBRATION_RUNS = 15


class Calibration:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20010)
        m = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self._matrix = m + m.conj().T
        self._rows = [(float(a), float(b)) for a, b in rng.standard_normal((300, 2))]
        self._eigh = np.linalg.eigh

    def kernel(self) -> float:
        """Seconds taken by one run of the fixed kernel."""
        start = time.perf_counter()
        for _ in range(3):
            self._eigh(self._matrix)
        "\n".join(",".join(format(x, ".17g") for x in row) for row in self._rows)
        return time.perf_counter() - start

    def after_request(self, latency: float) -> list:
        """Kernel samples worth about SHARE of a request's latency (one to MAX_RUNS)."""
        runs = min(MAX_RUNS, max(1, round(SHARE * latency / NOMINAL_S)))
        return [self.kernel() for _ in range(runs)]

    def sample(self, runs: int) -> float:
        return statistics.median(self.kernel() for _ in range(runs))
