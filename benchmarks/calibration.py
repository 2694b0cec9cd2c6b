"""Host-speed index: fixed reference work timed between the benchmark's units.

The host shares its cores with other tenants, and its throughput drifts
by 30-60% over minutes. That moves every timing of a run together, so
run-to-run spread hides changes of the program. The reference work
(an FFT convolution, a float32 GEMM and a pure-Python loop, each close
to one kind of work in echodoa) runs after every unit. Its median time
over the run, against NOMINAL_MS, says how much slower than a quiet host
the run was. Timing metrics, apart from the few the caller names, are
reported divided by that index, i.e. in milliseconds (or records per
second) of a quiet host. The raw values
and the index are kept in the result file.

The reference work belongs to the benchmark and calls only numpy,
scipy and the interpreter, so no change to echodoa can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import signal as sps

# component times on a quiet host (about the 5th percentile measured on
# a 2-vCPU Xeon VM with OpenBLAS 0.3.31, one thread); any fixed values
# would do, these make the index about 1 when the host is quiet
NOMINAL_MS = (0.8, 1.4, 0.55)

# units of each metric that are times and rates; others are not scaled
TIME_UNITS = {"s", "ms", "ms/record"}
RATE_UNITS = {"1/s", "MB/s", "GFLOP/s"}


def _python_loop() -> int:
    total = 0
    for i in range(10_000):
        total += i * i
    return total


class Calibration:
    """Timed samples of the reference work and the index they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.standard_normal((2, 8000)) + 1j * rng.standard_normal((2, 8000))
        self._taps = rng.standard_normal((1, 129))
        self._a = rng.standard_normal((2048, 512)).astype(np.float32)
        self._b = rng.standard_normal((512, 64)).astype(np.float32)
        self.samples: list[tuple] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        sps.fftconvolve(self._signal, self._taps, mode="same", axes=1)
        t1 = time.perf_counter()
        self._a @ self._b
        t2 = time.perf_counter()
        _python_loop()
        t3 = time.perf_counter()
        self.samples.append((t1 - t0, t2 - t1, t3 - t2))

    def index(self) -> float:
        """Geometric mean over components of median time / nominal time."""
        medians = np.median(np.array(self.samples), axis=0) * 1e3
        return math.exp(float(np.mean(np.log(medians / np.array(NOMINAL_MS)))))


def adjust(metrics: dict, index: float, keep=()) -> dict:
    """Times divided by the index, rates multiplied; metrics named in
    ``keep`` and metrics of other units as they are."""
    out = {}
    for name, m in metrics.items():
        scale = (1 if name in keep else 1 / index if m["unit"] in TIME_UNITS
                 else index if m["unit"] in RATE_UNITS else 1)
        out[name] = dict(m, value=m["value"] * scale)
    return out
