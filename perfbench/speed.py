"""Machine-speed references for scaling measured times.

A shared machine can run the same code at speeds up to 1.85x apart, for
seconds to minutes at a time, and a 20 s run can fall wholly into a slow
stretch, which repeating a case within the run cannot undo.  So the harness
times a fixed reference kernel next to the cases and scales each measured
time by `nominal / kernel time`: the figures read as seconds on a machine
where the kernel takes its nominal time.  A slow stretch does not slow all
code alike, so each workload uses the kernel that is slowed like its own
work:

- `interpreter` mixes Python float and complex loops, numpy calls on tiny
  arrays, a small eigvalsh and small dicts and lists, as the solver and the
  CLI do;
- `blas` runs dense eigvalsh, as the Monte-Carlo oracle does.

Neither calls the package, so a change to the package moves the scaled times
in full.
"""

import statistics
import time

import numpy as np

_COEFFS = np.array([1.0, -2.0, 0.5, 0.25, 3.0])
_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((60, 60))
_GRAM = _RNG.standard_normal((200, 200))


def _interpreter() -> None:
    total = 0.0
    for i in range(10000):
        total += (i * 0.5) % 3.0
    z, w = complex(0.3, 1e-3), 0j
    for _ in range(6000):
        z = z * 0.999 + 1e-6
        w += z * z / (z + 1.0)
    x = 0.3 + 0.01j
    for _ in range(600):
        np.polyval(_COEFFS, x)
        np.abs(_COEFFS).max()
    for _ in range(2):
        np.linalg.eigvalsh(_SMALL @ _SMALL.T)
    for i in range(600):
        record = {"a": [i, i + 1, i + 2], "b": (i, str(i))}
    del record


def _blas() -> None:
    for _ in range(3):
        np.linalg.eigvalsh(_GRAM @ _GRAM.T)


# name -> (kernel, its median time in seconds on a 2-core x86 box in a quiet period)
KERNELS = {"interpreter": (_interpreter, 0.0075), "blas": (_blas, 0.0080)}


def sample(name: str) -> float:
    """Wall time of one run of the named kernel, in seconds."""
    kernel, _ = KERNELS[name]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(name: str, samples: list) -> float:
    """Factor that turns times measured alongside `samples` into reference seconds."""
    _, nominal = KERNELS[name]
    return nominal / statistics.median(samples)
