"""Reference work that rescales measured times to one nominal machine speed.

On a shared host the speed of a fixed computation drifts by 10 to 40
percent over minutes, and the cost of starting a process by up to 50
percent, with CPU time equal to wall time and steal time near zero: the
host, not the scheduler, changes speed, and it switches between a fast
and a slow state every few seconds. A run therefore times a fixed
reference before the first timed item (a request, or a set-up process)
and after each one, and reports the time of item i as

    t_i * nominal_s / mean(reference times just before and just after it),

that is, seconds at the speed where the reference takes `nominal_s`.
In-process requests use `ReferenceKernel`, cold command-line runs use
`ColdStartReference`, each the kind of work it stands for. Neither runs
bitrans code, so a change to bitrans cannot move them.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
from scipy.linalg import lu_factor, solve_banded

_M = 256
_BANDED_SOLVES = 200
_LOOP = 20000
_COLD_IMPORTS = "import numpy, scipy.interpolate, scipy.linalg, scipy.sparse.linalg, yaml"
_COLD_TIMEOUT_S = 60.0


class _Reference:
    nominal_s = 0.0

    def __init__(self):
        self.samples = []

    def _run(self) -> None:
        raise NotImplementedError

    def sample(self) -> float:
        """Seconds of one run of the reference."""
        start = time.perf_counter()
        self._run()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def rescale(self, times: list) -> list:
        """Each time at nominal speed, by the samples taken just before and after it."""
        if len(self.samples) != len(times) + 1:
            raise ValueError(f"{len(times)} times need {len(times) + 1} reference samples, "
                             f"not {len(self.samples)}")
        return [t * 2.0 * self.nominal_s / (before + after)
                for t, before, after in zip(times, self.samples, self.samples[1:])]


class ReferenceKernel(_Reference):
    """Fixed-input compute kernel mixing the solver's kinds of work.

    Dense BLAS products, an LU factorization, an SVD, many small banded
    solves and an interpreted loop. The SVD makes it follow the solver's
    speed more closely (README.md gives the figures).
    """

    nominal_s = 0.025

    def __init__(self):
        super().__init__()
        self.matrix = np.random.default_rng(0).standard_normal((_M, _M))
        self.bands = np.array([np.ones(129), np.full(129, -4.0), np.ones(129)])
        self.rhs = np.ones(129)

    def _run(self) -> None:
        acc = self.matrix
        for _ in range(4):
            acc = self.matrix @ acc
            acc /= np.abs(acc).max()
        lu_factor(self.matrix)
        np.linalg.svd(self.matrix, compute_uv=False)
        for _ in range(_BANDED_SOLVES):
            solve_banded((1, 1), self.bands, self.rhs)
        total = 0.0
        for i in range(_LOOP):
            total += i * 0.5


class ColdStartReference(_Reference):
    """A fresh interpreter importing the modules bitrans depends on, spawn to exit."""

    nominal_s = 0.8

    def __init__(self, env: dict, cwd):
        super().__init__()
        self.env = env
        self.cwd = cwd

    def _run(self) -> None:
        subprocess.run([sys.executable, "-c", _COLD_IMPORTS], env=self.env, cwd=self.cwd,
                       check=True, timeout=_COLD_TIMEOUT_S)
