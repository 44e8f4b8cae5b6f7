"""Shared helpers for the test suite."""

import tracemalloc
from typing import Sequence

import numpy as np

from probcert import ErrorSpec, SampleSource, SourceExhaustedError

# block sizes a test sets ``estimator._DRAW_CHUNK`` to: one value, a few, a
# size that leaves remainders, the default and four times the default
CHUNKS = (1, 7, 577, 16_384, 65_536)


def peak_bytes(run):
    """run()'s result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_valid_specs(count: int, seed: int) -> list[ErrorSpec]:
    """Uniformly scattered specs satisfying the mixed-criterion constraint.

    eps_a is drawn as a fraction of its admissible ceiling
    0.5 * eps_r / (1 + eps_r), with a floor keeping sample sizes small
    enough for fast arithmetic checks.
    """
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        eps_r = rng.uniform(0.05, 0.95)
        cap = 0.5 * eps_r / (1.0 + eps_r)
        eps_a = rng.uniform(0.1, 0.999) * cap
        if eps_a < 5e-3:
            continue
        delta = rng.uniform(0.001, 0.5)
        specs.append(ErrorSpec(eps_a=eps_a, eps_r=eps_r, delta=delta))
    return specs


class ConstantSource(SampleSource):
    """Emits the same value forever.  Out-of-range constants fail at draw time."""

    def __init__(self, value: float, seed: int = 0):
        super().__init__(seed)
        self.value = float(value)

    def _generate(self, k: int) -> np.ndarray:
        return np.full(k, self.value)


class SequenceSource(SampleSource):
    """Replays a fixed sequence; exhausting it raises SourceExhaustedError."""

    def __init__(self, values: Sequence[float], seed: int = 0):
        super().__init__(seed)
        self._values = np.asarray(list(values), dtype=float)
        self._cursor = 0

    def _generate(self, k: int) -> np.ndarray:
        remaining = len(self._values) - self._cursor
        if k > remaining:
            raise SourceExhaustedError(
                f"sequence exhausted: {remaining} values left, {k} requested"
            )
        # a copy: a source hands out no view of its own state
        out = self._values[self._cursor : self._cursor + k].copy()
        self._cursor += k
        return out
