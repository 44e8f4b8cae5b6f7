"""Certified mean estimation for [0, 1]-bounded i.i.d. samples.

Two workflows:

* plan-then-sample: ``estimate_with_plan`` sizes the sample for a requested
  (eps_a, eps_r, delta) and consumes exactly that many draws;
* post-hoc: ``estimate_from_batch`` certifies a fixed batch by reporting the
  smallest risk its length supports (eps_a and eps_r stay as requested, only
  delta is inverted).

Sample sources are single-owner, seeded streams; values outside [0, 1] abort
the estimate rather than being clamped, since the guarantee's boundedness
hypothesis is a precondition, not a preference.

Means are summed exactly and rounded once, bit for bit as ``math.fsum``
would, but without a Python-level loop: error-free extraction (Rump, Ogita &
Oishi, "Accurate floating-point summation, part I", SIAM J. Sci. Comput.
31(1), 2008) splits an array into a few slices whose numpy sums are exact,
and ``fsum`` only adds those partial sums.  Planned estimates draw in chunks
of at most ``_DRAW_CHUNK`` values and keep only each chunk's exact partial
sums, so memory stays constant in the planned n.  Because the accumulated
sum is exact, the chunk size never changes a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SampleValueError, SourceExhaustedError
from .tail_bounds import ErrorSpec, achieved_confidence, minimum_sample_size

__all__ = [
    "SampleSource",
    "BernoulliSource",
    "ConstantSource",
    "SequenceSource",
    "Certificate",
    "estimate_with_plan",
    "estimate_from_batch",
    "stable_mean",
]

# Planned estimates draw at most this many values at a time (512 KiB of float64).
_DRAW_CHUNK = 65_536

_BOUNDARY_NOTE = (
    "estimate lies on the boundary of [0, 1]; the guarantee assumes a true "
    "mean strictly inside (0, 1)"
)


def _check_unit_interval(values: np.ndarray, offset: int = 0) -> None:
    """Raise SampleValueError at the first value outside [0, 1], NaN included.

    ``offset`` is added to the reported index.
    """
    # NaN fails this test too; only then is the offender located
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        i = int(np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))[0])
        raise SampleValueError(float(values[i]), offset + i)


class SampleSource:
    """Deterministic stream of values in [0, 1].

    Subclasses implement ``_generate(k)``.  The same seed always reproduces
    the same sequence; ``draws_made`` counts values emitted so far.  Each
    source instance is single-owner: do not share across threads.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.draws_made = 0

    def _generate(self, k: int) -> np.ndarray:
        raise NotImplementedError

    def draw(self, k: int) -> np.ndarray:
        """Emit the next k values, validated into [0, 1]."""
        if k < 0:
            raise DomainError(f"draw count must be nonnegative, got {k!r}")
        values = np.asarray(self._generate(k), dtype=float)
        if values.shape != (k,):
            raise SourceExhaustedError(
                f"source produced {values.shape[0] if values.ndim else 0} of "
                f"{k} requested values"
            )
        _check_unit_interval(values, self.draws_made)
        self.draws_made += k
        return values

    def next(self) -> float:
        """Emit one value."""
        return float(self.draw(1)[0])


class BernoulliSource(SampleSource):
    """Bernoulli(p) draws as 0.0/1.0 floats."""

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {p!r}")
        super().__init__(seed)
        self.p = float(p)
        self._rng = np.random.default_rng(seed)

    def _generate(self, k: int) -> np.ndarray:
        return (self._rng.random(k) < self.p).astype(float)


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
        out = self._values[self._cursor : self._cursor + k]
        self._cursor += k
        return out


@dataclass(frozen=True)
class Certificate:
    """An estimate together with the exact guarantee it carries.

    With probability > 1 - delta_achieved over the sampling randomness,
    |mu_hat - mu| < eps_a or |mu_hat - mu| < eps_r * mu.  When the sample was
    too small to certify any risk below 1, ``no_guarantee`` is set and
    delta_achieved is reported as 1.
    """

    mu_hat: float
    n: int
    eps_a: float
    eps_r: float
    delta_achieved: float
    kind: str  # "planned" or "post_hoc"
    no_guarantee: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "mu_hat": self.mu_hat,
            "n": self.n,
            "eps_a": self.eps_a,
            "eps_r": self.eps_r,
            "delta_achieved": self.delta_achieved,
            "kind": self.kind,
            "no_guarantee": self.no_guarantee,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        return cls(
            mu_hat=d["mu_hat"],
            n=d["n"],
            eps_a=d["eps_a"],
            eps_r=d["eps_r"],
            delta_achieved=d["delta_achieved"],
            kind=d["kind"],
            no_guarantee=d.get("no_guarantee", False),
            note=d.get("note", ""),
        )


def _exact_parts(values) -> list[float]:
    """A few floats whose exact sum is the exact sum of ``values``.

    Each pass rounds every remainder r to q = (r + sigma) - sigma, a multiple
    of ulp(sigma) / 2 with |q| <= 2^e, where max|r| < 2^e and
    sigma = 2^(e + k) with 2^k > m + 1 for m values.  Every partial sum of the
    q's is then below 2^(e + k) on that grid, so ``q.sum()`` is exact in any
    order, and r - q is exact too.  Each pass removes 53 - k bits, until every
    remainder is zero.  Non-finite values, or values so large that sigma could
    overflow, are returned as they are, leaving their inf/nan/overflow
    handling to ``math.fsum``.
    """
    r = np.asarray(values, dtype=float)
    if r.size == 0:
        return []
    top = float(np.abs(r).max())
    if not top <= 2.0**900:  # also true for nan
        return r.tolist()
    k = (r.size + 1).bit_length()
    parts = []
    while top > 0.0:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + k)
        q = (r + sigma) - sigma
        parts.append(float(q.sum()))
        r = r - q
        top = float(np.abs(r).max())
    return parts


def _exact_sum(values) -> float:
    """The correctly rounded sum of ``values``; bit-identical to ``math.fsum``."""
    return math.fsum(_exact_parts(values))


def stable_mean(values: Sequence[float]) -> float:
    """Compensated mean: exact (error-free) summation, then one rounding."""
    n = len(values)
    if n == 0:
        raise DomainError("cannot take the mean of an empty sequence")
    return _exact_sum(values) / n


def _certificate(mu_hat: float, n: int, eps_a: float, eps_r: float, kind: str) -> Certificate:
    delta_hat = achieved_confidence(n, eps_a, eps_r)
    return Certificate(
        mu_hat=mu_hat,
        n=n,
        eps_a=eps_a,
        eps_r=eps_r,
        delta_achieved=delta_hat,
        kind=kind,
        no_guarantee=delta_hat >= 1.0,
        note=_BOUNDARY_NOTE if mu_hat in (0.0, 1.0) else "",
    )


def estimate_with_plan(source: SampleSource, spec: ErrorSpec) -> Certificate:
    """Draw exactly the planned number of samples and certify the mean.

    The returned certificate has delta_achieved < spec.delta by construction
    of the plan.  Samples are consumed in a single sequential pass, in chunks
    of at most ``_DRAW_CHUNK`` draws whose exact partial sums are kept, so
    memory does not grow with n and the certificate is reproducible from the
    source seed whatever the chunk size.
    """
    plan = minimum_sample_size(spec)
    parts: list[float] = []
    for start in range(0, plan.n, _DRAW_CHUNK):
        parts += _exact_parts(source.draw(min(_DRAW_CHUNK, plan.n - start)))
    mu_hat = math.fsum(parts) / plan.n
    return _certificate(mu_hat, plan.n, spec.eps_a, spec.eps_r, "planned")


def estimate_from_batch(
    values: Sequence[float], eps_a: float, eps_r: float
) -> Certificate:
    """Certify a fixed batch post hoc, inverting the risk for its length.

    Every value must lie in [0, 1]; the first offender is reported by index.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DomainError("batch is empty")
    _check_unit_interval(arr)
    return _certificate(stable_mean(arr), int(arr.size), eps_a, eps_r, "post_hoc")
