"""Certified mean estimation for [0, 1]-bounded i.i.d. samples.

Two workflows:

* plan-then-sample: ``estimate_with_plan`` sizes the sample for a requested
  (eps_a, eps_r, delta) and consumes exactly that many draws;
* post-hoc: ``estimate_from_batch`` certifies a fixed batch by reporting the
  smallest risk its length supports (eps_a and eps_r stay as requested, only
  delta is inverted).

Sample sources are single-owner, seeded streams; values outside [0, 1] abort
the estimate rather than being clamped, since the guarantee's boundedness
hypothesis is a precondition, not a preference.  Every random stream of the
package is one named child of its seed per role (``_stream``), never a seed
offset, so no two roles or seeds share a stream.

Means are summed exactly and rounded once, bit for bit as ``math.fsum``
would, but without a Python-level loop.  A 0/1 source (Bernoulli draws,
failure indicators) may return its block as booleans: each row of such a
block is counted in one integer reduction, and a count is exact.  Any other
block is converted to float and goes through error-free extraction (Rump,
Ogita & Oishi, "Accurate floating-point summation, part I", SIAM J. Sci.
Comput. 31(1), 2008), which splits each row into a few partial sums whose
numpy sums are exact and reduces the block in place against one reused
scratch buffer, so no pass allocates a chunk-sized temporary.  ``fsum`` only
adds the counts or partial sums.  Draws are taken at most ``_DRAW_CHUNK`` =
16,384 values (128 KiB as float64) at a time: one planned estimate is one
row, and a coverage experiment draws many trials' rows per block.  Memory
therefore stays constant in the planned n, and because the accumulated sums
are exact the chunk size never changes a certificate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, SampleValueError, SourceExhaustedError
from .tail_bounds import ErrorSpec, _require_int, _require_real, achieved_confidence, minimum_sample_size

__all__ = [
    "SampleSource",
    "BernoulliSource",
    "Certificate",
    "estimate_with_plan",
    "estimate_from_batch",
    "stable_mean",
]

# Draws are taken at most this many values at a time (128 KiB of float64).
_DRAW_CHUNK = 16_384

_BOUNDARY_NOTE = (
    "estimate lies on the boundary of [0, 1]; the guarantee assumes a true "
    "mean strictly inside (0, 1)"
)


_SCENARIOS, _CERTIFICATION, _BERNOULLI, _COVERAGE, _POINTS = range(5)  # reordering changes every stream


def _stream(seed: int, role: int, index: int = 0) -> np.random.Generator:
    """Child (role, index) of a nonnegative integer seed (numpy's too, not a
    bool), as ``SeedSequence(seed).spawn`` makes it but without spawn state.
    """
    seed = _require_int(seed, "seed", 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role, index)))


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

    Subclasses implement ``_generate(k)``, which returns k floats, or k
    booleans when every value is 0 or 1.  The same seed always reproduces
    the same sequence; ``draws_made`` counts values emitted so far.  Each
    source instance is single-owner: do not share across threads.
    """

    def __init__(self, seed: int = 0):
        self.seed = _require_int(seed, "seed", 0)
        self.draws_made = 0

    def _generate(self, k: int) -> np.ndarray:
        raise NotImplementedError

    def draw(self, k: int) -> np.ndarray:
        """Emit the next k values, validated into [0, 1].

        A boolean block stays boolean, and the estimators count it; any other
        block is converted to float64.  The returned array belongs to the
        caller, which may overwrite it (the estimators reduce float blocks in
        place).  ``_generate`` must therefore return a fresh array, never a
        view of state the source keeps.
        """
        k = _require_int(k, "draw count", 0)
        values = np.asarray(self._generate(k))
        if values.dtype != bool:
            values = values.astype(float, copy=False)
        if values.shape != (k,):
            raise SourceExhaustedError(
                f"source produced {values.shape[0] if values.ndim else 0} of "
                f"{k} requested values"
            )
        _check_unit_interval(values, self.draws_made)
        self.draws_made += k
        return values


class BernoulliSource(SampleSource):
    """Bernoulli(p) draws as booleans, which the estimators count, from the
    Bernoulli child of ``seed``.
    """

    def __init__(self, p: float, seed: int = 0):
        p = _require_real(p, "p")
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must be a number in [0, 1], got {p!r}")
        self._rng = _stream(seed, _BERNOULLI)
        super().__init__(seed)
        self.p = p

    def _generate(self, k: int) -> np.ndarray:
        return self._rng.random(k) < self.p


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
        return asdict(self)


def _row_sums(take: Callable[[int], np.ndarray], rows: int, n: int) -> Optional[list[float]]:
    """The exact, correctly rounded sum of each of ``rows`` consecutive rows
    of ``n`` values; each is bit-identical to ``math.fsum`` of its row.

    ``take(k)`` returns the next k values of the stream as an array the
    kernel may overwrite.  Blocks hold ``_DRAW_CHUNK // n`` whole rows, or
    one chunk of a row when n exceeds ``_DRAW_CHUNK``, so the stream is
    consumed in order and no block exceeds ``_DRAW_CHUNK`` values.

    A boolean block is counted row by row.  A count is an integer below
    2^53, so ``fsum`` of a row's counts equals ``fsum`` of its 0.0/1.0
    values.  A float block is extracted: each pass rounds every remainder r
    of the block to q = (r + sigma) - sigma, a multiple of ulp(sigma) / 2
    with |q| <= 2^e, where max|r| < 2^e over the block and sigma = 2^(e + k)
    with 2^k > m + 1 for rows of m values.  Every partial sum of a row's q's
    is then below 2^(e + k) on that grid, so its numpy sum is exact in any
    order, and r - q is exact too.  Each pass removes 53 - k bits, until
    every remainder is zero, and writes q into one scratch buffer and r - q
    over the block, so no pass allocates.  ``fsum`` then rounds each row's
    few partial sums (or counts) once.  A value that is not finite or
    exceeds 2^900 in magnitude, where sigma could overflow, stops the kernel
    with None; values in [0, 1] never do.
    """
    per_block = min(rows, max(1, _DRAW_CHUNK // n))
    width = min(n, _DRAW_CHUNK)
    scratch = np.empty(per_block * width)
    sums: list[float] = []
    for first in range(0, rows, per_block):
        b = min(per_block, rows - first)
        # Python numbers, not arrays: a row split over many chunks keeps a part per chunk
        parts: list[list[float]] = [[] for _ in range(b)]
        for start in range(0, n, width):
            m = min(width, n - start)
            r = take(b * m).reshape(b, m)
            if r.dtype == bool:
                # a block row holds at most _DRAW_CHUNK values: int32 counts them
                for row, count in zip(parts, r.sum(axis=1, dtype=np.int32).tolist()):
                    row.append(count)
                continue
            q = scratch[: b * m].reshape(b, m)
            k = (m + 1).bit_length()
            top = float(np.abs(r, out=q).max())
            if not top <= 2.0**900:  # also true for nan
                return None
            while top > 0.0:
                sigma = math.ldexp(1.0, math.frexp(top)[1] + k)
                np.add(r, sigma, out=q)
                q -= sigma
                for row, total in zip(parts, q.sum(axis=1).tolist()):
                    row.append(total)
                r -= q
                top = float(np.abs(r, out=q).max())
        sums += [math.fsum(row) for row in parts]
    return sums


def _exact_sums(rows: np.ndarray) -> list[float]:
    """``math.fsum`` of each row of a 2-D array, in one kernel pass over copies."""
    flat = rows.reshape(-1)
    taken = 0

    def copy_next(k: int) -> np.ndarray:
        nonlocal taken
        taken += k
        return flat[taken - k : taken].copy()

    sums = _row_sums(copy_next, rows.shape[0], rows.shape[1])
    if sums is None:  # inf, nan and overflow behave as in fsum
        return [math.fsum(row) for row in rows.tolist()]
    return sums


def stable_mean(values: Sequence[float]) -> float:
    """Compensated mean: exact summation of copies of ``values``, then one rounding."""
    arr = np.asarray(values, dtype=float).reshape(1, -1)
    if arr.size == 0:
        raise DomainError("cannot take the mean of an empty sequence")
    return _exact_sums(arr)[0] / arr.size


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
    of at most ``_DRAW_CHUNK`` draws that are summed exactly, so memory does
    not grow with n and the certificate is reproducible from the source seed
    whatever the chunk size.
    """
    plan = minimum_sample_size(spec)
    mu_hat = _row_sums(source.draw, 1, plan.n)[0] / plan.n
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
