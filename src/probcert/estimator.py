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
would, but without a Python-level loop.  ``_row_sum`` reduces a row given
as blocks in stream order, each cut and shape-checked by its producer: a
source's ``_row(n)``, its next n draws in ``_widths`` of its ``_block``
(``_DRAW_CHUNK`` = 16,384, or 131,072 for ``BernoulliSource``), a post-hoc
batch's views of ``_DRAW_CHUNK`` values, the values of as many lines of a
sample file, or ``chernoff_opt.certify_probability``'s failure indicators.
A boolean block is counted, and a ``BernoulliSource`` row is each block's
exact count of ones, taken from its generator words' byte lanes without
building the draws.  Any other block is checked into [0, 1] once, where it
is reduced, and then put through error-free extraction as float64 (Rump,
Ogita & Oishi, "Accurate floating-point summation, part I", SIAM J. Sci.
Comput. 31(1), 2008), which splits the row into a few partial sums whose
numpy sums are exact; it has no failure path, leaves the block unchanged
and works in two temporaries of the block's shape.  Memory therefore stays
constant in the planned n, and because the sums are exact the block size
never changes a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, SampleValueError, SourceExhaustedError
from .tail_bounds import (ErrorSpec, _Record, _require_int, _require_pair, _require_real, _require_type,
                          achieved_confidence, minimum_sample_size)

__all__ = [
    "SampleSource",
    "BernoulliSource",
    "Certificate",
    "estimate_with_plan",
    "estimate_from_batch",
]

# A source's block, the most values it is drawn at a time (128 KiB of float64); see ``_block``.
_DRAW_CHUNK = 16_384

_BOUNDARY_NOTE = (
    "estimate lies on the boundary of [0, 1]; the guarantee assumes a true "
    "mean strictly inside (0, 1)"
)


_SCENARIOS, _CERTIFICATION, _BERNOULLI, _COVERAGE, _POINTS = range(5)  # reordering changes every stream


def _stream(seed: int, role: int, index: int = 0, *sub: int) -> np.random.Generator:
    """Child (role, index) of a nonnegative integer seed (numpy's too, not a
    bool), or its descendant (role, index, *sub), as ``SeedSequence(seed).spawn``
    makes them but without spawn state.
    """
    seed = _require_int(seed, "seed", 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role, index, *sub)))


def _check_unit_interval(values: np.ndarray, offset: int = 0) -> None:
    """Raise SampleValueError at the first value outside [0, 1], NaN included, at its index plus ``offset``."""
    # NaN fails this test too; only then is the offender located
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        i = int(np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))[0])
        raise SampleValueError(float(values[i]), offset + i)


def _require_block(values, shape: Optional[tuple], what: str = "source", kinds: str = "biuf") -> np.ndarray:
    """values as an array of ``shape`` (any shape if None) and a dtype kind in ``kinds`` (numbers,
    and booleans unless left out); a block short along its first axis means ``what`` ran dry."""
    try:
        values = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DomainError(f"{what} values must be numbers{' or booleans' * ('b' in kinds)}, got a ragged sequence") from None
    if shape is not None and values.shape != shape:
        if values.ndim == len(shape) and values.shape[1:] == shape[1:] and len(values) < shape[0]:
            raise SourceExhaustedError(f"{what} produced {len(values)} of {shape[0]} requested values")
        raise DomainError(f"{what} returned shape {values.shape}, expected {shape}")
    if values.dtype.kind not in kinds:  # no string is parsed, nor an object converted
        raise DomainError(f"{what} values must be numbers{' or booleans' * ('b' in kinds)}, got dtype {values.dtype}")
    return values


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

    _block = property(lambda self: _DRAW_CHUNK)  # the most values a reduction asks for at once

    def _generate(self, k: int) -> np.ndarray:
        raise NotImplementedError

    def _take(self, k: int) -> np.ndarray:  # the values of draw and _row, counted here only
        values = _require_block(self._generate(k), (k,))
        self.draws_made += k
        return values

    def draw(self, k: int) -> np.ndarray:
        """Emit the next k values, validated into [0, 1]: a boolean block stays
        boolean, and the estimators count it; any other is converted to float64."""
        k = _require_int(k, "draw count", 0)
        values = self._take(k)
        if values.dtype != bool:  # a boolean cannot leave [0, 1]
            values = values.astype(float, copy=False)
            _check_unit_interval(values, self.draws_made - k)
        return values

    def _row(self, n: int) -> Iterator[np.ndarray]:
        """The next n values in ``_widths`` of ``_block``, for ``_row_sum`` to check into [0, 1]:
        as ``_generate`` makes them, or through ``draw`` if a subclass overrides it."""
        if type(self).draw is SampleSource.draw:
            return map(self._take, _widths(n, self._block))
        return (_require_block(self.draw(k), (k,)) for k in _widths(n, self._block))


class BernoulliSource(SampleSource):
    """Bernoulli(p) draws as booleans, which the estimators count.

    Each 64-bit word of the Bernoulli child of ``seed`` makes eight draws, one
    per little-endian byte lane.  With cut = floor(256 p) and frac = 256 p - cut,
    both exact, a lane below cut is a 1, one above it a 0, and one equal to cut
    a 1 when the top 53 bits of the next raw word of the child's tie child,
    in draw order, are below frac 2^53 (``_tie_cut``).  That is ``random() <
    frac`` bit for bit, read from the raw words, the only stream numpy keeps
    fixed across versions (NEP 19).  So Pr{1} - p lies in [0, 2^-61).  Lanes
    left over from a word wait for the next draw, so any split of the draws
    gives the same values.  The private ``_key`` names another (role, index)
    child of ``seed``.

    Its ``_row`` counts the lanes of each block (``_count``) without building
    the draws, through the same ``_lanes`` and ties as ``_generate``.
    """

    def __init__(self, p: float, seed: int = 0, *, _key: tuple[int, int] = (_BERNOULLI, 0)):
        p = _require_real(p, "p")
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must be a number in [0, 1], got {p!r}")
        self._rng = _stream(seed, *_key)
        self._ties = _stream(seed, *_key, 1)
        super().__init__(seed)
        self.p = p
        self._cut = math.floor(256.0 * p)
        self._tie_cut = math.ldexp(256.0 * p - self._cut, 53)  # frac 2^53, exact
        self._spare = np.empty(0, np.uint8)

    # 16,384 words (128 KiB) and as many booleans: per-block costs are paid once per 131,072 draws
    _block = property(lambda self: 8 * _DRAW_CHUNK)

    def _lanes(self, k: int) -> np.ndarray:
        """The next k byte lanes: the spare ones first, then those of new words."""
        words = self._rng.bit_generator.random_raw(-((self._spare.size - k) // 8))
        lanes = words.astype("<u8", copy=False).view(np.uint8)
        if self._spare.size:
            lanes = np.concatenate((self._spare, lanes))
        lanes, self._spare = lanes[:k], lanes[k:].copy()
        return lanes

    def _generate(self, k: int) -> np.ndarray:
        lanes = self._lanes(k)
        ones = lanes < self._cut
        if self._tie_cut:  # otherwise every tie is a 0, as lanes < cut has it
            ties = np.flatnonzero(lanes == self._cut)
            ones[ties] = (self._ties.bit_generator.random_raw(ties.size) >> 11) < self._tie_cut
        return ones

    def _count(self, k: int) -> int:
        """``count_nonzero(self.draw(k))`` from the same lanes and ties; a tie is counted, never placed."""
        lanes = self._lanes(k)
        ones = np.count_nonzero(lanes < self._cut)
        if self._tie_cut:
            tied = np.count_nonzero(lanes == self._cut)
            ones += np.count_nonzero((self._ties.bit_generator.random_raw(tied) >> 11) < self._tie_cut)
        self.draws_made += k
        return int(ones)

    def _row(self, n: int) -> Iterator:
        """Each block's count of ones, or the values of a subclass that overrides ``_generate`` or ``draw``."""
        if type(self)._generate is BernoulliSource._generate and type(self).draw is SampleSource.draw:
            return map(self._count, _widths(n, self._block))
        return super()._row(n)

    def _row_counts(self, rows: int, n: int) -> np.ndarray:
        """The ones in each of ``rows`` consecutive rows of n draws, as floats: rows
        short enough to share a block, a lone row too, are drawn and summed in
        uint16, which cannot wrap (2^16 - 1 draws at most); a longer row is its
        ``_row``, as a planned estimate's."""
        per_block = (self._block - 1) // n  # two rows share a block only when 2n < _block
        if per_block < 2:
            return np.array([_row_sum(self._row(n))[0] for _ in range(rows)])
        counts = np.empty(rows)
        for first in range(0, rows, per_block):
            b = min(per_block, rows - first)
            counts[first : first + b] = self.draw(b * n).reshape(b, n).sum(axis=1, dtype=np.uint16)
        return counts


@dataclass(frozen=True)
class Certificate(_Record):
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


def _extract(block: np.ndarray, parts: list[list[float]]) -> None:
    """Append to ``parts[i]`` partial sums of row i of a 2-D float64 block whose
    exact sum is the row's.  Values must be finite with |v| <= 2^900, or sigma
    could overflow: every caller bounds them first, so the DomainError is unreachable.

    Each pass rounds every remainder r to q = (r + sigma) - sigma, a multiple
    of ulp(sigma) / 2 with |q| <= 2^e, where max|r| < 2^e over the block and
    sigma = 2^(e + k) with 2^k > m + 1 for rows of m values.  Every partial sum
    of a row's q's is then below 2^(e + k) on that grid, so its numpy sum is
    exact in any order, and r - q is exact too.  Each pass removes 53 - k bits,
    until every remainder is zero.  The block is only read: remainders go to
    ``r`` and q to ``q``, two arrays of its shape made here for every pass.
    """
    r, q = np.empty_like(block), np.empty_like(block)
    k = (block.shape[1] + 1).bit_length()
    top = float(np.abs(block, out=q).max())
    if not top <= 2.0**900:  # also true for nan
        raise DomainError(f"exact sums take finite values of magnitude up to 2**900, got {top!r}")
    while top > 0.0:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + k)
        np.add(block, sigma, out=q)
        q -= sigma
        for row, total in zip(parts, q.sum(axis=1).tolist()):
            row.append(total)
        block = np.subtract(block, q, out=r)
        top = float(np.abs(block, out=q).max())


def _row_sum(blocks: Iterable) -> tuple[float, int]:
    """``math.fsum`` of a row given as blocks in stream order, and the number of
    values in its 1-D array blocks.

    Each producer cuts its own blocks and checks their shape and dtype
    (``_require_block``).  An int block is an exact count of ones, which has
    no length (``BernoulliSource._count``).  A boolean block is counted.  Any
    other block is checked into [0, 1] at its index in the row, the one range
    check it gets, and then ``_extract`` takes it as float64.
    """
    parts: list[list[float]] = [[]]
    ones = n = 0
    for values in blocks:
        if isinstance(values, int):
            ones += values
            continue
        start, n = n, n + values.size
        if values.dtype == bool:
            ones += np.count_nonzero(values)
            continue
        _check_unit_interval(values, start)
        _extract(values.astype(float, copy=False).reshape(1, -1), parts)  # a float64 block is not copied
    return math.fsum([*parts[0], ones]), n


def _widths(n: int, block: int) -> Iterator[int]:
    """The widths that cut a row of n draws into blocks of ``block`` and the rest."""
    return (min(block, n - start) for start in range(0, n, block))


def _certificate(mu_hat: float, n: int, eps_a: float, eps_r: float, kind: str) -> Certificate:
    delta_hat = achieved_confidence(n, eps_a, eps_r)
    return Certificate(mu_hat=mu_hat, n=n, eps_a=eps_a, eps_r=eps_r, delta_achieved=delta_hat, kind=kind,
                       no_guarantee=delta_hat >= 1.0, note=_BOUNDARY_NOTE if mu_hat in (0.0, 1.0) else "")


def estimate_with_plan(source: SampleSource, spec: ErrorSpec) -> Certificate:
    """Draw exactly the planned number of samples and certify the mean.

    The returned certificate has delta_achieved < spec.delta as computed in
    floating point.  A ``SampleSource`` instance (not the class) and an
    ``ErrorSpec`` are checked for before a draw.  The source's ``_row`` of n
    draws is reduced in one pass, in blocks that are summed exactly, so memory
    does not grow with n and the certificate is reproducible from the source
    seed whatever the block size.  A value outside [0, 1] is reported at its
    index in the row.
    """
    _require_type(source, SampleSource, "estimate_with_plan")
    _require_type(spec, ErrorSpec, "estimate_with_plan")
    plan = minimum_sample_size(spec)
    return _certificate(_row_sum(source._row(plan.n))[0] / plan.n, plan.n, spec.eps_a, spec.eps_r, "planned")


def estimate_from_batch(
    values: Sequence[float], eps_a: float, eps_r: float
) -> Certificate:
    """Certify a fixed batch post hoc, inverting the risk for its length.

    Values are numbers, or booleans (0/1 indicators), and every one must lie
    in [0, 1]; the first offender is reported by its flat index.  Booleans are
    counted, and numbers read as float64 a view at a time (never copied whole) and summed exactly.
    """
    _require_pair(eps_a, eps_r)
    arr = _require_block(values, None, "batch").reshape(-1)
    if arr.size == 0:
        raise DomainError("batch is empty")
    total, n = _row_sum(arr[start : start + _DRAW_CHUNK] for start in range(0, arr.size, _DRAW_CHUNK))
    return _certificate(total / n, n, eps_a, eps_r, "post_hoc")
