"""Deterministic parallel-corpus operations.

A corpus is a sequence of :class:`SentencePair` records.  The noise
operations (character substitution, word deletion, pair shuffling) draw all
their randomness from per-pair SplitMix64 streams derived from
``(seed, pair.index)``, so the output for any pair is independent of
processing order, chunking, or concurrency; the same seed always yields a
byte-identical corpus.

Stream layout: pair ``i`` starts from ``s_i = mix(seed + (i + 1)·G mod 2⁶⁴)``
and its draw ``k = 1, 2, …`` is ``mix(s_i + k·G mod 2⁶⁴)``, where ``G`` is
the golden-ratio increment and ``mix`` the SplitMix64 finalizer.  A draw
``u`` gives the coin ``(u >> 11)·2⁻⁵³ < prob`` and the symbol ``u mod 94``.
Since every draw is a function of its counter alone, the noise operations
compute the draws of a chunk of pairs together as numpy ``uint64`` arrays
(Salmon et al., SC'11); :class:`SplitMix64` gives the same stream one draw
at a time.

File format: UTF-8 text, one pair per line, ``source<TAB>target`` with an
optional third TAB-separated field holding a decimal quality score.
"""

from __future__ import annotations

import itertools
import math
import string
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

from .errors import DomainError, ParseError, SchemaError
from .files import replace_on_success

NOISE_KINDS = ("char_noise", "word_delete", "pair_shuffle")
SIDES = ("source", "target")

# Per-kind default corruption probabilities.
DEFAULT_PROBS = {"char_noise": 0.1, "word_delete": 0.15, "pair_shuffle": 0.1}

# Replacement alphabet for character noise: ASCII letters, digits and the 32
# ASCII punctuation characters (codes 33-47, 58-64, 91-96, 123-126); 94
# symbols total.  A replacement may coincide with the original character.
REPLACEMENT_ALPHABET = string.ascii_lowercase + string.ascii_uppercase + string.digits + string.punctuation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Draws computed together for one chunk of pairs: enough that numpy's
# per-call overhead is small against the work, few enough that a chunk's
# arrays stay a few hundred kB.  Output does not depend on it.
_CHUNK_DRAWS = 4096


def _mix64(x: int) -> int:
    """SplitMix64 output scrambler (Steele, Lea & Flood's finalizer)."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal deterministic 64-bit generator.

    Streams for distinct ``(seed, index)`` keys are derived through the
    SplitMix64 finalizer, so per-item randomness never depends on how many
    other items were processed.  The noise operations compute the same
    streams in bulk with :func:`_streams`.
    """

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK64

    @classmethod
    def for_item(cls, seed: int, index: int) -> "SplitMix64":
        return cls(_mix64((seed + (index + 1) * _GOLDEN) & _MASK64))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        return self.next_u64() % n


@dataclass(frozen=True)
class SentencePair:
    """One aligned source/target sentence pair.

    Args:
        source: Source-side text.
        target: Target-side text.
        score: Externally supplied quality score, if any.
        index: 0-based position in the corpus; unique within a corpus and
            the key for all per-pair randomness.
    """

    source: str
    target: str
    score: float | None = None
    index: int = 0


@dataclass(frozen=True)
class CorruptionSpec:
    """What noise to apply, to which side, how often, and under which seed."""

    kind: str
    side: str
    prob: float
    seed: int

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if self.side not in SIDES:
            raise DomainError(f"unknown side {self.side!r}")
        if not 0 <= self.prob <= 1:
            raise DomainError(f"prob must lie in [0, 1], got {self.prob}")


def _streams(seed: int, indices: list[int], counts: list[int]):
    """Draws ``1 … counts[j]`` of ``SplitMix64.for_item(seed, indices[j])``.

    Returns the draws of all streams concatenated into one ``uint64`` array,
    and the list of each stream's start offset in it.
    """
    import numpy as np

    # Python ints reduce any seed and index, negative or beyond 64 bits,
    # exactly as ``for_item`` does; the rest is uint64 array arithmetic,
    # which wraps without a warning.
    bases = np.array([(seed + (index + 1) * _GOLDEN) & _MASK64 for index in indices], dtype=np.uint64)
    starts = [0, *itertools.accumulate(counts)]
    total = starts.pop()
    golden = np.uint64(_GOLDEN)
    # Draw k of stream j sits at offset p = starts[j] + k - 1, so its state
    # s_j + k·G is (s_j + (1 - starts[j])·G) + p·G.
    first = _mix64_array(bases) + golden - np.array(starts, dtype=np.uint64) * golden
    state = np.repeat(first, counts)
    state += np.arange(total, dtype=np.uint64) * golden
    return _mix64_array(state), starts


def _mix64_array(z):
    """:func:`_mix64` on a ``uint64`` array, in place."""
    import numpy as np

    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _coins(u, prob: float):
    """``SplitMix64.next_float() < prob`` for each draw in ``u``."""
    import numpy as np

    return (u >> np.uint64(11)) * 2.0**-53 < prob


def _chunks(items: Iterable, draws: Callable[[object], int]) -> Iterator[list]:
    """Group ``items`` in order into lists needing about ``_CHUNK_DRAWS``
    draws, at least one item each."""
    chunk, budget = [], 0
    for item in items:
        chunk.append(item)
        budget += draws(item)
        if budget >= _CHUNK_DRAWS:
            yield chunk
            chunk, budget = [], 0
    if chunk:
        yield chunk


def _check_kind(spec: CorruptionSpec, expected: str):
    if spec.kind != expected:
        raise DomainError(f"spec kind is {spec.kind!r}, expected {expected!r}")


def _side_text(pair: SentencePair, side: str) -> str:
    return pair.source if side == "source" else pair.target


def _with_side(pair: SentencePair, side: str, text: str) -> SentencePair:
    # Called once per pair: the constructor costs a third of ``replace``.
    if side == "source":
        return SentencePair(text, pair.target, pair.score, pair.index)
    return SentencePair(pair.source, text, pair.score, pair.index)


def corrupt_chars(pairs: Iterable[SentencePair], spec: CorruptionSpec) -> Iterator[SentencePair]:
    """Independently replace characters on one side with random symbols.

    Each Unicode character of the chosen side is replaced with probability
    ``spec.prob`` by a symbol drawn uniformly from the 94-character
    :data:`REPLACEMENT_ALPHABET`; character counts per sentence are
    preserved and the other side passes through byte-identical.

    Draw order: for each character in turn, one coin and, only on a hit, one
    symbol, so a pair of ``n`` characters uses at most ``2n`` draws and draw
    ``t`` is not tied to character ``t``.
    """
    import numpy as np

    _check_kind(spec, "char_noise")
    side = spec.side
    texts = ((pair, _side_text(pair, side)) for pair in pairs)
    for chunk in _chunks(texts, lambda item: 2 * len(item[1])):
        u, starts = _streams(spec.seed, [pair.index for pair, _ in chunk], [2 * len(t) for _, t in chunk])
        # nxt[k]: offset of the first hitting coin at or after offset k; the
        # two sentinels let the walk look two past a hit on the last draw.
        n = len(u)
        hit_at = np.where(_coins(u, spec.prob), np.arange(n), n)
        nxt = np.minimum.accumulate(hit_at[::-1])[::-1].tolist() + [n, n]
        symbols = (u % np.uint64(len(REPLACEMENT_ALPHABET))).tolist()
        for (pair, text), start in zip(chunk, starts):
            # Before its first hit a pair's draws are all coins, and after a
            # hit at t they are again from t + 2 on; h hits so far put the
            # coin of character i at start + i + h.
            t = nxt[start]
            i = t - start
            if i >= len(text):
                yield pair
                continue
            chars = list(text)
            h = 0
            while i < len(chars):
                chars[i] = REPLACEMENT_ALPHABET[symbols[t + 1]]
                h += 1
                t = nxt[t + 2]
                i = t - start - h
            yield _with_side(pair, side, "".join(chars))


def delete_words(pairs: Iterable[SentencePair], spec: CorruptionSpec) -> Iterator[SentencePair]:
    """Independently drop whitespace-delimited words on one side.

    Words are maximal runs of non-whitespace; survivors are rejoined with
    single spaces (so whitespace is normalized even at ``prob = 0``), and a
    sentence may come out empty.  The surviving words are always a
    subsequence of the input words.  Word ``w`` is dropped when draw
    ``w + 1`` of its pair's stream is a hitting coin.
    """
    _check_kind(spec, "word_delete")
    split = ((pair, _side_text(pair, spec.side).split()) for pair in pairs)
    for chunk in _chunks(split, lambda item: len(item[1])):
        u, starts = _streams(spec.seed, [pair.index for pair, _ in chunk], [len(w) for _, w in chunk])
        keep = (~_coins(u, spec.prob)).tolist()
        for (pair, words), start in zip(chunk, starts):
            kept = itertools.compress(words, keep[start : start + len(words)])
            yield _with_side(pair, spec.side, " ".join(kept))


def shuffle_pairs(pairs: list[SentencePair], spec: CorruptionSpec) -> list[SentencePair]:
    """Break the alignment of a random subset of pairs.

    Each pair is selected with probability ``spec.prob`` (per-pair coin,
    keyed by its index: draw 1 of its stream); the targets of the selected
    pairs are then rotated by one position among themselves, so whenever at
    least two pairs are selected every one of them receives some other
    pair's target.  Sources never move and the multiset of targets is
    preserved.  ``spec.side`` is ignored: the operation is symmetric in
    effect.
    """
    _check_kind(spec, "pair_shuffle")
    selected = []
    for chunk in _chunks(enumerate(pairs), lambda item: 1):
        u, _ = _streams(spec.seed, [pair.index for _, pair in chunk], [1] * len(chunk))
        hits = _coins(u, spec.prob).tolist()
        selected += itertools.compress((i for i, _ in chunk), hits)
    out = list(pairs)
    if len(selected) >= 2:
        rotated_targets = [pairs[selected[(j + 1) % len(selected)]].target for j in range(len(selected))]
        for pos, target in zip(selected, rotated_targets):
            out[pos] = replace(out[pos], target=target)
    return out


def filter_top_fraction(pairs: list[SentencePair], fraction: float) -> list[SentencePair]:
    """Keep the highest-scoring ``ceil(fraction * n)`` pairs.

    Ties at the cutoff are broken in favor of the lower index; the result
    is returned in original corpus order.

    Raises:
        SchemaError: Some pair has no score.
        DomainError: ``fraction`` outside (0, 1].
    """
    if not 0 < fraction <= 1:
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    for pair in pairs:
        if pair.score is None:
            raise SchemaError(f"pair at index {pair.index} has no score")
    k = math.ceil(fraction * len(pairs))
    ranked = sorted(pairs, key=lambda pair: (-pair.score, pair.index))
    return sorted(ranked[:k], key=lambda pair: pair.index)


def sample_subset(pairs: Iterable[SentencePair], size: int, seed: int) -> list[SentencePair]:
    """Uniform sample without replacement via single-pass reservoir sampling.

    The acceptance draw for the i-th arriving pair comes from a stream
    keyed by ``(seed, i)``, so the sample depends only on the seed and the
    arrival order, never on chunking.  The result is sorted by original
    index.

    Raises:
        DomainError: ``size`` is not positive or exceeds the corpus size.
    """
    if size < 1:
        raise DomainError(f"sample size must be positive, got {size}")
    reservoir: list[SentencePair] = []
    arrivals = 0
    for pair in pairs:
        if arrivals < size:
            reservoir.append(pair)
        else:
            u = SplitMix64.for_item(seed, arrivals).next_float()
            slot = int(u * (arrivals + 1))
            if slot < size:
                reservoir[slot] = pair
        arrivals += 1
    if arrivals < size:
        raise DomainError(f"sample size {size} exceeds corpus size {arrivals}")
    return sorted(reservoir, key=lambda pair: pair.index)


# ---------------------------------------------------------------------------
# TAB-separated corpus files
# ---------------------------------------------------------------------------


def parse_pair_line(line: str, line_number: int, index: int) -> SentencePair:
    """Parse one ``source<TAB>target[<TAB>score]`` record."""
    fields = line.split("\t")
    if len(fields) not in (2, 3):
        raise ParseError(
            f"expected 2 or 3 TAB-separated fields, got {len(fields)}", line=line_number
        )
    score = None
    if len(fields) == 3:
        try:
            score = float(fields[2])
        except ValueError:
            raise ParseError(f"bad score {fields[2]!r}", line=line_number) from None
    return SentencePair(source=fields[0], target=fields[1], score=score, index=index)


def read_pairs(path) -> Iterator[SentencePair]:
    """Stream pairs from a TAB-separated corpus file.

    Raises:
        ParseError: A line does not have 2 or 3 fields (reported with its
            1-based line number).
    """
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            yield parse_pair_line(line.rstrip("\r\n"), line_number, line_number - 1)


def format_pair(pair: SentencePair) -> str:
    if pair.score is None:
        return f"{pair.source}\t{pair.target}"
    return f"{pair.source}\t{pair.target}\t{pair.score!r}"


def write_pairs(path, pairs: Iterable[SentencePair]) -> int:
    """Write pairs in the TAB format; returns the number of lines written.

    The file appears only once every pair is written, so an error while
    ``pairs`` is consumed leaves an existing ``path`` as it was."""
    n = 0
    with replace_on_success(path) as fh:
        for pair in pairs:
            fh.write(format_pair(pair) + "\n")
            n += 1
    return n
