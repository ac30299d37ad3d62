"""Deterministic parallel-corpus operations.

A corpus is a sequence of :class:`SentencePair` records.  The noise
operations (character substitution, word deletion, pair shuffling) draw all
their randomness from per-pair SplitMix64 streams derived from
``(seed, pair.index)``, so the output for any pair is independent of
processing order, chunking, or concurrency; the same seed always yields a
byte-identical corpus.

File format: UTF-8 text, one pair per line, ``source<TAB>target`` with an
optional third TAB-separated field holding a decimal quality score.
"""

from __future__ import annotations

import math
import string
from collections.abc import Iterable, Iterator
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
    other items were processed.
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


def _check_kind(spec: CorruptionSpec, expected: str):
    if spec.kind != expected:
        raise DomainError(f"spec kind is {spec.kind!r}, expected {expected!r}")


def _with_side(pair: SentencePair, side: str, text: str) -> SentencePair:
    if side == "source":
        return replace(pair, source=text)
    return replace(pair, target=text)


def corrupt_chars(pairs: Iterable[SentencePair], spec: CorruptionSpec) -> Iterator[SentencePair]:
    """Independently replace characters on one side with random symbols.

    Each Unicode character of the chosen side is replaced with probability
    ``spec.prob`` by a symbol drawn uniformly from the 94-character
    :data:`REPLACEMENT_ALPHABET`; character counts per sentence are
    preserved and the other side passes through byte-identical.
    """
    _check_kind(spec, "char_noise")
    n_symbols = len(REPLACEMENT_ALPHABET)
    for pair in pairs:
        rng = SplitMix64.for_item(spec.seed, pair.index)
        text = pair.source if spec.side == "source" else pair.target
        chars = list(text)
        for i in range(len(chars)):
            if rng.next_float() < spec.prob:
                chars[i] = REPLACEMENT_ALPHABET[rng.next_below(n_symbols)]
        yield _with_side(pair, spec.side, "".join(chars))


def delete_words(pairs: Iterable[SentencePair], spec: CorruptionSpec) -> Iterator[SentencePair]:
    """Independently drop whitespace-delimited words on one side.

    Words are maximal runs of non-whitespace; survivors are rejoined with
    single spaces (so whitespace is normalized even at ``prob = 0``), and a
    sentence may come out empty.  The surviving words are always a
    subsequence of the input words.
    """
    _check_kind(spec, "word_delete")
    for pair in pairs:
        rng = SplitMix64.for_item(spec.seed, pair.index)
        text = pair.source if spec.side == "source" else pair.target
        kept = [w for w in text.split() if rng.next_float() >= spec.prob]
        yield _with_side(pair, spec.side, " ".join(kept))


def shuffle_pairs(pairs: list[SentencePair], spec: CorruptionSpec) -> list[SentencePair]:
    """Break the alignment of a random subset of pairs.

    Each pair is selected with probability ``spec.prob`` (per-pair coin,
    keyed by its index); the targets of the selected pairs are then rotated
    by one position among themselves, so whenever at least two pairs are
    selected every one of them receives some other pair's target.  Sources
    never move and the multiset of targets is preserved.  ``spec.side`` is
    ignored: the operation is symmetric in effect.
    """
    _check_kind(spec, "pair_shuffle")
    selected = [
        i
        for i, pair in enumerate(pairs)
        if SplitMix64.for_item(spec.seed, pair.index).next_float() < spec.prob
    ]
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
