"""Deterministic parallel-corpus operations.

A corpus is a sequence of :class:`SentencePair` records: named tuples
``(source, target, score, index)``, immutable, hashable and equal by value.
The noise operations (character substitution, word deletion, pair shuffling)
draw all their randomness from per-pair streams derived from
``(seed, pair.index)``, laid out below, so the output for any pair is
independent of processing order, chunking, or concurrency; the same seed
always yields a byte-identical corpus.

Stream layout: pair ``i`` starts from ``s_i = mix(seed + (i + 1)·G mod 2⁶⁴)``
and its draw ``k = 1, 2, …`` is ``mix(s_i + k·G mod 2⁶⁴)``, where ``G`` is
the golden-ratio increment and ``mix`` the SplitMix finalizer.  A draw
``u`` gives the coin ``(u >> 11)·2⁻⁵³ < prob`` and the symbol ``u mod 94``.
Since every draw is a function of its counter alone, the noise operations
compute the draws of a chunk of pairs together as numpy ``uint64`` arrays
(Salmon et al., SC'11).

Each unit of noise owns fixed draws of its pair's stream: character ``t``
(0-based) has draw ``2t + 1`` as its coin and draw ``2t + 2`` as its
symbol, word ``w`` (0-based) has draw ``w + 1`` as its coin, and the pair
has draw 1.  A unit's coin thus does not depend on ``prob`` or on the other
units, so the noise nests across rates: under one seed, the units changed
at a lower ``prob`` are a subset of those changed at a higher one, and a
character replaced at both gets the same symbol.

Memory: ``corrupt_chars`` and ``delete_words`` hold one chunk of pairs,
about ``_CHUNK_DRAWS`` characters of the noised side.  ``shuffle_pairs``
holds a chunk of about ``8 * _CHUNK_DRAWS`` target characters and at most
``_CHUNK_DRAWS // 8`` pairs, plus the pairs from the last selected pair
onward, a gap of about ``1/prob`` pairs; only a small ``prob`` makes that
much of the corpus.  ``sample_subset`` holds its sample.
``filter_top_fraction`` reads its input twice and holds the scores, 8 bytes
a pair, plus a sorted copy of them while it finds the cutoff (~40 bytes a
pair in all).

File format: UTF-8 text, one pair per line, ``source<TAB>target`` with an
optional third TAB-separated field holding a decimal quality score.  Lines
end at LF, or CRLF; no field holds a TAB, CR or LF, so the reader rejects
what the writer refuses to write.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import string
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

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
# arrays stay well under a MB.  Output does not depend on it.
_CHUNK_DRAWS = 1 << 13


def _mix64(x: int) -> int:
    """The ``mix`` of the stream layout: SplitMix's 64-bit output scrambler
    (Steele, Lea & Flood, OOPSLA 2014)."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SentencePair(NamedTuple):
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


def _streams(seed: int, indices: Iterable[int], counts):
    """Draws ``1 … counts[j]`` of the stream of pair index ``indices[j]``
    under ``seed``, in the stream layout of the module docstring.

    Returns the draws of all streams concatenated into one ``uint64`` array,
    and the ``int64`` array of each stream's start offset in it.
    """
    import numpy as np

    # Python ints reduce any seed and index, negative or beyond 64 bits,
    # modulo 2⁶⁴; the rest is uint64 array arithmetic, which wraps without a
    # warning.  The bases are seed + (index + 1)·G.
    golden = np.uint64(_GOLDEN)
    bases = np.array([index & _MASK64 for index in indices], dtype=np.uint64) * golden
    bases += np.uint64((seed + _GOLDEN) & _MASK64)
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    # Draw k of stream j sits at offset p = starts[j] + k - 1, so its state
    # s_j + k·G is (s_j + (1 - starts[j])·G) + p·G.
    first = _mix64_array(bases) + golden - starts.astype(np.uint64) * golden
    state = np.repeat(first, counts)
    state += np.arange(len(state), dtype=np.uint64) * golden
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
    """The coin ``(u >> 11)·2⁻⁵³ < prob`` of each draw in ``u``.

    ``(u >> 11)·2⁻⁵³ < prob`` holds exactly when the integer ``u >> 11`` is
    below ``ceil(prob·2⁵³)``, as scaling by a power of two is exact.
    """
    import numpy as np

    return (u >> np.uint64(11)) < np.uint64(math.ceil(prob * 2.0**53))


def _chunks(pairs: Iterable[SentencePair], column: int, chars: int, max_pairs: int | None = None) -> Iterator[list]:
    """Group ``pairs`` in order into lists whose ``column`` texts hold about
    ``chars`` characters, at least one pair each and, given ``max_pairs``,
    at most that many."""
    chunk, budget = [], 0
    for pair in pairs:
        chunk.append(pair)
        budget += len(pair[column])
        if budget >= chars or len(chunk) == max_pairs:
            yield chunk
            chunk, budget = [], 0
    if chunk:
        yield chunk


def _check_kind(spec: CorruptionSpec, expected: str):
    if spec.kind != expected:
        raise DomainError(f"spec kind is {spec.kind!r}, expected {expected!r}")


def corrupt_chars(pairs: Iterable[SentencePair], spec: CorruptionSpec) -> Iterator[SentencePair]:
    """Independently replace characters on one side with random symbols.

    Each Unicode character of the chosen side is replaced with probability
    ``spec.prob`` by a symbol drawn uniformly from the 94-character
    :data:`REPLACEMENT_ALPHABET`; character counts per sentence are
    preserved and the other side passes through byte-identical.

    Character ``t`` (0-based) of a pair is replaced when draw ``2t + 1`` of
    its pair's stream is a hitting coin, by the symbol of draw ``2t + 2``;
    the draw of a miss's symbol goes unused.
    """
    import numpy as np

    _check_kind(spec, "char_noise")
    column = SentencePair._fields.index(spec.side)
    alphabet = np.frombuffer(REPLACEMENT_ALPHABET.encode("utf-32-le"), dtype=np.uint32)
    for chunk in _chunks(pairs, column, _CHUNK_DRAWS // 2):
        fields = list(zip(*chunk))  # source, target, score and index columns
        lengths = np.fromiter(map(len, fields[column]), dtype=np.int64, count=len(chunk))
        ends = np.cumsum(lengths)
        offsets = ends - lengths
        # A pair's draws start at twice its offset in the chunk's text, so
        # character i of the text has its coin at 2i and its symbol at 2i + 1.
        u, _ = _streams(spec.seed, fields[3], 2 * lengths)
        hit = _coins(u[::2], spec.prob)
        # A str may hold a lone surrogate, which only surrogatepass encodes.
        encoded = "".join(fields[column]).encode("utf-32-le", "surrogatepass")
        codes = np.frombuffer(encoded, dtype=np.uint32).copy()
        codes[hit] = alphabet[u[1::2][hit] % np.uint64(len(alphabet))]
        text = codes.tobytes().decode("utf-32-le", "surrogatepass")
        fields[column] = [text[a:b] for a, b in zip(offsets.tolist(), ends.tolist())]
        yield from map(SentencePair._make, zip(*fields))


def delete_words(pairs: Iterable[SentencePair], spec: CorruptionSpec) -> Iterator[SentencePair]:
    """Independently drop whitespace-delimited words on one side.

    Words are maximal runs of non-whitespace; survivors are rejoined with
    single spaces (so whitespace is normalized even at ``prob = 0``), and a
    sentence may come out empty.  The surviving words are always a
    subsequence of the input words.  Word ``w`` is dropped when draw
    ``w + 1`` of its pair's stream is a hitting coin.
    """
    _check_kind(spec, "word_delete")
    column = SentencePair._fields.index(spec.side)
    # A word holds at least one character, so it needs at most one draw per
    # character.
    for chunk in _chunks(pairs, column, _CHUNK_DRAWS):
        fields = list(zip(*chunk))  # source, target, score and index columns
        words = [text.split() for text in fields[column]]
        u, starts = _streams(spec.seed, fields[3], list(map(len, words)))
        keep = (~_coins(u, spec.prob)).tolist()
        fields[column] = [
            " ".join(itertools.compress(kept, keep[start : start + len(kept)]))
            for kept, start in zip(words, starts.tolist())
        ]
        yield from map(SentencePair._make, zip(*fields))


def shuffle_pairs(pairs: Iterable[SentencePair], spec: CorruptionSpec) -> Iterator[SentencePair]:
    """Break the alignment of a random subset of pairs.

    Each pair is selected with probability ``spec.prob`` (per-pair coin,
    keyed by its index: draw 1 of its stream); the targets of the selected
    pairs are then rotated by one position among themselves, so whenever at
    least two pairs are selected every one of them receives some other
    pair's target.  Sources never move and the multiset of targets is
    preserved.  ``spec.side`` is ignored: the operation is symmetric in
    effect.

    Pairs come out lazily, in input order.  A selected pair waits for the
    target of the next selected one, so what is held is the first selected
    target and the pairs from the last selected pair onward: about
    ``1/prob`` pairs, and at the end every pair after the last selected one.
    """
    import numpy as np

    _check_kind(spec, "pair_shuffle")
    first_target = None
    rotated = False
    held: list[SentencePair] = []  # the last selected pair and every pair after it
    # One draw per pair, not per character: chunks of 8x the characters keep
    # numpy's per-call overhead small, and the pair cap keeps a chunk of
    # short sentences from holding thousands of pairs.
    for chunk in _chunks(pairs, 1, 8 * _CHUNK_DRAWS, _CHUNK_DRAWS // 8):
        u, _ = _streams(spec.seed, [pair.index for pair in chunk], [1] * len(chunk))
        done = 0
        for pos in np.flatnonzero(_coins(u, spec.prob)).tolist():
            if held:
                held += chunk[done:pos]
                yield held[0]._replace(target=chunk[pos].target)
                yield from itertools.islice(held, 1, None)
                rotated = True
            else:
                yield from chunk[done:pos]
                first_target = chunk[pos].target
            held = [chunk[pos]]
            done = pos + 1
        if held:
            held += chunk[done:]
        else:
            yield from chunk
    if rotated:
        held[0] = held[0]._replace(target=first_target)
    yield from held


def filter_top_fraction(pairs: Iterable[SentencePair], fraction: float) -> Iterator[SentencePair]:
    """Keep the highest-scoring ``ceil(fraction * n)`` pairs.

    The product is taken exactly on the decimal ``repr(fraction)``, so 0.07
    of 100 pairs keeps 7, where the float product 7.000000000000001 would
    round up to 8.  Ties at the cutoff are broken in favor of the pair that
    comes first, which is the lower index in any corpus :func:`read_pairs`
    yields.

    ``pairs`` is iterated twice, so it must be re-iterable (a list, or an
    object whose ``iter()`` starts again), not an iterator.  The first pass
    runs at the call: it checks every score and keeps the scores alone, in
    8 bytes a pair.  The returned iterator is the second pass, which yields
    the kept pairs in input order.

    Raises:
        SchemaError: Some pair has no score, or a NaN score, which has no
            rank; ``pairs`` is an iterator; or the second pass sees another
            pair count or another score than the first (raised by the
            returned iterator).
        DomainError: ``fraction`` outside (0, 1].
    """
    if not 0 < fraction <= 1:
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    if isinstance(pairs, Iterator):
        raise SchemaError("filter_top_fraction reads its pairs twice; pass a re-iterable, not an iterator")
    scores = array("d")
    for pair in pairs:
        if pair.score is None:
            raise SchemaError(f"pair at index {pair.index} has no score")
        if math.isnan(pair.score):
            raise SchemaError(f"pair at index {pair.index} has a NaN score")
        scores.append(pair.score)
    from fractions import Fraction

    n = len(scores)
    k = math.ceil(Fraction(repr(float(fraction))) * n)
    if k == 0:
        return iter(())
    # The k-th highest score is the cutoff: every pair above it is kept, and
    # of those tied with it the first ``ties`` are.
    ascending = sorted(scores)
    cutoff = ascending[n - k]
    ties = k - (n - bisect.bisect_right(ascending, cutoff))
    return _kept(pairs, scores, cutoff, ties)


def _kept(pairs: Iterable[SentencePair], scores: array, cutoff: float, ties: int) -> Iterator[SentencePair]:
    """The second pass of :func:`filter_top_fraction`."""
    n = len(scores)
    position = -1
    for position, pair in enumerate(pairs):
        if position == n or pair.score != scores[position]:
            raise SchemaError(f"the pairs changed between the filter's two passes, at position {position}")
        if pair.score > cutoff:
            yield pair
        elif ties and pair.score == cutoff:
            ties -= 1
            yield pair
    if position + 1 != n:
        raise SchemaError(f"the pairs changed between the filter's two passes: {n} pairs, then {position + 1}")


def sample_subset(pairs: Iterable[SentencePair], size: int, seed: int) -> list[SentencePair]:
    """Uniform sample without replacement by bottom-k keys, in one pass.

    The key of the i-th arriving pair is draw 1 of the stream keyed by
    ``(seed, i)``; the sample is the ``size`` pairs of smallest key, ties
    going to the earlier pair.  It depends only on the seed and the arrival
    order, never on chunking, and under one seed a smaller sample is a
    subset of a larger one.  The result is sorted by original index.

    Raises:
        DomainError: ``size`` is not positive or exceeds the corpus size.
    """
    if size < 1:
        raise DomainError(f"sample size must be positive, got {size}")
    # A max-heap of the smallest keys so far, as (-key, -arrival, pair).
    heap: list[tuple[int, int, SentencePair]] = []
    arrivals = 0
    for arrivals, pair in enumerate(pairs, 1):
        key = -_mix64(_mix64(seed + arrivals * _GOLDEN) + _GOLDEN)
        if len(heap) < size:
            heapq.heappush(heap, (key, -arrivals, pair))
        elif key > heap[0][0]:
            heapq.heapreplace(heap, (key, -arrivals, pair))
    if arrivals < size:
        raise DomainError(f"sample size {size} exceeds corpus size {arrivals}")
    return sorted((pair for _, _, pair in heap), key=attrgetter("index"))


# ---------------------------------------------------------------------------
# TAB-separated corpus files
# ---------------------------------------------------------------------------


def read_pairs(path) -> Iterator[SentencePair]:
    """Stream pairs from a TAB-separated corpus file.

    Line ``n`` holds ``source<TAB>target[<TAB>score]`` and becomes the pair
    of index ``n - 1``; the score is read by ``float``.  Lines end at LF, so
    a bare CR cannot shift the index of every later pair.

    Raises:
        ParseError: A line does not have 2 or 3 fields, holds a CR before
            its end, or its score is not a number (reported with its 1-based
            line number).
    """
    with open(path, encoding="utf-8", newline="\n") as fh:
        for index, line in enumerate(fh):
            # Only a final LF or CRLF ends the line; any other CR is in a field.
            line = line.removesuffix("\r\n").removesuffix("\n")
            if "\r" in line:
                raise ParseError("bare CR inside a field", line=index + 1)
            fields = line.split("\t")
            if len(fields) == 3:
                try:
                    fields[2] = float(fields[2])
                except ValueError:
                    raise ParseError(f"bad score {fields[2]!r}", line=index + 1) from None
            elif len(fields) == 2:
                fields.append(None)
            else:
                raise ParseError(
                    f"expected 2 or 3 TAB-separated fields, got {len(fields)}", line=index + 1
                )
            fields.append(index)
            yield SentencePair._make(fields)


def format_pair(pair: SentencePair) -> str:
    """The line of ``pair``, without its LF.

    Raises:
        SchemaError: A field holds a TAB, CR or LF, which would not read back
            as the same pair.
    """
    if pair.score is None:
        line = f"{pair.source}\t{pair.target}"
    else:
        # The repr of a float, not of a numpy scalar, reads back by ``float``.
        line = f"{pair.source}\t{pair.target}\t{float(pair.score)!r}"
    # A float's repr holds none of the three.  TABs are looked for in the two
    # text fields: counting them in the line costs several times as much.
    if "\n" in line or "\r" in line or "\t" in pair.source or "\t" in pair.target:
        raise SchemaError(f"pair at index {pair.index} holds a TAB, CR or LF in a field")
    return line


def write_pairs(path, pairs: Iterable[SentencePair]) -> int:
    """Write pairs in the TAB format; returns the number of lines written.

    The file appears only once every pair is written, so an error while
    ``pairs`` is consumed, or a pair :func:`format_pair` rejects, leaves an
    existing ``path`` as it was."""
    n = 0
    with replace_on_success(path) as fh:
        for pair in pairs:
            fh.write(format_pair(pair) + "\n")
            n += 1
    return n
