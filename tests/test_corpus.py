"""Corpus operations: determinism, side isolation, structural invariants."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import datascale as ds
from datascale import corpus
from datascale.cli import main
from datascale.corpus import REPLACEMENT_ALPHABET, format_pair

from conftest import SplitMix64

WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


def make_corpus(n, seed=123, words_per_side=6, with_scores=False):
    pairs = []
    for i in range(n):
        rng = SplitMix64.for_item(seed, i)
        src = " ".join(WORDS[rng.next_below(len(WORDS))] for _ in range(words_per_side))
        tgt = f"t{i} " + " ".join(WORDS[rng.next_below(len(WORDS))] for _ in range(words_per_side - 1))
        score = rng.next_float() if with_scores else None
        pairs.append(ds.SentencePair(source=src, target=tgt, score=score, index=i))
    return pairs


class TestSplitMix64:
    def test_stream_is_reproducible(self):
        a = SplitMix64.for_item(7, 3)
        b = SplitMix64.for_item(7, 3)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_streams_differ_across_items(self):
        a = SplitMix64.for_item(7, 3).next_u64()
        b = SplitMix64.for_item(7, 4).next_u64()
        c = SplitMix64.for_item(8, 3).next_u64()
        assert len({a, b, c}) == 3

    def test_floats_in_unit_interval(self):
        rng = SplitMix64.for_item(1, 1)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)


class TestSentencePair:
    def test_named_tuple_fields_and_defaults(self):
        pair = ds.SentencePair("s", "t")
        assert pair._fields == ("source", "target", "score", "index")
        assert pair == ("s", "t", None, 0)
        assert ds.SentencePair("s", "t", 0.5, 3) == ds.SentencePair(source="s", target="t", score=0.5, index=3)

    def test_immutable_and_hashable_by_value(self):
        pair = ds.SentencePair("s", "t", 0.5, 3)
        with pytest.raises(AttributeError):
            pair.source = "x"
        assert len({pair, ds.SentencePair("s", "t", 0.5, 3)}) == 1


class TestCorruptChars:
    def test_zero_probability_is_identity(self):
        pairs = make_corpus(50)
        spec = ds.CorruptionSpec(kind="char_noise", side="source", prob=0.0, seed=1)
        assert list(ds.corrupt_chars(pairs, spec)) == pairs

    def test_full_probability_replaces_everything_deterministically(self):
        pairs = make_corpus(30)
        spec = ds.CorruptionSpec(kind="char_noise", side="target", prob=1.0, seed=2)
        once = list(ds.corrupt_chars(pairs, spec))
        twice = list(ds.corrupt_chars(pairs, spec))
        assert once == twice
        for out in once:
            assert all(ch in REPLACEMENT_ALPHABET for ch in out.target)

    def test_preserves_char_counts_and_other_side(self):
        pairs = make_corpus(100)
        spec = ds.CorruptionSpec(kind="char_noise", side="source", prob=0.3, seed=3)
        for before, after in zip(pairs, ds.corrupt_chars(pairs, spec)):
            assert len(after.source) == len(before.source)
            assert after.target == before.target
            assert after.index == before.index

    def test_output_independent_of_processing_order(self):
        pairs = make_corpus(40)
        spec = ds.CorruptionSpec(kind="char_noise", side="source", prob=0.5, seed=9)
        forward = {p.index: p for p in ds.corrupt_chars(pairs, spec)}
        backward = {p.index: p for p in ds.corrupt_chars(reversed(pairs), spec)}
        assert forward == backward

    def test_empty_sentence_passes_through(self):
        pairs = [ds.SentencePair(source="", target="x", index=0)]
        spec = ds.CorruptionSpec(kind="char_noise", side="source", prob=1.0, seed=4)
        assert list(ds.corrupt_chars(pairs, spec))[0].source == ""

    def test_kind_mismatch_rejected(self):
        spec = ds.CorruptionSpec(kind="word_delete", side="source", prob=0.1, seed=0)
        with pytest.raises(ds.DomainError):
            list(ds.corrupt_chars(make_corpus(1), spec))


class TestDeleteWords:
    def test_zero_probability_keeps_words_normalizing_whitespace(self):
        pairs = [ds.SentencePair(source="a  b\tc", target="x", index=0)]
        spec = ds.CorruptionSpec(kind="word_delete", side="source", prob=0.0, seed=1)
        out = list(ds.delete_words(pairs, spec))[0]
        assert out.source == "a b c"

    def test_full_probability_empties_the_side(self):
        pairs = make_corpus(20)
        spec = ds.CorruptionSpec(kind="word_delete", side="target", prob=1.0, seed=2)
        assert all(p.target == "" for p in ds.delete_words(pairs, spec))

    def test_survivors_are_a_subsequence(self):
        pairs = make_corpus(200)
        spec = ds.CorruptionSpec(kind="word_delete", side="source", prob=0.4, seed=3)
        for before, after in zip(pairs, ds.delete_words(pairs, spec)):
            words = iter(before.source.split())
            for survivor in after.source.split():
                for word in words:
                    if word == survivor:
                        break
                else:
                    pytest.fail(f"{survivor!r} is not in order in {before.source!r}")
            assert after.target == before.target


class TestShufflePairs:
    def test_zero_probability_is_identity(self):
        pairs = make_corpus(50)
        spec = ds.CorruptionSpec(kind="pair_shuffle", side="source", prob=0.0, seed=1)
        assert list(ds.shuffle_pairs(pairs, spec)) == pairs

    def test_single_selected_pair_is_left_alone(self):
        # a one-element rotation is the identity, so prob=1 on a singleton
        # corpus must change nothing
        pairs = make_corpus(1)
        spec = ds.CorruptionSpec(kind="pair_shuffle", side="source", prob=1.0, seed=2)
        assert list(ds.shuffle_pairs(pairs, spec)) == pairs

    def test_selected_pairs_swap_targets_preserving_multiset(self):
        pairs = make_corpus(500)
        spec = ds.CorruptionSpec(kind="pair_shuffle", side="source", prob=0.2, seed=3)
        out = list(ds.shuffle_pairs(pairs, spec))
        assert sorted(p.target for p in out) == sorted(p.target for p in pairs)
        assert [p.source for p in out] == [p.source for p in pairs]
        moved = [i for i, (a, b) in enumerate(zip(pairs, out)) if a.target != b.target]
        assert len(moved) >= 2
        # every moved pair received some *other* pair's target
        originals = {p.target for p in pairs}
        for i in moved:
            assert out[i].target in originals

    def test_full_probability_rotates_all_targets(self):
        pairs = make_corpus(10)
        spec = ds.CorruptionSpec(kind="pair_shuffle", side="source", prob=1.0, seed=4)
        out = ds.shuffle_pairs(pairs, spec)
        assert all(a.target != b.target for a, b in zip(pairs, out))

    @pytest.mark.parametrize(
        "selected",
        [(), (0,), (3,), (7,), (3, 4), (0, 7), (1, 2, 5), tuple(range(8))],
        ids=["none", "first", "middle", "last", "adjacent", "ends", "three", "all"],
    )
    @pytest.mark.parametrize("budget", [1, 7, corpus._CHUNK_DRAWS])
    def test_streamed_rotation_equals_the_oracle(self, monkeypatch, selected, budget):
        spec = ds.CorruptionSpec(kind="pair_shuffle", side="source", prob=0.5, seed=5)
        pairs = pairs_selected_at(selected, 8, spec)
        monkeypatch.setattr(corpus, "_CHUNK_DRAWS", budget)
        out = list(ds.shuffle_pairs(iter(pairs), spec))
        assert out == oracle_shuffle(pairs, spec)
        moved = tuple(i for i, (a, b) in enumerate(zip(pairs, out)) if a.target != b.target)
        assert moved == (selected if len(selected) >= 2 else ())


def pairs_selected_at(selected, n, spec):
    """``n`` pairs of ascending indices whose pair_shuffle coins under
    ``spec`` hit at exactly the positions in ``selected``."""
    pairs, index = [], -1
    for pos in range(n):
        index += 1
        while (SplitMix64.for_item(spec.seed, index).next_float() < spec.prob) != (pos in selected):
            index += 1
        pairs.append(ds.SentencePair(f"s{pos}", f"t{pos}", index=index))
    return pairs


class TestFilterTopFraction:
    def test_full_fraction_keeps_everything_in_order(self):
        pairs = make_corpus(20, with_scores=True)
        assert list(ds.filter_top_fraction(pairs, 1.0)) == pairs

    def test_tie_at_cutoff_prefers_lower_index(self):
        pairs = [
            ds.SentencePair("s0", "t0", score=0.9, index=0),
            ds.SentencePair("s1", "t1", score=0.1, index=1),
            ds.SentencePair("s2", "t2", score=0.5, index=2),
            ds.SentencePair("s3", "t3", score=0.5, index=3),
        ]
        kept = ds.filter_top_fraction(pairs, 0.5)
        assert [p.index for p in kept] == [0, 2]

    def test_agrees_with_sort_based_oracle(self):
        pairs = make_corpus(5000, with_scores=True)
        kept = list(ds.filter_top_fraction(pairs, 0.5))
        kept_idx = {p.index for p in kept}
        excluded = [p for p in pairs if p.index not in kept_idx]
        min_kept = min(p.score for p in kept)
        max_excluded = max(p.score for p in excluded)
        if min_kept == max_excluded:
            boundary_kept = min(p.index for p in kept if p.score == min_kept)
            boundary_out = min(p.index for p in excluded if p.score == max_excluded)
            assert boundary_kept < boundary_out
        else:
            assert min_kept > max_excluded
        assert [p.index for p in kept] == sorted(kept_idx)

    def test_missing_score_rejected(self):
        pairs = make_corpus(3, with_scores=True) + [ds.SentencePair("s", "t", index=3)]
        with pytest.raises(ds.SchemaError):
            ds.filter_top_fraction(pairs, 0.5)

    def test_zero_fraction_rejected(self):
        with pytest.raises(ds.DomainError):
            ds.filter_top_fraction(make_corpus(3, with_scores=True), 0.0)

    @pytest.mark.parametrize("position", [1, 2])
    def test_nan_score_rejected_naming_the_pair(self, position):
        # A NaN has no rank: sorting on it kept a set that depended on where
        # it sat ([0, 1, 3] here with the NaN at 1, [0, 1, 2] at 2).
        scores = [0.9, 0.1, 0.8, 0.2, 0.7]
        scores.insert(position, math.nan)
        pairs = [ds.SentencePair(f"s{i}", f"t{i}", score=x, index=i) for i, x in enumerate(scores)]
        with pytest.raises(ds.SchemaError, match=f"index {position} has a NaN score"):
            ds.filter_top_fraction(pairs, 0.5)

    @pytest.mark.parametrize("fraction, kept", [(0.07, 7), (0.55, 55), (0.3, 30), (0.5, 50)])
    def test_count_is_exact_on_the_decimal_fraction(self, fraction, kept):
        # The float products 0.07 * 100 and 0.55 * 100 lie just above 7 and 55.
        assert len(list(ds.filter_top_fraction(make_corpus(100, with_scores=True), fraction))) == kept

    def test_infinite_scores_rank_at_the_ends(self):
        scores = [0.5, -math.inf, math.inf, 0.25]
        pairs = [ds.SentencePair(f"s{i}", f"t{i}", score=x, index=i) for i, x in enumerate(scores)]
        assert [p.index for p in ds.filter_top_fraction(pairs, 0.75)] == [0, 2, 3]

    def test_ties_at_every_cutoff_follow_the_sort_rule(self):
        # Mostly ties: +-0.0 compare equal, and the infinities tie with
        # themselves.  k/40 is an exact decimal, so fraction k/40 keeps k.
        values = [0.0, -0.0, math.inf, -math.inf, 0.5, -0.5]
        pairs = [
            ds.SentencePair(f"s{i}", f"t{i}", score=values[(i * 7) % 11 % len(values)], index=i)
            for i in range(40)
        ]
        ranked = sorted(sorted(pairs, key=lambda p: p.index), key=lambda p: p.score, reverse=True)
        for k in range(1, 41):
            want = sorted(p.index for p in ranked[:k])
            assert [p.index for p in ds.filter_top_fraction(pairs, k / 40)] == want, k

    @pytest.mark.parametrize(
        "change",
        [
            lambda pairs: pairs[:-1],
            lambda pairs: pairs + pairs[:1],
            lambda pairs: [pairs[0]._replace(score=pairs[0].score + 1)] + pairs[1:],
            lambda pairs: pairs[:2] + [pairs[2]._replace(score=None)] + pairs[3:],
        ],
        ids=["fewer", "more", "score", "no-score"],
    )
    def test_a_second_pass_that_differs_is_an_error(self, change):
        pairs = make_corpus(5, with_scores=True)

        class Twice:
            passes = iter([pairs, change(pairs)])

            def __iter__(self):
                return iter(next(self.passes))

        kept = ds.filter_top_fraction(Twice(), 0.4)
        with pytest.raises(ds.SchemaError, match="^the pairs changed between the filter's two passes"):
            list(kept)

    def test_a_one_shot_iterator_is_refused(self):
        pairs = make_corpus(5, with_scores=True)
        with pytest.raises(ds.SchemaError, match="not an iterator"):
            ds.filter_top_fraction((pair for pair in pairs), 0.4)


class TestSampleSubset:
    def test_full_size_returns_whole_corpus(self):
        pairs = make_corpus(100)
        assert ds.sample_subset(iter(pairs), 100, seed=1) == pairs

    def test_deterministic_and_chunking_independent(self):
        pairs = make_corpus(1000)

        def chunked():
            for i in range(0, len(pairs), 37):
                yield from pairs[i : i + 37]

        a = ds.sample_subset(iter(pairs), 80, seed=5)
        b = ds.sample_subset(chunked(), 80, seed=5)
        assert a == b
        assert [p.index for p in a] == sorted(p.index for p in a)

    def test_oversized_request_rejected(self):
        with pytest.raises(ds.DomainError):
            ds.sample_subset(iter(make_corpus(5)), 6, seed=0)

    def test_two_pair_corpus_is_sampled_evenly(self):
        pairs = make_corpus(2)
        firsts = sum(
            1 for seed in range(10_000) if ds.sample_subset(iter(pairs), 1, seed=seed)[0].index == 0
        )
        # binomial(10000, 0.5): 5 sigma is 250, window widened to 350
        assert abs(firsts - 5000) <= 350

    def test_samples_nest_across_sizes(self):
        pairs = make_corpus(2000)
        for seed in (1, 2, 3):
            small, middle, large = ({p.index for p in ds.sample_subset(iter(pairs), size, seed)}
                                    for size in (100, 200, 400))
            assert small <= middle <= large

    def test_inclusion_counts_are_uniform(self):
        # each of 100 pairs lands in a 10-pair sample binomial(400, 0.1)
        # times over 400 seeds: mean 40, sd 6; the window reaches 5 sd each way
        pairs, counts = make_corpus(100), [0] * 100
        for seed in range(400):
            for pair in ds.sample_subset(iter(pairs), 10, seed=seed):
                counts[pair.index] += 1
        assert all(10 <= count <= 70 for count in counts)


class TestPairFiles:
    def test_round_trip(self, tmp_path):
        pairs = make_corpus(50, with_scores=True)
        path = tmp_path / "corpus.tsv"
        ds.write_pairs(path, pairs)
        assert list(ds.read_pairs(path)) == pairs

    def test_scoreless_round_trip(self, tmp_path):
        pairs = make_corpus(10)
        path = tmp_path / "corpus.tsv"
        ds.write_pairs(path, pairs)
        assert list(ds.read_pairs(path)) == pairs

    @pytest.mark.parametrize("score", [np.float64(0.5), np.float64(1 / 3), np.float32(0.1), np.float32(-2.5e-8)])
    def test_numpy_scores_read_back_as_their_float(self, tmp_path, score):
        path = tmp_path / "corpus.tsv"
        ds.write_pairs(path, [ds.SentencePair("a", "b", score)])
        assert list(ds.read_pairs(path)) == [("a", "b", float(score), 0)]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tb\nno tabs here\n", encoding="utf-8")
        with pytest.raises(ds.ParseError, match="line 2"):
            list(ds.read_pairs(path))

    def test_bad_score_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tb\t0.5\na\tb\tnot-a-number\n", encoding="utf-8")
        with pytest.raises(ds.ParseError, match="line 2"):
            list(ds.read_pairs(path))

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a\tb\r\nc\td\r\n", [("a", "b", None, 0), ("c", "d", None, 1)]),
            ("a\tb\rc\td\n", "line 1: bare CR inside a field"),
            ("a\tb\r\r\nc\td\n", "line 1: bare CR inside a field"),
            ("a\tb\nc\td\r", "line 2: bare CR inside a field"),
            ("a\tb\t0.5\nc\td", [("a", "b", 0.5, 0), ("c", "d", None, 1)]),
            ("a\tb\t 0.5 \nc\td\t1e-3\ne\tf\t-inf\n",
             [("a", "b", 0.5, 0), ("c", "d", 0.001, 1), ("e", "f", -math.inf, 2)]),
            ("\t\n\tt\t2\ns\t\n", [("", "", None, 0), ("", "t", 2.0, 1), ("s", "", None, 2)]),
        ],
        ids=["crlf", "lone-cr", "cr-before-crlf", "cr-at-end-of-file", "no-final-newline",
             "score-spellings", "empty-fields"],
    )
    def test_line_ends_scores_and_empty_fields(self, tmp_path, text, expected):
        # lines end only at LF: a bare CR is an error, not a line end that
        # would shift the index of every later pair, and only the CR of a
        # final CRLF is part of the line end
        path = tmp_path / "corpus.tsv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(ds.ParseError, match=f"^{expected}$"):
                list(ds.read_pairs(path))
        else:
            assert list(ds.read_pairs(path)) == [ds.SentencePair(*fields) for fields in expected]

    def test_nan_score_is_read(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tb\tnan\n", encoding="utf-8")
        [pair] = ds.read_pairs(path)
        assert math.isnan(pair.score)

    @pytest.mark.parametrize(
        "line, fields", [("one field", 1), ("a\tb\t0.5\tfourth", 4), ("", 1)],
        ids=["one", "four", "empty-line"],
    )
    def test_field_count_error_names_the_line(self, tmp_path, line, fields):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a\tb\n{line}\nc\td\n", encoding="utf-8")
        with pytest.raises(ds.ParseError, match=f"^line 2: expected 2 or 3 TAB-separated fields, got {fields}$"):
            list(ds.read_pairs(path))

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize("score", [None, 0.5], ids=["scoreless", "scored"])
    def test_writer_refuses_a_field_it_could_not_read_back(self, tmp_path, char, side, score):
        bad = ds.SentencePair("x", "y", score, index=1)._replace(**{side: f"a{char}b"})
        path = tmp_path / "corpus.tsv"
        with pytest.raises(ds.SchemaError, match="^pair at index 1 holds a TAB, CR or LF in a field$"):
            ds.write_pairs(path, [ds.SentencePair("s", "t", score, 0), bad])
        assert list(tmp_path.iterdir()) == []

    def test_format_parse_inverse(self, tmp_path):
        pair = ds.SentencePair("source text", "target text", score=0.125, index=4)
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tb\n" * 4 + format_pair(pair) + "\n", encoding="utf-8")
        assert list(ds.read_pairs(path))[4] == pair


# ---------------------------------------------------------------------------
# Memory of the streamed commands
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def large_corpus(tmp_path_factory):
    """20 000 scored pairs of ~200-character lines (4.2 MB)."""
    path = tmp_path_factory.mktemp("large") / "corpus.tsv"
    side = " ".join(WORDS * 2)[:95]
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, 20_000, 1000):
            fh.write("".join(
                f"{i} {side}\t{side} {i}\t{i * 7919 % 20011 / 20011!r}\n" for i in range(start, start + 1000)
            ))
    return path


@pytest.mark.parametrize(
    "argv",
    [["filter", "--fraction", "0.5"], ["corrupt", "--kind", "pair_shuffle", "--seed", "3"]],
    ids=["filter", "pair_shuffle"],
)
def test_streamed_command_holds_scores_or_a_lookahead_not_the_corpus(tmp_path, large_corpus, argv):
    # Holding the corpus's pairs took ~10.5 MB here; the scores alone take
    # 8 bytes a pair, and a lookahead a few pairs.  A first run on a small
    # file imports and builds what the command needs, so the traced run
    # measures the command's data alone.
    small = tmp_path / "small.tsv"
    small.write_text("a\tb\t0.5\nc\td\t0.25\n", encoding="utf-8")
    assert main(["corpus", *argv, "--input", str(small), "--output", str(tmp_path / "small-out.tsv")]) == 0
    tracemalloc.start()
    try:
        code = main(["corpus", *argv, "--input", str(large_corpus), "--output", str(tmp_path / "out.tsv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20, peak


def test_pair_shuffle_on_short_lines_holds_a_bounded_chunk(tmp_path):
    # A chunk of 8 * _CHUNK_DRAWS target characters alone would hold every
    # one of these pairs (~5 MB here); the pair cap holds ~1000 at a time.
    path = tmp_path / "short.tsv"
    path.write_text("".join(f"{i}\t{i}\n" for i in range(20_000)), encoding="utf-8")
    argv = ["corpus", "corrupt", "--kind", "pair_shuffle", "--seed", "3", "--input", str(path)]
    assert main([*argv, "--output", str(tmp_path / "warm.tsv")]) == 0
    tracemalloc.start()
    try:
        code = main([*argv, "--output", str(tmp_path / "out.tsv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20, peak


# ---------------------------------------------------------------------------
# Equality with the scalar per-pair streams
# ---------------------------------------------------------------------------


def oracle_chars(pair, spec):
    """One coin and then one symbol draw per character, in text order; the
    symbol is used only on a hit."""
    rng = SplitMix64.for_item(spec.seed, pair.index)
    chars = list(pair.source if spec.side == "source" else pair.target)
    for i in range(len(chars)):
        hit = rng.next_float() < spec.prob
        symbol = REPLACEMENT_ALPHABET[rng.next_below(len(REPLACEMENT_ALPHABET))]
        if hit:
            chars[i] = symbol
    text = "".join(chars)
    return pair._replace(**{spec.side: text})


def oracle_words(pair, spec):
    """One coin per whitespace-delimited word, in text order."""
    rng = SplitMix64.for_item(spec.seed, pair.index)
    words = (pair.source if spec.side == "source" else pair.target).split()
    text = " ".join(w for w in words if rng.next_float() >= spec.prob)
    return pair._replace(**{spec.side: text})


def oracle_shuffle(pairs, spec):
    """One coin per pair; the selected pairs' targets rotate by one."""
    selected = [
        i for i, pair in enumerate(pairs)
        if SplitMix64.for_item(spec.seed, pair.index).next_float() < spec.prob
    ]
    out = list(pairs)
    if len(selected) >= 2:
        for j, pos in enumerate(selected):
            out[pos] = out[pos]._replace(target=pairs[selected[(j + 1) % len(selected)]].target)
    return out


SWEEP_ALPHABETS = ["abc xyz", "é€ßЖ", "😀𝔘𝔫𝔦", "日本語 ", "a  b\u3000c\xa0", "\t"]


def sweep_corpus(n=150, seed=17):
    """Random pairs of 0-40 characters from mixed scripts, with negative and
    duplicate indices, plus empty, emoji-only and 5000-character sides and
    sides holding lone surrogates, astral characters and combining marks."""
    pairs = []
    for k in range(n):
        rng = SplitMix64.for_item(seed, k)

        def side():
            alphabet = SWEEP_ALPHABETS[rng.next_below(len(SWEEP_ALPHABETS))]
            return "".join(alphabet[rng.next_below(len(alphabet))] for _ in range(rng.next_below(41)))

        pairs.append(ds.SentencePair(side(), side(), index=rng.next_below(n // 2) - 50))
    pairs[3:3] = [
        ds.SentencePair("", "", index=0),
        ds.SentencePair("😀", "", index=-1),
        ds.SentencePair("é€ßЖ " * 1000, "a " * 2500, index=7),
        ds.SentencePair("", "é€ßЖ", index=7),
        # Lone surrogates (two of them adjacent, as a str may hold them),
        # astral characters and combining marks.
        ds.SentencePair("a\ud800b\udfff𝔘" * 20, "e\u0301\u0308o😀" * 20, index=11),
        ds.SentencePair("\ud83d\ude00\u0301x" * 30, "\udc00", index=-7),
    ]
    return pairs


SWEEP_PAIRS = sweep_corpus()


@pytest.mark.parametrize("prob", [0.0, 1e-9, 0.1, 0.5, 0.999, 1.0])
@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 2**64, 2**90 + 3])
def test_noise_equals_scalar_streams_for_every_chunk_budget(monkeypatch, prob, seed):
    expected = {}
    for side in ("source", "target"):
        spec = ds.CorruptionSpec(kind="char_noise", side=side, prob=prob, seed=seed)
        expected[spec] = [oracle_chars(p, spec) for p in SWEEP_PAIRS]
        spec = replace(spec, kind="word_delete")
        expected[spec] = [oracle_words(p, spec) for p in SWEEP_PAIRS]
    shuffle = ds.CorruptionSpec(kind="pair_shuffle", side="source", prob=prob, seed=seed)
    expected_shuffle = oracle_shuffle(SWEEP_PAIRS, shuffle)
    for budget in (1, 7, corpus._CHUNK_DRAWS):
        monkeypatch.setattr(corpus, "_CHUNK_DRAWS", budget)
        for spec, want in expected.items():
            noise = ds.corrupt_chars if spec.kind == "char_noise" else ds.delete_words
            assert list(noise(iter(SWEEP_PAIRS), spec)) == want, (spec, budget)
        assert list(ds.shuffle_pairs(iter(SWEEP_PAIRS), shuffle)) == expected_shuffle, budget


# ---------------------------------------------------------------------------
# Nesting across rates
# ---------------------------------------------------------------------------

NESTING_CHARS = ["\ud800", "\udfff", "😀", "𝔘", "é", "Ж"]


def nesting_corpus(n=400, seed=29):
    """Pairs of words drawn from lone surrogates, astral and other non-ASCII
    characters, so no replacement symbol equals the character it replaces.
    Each word opens with the two base-6 digits of its position, so the words
    of a side are distinct, and each target opens with a word of the four
    digits of its pair, so the targets are distinct."""

    def digits(k, width):
        return "".join(NESTING_CHARS[k // 6**d % 6] for d in range(width))

    pairs = []
    for i in range(n):
        rng = SplitMix64.for_item(seed, i)

        def side(first):
            words = [first] + [
                digits(k, 2) + "".join(NESTING_CHARS[rng.next_below(6)] for _ in range(rng.next_below(4)))
                for k in range(rng.next_below(9))
            ]
            return " ".join(word for word in words if word)

        pairs.append(ds.SentencePair(side(""), side(digits(i, 4)), index=i))
    return pairs


NESTING_PAIRS = nesting_corpus()


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("seed", [-5, 2**70 + 3])
def test_noise_nests_across_rates(side, seed):
    """Under one seed, what a lower rate changes a higher rate changes too."""
    rates = (0.05, 0.1, 0.2)
    assert len({pair.target for pair in NESTING_PAIRS}) == len(NESTING_PAIRS)

    def noised(kind, noise):
        return [list(noise(iter(NESTING_PAIRS), ds.CorruptionSpec(kind, side, prob, seed))) for prob in rates]

    column = ds.SentencePair._fields.index(side)

    def replaced(out):
        """Each changed character's (pair, position) and its new symbol."""
        return {
            (pair.index, t): new
            for pair, noisy in zip(NESTING_PAIRS, out)
            for t, (old, new) in enumerate(zip(pair[column], noisy[column]))
            if new != old
        }

    def deleted(out):
        return {
            (pair.index, word)
            for pair, noisy in zip(NESTING_PAIRS, out)
            for word in set(pair[column].split()) - set(noisy[column].split())
        }

    def moved(out):
        return {pair.index for pair, noisy in zip(NESTING_PAIRS, out) if noisy.target != pair.target}

    changes = [replaced(out) for out in noised("char_noise", ds.corrupt_chars)]
    for low, high in zip(changes, changes[1:]):
        assert low and low.items() <= high.items()
    deletions = [deleted(out) for out in noised("word_delete", ds.delete_words)]
    for low, high in zip(deletions, deletions[1:]):
        assert low and low <= high
    moves = [moved(out) for out in noised("pair_shuffle", ds.shuffle_pairs)]
    for low, high in zip(moves, moves[1:]):
        assert low and low <= high
