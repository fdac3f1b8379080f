import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revkit.corpus import SentenceId
from revkit.doc_ops import (
    KEPT_DEFINITIONS,
    DocOperation,
    DocOpKind,
    action_composition_by_ratio,
    count_operations,
    doc_operations,
    pearson,
    position_histogram,
    relative_positions,
    update_ratio,
)
from revkit.sent_align import SentAlignLabel

from helpers import alignment, doc, filler_sentence
from oracles import oracle_composition, oracle_relative_positions


def sid(version, para, idx):
    return SentenceId(version, para, idx)


def identical_pair():
    paras = [
        [filler_sentence(1), filler_sentence(2)],
        [filler_sentence(3), filler_sentence(4)],
    ]
    src = doc(paras, 1)
    tgt = doc(paras, 2)
    al = alignment(1, 2, [((p, s), (p, s), None) for p in (0, 1) for s in (0, 1)])
    return src, tgt, al


def seven_kind_pair():
    """One component of every operation kind in a single document pair."""
    f = filler_sentence
    src = doc(
        [[f(10), f(11)], [f(13), f(14)], [f(17), f(18)], [f(21), f(22)]], 1
    )
    tgt = doc(
        [[f(10), f(12)], [f(15), f(16)], [f(19), f(20)], [f(23), f(24)]], 2
    )
    al = alignment(
        1, 2,
        [
            ((0, 0), (0, 0), None),                       # copy
            ((0, 1), (0, 1), None),                       # rephrase
            ((1, 0), (1, 0), None),                       # split ...
            ((1, 0), (1, 1), None),
            ((2, 0), (2, 0), None),                       # merge ...
            ((2, 1), (2, 0), None),
            ((3, 0), (3, 0), None),                       # fusion ...
            ((3, 0), (3, 1), SentAlignLabel.PARTIAL),
            ((3, 1), (3, 1), None),
        ],
    )
    # source (1,1) and target (2,1) stay unpaired on purpose
    return src, tgt, al


def by_kind(ops):
    out = {}
    for op in ops:
        out.setdefault(op.kind, []).append(op)
    return out


def test_identical_documents_all_copying():
    src, tgt, al = identical_pair()
    ops = doc_operations(src, tgt, al)
    assert len(ops) == 4
    assert all(op.kind is DocOpKind.COPYING for op in ops)
    assert count_operations(ops) == {DocOpKind.COPYING: 4}


def test_every_kind_classified():
    src, tgt, al = seven_kind_pair()
    ops = doc_operations(src, tgt, al)
    assert count_operations(ops) == {kind: 1 for kind in DocOpKind}

    got = by_kind(ops)
    assert got[DocOpKind.COPYING][0].src_ids == (sid(1, 0, 0),)
    assert got[DocOpKind.REPHRASING][0].tgt_ids == (sid(2, 0, 1),)
    assert got[DocOpKind.SPLITTING][0] == DocOperation(
        DocOpKind.SPLITTING, (sid(1, 1, 0),), (sid(2, 1, 0), sid(2, 1, 1))
    )
    assert got[DocOpKind.MERGING][0] == DocOperation(
        DocOpKind.MERGING, (sid(1, 2, 0), sid(1, 2, 1)), (sid(2, 2, 0),)
    )
    assert got[DocOpKind.FUSION][0] == DocOperation(
        DocOpKind.FUSION,
        (sid(1, 3, 0), sid(1, 3, 1)),
        (sid(2, 3, 0), sid(2, 3, 1)),
    )
    assert got[DocOpKind.DELETION][0].src_ids == (sid(1, 1, 1),)
    assert got[DocOpKind.INSERTION][0].tgt_ids == (sid(2, 2, 1),)


def test_operations_partition_both_sides():
    src, tgt, al = seven_kind_pair()
    ops = doc_operations(src, tgt, al)
    src_seen = [s for op in ops for s in op.src_ids]
    tgt_seen = [t for op in ops for t in op.tgt_ids]
    assert sorted(src_seen) == sorted(s.id for s in src.alignable_sentences())
    assert sorted(tgt_seen) == sorted(t.id for t in tgt.alignable_sentences())
    assert len(set(src_seen)) == len(src_seen)
    assert len(set(tgt_seen)) == len(tgt_seen)


def test_operations_sorted_and_deterministic():
    src, tgt, al = seven_kind_pair()
    ops = doc_operations(src, tgt, al)
    assert list(ops) == sorted(ops, key=lambda o: (o.src_ids, o.tgt_ids))
    assert doc_operations(src, tgt, al) == ops


def test_pair_joins_skipped_source_sentence_to_its_component():
    src = doc([[filler_sentence(1), "Too short.", filler_sentence(2)]], 1)
    tgt = doc([[filler_sentence(1), filler_sentence(3), filler_sentence(2)]], 2)
    assert [s.id for s in src.alignable_sentences()] == [sid(1, 0, 0), sid(1, 0, 2)]
    al = alignment(1, 2, [((0, s), (0, s), None) for s in range(3)])
    ops = doc_operations(src, tgt, al)
    assert DocOperation(DocOpKind.REPHRASING, (sid(1, 0, 1),), (sid(2, 0, 1),)) in ops
    assert DocOpKind.INSERTION not in count_operations(ops)
    assert DocOpKind.DELETION not in count_operations(ops)
    assert len(ops) == 3


# whitespace that str.split() takes, and normalized_raw() with it
_SPACES = st.sampled_from([" ", "  ", "\t", " \t ", "\n", "\u00a0", "\u2003"])
_WORDS = st.lists(st.sampled_from(["alpha", "Alpha", "beta", "gam", "ma", "gamma", "de,"]), min_size=1, max_size=6)


@st.composite
def _spaced(draw, words):
    """The words with runs of whitespace between them, and some before
    and after."""
    edges = st.one_of(st.just(""), _SPACES)
    return draw(edges) + "".join(w + draw(_SPACES) for w in words[:-1]) + words[-1] + draw(edges)


@st.composite
def _whitespace_pairs(draw):
    """Pairs of raw texts: the same words spaced apart differently, or
    words that differ by case, by a joined or split word, or altogether."""
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        words = draw(_WORDS)
        other = draw(st.sampled_from(["same", "same", "case", "join", "other"]))
        if other == "case":
            words2 = [words[0].swapcase()] + words[1:]
        elif other == "join" and len(words) > 1:
            words2 = [words[0] + words[1]] + words[2:]
        elif other == "other":
            words2 = draw(_WORDS)
        else:
            words2 = words
        pairs.append((draw(_spaced(words)), draw(_spaced(words2))))
    return pairs


@settings(max_examples=200, deadline=None)
@given(_whitespace_pairs())
def test_copy_test_matches_normalized_raw(pairs):
    """A one-to-one pair is a copy exactly when both raw texts have the
    same normalized_raw(), whatever whitespace they differ by."""
    src = doc([[a for a, _ in pairs]], 1)
    tgt = doc([[b for _, b in pairs]], 2)
    al = alignment(1, 2, [((0, n), (0, n), None) for n in range(len(pairs))])
    got = {op.src_ids: op.kind for op in doc_operations(src, tgt, al)}
    for n in range(len(pairs)):
        s, t = src.sentence(sid(1, 0, n)), tgt.sentence(sid(2, 0, n))
        assert (s.raw, t.raw) == pairs[n]
        same = s.normalized_raw() == t.normalized_raw()
        assert got[(s.id,)] is (DocOpKind.COPYING if same else DocOpKind.REPHRASING)


def test_components_match_reference_search():
    rng = random.Random(61)
    for _ in range(50):
        k_src = rng.randint(2, 6)
        k_tgt = rng.randint(2, 6)
        src = doc([[filler_sentence(100 + n) for n in range(k_src)]], 1)
        tgt = doc([[filler_sentence(200 + n) for n in range(k_tgt)]], 2)
        links = {
            (i, j)
            for i in range(k_src)
            for j in range(k_tgt)
            if rng.random() < 0.3
        }
        al = alignment(1, 2, [((0, i), (0, j), None) for i, j in links])
        ops = doc_operations(src, tgt, al)

        # reference partition by breadth-first search over the link graph
        nodes = [("s", i) for i in range(k_src)] + [("t", j) for j in range(k_tgt)]
        adjacent = {n: [] for n in nodes}
        for i, j in links:
            adjacent[("s", i)].append(("t", j))
            adjacent[("t", j)].append(("s", i))
        seen, want = set(), set()
        for start in nodes:
            if start in seen:
                continue
            queue, members = [start], []
            seen.add(start)
            while queue:
                cur = queue.pop()
                members.append(cur)
                for nxt in adjacent[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            want.add(
                (
                    frozenset(i for side, i in members if side == "s"),
                    frozenset(j for side, j in members if side == "t"),
                )
            )
        got = {
            (
                frozenset(s.sentence for s in op.src_ids),
                frozenset(t.sentence for t in op.tgt_ids),
            )
            for op in ops
        }
        assert got == want

        for op in ops:
            m, n = len(op.src_ids), len(op.tgt_ids)
            if op.kind is DocOpKind.DELETION:
                assert (m, n) == (1, 0)
            elif op.kind is DocOpKind.INSERTION:
                assert (m, n) == (0, 1)
            elif op.kind is DocOpKind.SPLITTING:
                assert m == 1 and n > 1
            elif op.kind is DocOpKind.MERGING:
                assert m > 1 and n == 1
            elif op.kind is DocOpKind.FUSION:
                assert m > 1 and n > 1
            else:
                # texts never repeat across the two sides here
                assert op.kind is DocOpKind.REPHRASING and (m, n) == (1, 1)


# ---------------------------------------------------------------------------
# update ratio

def test_update_ratio_identical_is_zero():
    src, tgt, al = identical_pair()
    ops = doc_operations(src, tgt, al)
    assert update_ratio(ops, src) == 0.0
    assert update_ratio(ops, src, "copy_or_rephrase") == 0.0


def test_update_ratio_full_rewrite():
    src = doc([[filler_sentence(1), filler_sentence(2)]], 1)
    tgt = doc([[filler_sentence(3), filler_sentence(4)]], 2)
    al = alignment(1, 2, [((0, 0), (0, 0), None), ((0, 1), (0, 1), None)])
    ops = doc_operations(src, tgt, al)
    assert update_ratio(ops, src) == 1.0
    assert update_ratio(ops, src, "copy_or_rephrase") == 0.0


def test_update_ratio_one_in_five_changed():
    texts = [filler_sentence(n) for n in range(5)]
    changed = texts[:2] + [filler_sentence(9)] + texts[3:]
    src = doc([texts], 1)
    tgt = doc([changed], 2)
    al = alignment(1, 2, [((0, n), (0, n), None) for n in range(5)])
    ops = doc_operations(src, tgt, al)
    assert update_ratio(ops, src) == pytest.approx(0.2)
    assert update_ratio(ops, src, "copy_or_rephrase") == 0.0


def test_update_ratio_errors():
    src, tgt, al = identical_pair()
    ops = doc_operations(src, tgt, al)
    with pytest.raises(ValueError, match="kept_definition"):
        update_ratio(ops, src, "whatever")


@pytest.mark.parametrize("paragraphs", [[], [["x 1"]]], ids=["empty", "all skipped"])
def test_update_ratio_is_none_without_alignable_sentences(paragraphs):
    src = doc(paragraphs, 1)
    assert update_ratio((), src) is None
    assert update_ratio((), src, "copy_or_rephrase") is None


# ---------------------------------------------------------------------------
# positions

def ten_sentence_docs():
    src = doc([[filler_sentence(n) for n in range(10)]], 1)
    tgt = doc([[filler_sentence(50 + n) for n in range(10)]], 2)
    return src, tgt


def test_positions_first_sentence_is_zero():
    src, tgt = ten_sentence_docs()
    ops = [DocOperation(DocOpKind.DELETION, (sid(1, 0, 0),), ())]
    assert relative_positions(ops, src, tgt) == {
        DocOpKind.DELETION: [0.0], DocOpKind.INSERTION: [], DocOpKind.REPHRASING: []
    }


def test_positions_side_per_kind_and_sorting():
    src, tgt = ten_sentence_docs()
    ops = [
        DocOperation(DocOpKind.DELETION, (sid(1, 0, 5),), ()),
        DocOperation(DocOpKind.DELETION, (sid(1, 0, 2),), ()),
        DocOperation(DocOpKind.INSERTION, (), (sid(2, 0, 9),)),
        DocOperation(DocOpKind.REPHRASING, (sid(1, 0, 3),), (sid(2, 0, 7),)),
    ]
    # rephrasings are located in the source, so index 3 not 7
    assert relative_positions(ops, src, tgt) == {
        DocOpKind.DELETION: [0.2, 0.5], DocOpKind.INSERTION: [0.9], DocOpKind.REPHRASING: [0.3]
    }


# texts of either side: fillers (two fill an alignable paragraph) and
# sentences the skip filters drop
_TEXTS = [filler_sentence(n) for n in range(6)] + ["Too short.", "x 1"]
_PARAGRAPHS = st.lists(st.lists(st.sampled_from(_TEXTS), min_size=1, max_size=4), max_size=3)


@st.composite
def _aligned_pair(draw):
    """A version pair and random links between any two of its sentences,
    skipped ones included; a side may have no alignable sentence."""
    src_paras, tgt_paras = draw(_PARAGRAPHS), draw(_PARAGRAPHS)
    src_at = [(p, n) for p, para in enumerate(src_paras) for n in range(len(para))]
    tgt_at = [(p, n) for p, para in enumerate(tgt_paras) for n in range(len(para))]
    labels = {}
    if src_at and tgt_at:
        links = st.tuples(st.sampled_from(src_at), st.sampled_from(tgt_at))
        labels = draw(st.dictionaries(
            links, st.sampled_from([None, SentAlignLabel.PARTIAL, SentAlignLabel.NOT_ALIGNED]), max_size=8
        ))
    triples = [(s, t, label) for (s, t), label in labels.items()]
    return doc(src_paras, 1), doc(tgt_paras, 2), alignment(1, 2, triples)


_NO_ALIGNABLE_SOURCE = (
    doc([["x 1"], [filler_sentence(0)]], 1),
    doc([[filler_sentence(0), filler_sentence(1)]], 2),
    alignment(1, 2, [((1, 0), (0, 0), None), ((0, 0), (0, 1), None)]),
)


# (update ratio, operation counts) entries beside those of drawn pairs, so
# that the pooled ratios spread over many bins
_ENTRIES = st.lists(st.tuples(
    st.floats(0.0, 1.0),
    st.dictionaries(st.sampled_from(list(DocOpKind)), st.integers(0, 5)),
), max_size=6)


@settings(max_examples=300, deadline=None)
@example([_NO_ALIGNABLE_SOURCE], [], "copy_only", 10, random.Random(0))
@given(
    st.lists(_aligned_pair(), min_size=1, max_size=4),
    _ENTRIES,
    st.sampled_from(KEPT_DEFINITIONS),
    st.integers(1, 12),
    st.randoms(use_true_random=False),
)
def test_positions_and_composition_match_the_oracles(pairs, drawn, kept_definition, bins, rng):
    entries = list(drawn)
    for src, tgt, al in pairs:
        ops = list(doc_operations(src, tgt, al))
        # positions come out sorted whatever order the operations are in
        rng.shuffle(ops)
        got = relative_positions(ops, src, tgt)
        assert list(got) == [DocOpKind.DELETION, DocOpKind.INSERTION, DocOpKind.REPHRASING]
        assert {kind.value: ps for kind, ps in got.items()} == oracle_relative_positions(ops, src, tgt)
        ratio = update_ratio(ops, src, kept_definition)
        if ratio is not None:
            entries.append((ratio, count_operations(ops)))
    assert action_composition_by_ratio(entries, bins) == oracle_composition(entries, bins)


def test_histogram_binning():
    got = position_histogram((0.0, 0.05, 0.5, 1.0), 10)
    assert got[0] == (0.0, 0.1, 2)
    assert got[5] == (0.5, 0.6, 1)
    assert got[9] == (0.9, 1.0, 1)  # 1.0 folds into the last bin
    assert sum(count for _, _, count in got) == 4


def test_histogram_errors():
    with pytest.raises(ValueError, match="bins"):
        position_histogram((), 0)
    with pytest.raises(ValueError, match="outside"):
        position_histogram((1.5,), 10)


# ---------------------------------------------------------------------------
# action composition

def test_composition_single_entry():
    got = action_composition_by_ratio([(0.0, {DocOpKind.REPHRASING: 3})])
    # (ratio_bin_start, ratio_bin_end, insertion, deletion, rephrasing, total_changes)
    assert got == [(0.0, 0.1, 0.0, 0.0, 1.0, 3)]


def test_composition_ignores_copies():
    got = action_composition_by_ratio(
        [(0.25, {DocOpKind.COPYING: 5, DocOpKind.DELETION: 1})]
    )
    assert got == [(0.2, 0.3, 0.0, 1.0, 0.0, 1)]


def test_composition_all_copy_bin_omitted():
    assert action_composition_by_ratio([(0.4, {DocOpKind.COPYING: 4})]) == []
    assert action_composition_by_ratio([]) == []


def test_composition_pools_entries_in_same_bin():
    got = action_composition_by_ratio(
        [
            (0.05, {DocOpKind.INSERTION: 1}),
            (0.07, {DocOpKind.DELETION: 3}),
            (1.0, {DocOpKind.REPHRASING: 2}),
        ]
    )
    assert got == [(0.0, 0.1, 0.25, 0.75, 0.0, 4), (0.9, 1.0, 0.0, 0.0, 1.0, 2)]


def test_composition_structural_kinds_dilute_fractions():
    got = action_composition_by_ratio(
        [(0.0, {DocOpKind.SPLITTING: 1, DocOpKind.DELETION: 1})]
    )
    # a splitting counts among the changes but has no share of its own
    assert got == [(0.0, 0.1, 0.0, 0.5, 0.0, 2)]


def test_composition_errors():
    with pytest.raises(ValueError, match="outside"):
        action_composition_by_ratio([(1.2, {})])
    with pytest.raises(ValueError, match="bins"):
        action_composition_by_ratio([], bins=0)


# ---------------------------------------------------------------------------
# correlation

def test_pearson_exact_values():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_pearson_errors():
    with pytest.raises(ValueError, match="mismatch"):
        pearson([1, 2], [1])
    with pytest.raises(ValueError, match="two points"):
        pearson([1], [1])
    with pytest.raises(ValueError, match="variance"):
        pearson([1, 1, 1], [1, 2, 3])


def test_pearson_refuses_sums_out_of_float_range():
    # each squared deviation is about 1.7e308, finite, but their sum is
    # not; the correlation must not come out as 0.0
    with pytest.raises(ValueError, match="floating-point range"):
        pearson([0.1, 0.5, 0.3, 0.2], [0.0, 2.6e154, 0.0, 2.6e154])
