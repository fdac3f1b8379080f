import random

import pytest

from revkit.corpus import SentenceId
from revkit.doc_ops import (
    CompositionBin,
    DocOperation,
    DocOpKind,
    PositionHistogram,
    action_composition_by_ratio,
    count_operations,
    doc_operations,
    pearson,
    relative_positions,
    update_ratio,
)
from revkit.sent_align import SentAlignLabel

from helpers import alignment, doc, filler_sentence


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
    junk = doc([["x 1"]], 1)
    with pytest.raises(ValueError, match="no alignable"):
        update_ratio((), junk)


# ---------------------------------------------------------------------------
# positions

def ten_sentence_docs():
    src = doc([[filler_sentence(n) for n in range(10)]], 1)
    tgt = doc([[filler_sentence(50 + n) for n in range(10)]], 2)
    return src, tgt


def test_positions_first_sentence_is_zero():
    src, tgt = ten_sentence_docs()
    ops = [DocOperation(DocOpKind.DELETION, (sid(1, 0, 0),), ())]
    assert relative_positions(ops, src, tgt, DocOpKind.DELETION) == [0.0]


def test_positions_side_per_kind_and_sorting():
    src, tgt = ten_sentence_docs()
    ops = [
        DocOperation(DocOpKind.DELETION, (sid(1, 0, 5),), ()),
        DocOperation(DocOpKind.DELETION, (sid(1, 0, 2),), ()),
        DocOperation(DocOpKind.INSERTION, (), (sid(2, 0, 9),)),
        DocOperation(DocOpKind.REPHRASING, (sid(1, 0, 3),), (sid(2, 0, 7),)),
    ]
    assert relative_positions(ops, src, tgt, DocOpKind.DELETION) == [0.2, 0.5]
    assert relative_positions(ops, src, tgt, DocOpKind.INSERTION) == [0.9]
    # rephrasings are located in the source, so index 3 not 7
    assert relative_positions(ops, src, tgt, DocOpKind.REPHRASING) == [0.3]


def test_positions_reject_sideless_kind():
    src, tgt = ten_sentence_docs()
    with pytest.raises(ValueError, match="copying"):
        relative_positions([], src, tgt, DocOpKind.COPYING)


def test_histogram_binning():
    h = PositionHistogram(DocOpKind.DELETION, (0.0, 0.05, 0.5, 1.0))
    got = h.histogram(10)
    assert got[0] == (0.0, 0.1, 2)
    assert got[5] == (0.5, 0.6, 1)
    assert got[9] == (0.9, 1.0, 1)  # 1.0 folds into the last bin
    assert sum(count for _, _, count in got) == 4


def test_histogram_errors():
    with pytest.raises(ValueError, match="bins"):
        PositionHistogram(DocOpKind.DELETION, ()).histogram(0)
    with pytest.raises(ValueError, match="outside"):
        PositionHistogram(DocOpKind.DELETION, (1.5,)).histogram(10)


# ---------------------------------------------------------------------------
# action composition

def test_composition_single_entry():
    got = action_composition_by_ratio([(0.0, {DocOpKind.REPHRASING: 3})])
    assert got == [
        CompositionBin(
            0.0, 0.1,
            {
                DocOpKind.INSERTION: 0.0,
                DocOpKind.DELETION: 0.0,
                DocOpKind.REPHRASING: 1.0,
            },
            3,
        )
    ]


def test_composition_ignores_copies():
    got = action_composition_by_ratio(
        [(0.25, {DocOpKind.COPYING: 5, DocOpKind.DELETION: 1})]
    )
    (b,) = got
    assert (b.ratio_start, b.ratio_end) == (0.2, 0.3)
    assert b.total_changes == 1
    assert b.fractions[DocOpKind.DELETION] == 1.0


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
    assert len(got) == 2
    first, last = got
    assert first.total_changes == 4
    assert first.fractions[DocOpKind.INSERTION] == 0.25
    assert first.fractions[DocOpKind.DELETION] == 0.75
    assert (last.ratio_start, last.ratio_end) == (0.9, 1.0)


def test_composition_structural_kinds_dilute_fractions():
    got = action_composition_by_ratio(
        [(0.0, {DocOpKind.SPLITTING: 1, DocOpKind.DELETION: 1})]
    )
    (b,) = got
    assert b.total_changes == 2
    assert b.fractions[DocOpKind.DELETION] == 0.5
    assert DocOpKind.SPLITTING not in b.fractions


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
