import random

import pytest

from revkit.edits import (
    Edit,
    EditKind,
    SentenceRevision,
    WordAlignment,
    derive_reorder,
    diff_to_edits,
    edit_sort_key,
    edits_from_alignment_simple,
    edits_from_diff,
    edits_with_parse,
    strip_identical_boundaries,
)
from revkit.myers import myers_diff
from revkit.trees import parse_tree_read

from helpers import dele, ins, keys, sub, wa
from oracles import (
    generate_gold_revision,
    make_sentence,
    oracle_parse,
    oracle_simple,
    random_links,
    random_tree,
)


# ---------------------------------------------------------------------------
# the Edit model

def test_edit_span_invariants():
    with pytest.raises(ValueError):
        Edit(None, (0, 1), EditKind.DELETE)     # delete needs a src span
    with pytest.raises(ValueError):
        Edit((0, 1), (0, 1), EditKind.INSERT)   # insert must not have one
    with pytest.raises(ValueError):
        Edit((0, 0), (0, 1), EditKind.SUBSTITUTE)  # empty span
    with pytest.raises(ValueError):
        Edit((-1, 1), (0, 1), EditKind.SUBSTITUTE)


def test_edit_key_ignores_intention():
    from revkit.intention import IntentionLabel

    plain = sub(0, 1, 0, 1)
    labeled = Edit((0, 1), (0, 1), EditKind.SUBSTITUTE, IntentionLabel.GRAMMAR_TYPO)
    assert plain.key() == labeled.key()
    assert plain != labeled


def test_edit_sort_key_orders_src_anchored_first():
    edits = [ins(0, 2), dele(3, 4), sub(1, 2, 1, 2)]
    ordered = sorted(edits, key=edit_sort_key)
    assert ordered == [sub(1, 2, 1, 2), dele(3, 4), ins(0, 2)]


def test_revision_sorts_and_validates():
    src = make_sentence("aa bb cc", version=1)
    tgt = make_sentence("aa xx cc yy", version=2)
    rev = SentenceRevision(src, tgt, (ins(3, 4), sub(1, 2, 1, 2)))
    assert rev.edits == (sub(1, 2, 1, 2), ins(3, 4))
    assert rev.revision_id == "v1p0s0-v2p0s0"


def test_revision_id_reflects_sentence_ids():
    src = make_sentence("aa bb", version=1, para=2, idx=3)
    tgt = make_sentence("aa bb", version=2, para=4, idx=5)
    assert SentenceRevision(src, tgt, ()).revision_id == "v1p2s3-v2p4s5"


def test_revision_rejects_out_of_range_spans():
    src = make_sentence("aa bb", version=1)
    tgt = make_sentence("aa bb cc", version=2)
    with pytest.raises(ValueError, match="exceeds"):
        SentenceRevision(src, tgt, (dele(0, 3),))


def test_revision_rejects_overlapping_spans():
    src = make_sentence("aa bb cc dd", version=1)
    tgt = make_sentence("aa xx yy dd", version=2)
    with pytest.raises(ValueError, match="overlapping"):
        SentenceRevision(src, tgt, (sub(1, 3, 1, 2), dele(2, 4)))


def test_revision_rejects_identical_substitute_surfaces():
    src = make_sentence("aa bb", version=1)
    tgt = make_sentence("aa bb", version=2)
    with pytest.raises(ValueError, match="identical"):
        SentenceRevision(src, tgt, (sub(0, 1, 0, 1),))


def test_revision_rejects_differing_reorder_surfaces():
    src = make_sentence("aa bb", version=1)
    tgt = make_sentence("bb cc", version=2)
    with pytest.raises(ValueError, match="reorder"):
        SentenceRevision(src, tgt, (Edit((0, 1), (0, 1), EditKind.REORDER),))


def test_word_alignment_validates_range():
    with pytest.raises(ValueError, match="out of range"):
        wa((0, 5)).validate(3, 3)
    wa((0, 2), (2, 0)).validate(3, 3)


# ---------------------------------------------------------------------------
# diff route

def test_diff_to_edits_substitute_and_insert():
    src = make_sentence("the old cat sat", version=1)
    tgt = make_sentence("the new cat sat today", version=2)
    got = edits_from_diff(src, tgt)
    assert keys(got) == {
        ((1, 2), (1, 2), "substitute"),
        (None, (4, 5), "insert"),
    }


def test_diff_single_character_word_fix():
    src = make_sentence("Not that the cat sat", version=1)
    tgt = make_sentence("Note that the cat sat", version=2)
    got = edits_from_diff(src, tgt)
    assert keys(got) == {((0, 1), (0, 1), "substitute")}


def test_diff_identical_sentences_no_edits():
    s = make_sentence("the cat sat here", version=1)
    t = make_sentence("the cat sat here", version=2)
    assert edits_from_diff(s, t) == set()


def test_diff_pure_delete():
    src = make_sentence("the very old cat", version=1)
    tgt = make_sentence("the cat", version=2)
    assert keys(edits_from_diff(src, tgt)) == {((1, 3), None, "delete")}


def test_diff_to_edits_keeps_are_silent():
    script = myers_diff(["a", "b"], ["a", "b"])
    assert diff_to_edits(script) == set()


# ---------------------------------------------------------------------------
# boundary stripping

def test_strip_shrinks_to_differing_core():
    src = make_sentence("the big cat", version=1)
    tgt = make_sentence("the small cat", version=2)
    got = strip_identical_boundaries(sub(0, 3, 0, 3), src, tgt)
    assert got == sub(1, 2, 1, 2)


def test_strip_identical_drops_edit():
    src = make_sentence("the cat", version=1)
    tgt = make_sentence("the cat", version=2)
    assert strip_identical_boundaries(sub(0, 2, 0, 2), src, tgt) is None


def test_strip_demotes_to_insert():
    src = make_sentence("the cat", version=1)
    tgt = make_sentence("the cat sat", version=2)
    got = strip_identical_boundaries(sub(0, 2, 0, 3), src, tgt)
    assert got == ins(2, 3)


def test_strip_demotes_to_delete():
    src = make_sentence("the cat sat", version=1)
    tgt = make_sentence("the cat", version=2)
    got = strip_identical_boundaries(sub(0, 3, 0, 2), src, tgt)
    assert got == dele(2, 3)


def test_strip_passes_other_kinds_through():
    src = make_sentence("aa bb", version=1)
    tgt = make_sentence("aa bb", version=2)
    e = dele(0, 1)
    assert strip_identical_boundaries(e, src, tgt) is e


def test_strip_idempotent_on_randoms():
    rng = random.Random(23)
    words = ["wa", "wb", "wc"]
    for _ in range(200):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 6))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 6))), version=2)
        e = Edit((0, len(src.tokens)), (0, len(tgt.tokens)), EditKind.SUBSTITUTE)
        once = strip_identical_boundaries(e, src, tgt)
        if once is not None:
            assert strip_identical_boundaries(once, src, tgt) == once


# ---------------------------------------------------------------------------
# simple word-alignment route

def test_simple_identity_alignment_no_edits():
    s = make_sentence("the cat sat here", version=1)
    t = make_sentence("the cat sat here", version=2)
    links = wa(*((i, i) for i in range(4)))
    assert edits_from_alignment_simple(s, t, links) == set()


def test_simple_unaligned_tokens_become_runs():
    src = make_sentence("aa bb cc", version=1)
    tgt = make_sentence("aa cc dd ee", version=2)
    links = wa((0, 0), (2, 1))
    got = edits_from_alignment_simple(src, tgt, links)
    assert keys(got) == {((1, 2), None, "delete"), (None, (2, 4), "insert")}


def test_simple_many_to_many_component_becomes_one_substitute():
    src = make_sentence("the rates corresponding to limits", version=1)
    tgt = make_sentence("the strong correspondence with limits", version=2)
    links = wa((0, 0), (2, 2), (2, 3), (3, 2), (4, 4))
    got = edits_from_alignment_simple(src, tgt, links)
    assert keys(got) == {
        ((2, 4), (2, 4), "substitute"),
        ((1, 2), None, "delete"),
        (None, (1, 2), "insert"),
    }


def test_simple_adjacent_changed_pairs_merge():
    src = make_sentence("aa bb cc dd", version=1)
    tgt = make_sentence("aa xx yy dd", version=2)
    got = edits_from_alignment_simple(src, tgt, wa((0, 0), (1, 1), (2, 2), (3, 3)))
    assert keys(got) == {((1, 3), (1, 3), "substitute")}


def test_simple_copy_blocks_do_not_merge():
    src = make_sentence("aa bb cc dd", version=1)
    tgt = make_sentence("aa bb yy dd", version=2)
    got = edits_from_alignment_simple(src, tgt, wa((0, 0), (1, 1), (2, 2), (3, 3)))
    assert keys(got) == {((2, 3), (2, 3), "substitute")}


def test_simple_overlapping_components_must_merge():
    src = make_sentence("aa bb cc dd", version=1)
    tgt = make_sentence("aa xx pp qq rr ss", version=2)
    # (1,1) and (3,1) bracket src position 2, whose own link lands far
    # right in the target: the envelopes overlap and collapse into one
    got = edits_from_alignment_simple(src, tgt, wa((0, 0), (1, 1), (3, 1), (2, 5)))
    assert keys(got) == {((1, 4), (1, 6), "substitute")}


def test_simple_substitute_strips_shared_boundary():
    src = make_sentence("aa bb cc", version=1)
    tgt = make_sentence("aa bb dd", version=2)
    # one component spanning all three tokens; the shared prefix strips
    links = wa((0, 0), (1, 1), (1, 2), (2, 2))
    got = edits_from_alignment_simple(src, tgt, links)
    assert keys(got) == {((2, 3), (2, 3), "substitute")}


def test_simple_crossing_copies_stay_silent():
    src = make_sentence("bb aa", version=1)
    tgt = make_sentence("aa bb", version=2)
    got = edits_from_alignment_simple(src, tgt, wa((0, 1), (1, 0)))
    assert got == set()


def test_simple_output_forms_valid_revision():
    rng = random.Random(31)
    words = ["wa", "wb", "wc", "wd", "we"]
    for _ in range(150):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=2)
        links = random_links(rng, len(src.tokens), len(tgt.tokens))
        got = edits_from_alignment_simple(src, tgt, WordAlignment(links))
        SentenceRevision(src, tgt, tuple(got))  # must not raise


def test_simple_matches_oracle_on_randoms():
    rng = random.Random(37)
    words = ["wa", "wb", "wc", "wd"]
    for _ in range(200):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=2)
        links = random_links(rng, len(src.tokens), len(tgt.tokens))
        got = keys(edits_from_alignment_simple(src, tgt, WordAlignment(links)))
        want = oracle_simple(src.surfaces(), tgt.surfaces(), links)
        assert got == want


# ---------------------------------------------------------------------------
# tree-guided route

SRC_TREE = "(S (D0 the) (N (D1 rates) (P (V corresponding) (T to))) (L limits))"
TGT_TREE = "(S (D0 the) (N (A strong) (M correspondence) (W with)) (L limits))"


def phrase_case():
    src = make_sentence("the rates corresponding to limits", version=1)
    tgt = make_sentence("the strong correspondence with limits", version=2)
    links = wa((0, 0), (2, 2), (2, 3), (3, 2), (4, 4))
    return src, tgt, links, parse_tree_read(SRC_TREE), parse_tree_read(TGT_TREE)


def test_parse_widens_to_constituent_boundaries():
    src, tgt, links, ts, tt = phrase_case()
    got = edits_with_parse(src, tgt, links, ts, tt)
    # the target tree has no phrase covering exactly tokens 2..3, so the
    # conflict-free pair snaps out to the phrase (1, 4), absorbing the
    # token the simple method reports as a separate insert
    assert keys(got) == {
        ((2, 4), (1, 4), "substitute"),
        ((1, 2), None, "delete"),
    }
    # a deeper budget changes nothing once a conflict-free pair exists
    same = edits_with_parse(src, tgt, links, ts, tt, max_level=3)
    assert keys(same) == keys(got)


def test_parse_shallow_budget_falls_back_to_simple():
    # every token sits under a one-word preterminal, so a single level
    # of ascent never clears the leaf span and the budget runs out
    src, tgt, links, ts, tt = phrase_case()
    want = keys(edits_from_alignment_simple(src, tgt, links))
    for level in (0, 1):
        got = edits_with_parse(src, tgt, links, ts, tt, max_level=level)
        assert keys(got) == want


def test_parse_validates_inputs():
    src, tgt, links, ts, tt = phrase_case()
    with pytest.raises(ValueError, match="max_level"):
        edits_with_parse(src, tgt, links, ts, tt, max_level=-1)
    small = parse_tree_read("(S a b)")
    with pytest.raises(ValueError, match="source tree"):
        edits_with_parse(src, tgt, links, small, tt)
    with pytest.raises(ValueError, match="target tree"):
        edits_with_parse(src, tgt, links, ts, small)


def test_parse_level_zero_equals_simple_on_randoms():
    rng = random.Random(43)
    words = ["wa", "wb", "wc", "wd"]
    for _ in range(150):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=2)
        links = WordAlignment(random_links(rng, len(src.tokens), len(tgt.tokens)))
        ts = random_tree(rng, list(src.surfaces()))
        tt = random_tree(rng, list(tgt.surfaces()))
        assert keys(edits_with_parse(src, tgt, links, ts, tt, max_level=0)) == keys(
            edits_from_alignment_simple(src, tgt, links)
        )


def test_parse_matches_exhaustive_oracle_on_randoms():
    rng = random.Random(47)
    words = ["wa", "wb", "wc", "wd"]
    for _ in range(150):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 6))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 6))), version=2)
        links = random_links(rng, len(src.tokens), len(tgt.tokens))
        ts = random_tree(rng, list(src.surfaces()))
        tt = random_tree(rng, list(tgt.surfaces()))
        level = rng.randint(1, 3)
        got = keys(edits_with_parse(src, tgt, WordAlignment(links), ts, tt, max_level=level))
        want = oracle_parse(src.surfaces(), tgt.surfaces(), links, ts, tt, level)
        assert got == want


# ---------------------------------------------------------------------------
# reorders

def test_reorder_monotone_alignment_none():
    src = make_sentence("aa bb cc", version=1)
    tgt = make_sentence("aa bb cc", version=2)
    got = derive_reorder(set(), wa((0, 0), (1, 1), (2, 2)), src, tgt)
    assert got == set()


def test_reorder_two_swapped_words():
    src = make_sentence("bb aa", version=1)
    tgt = make_sentence("aa bb", version=2)
    got = derive_reorder(set(), wa((0, 1), (1, 0)), src, tgt)
    assert keys(got) == {
        ((0, 1), (1, 2), "reorder"),
        ((1, 2), (0, 1), "reorder"),
    }


def test_reorder_swapped_blocks_with_pivot():
    src = make_sentence("aa bb mm cc dd", version=1)
    tgt = make_sentence("cc dd mm aa bb", version=2)
    links = wa((0, 3), (1, 4), (2, 2), (3, 0), (4, 1))
    got = derive_reorder(set(), links, src, tgt)
    assert keys(got) == {
        ((0, 2), (3, 5), "reorder"),
        ((2, 3), (2, 3), "reorder"),
        ((3, 5), (0, 2), "reorder"),
    }


def test_reorder_ignores_non_identical_links():
    src = make_sentence("aa bb", version=1)
    tgt = make_sentence("cc dd", version=2)
    assert derive_reorder(set(), wa((0, 1), (1, 0)), src, tgt) == set()


def test_reorder_blocks_overlapping_edits_dropped():
    src = make_sentence("bb aa", version=1)
    tgt = make_sentence("aa bb", version=2)
    got = derive_reorder({dele(0, 2)}, wa((0, 1), (1, 0)), src, tgt)
    assert got == set()


def test_reorder_composes_with_extraction():
    src = make_sentence("bb aa cc", version=1)
    tgt = make_sentence("aa bb dd", version=2)
    links = wa((0, 1), (1, 0), (2, 2))
    base = edits_from_alignment_simple(src, tgt, links)
    assert keys(base) == {((2, 3), (2, 3), "substitute")}
    everything = base | derive_reorder(base, links, src, tgt)
    assert keys(everything) == {
        ((2, 3), (2, 3), "substitute"),
        ((0, 1), (1, 2), "reorder"),
        ((1, 2), (0, 1), "reorder"),
    }
    SentenceRevision(src, tgt, tuple(everything))


# ---------------------------------------------------------------------------
# extraction round trip

def test_round_trip_hand_case():
    src = make_sentence("c1 s2 c3", version=1)
    tgt = make_sentence("c1 t2 c3", version=2)
    links = wa((0, 0), (1, 1), (2, 2))
    assert keys(edits_from_alignment_simple(src, tgt, links)) == {
        ((1, 2), (1, 2), "substitute")
    }


def test_round_trip_generated_revisions():
    rng = random.Random(53)
    for _ in range(100):
        src, tgt, gold, links = generate_gold_revision(rng)
        got = keys(edits_from_alignment_simple(src, tgt, WordAlignment(links)))
        assert got == gold
