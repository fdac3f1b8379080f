import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from revkit.edits import (
    Edit,
    EditKind,
    SentenceRevision,
    WordAlignment,
    derive_reorder,
    edit_sort_key,
    edits_from_alignment_simple,
    edits_from_diff,
    edits_with_parse,
    strip_identical_boundaries,
)
from revkit.edits import (
    _blocks_cross,
    _close_span_pairs,
    _drop_nested,
    _link_components,
    _partner_envelopes,
    _SpanPair,
)
from revkit.trees import parse_tree_read

from helpers import dele, ins, keys, sub, wa
from oracles import (
    format_tree,
    generate_gold_revision,
    lcs_len,
    make_sentence,
    oracle_closure,
    oracle_components,
    oracle_maximal,
    oracle_parse,
    oracle_parse_tree,
    oracle_reorder,
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


def replay_diff_edits(src, tgt, edits):
    """Walk both sentences in step, substituting each edit's target span
    for its source span; the tokens between edits must match.  No edit
    may follow another without a kept token between them."""
    s, t = src.tokens, tgt.tokens
    at_src = {e.src_span[0]: e for e in edits if e.src_span is not None}
    at_tgt = {e.tgt_span[0]: e for e in edits if e.tgt_span is not None}
    out, applied, after_edit = [], 0, False
    i = j = 0
    while i < len(s) or j < len(t):
        e = at_src.get(i) or at_tgt.get(j)
        if e is None:
            assert i < len(s) and j < len(t) and s[i] == t[j], (i, j)
            out.append(s[i])
            i, j, after_edit = i + 1, j + 1, False
            continue
        assert not after_edit, f"{e} touches the edit before it"
        if e.src_span is not None:
            assert e.src_span[0] == i
            i = e.src_span[1]
        if e.tgt_span is not None:
            assert e.tgt_span[0] == j
            out.extend(t[e.tgt_span[0]:e.tgt_span[1]])
            j = e.tgt_span[1]
        applied, after_edit = applied + 1, True
    assert applied == len(edits)
    return out


@given(st.lists(st.sampled_from(["aa", "bb", "cc"]), max_size=20),
       st.lists(st.sampled_from(["aa", "bb", "cc"]), max_size=20))
def test_diff_edits_replay_to_target_at_lcs_cost(words_s, words_t):
    src = make_sentence(" ".join(words_s), version=1)
    tgt = make_sentence(" ".join(words_t), version=2)
    edits = edits_from_diff(src, tgt)
    assert replay_diff_edits(src, tgt, edits) == list(tgt.tokens)
    changed = sum(span[1] - span[0] for e in edits for span in (e.src_span, e.tgt_span) if span is not None)
    assert changed == len(words_s) + len(words_t) - 2 * lcs_len(words_s, words_t)


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
        want = oracle_simple(src.tokens, tgt.tokens, links)
        assert got == want


def test_closure_merges_leftmost_pair_first():
    # merge order decides the result here: the leftmost-first order
    # closes everything into one pair, a right-to-left order into two
    src = make_sentence(" ".join(["a"] * 7), version=1)
    tgt = make_sentence(" ".join(["a"] * 7), version=2)
    links = [(0, 1), (1, 1), (2, 4), (4, 6), (5, 2), (5, 4), (6, 4)]
    got = _close_span_pairs(_link_components(links), src, tgt)
    assert got == [((0, 7), (1, 7))]
    assert oracle_closure(oracle_components(links), src.tokens, tgt.tokens) == got


def _mostly_one_to_one(rng: random.Random, n: int, m: int) -> set[tuple[int, int]]:
    """A near-monotone copy's links, plus a few tokens linked to several
    tokens of the other side and a few small all-to-all blocks."""
    links = {(i, min(m - 1, max(0, i + rng.randint(-1, 1)))) for i in range(n) if rng.random() < 0.8}
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(n), rng.randrange(m)
        links |= {(i, rng.randrange(m)) for _ in range(rng.randint(2, 4))}
        links |= {(rng.randrange(n), j) for _ in range(rng.randint(2, 4))}
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(n), rng.randrange(m)
        links |= {(a, b) for a in range(i, min(n, i + 3)) for b in range(j, min(m, j + 3))}
    return links


def test_link_components_match_the_oracle_on_mostly_one_to_one_links():
    assert _link_components([]) == oracle_components([]) == []
    rng = random.Random(71)
    for _ in range(500):
        links = _mostly_one_to_one(rng, rng.randint(1, 40), rng.randint(1, 40))
        shuffled = list(links)
        rng.shuffle(shuffled)
        want = oracle_components(links)
        assert _link_components(frozenset(links)) == want
        assert _link_components(shuffled) == want


def _random_span(rng: random.Random, n: int) -> tuple[int, int]:
    a = rng.randrange(n)
    return (a, rng.randint(a + 1, n))


@pytest.mark.parametrize("words", [["a"], ["a", "b"]], ids=["1-word", "2-words"])
def test_closure_matches_oracle_on_tiny_vocabularies(words):
    # with one or two words almost every span pair is a copy or differs
    # by a single token, so adjacency merges and their order matter
    rng = random.Random(59 + len(words))
    for _ in range(1500):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 7))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 7))), version=2)
        n, m = len(src.tokens), len(tgt.tokens)
        if rng.random() < 0.5:
            pairs = _link_components(random_links(rng, n, m))
        else:
            # any list of span pairs in any order, as the tree route builds
            pairs = [_SpanPair(_random_span(rng, n), _random_span(rng, m)) for _ in range(rng.randint(1, 6))]
        want = oracle_closure(pairs, src.tokens, tgt.tokens)
        assert _close_span_pairs(pairs, src, tgt) == want


# ---------------------------------------------------------------------------
# merge-heavy oracle tests: long sentences over tiny vocabularies with
# dense links, so the closure merges, cascades and drops nested pairs

WORDS = st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")])
LONG = {"deadline": None, "suppress_health_check": [HealthCheck.too_slow]}


@st.composite
def long_pairs(draw, lo: int = 60, hi: int = 150):
    """Two sentences of lo..hi tokens over a one- to three-word vocabulary."""
    words = draw(WORDS)
    sides = []
    for version in (1, 2):
        n = draw(st.integers(lo, hi))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        sides.append(make_sentence(" ".join(rng.choice(words) for _ in range(n)), version=version))
    return sides[0], sides[1]


@st.composite
def dense_links(draw, n: int, m: int) -> frozenset:
    """One to `most` (at most three) links per source token, within
    `width` of the proportional diagonal: many small components whose
    envelopes overlap."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(0, 4))
    most = draw(st.integers(1, 3))
    links = set()
    for i in range(n):
        at = i * m // n
        for _ in range(rng.randint(1, most)):
            links.add((i, min(m - 1, max(0, at + rng.randint(-width, width)))))
    return frozenset(links)


@st.composite
def span_pair_lists(draw):
    """A sentence pair and 1-40 span pairs in any order, each tgt span
    near the proportional position of its src span.  Besides free
    pairs, a pair may copy an earlier pair's src start with another end
    (a tie), abut an earlier pair on both sides (a merge only when
    neither is a copy, so merge order shows), or take a src span a few
    tokens away from an earlier pair's and a tgt span that overlaps or
    abuts its tgt span (touching on the tgt side only)."""
    src, tgt = draw(long_pairs())
    n, m = len(src.tokens), len(tgt.tokens)

    def span(size: int, start: int) -> tuple[int, int]:
        return (start, draw(st.integers(start + 1, min(size, start + 6))))

    def near(a: int) -> int:
        return min(m - 1, max(0, a * m // n + draw(st.integers(-4, 4))))

    pairs: list[_SpanPair] = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("free", "tie", "abut", "tgt-touch")) if pairs else st.just("free"))
        if kind == "free":
            a = draw(st.integers(0, n - 1))
            pairs.append(_SpanPair(span(n, a), span(m, near(a))))
            continue
        (s0, s1), (t0, t1) = draw(st.sampled_from(pairs))
        if kind == "tie":
            pairs.append(_SpanPair(span(n, s0), span(m, near(s0))))
            continue
        if kind == "abut":
            if s1 < n and t1 < m:
                pairs.append(_SpanPair(span(n, s1), span(m, t1)))
            continue
        if s0 >= 2 and (s1 + 1 >= n or draw(st.booleans())):
            b = draw(st.integers(max(1, s0 - 8), s0 - 1))
            far = (draw(st.integers(max(0, b - 6), b - 1)), b)
        elif s1 + 1 < n:
            far = span(n, draw(st.integers(s1 + 1, min(n - 1, s1 + 8))))
        else:
            continue  # src spans the whole sentence
        # the tgt span overlaps or abuts the chosen pair's
        pairs.append(_SpanPair(far, span(m, draw(st.integers(max(0, t0 - 1), min(m - 1, t1))))))
    return src, tgt, pairs


@settings(max_examples=150, **LONG)
@given(span_pair_lists())
# rows 1 and 2 merge on their tgt overlap; their src envelope then
# swallows row 0, which touched neither, and the merge cascades into it
@example((make_sentence(" ".join(["a"] * 60), version=1), make_sentence(" ".join(["b"] * 60), version=2),
          [_SpanPair((6, 7), (10, 11)), _SpanPair((4, 5), (0, 2)), _SpanPair((8, 9), (1, 3))]))
def test_closure_matches_oracle_on_long_merge_heavy_lists(case):
    src, tgt, pairs = case
    want = oracle_closure(pairs, src.tokens, tgt.tokens)
    assert _close_span_pairs(pairs, src, tgt) == want


@settings(max_examples=60, **LONG)
@given(long_pairs(), st.data())
def test_closure_of_dense_components_matches_oracle(sentences, data):
    src, tgt = sentences
    links = data.draw(dense_links(len(src.tokens), len(tgt.tokens)))
    pairs = _link_components(links)
    assert _close_span_pairs(pairs, src, tgt) == oracle_closure(pairs, src.tokens, tgt.tokens)
    got = keys(edits_from_alignment_simple(src, tgt, WordAlignment(links)))
    assert got == oracle_simple(src.tokens, tgt.tokens, links)


def _node_spans(tree) -> list[tuple[int, int]]:
    return [tree.span] + [s for c in tree.children for s in _node_spans(c)]


@settings(max_examples=100, **LONG)
@given(st.integers(60, 150), st.integers(60, 150), st.integers(0, 2**32 - 1), st.integers(0, 200))
def test_drop_nested_matches_oracle_on_long_trees(n, m, seed, count):
    # a parent and its first child tie on their start, unary chains
    # repeat a span, and repeated draws give duplicates
    rng = random.Random(seed)
    spans_s = _node_spans(random_tree(rng, ["w"] * n))
    spans_t = _node_spans(random_tree(rng, ["w"] * m))
    pairs = [_SpanPair(rng.choice(spans_s), rng.choice(spans_t)) for _ in range(count)]
    pairs += [_SpanPair(s, t) for s, t in zip(spans_s, spans_t)]
    assert _drop_nested(pairs) == oracle_maximal(pairs)


@settings(max_examples=60, **LONG)
@given(long_pairs(), st.data(), st.integers(1, 2))
def test_parse_matches_exhaustive_oracle_on_long_dense_pairs(sentences, data, level):
    src, tgt = sentences
    links = data.draw(dense_links(len(src.tokens), len(tgt.tokens)))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    ts = random_tree(rng, list(src.tokens))
    tt = random_tree(rng, list(tgt.tokens))
    read_s, read_t = parse_tree_read(format_tree(ts)), parse_tree_read(format_tree(tt))
    got = keys(edits_with_parse(src, tgt, WordAlignment(links), read_s, read_t, max_level=level))
    assert got == oracle_parse(src.tokens, tgt.tokens, links, ts, tt, level)


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


def test_parse_climbs_unary_chain_one_level_per_node():
    # B and C have the span of their leaf x, yet each costs a level: the
    # links of x close only at A, three levels up, where (A x y) needs one
    src = make_sentence("x y", version=1)
    tgt = make_sentence("p x q", version=2)
    links = wa((0, 1), (0, 2), (1, 0))
    chain, flat, tgt_tree = "(A (B (C x)) y)", "(A x y)", "(T p x q)"
    shallow = {((1, 2), (0, 1), "substitute"), (None, (2, 3), "insert")}
    wide = {((0, 2), (0, 3), "substitute")}
    for src_tree, level, want in ((chain, 2, shallow), (chain, 3, wide), (flat, 1, wide)):
        ts, tt = parse_tree_read(src_tree), parse_tree_read(tgt_tree)
        assert keys(edits_with_parse(src, tgt, links, ts, tt, max_level=level)) == want
        assert want == oracle_parse(
            src.tokens, tgt.tokens, links.links,
            oracle_parse_tree(src_tree), oracle_parse_tree(tgt_tree), level,
        )


def test_parse_bare_leaf_trees():
    src = make_sentence("a", version=1)
    tgt = make_sentence("b", version=2)
    ts, tt = parse_tree_read("a"), parse_tree_read("b")
    for level in (0, 1, 5):
        assert keys(edits_with_parse(src, tgt, wa((0, 0)), ts, tt, max_level=level)) == keys({sub(0, 1, 0, 1)})
        assert keys(edits_with_parse(src, tgt, wa(), ts, tt, max_level=level)) == keys({dele(0, 1), ins(0, 1)})


def _height(tree) -> int:
    """Levels from the deepest leaf up to the root."""
    def hops(k: int) -> int:
        n = 0
        while tree.parents[k] >= 0:
            k, n = tree.parents[k], n + 1
        return n

    return max(hops(k) for k in tree.leaf_nodes)


def test_partner_envelopes_are_the_bounds_over_each_node_span():
    rng = random.Random(73)
    for _ in range(300):
        n, m = rng.randint(1, 25), rng.randint(1, 25)
        texts = [format_tree(random_tree(rng, ["w"] * k)) for k in (n, m)]
        if rng.random() < 0.3:  # a unary chain over the root
            texts = [f"(U (V {t}))" for t in texts]
        ts, tt = map(parse_tree_read, texts)
        links = sorted(random_links(rng, n, m))
        lo_s, hi_s, lo_t, hi_t = _partner_envelopes(links, ts, tt)
        for tree, lo, hi, side, other_len in ((ts, lo_s, hi_s, 0, m), (tt, lo_t, hi_t, 1, n)):
            for k in range(len(tree.labels)):
                partners = [link[1 - side] for link in links if tree.starts[k] <= link[side] < tree.ends[k]]
                assert (lo[k], hi[k]) == (min(partners, default=other_len), max(partners, default=-1))


def _right_branching(words: list[str]) -> str:
    text = words[-1]
    for w in reversed(words[:-1]):
        text = f"(X {w} {text})"
    return text


def test_parse_climbs_a_300_token_chain_as_the_oracle_does():
    # on right-branching chains every node spans to the end, so a link
    # resolved by climbing absorbs the unlinked tail (251, 300) that the
    # plain components leave as a delete and an insert; the link (250, 250)
    # closes at the source node (10, 300), 241 levels above its leaf
    rng = random.Random(79)
    words_s = [rng.choice("ab") for _ in range(300)]
    words_t = [rng.choice("ab") for _ in range(300)]
    src = make_sentence(" ".join(words_s), version=1)
    tgt = make_sentence(" ".join(words_t), version=2)
    text_s, text_t = _right_branching(words_s), _right_branching(words_t)
    ts, tt = parse_tree_read(text_s), parse_tree_read(text_t)
    assert _height(ts) == _height(tt) == 299
    links = {(250, 250), (250, 100), (150, 40), (10, 200), (0, 0)}
    for level in (240, 241, 299, 300):
        got = keys(edits_with_parse(src, tgt, WordAlignment(links), ts, tt, max_level=level))
        assert got == oracle_parse(
            src.tokens, tgt.tokens, links, oracle_parse_tree(text_s), oracle_parse_tree(text_t), level,
        )
        assert (((251, 300), None, "delete") in got) == (level < 241)


def test_parse_levels_past_the_root_change_nothing():
    rng = random.Random(53)
    words = ["wa", "wb", "wc"]
    for _ in range(150):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 9))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 9))), version=2)
        links = WordAlignment(random_links(rng, len(src.tokens), len(tgt.tokens)))
        ts = parse_tree_read(format_tree(random_tree(rng, list(src.tokens))))
        tt = parse_tree_read(format_tree(random_tree(rng, list(tgt.tokens))))
        top = max(_height(ts), _height(tt))
        want = keys(edits_with_parse(src, tgt, links, ts, tt, max_level=top))
        for level in (top + 1, top + 5, 10**6):
            assert keys(edits_with_parse(src, tgt, links, ts, tt, max_level=level)) == want


def test_parse_level_zero_equals_simple_on_randoms():
    rng = random.Random(43)
    words = ["wa", "wb", "wc", "wd"]
    for _ in range(150):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=2)
        links = WordAlignment(random_links(rng, len(src.tokens), len(tgt.tokens)))
        ts = parse_tree_read(format_tree(random_tree(rng, list(src.tokens))))
        tt = parse_tree_read(format_tree(random_tree(rng, list(tgt.tokens))))
        assert keys(edits_with_parse(src, tgt, links, ts, tt, max_level=0)) == keys(
            edits_from_alignment_simple(src, tgt, links)
        )


def test_drop_nested_keeps_maximal_pairs_on_randoms():
    # the sweep needs each side's spans to nest or be disjoint, as the
    # node spans of one tree do
    rng = random.Random(67)
    for _ in range(1000):
        spans_s = _node_spans(random_tree(rng, ["w"] * rng.randint(1, 12)))
        spans_t = _node_spans(random_tree(rng, ["w"] * rng.randint(1, 12)))
        pairs = [
            _SpanPair(rng.choice(spans_s), rng.choice(spans_t))
            for _ in range(rng.randint(0, 14))
        ]
        assert _drop_nested(pairs) == oracle_maximal(pairs)


@pytest.mark.parametrize(
    "words,max_len",
    [
        pytest.param(["wa", "wb", "wc", "wd"], 6, id="6-tokens-4-words"),
        # longer many-to-many chains: a 2-word vocabulary over up to 14 tokens
        pytest.param(["wa", "wb"], 14, id="14-tokens-2-words"),
    ],
)
def test_parse_matches_exhaustive_oracle_on_randoms(words, max_len):
    rng = random.Random(47)
    for _ in range(150):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, max_len))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, max_len))), version=2)
        links = random_links(rng, len(src.tokens), len(tgt.tokens))
        ts = random_tree(rng, list(src.tokens))
        tt = random_tree(rng, list(tgt.tokens))
        level = rng.randint(1, 3)
        read_s, read_t = parse_tree_read(format_tree(ts)), parse_tree_read(format_tree(tt))
        got = keys(edits_with_parse(src, tgt, WordAlignment(links), read_s, read_t, max_level=level))
        want = oracle_parse(src.tokens, tgt.tokens, links, ts, tt, level)
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


def test_reorder_blocks_sharing_tokens():
    # (0,0) and (1,1) form one block; (0,1) and (1,0) are blocks of
    # their own that share tokens with it and cross each other
    src = make_sentence("aa aa", version=1)
    tgt = make_sentence("aa aa", version=2)
    links = wa((0, 0), (1, 1), (0, 1), (1, 0))
    got = derive_reorder(set(), links, src, tgt)
    assert keys(got) == {
        ((0, 1), (1, 2), "reorder"),
        ((1, 2), (0, 1), "reorder"),
    }
    assert keys(got) == oracle_reorder(src.tokens, tgt.tokens, links.links, set())


def _crosses_by_links(a, b) -> bool:
    """Some link of block a crosses some link of block b, by testing
    every pair of links."""
    (i, j, n), (i2, j2, n2) = a, b
    return any(
        (i + x < i2 + y and j + x > j2 + y) or (i + x > i2 + y and j + x < j2 + y)
        for x in range(n)
        for y in range(n2)
    )


@st.composite
def block_pairs(draw):
    """Two diagonal blocks over small indices, whose diagonals differ by
    D = (j - i) - (j2 - i2); D of -2..2 is drawn as often as any other."""
    i, i2, j2 = (draw(st.integers(0, 12)) for _ in range(3))
    n, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    d = draw(st.sampled_from((-2, -1, 0, 1, 2)) | st.integers(-14, 14))
    j = i + (j2 - i2) + d
    assume(j >= 0)
    return (i, j, n), (i2, j2, n2)


@given(block_pairs())
@example(((2, 2, 3), (3, 3, 2)))  # overlapping, one diagonal: D = 0
@example(((2, 3, 3), (3, 3, 2)))  # overlapping, D = 1: no integer strictly between
@example(((2, 1, 3), (3, 3, 2)))  # overlapping, D = -1
@example(((2, 4, 3), (3, 3, 2)))  # overlapping, D = 2: the nearest diagonals that cross
@example(((2, 0, 3), (3, 3, 2)))  # overlapping, D = -2
@example(((0, 3, 2), (2, 4, 1)))  # wholly before on the src side only
@example(((3, 0, 2), (2, 4, 1)))  # wholly before on the tgt side only
@example(((0, 0, 2), (2, 2, 1)))  # wholly before on both sides
def test_blocks_cross_matches_link_loop(blocks):
    a, b = blocks
    assert _blocks_cross(a, b) == _crosses_by_links(a, b)
    assert _blocks_cross(b, a) == _crosses_by_links(a, b)


@pytest.mark.parametrize("words", [["a"], ["a", "b"], ["a", "b", "c"]], ids=["1-word", "2-words", "3-words"])
def test_reorder_matches_oracle_on_randoms(words):
    rng = random.Random(61 + len(words))
    for _ in range(300):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 9))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 9))), version=2)
        n, m = len(src.tokens), len(tgt.tokens)
        # dense links: many-to-many, so blocks often share tokens
        density = rng.choice((0.12, 0.3, 0.5))
        links = frozenset((i, j) for i in range(n) for j in range(m) if rng.random() < density)
        alignment = WordAlignment(links)
        for edits in (set(), edits_from_alignment_simple(src, tgt, alignment)):
            got = keys(derive_reorder(edits, alignment, src, tgt))
            assert got == oracle_reorder(src.tokens, tgt.tokens, links, keys(edits))


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
