"""Release gate for the whole pipeline.

One test per criterion, with every numeric tolerance pinned in its
assert.  The first six groups run hermetically on generated inputs and
independent reference implementations; the last three reproduce scores
on the released corpus and skip unless REVKIT_ARXIVEDITS_DIR points at
a local copy (corpus.json, gold/, splits.json, gold_edits.json).
"""
from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from revkit.config import RunConfig
from revkit.corpus import load_corpus
from revkit.doc_ops import DocOpKind, count_operations, doc_operations, update_ratio
from revkit.edits import (
    Edit,
    EditKind,
    WordAlignment,
    edits_from_alignment_simple,
    edits_from_diff,
    edits_with_parse,
)
from revkit.formats import entry_from_json, read_alignment
from revkit.metrics import (
    PRF,
    eval_alignment,
    eval_classification,
    eval_edits,
    eval_edits_corpus,
)
from revkit.myers import myers_diff
from revkit.sent_align import align_sentences_directional, merge_bidirectional
from revkit.trees import parse_tree_read

from helpers import aligned_paragraphs, alignment, candidates, dele, diff_cost, doc, filler_sentence, ins, keys, sub
from oracles import (
    format_tree,
    generate_gold_revision,
    lcs_len,
    make_sentence,
    oracle_align_paragraphs,
    oracle_parse,
    random_doc_pair,
    random_links,
    random_tree,
)


# ---------------------------------------------------------------------------
# 1. diff minimality against a DP oracle

def test_diff_cost_equals_lcs_bound():
    # cost of a minimal script is |a| + |b| - 2 * LCS, vocabulary of 3
    # keeps collisions frequent enough to stress the backtracking
    rng = random.Random(1101)
    started = time.monotonic()
    for _ in range(10_000):
        a = [rng.choice("abc") for _ in range(rng.randint(0, 12))]
        b = [rng.choice("abc") for _ in range(rng.randint(0, 12))]
        assert diff_cost(myers_diff(a, b)) == len(a) + len(b) - 2 * lcs_len(a, b), (a, b)
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# 2. paragraph alignment against a plain-loop transcription

def test_paragraph_alignment_matches_reference():
    rng = random.Random(2202)
    t = RunConfig()
    for _ in range(1_000):
        src, tgt = random_doc_pair(rng)
        assert aligned_paragraphs(src, tgt, t) == oracle_align_paragraphs(src, tgt, t)


# ---------------------------------------------------------------------------
# 3. edit extraction round trip through induced word alignments

def _edit_from_key(key: tuple) -> Edit:
    src_span, tgt_span, kind = key
    return Edit(src_span, tgt_span, EditKind(kind))


def test_gold_edits_recovered_exactly():
    rng = random.Random(3303)
    for _ in range(1_000):
        src, tgt, gold, links = generate_gold_revision(rng)
        got = edits_from_alignment_simple(src, tgt, WordAlignment(links))
        assert keys(got) == gold
        scored = eval_edits(got, [[_edit_from_key(k) for k in gold]])
        assert scored.prf.f1 == 1.0
        assert scored.exact_match


# ---------------------------------------------------------------------------
# 4. tree-guided extraction: level-0 degeneration and small-case oracle

def test_parse_level_zero_degenerates_to_simple():
    rng = random.Random(4404)
    words = ["wa", "wb", "wc", "wd", "we"]
    for _ in range(1_000):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 10))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 10))), version=2)
        links = WordAlignment(random_links(rng, len(src.tokens), len(tgt.tokens)))
        ts = parse_tree_read(format_tree(random_tree(rng, list(src.tokens))))
        tt = parse_tree_read(format_tree(random_tree(rng, list(tgt.tokens))))
        assert keys(edits_with_parse(src, tgt, links, ts, tt, max_level=0)) == keys(
            edits_from_alignment_simple(src, tgt, links)
        )


def test_parse_matches_exhaustive_ancestor_oracle():
    rng = random.Random(4405)
    words = ["wa", "wb", "wc", "wd"]
    for _ in range(250):
        src = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=1)
        tgt = make_sentence(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))), version=2)
        links = random_links(rng, len(src.tokens), len(tgt.tokens))
        ts = random_tree(rng, list(src.tokens))
        tt = random_tree(rng, list(tgt.tokens))
        level = rng.randint(1, 3)
        read_s, read_t = parse_tree_read(format_tree(ts)), parse_tree_read(format_tree(tt))
        got = keys(edits_with_parse(src, tgt, WordAlignment(links), read_s, read_t, max_level=level))
        assert got == oracle_parse(src.tokens, tgt.tokens, links, ts, tt, level)


# ---------------------------------------------------------------------------
# 5. evaluation metrics reproduce worked-out values

TOL = 1e-9


def test_alignment_scores_reproduce_hand_values():
    f = filler_sentence
    src = doc([[f(0), f(1), f(2), f(3), f(4)]], 1)
    # target sentence 0 repeats source sentence 0 verbatim and must be
    # discounted on both sides before the counts are taken
    tgt = doc([[f(0), f(30), f(31), f(32), f(33)]], 2)
    gold = alignment(1, 2, [((0, n), (0, n), None) for n in range(5)])
    pred = alignment(
        1, 2,
        [
            ((0, 0), (0, 0), None),
            ((0, 1), (0, 1), None),
            ((0, 2), (0, 2), None),
            ((0, 3), (0, 4), None),
        ],
    )
    got = eval_alignment(pred, gold, src, tgt)
    assert got.precision == pytest.approx(2 / 3, abs=TOL)
    assert got.recall == pytest.approx(1 / 2, abs=TOL)
    assert got.f1 == pytest.approx(4 / 7, abs=TOL)


def test_edit_scores_reproduce_hand_values():
    pred = [sub(0, 1, 0, 1), dele(2, 3), ins(4, 5)]
    gold = [[sub(0, 1, 0, 1), dele(2, 3), sub(5, 6, 5, 7), ins(9, 10)]]
    got = eval_edits(pred, gold)
    assert got.prf.precision == pytest.approx(2 / 3, abs=TOL)
    assert got.prf.recall == pytest.approx(1 / 2, abs=TOL)
    assert got.prf.f1 == pytest.approx(4 / 7, abs=TOL)
    assert not got.exact_match


def test_classification_reproduces_weighted_value():
    golds = list("AABBBCCCCC")
    preds = list("AABCDCCCCD")
    got = eval_classification(preds, golds)
    assert got.accuracy == pytest.approx(0.7, abs=TOL)
    assert got.weighted_f1 == pytest.approx(0.75, abs=TOL)


# ---------------------------------------------------------------------------
# 6. update ratio boundary behaviour

def test_update_ratio_boundaries():
    f = filler_sentence
    raws = [f(n) for n in range(5)]
    src = doc([raws], 1)
    diagonal = alignment(1, 2, [((0, n), (0, n), None) for n in range(5)])

    ops = doc_operations(src, doc([raws], 2), diagonal)
    assert update_ratio(ops, src) == 0.0

    ops = doc_operations(src, doc([[f(n + 10) for n in range(5)]], 2), diagonal)
    assert update_ratio(ops, src) == 1.0

    # four verbatim copies, one rewrite: 1 - 4/5 under copy_only
    ops = doc_operations(src, doc([raws[:4] + [f(99)]], 2), diagonal)
    assert update_ratio(ops, src) == pytest.approx(0.2, abs=TOL)
    assert update_ratio(ops, src, "copy_or_rephrase") == 0.0


# ---------------------------------------------------------------------------
# 7. released-corpus reproductions

DATASET_ENV = "REVKIT_ARXIVEDITS_DIR"

needs_corpus = pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason=f"set {DATASET_ENV} to a directory holding corpus.json, gold/, splits.json, gold_edits.json",
)


def _group_id_for(path: Path, embedded: str | None) -> str:
    if embedded:
        return embedded
    # fall back to the "{id}.v{a}-v{b}.json" naming, undoing the slash
    # substitution applied to old-style identifiers
    head, _, _ = path.name[: -len(".json")].rpartition(".v")
    return head.replace("_", "/")


@pytest.fixture(scope="module")
def released():
    root = Path(os.environ[DATASET_ENV])
    groups = {g.arxiv_id: g for g in load_corpus(str(root / "corpus.json"), compat=True)}
    splits = json.loads((root / "splits.json").read_text(encoding="utf-8"))
    gold = []
    for path in sorted((root / "gold").glob("*.json")):
        embedded, al = read_alignment(str(path))
        gold.append((_group_id_for(path, embedded), al))
    assert gold, "no alignment files under gold/"
    return SimpleNamespace(
        root=root,
        groups=groups,
        splits=splits,
        gold=gold,
        # all three reproductions share one wall-clock budget
        deadline=time.monotonic() + 600.0,
    )


def _contexts(ns, split_name: str):
    wanted = set(ns.splits[split_name])
    out = []
    for arxiv_id, al in ns.gold:
        if arxiv_id not in wanted:
            continue
        group = ns.groups[arxiv_id]
        src = group.version(al.src_version)
        tgt = group.version(al.tgt_version)
        # the cells are scored once, for every threshold tried
        out.append((src, tgt, candidates(src, tgt, "jaccard"), al))
    assert out, f"no gold alignments for the {split_name} split"
    return out


def _pooled_f1(contexts, threshold: float) -> float:
    tp = fp = fn = 0
    for src, tgt, cells, gold in contexts:
        fwd = align_sentences_directional(cells, src, tgt, threshold)
        bwd = align_sentences_directional(cells, tgt, src, threshold)
        scored = eval_alignment(merge_bidirectional(fwd, bwd), gold, src, tgt)
        tp, fp, fn = tp + scored.tp, fp + scored.fp, fn + scored.fn
    return PRF.from_counts(tp, fp, fn).f1


@needs_corpus
def test_jaccard_alignment_score_on_test_split(released):
    dev = _contexts(released, "dev")
    best_thr, best_f1 = 0.0, -1.0
    for n in range(101):  # ties go to the lowest threshold
        f1 = _pooled_f1(dev, n / 100)
        if f1 > best_f1:
            best_thr, best_f1 = n / 100, f1
    got = 100.0 * _pooled_f1(_contexts(released, "test"), best_thr)
    assert abs(got - 90.1) <= 2.0, (got, best_thr)
    assert time.monotonic() < released.deadline


@needs_corpus
def test_diff_baseline_edit_score_on_test_split(released):
    raw = json.loads((released.root / "gold_edits.json").read_text(encoding="utf-8"))
    test_ids = set(released.splits["test"])
    items = []
    for arxiv_id, obj in raw.items():
        if arxiv_id not in test_ids:
            continue
        group = released.groups[arxiv_id]
        for n, rec in enumerate(obj["revisions"]):
            entry = entry_from_json(rec, f"gold_edits.json[{arxiv_id}].revisions[{n}]")
            assert entry.src_id is not None and entry.tgt_id is not None
            src = group.version(entry.src_id.version).sentence(entry.src_id)
            tgt = group.version(entry.tgt_id.version).sentence(entry.tgt_id)
            items.append((edits_from_diff(src, tgt), entry.gold_alternatives()))
    assert items, "no gold edits for the test split"
    got = 100.0 * eval_edits_corpus(items).micro.f1
    assert abs(got - 75.3) <= 4.0, got
    assert time.monotonic() < released.deadline


@needs_corpus
def test_operation_census_matches_release(released):
    counts: Counter = Counter()
    for arxiv_id, al in released.gold:
        group = released.groups[arxiv_id]
        src = group.version(al.src_version)
        tgt = group.version(al.tgt_version)
        counts += count_operations(doc_operations(src, tgt, al))
    assert counts == {
        DocOpKind.INSERTION: 25229,
        DocOpKind.DELETION: 17315,
        DocOpKind.REPHRASING: 17755,
        DocOpKind.SPLITTING: 378,
        DocOpKind.MERGING: 269,
        DocOpKind.FUSION: 142,
        DocOpKind.COPYING: 95110,
    }
    assert time.monotonic() < released.deadline
