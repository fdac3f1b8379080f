"""Builders shared by the test modules.

The skip filters are easy to trip by accident: sentences need more than
3 tokens and mostly letters, paragraphs at least 10 tokens.  The
builders here construct content that stays alignable unless a test asks
for skipped material on purpose.
"""
from __future__ import annotations

import json
from itertools import product

import numpy as np

from revkit.config import RunConfig
from revkit.corpus import ArticleGroup, DocVersion, Sentence, SentenceId
from revkit.edits import Edit, EditKind, WordAlignment
from revkit.kernels import Rows
from revkit.para_align import CandidateCells, EncodedVersion, align_paragraphs, encode_versions
from revkit.sent_align import SentAlignLabel, SentenceAlignment
from revkit.similarity import make_metric

# 12 distinct filler words, all alphabetic
FILLER = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
)


def sent(raw: str, version: int = 1, para: int = 0, idx: int = 0) -> Sentence:
    return Sentence.build(raw, SentenceId(version, para, idx))


def toks(raw: str, version: int = 1, para: int = 0, idx: int = 0) -> Sentence:
    """Sentence from space-separated tokens; surfaces must round-trip."""
    s = sent(raw, version, para, idx)
    assert s.tokens == tuple(raw.split()), raw
    return s


def doc(paragraphs: list[list[str]], version_index: int = 1, timestamp: int | None = None) -> DocVersion:
    if timestamp is None:
        timestamp = 1000 * version_index
    return DocVersion.build(version_index, timestamp, paragraphs)


def serialize_corpus(groups: list[ArticleGroup]) -> str:
    """Corpus JSON of built groups; parse_corpus reads it back equal."""
    return json.dumps([
        {
            "arxiv_id": g.arxiv_id,
            "subject": g.subject,
            "versions": [
                {
                    "version": v.version_index,
                    "timestamp": v.timestamp,
                    "paragraphs": [{"sentences": [s.raw for s in p.sentences]} for p in v.paragraphs],
                }
                for v in g.versions
            ],
        }
        for g in groups
    ], indent=2)


def _letters(n: int) -> str:
    # digits spelled as letters, keeping surfaces fully alphabetic so the
    # letter-fraction filter never trips
    return "".join(chr(ord("q") + int(d)) for d in str(n))


def filler_sentence(seed: int, n: int = 6) -> str:
    """n distinct words, different seeds give disjoint vocabulary."""
    return " ".join(
        f"{FILLER[k % len(FILLER)]}{_letters(seed)}x{_letters(k)}" for k in range(n)
    )


def aligned_paragraphs(src: DocVersion, tgt: DocVersion, cfg: RunConfig = RunConfig()) -> frozenset[tuple[int, int]]:
    """align_paragraphs of src and tgt, the pair encoded alone."""
    return align_paragraphs(src, tgt, cfg, encode_versions((src, tgt)))


def candidates(src: DocVersion, tgt: DocVersion, metric, pairs=None) -> CandidateCells:
    """The candidate cells of align_paragraphs(src, tgt), or of the given
    paragraph pairs, or of every pair of alignable paragraphs when pairs
    is "all"; metric is a name or a bulk scorer, as make_metric gives."""
    encodings = encode_versions((src, tgt))
    if pairs == "all":
        pairs = product(
            [p.index for p in src.alignable_paragraphs()], [p.index for p in tgt.alignable_paragraphs()]
        )
    pairs = align_paragraphs(src, tgt, RunConfig(), encodings) if pairs is None else frozenset(pairs)
    return CandidateCells(pairs, encodings, make_metric(metric) if isinstance(metric, str) else metric)


def cell_list(cells: CandidateCells) -> list[tuple[Sentence, Sentence, float, float]]:
    """Every cell: its source and target sentence, and its score from
    each side."""
    (forward, backward), s, t = cells.scores, cells.src.sentences, cells.tgt.sentences
    return [
        (s[r], t[c], f, b)
        for r, c, f, b in zip(cells.rows.tolist(), cells.cols.tolist(), forward.tolist(), backward.tolist())
    ]


def cell_scores(name: str, src: DocVersion, tgt: DocVersion, pairs="all") -> dict:
    """(a.id, b.id) -> the aligner's score of a against b, for every
    candidate cell in both directions."""
    out = {}
    for s, t, forward, backward in cell_list(candidates(src, tgt, name, pairs)):
        out[s.id, t.id] = forward
        out[t.id, s.id] = backward
    return out


def encode_tokens(tokens, vocab: dict[str, int]) -> tuple[int, ...]:
    """The tokens' lowercase ids in vocab; a new lowercase form joins it
    with the next id, so ids follow first occurrence."""
    return tuple(vocab.setdefault(t.lower(), len(vocab)) for t in tokens)


def encoded_pair(xs: list[Sentence], ys: list[Sentence]) -> tuple[EncodedVersion, EncodedVersion]:
    """Two sides whose rows are the sentences xs and ys, skipped or not,
    encoded over one vocabulary, as a metric's bulk scorer reads them."""
    vocab: dict[str, int] = {}
    return tuple(
        EncodedVersion(None, side, Rows([encode_tokens(s.tokens, vocab) for s in side]), {}, []) for side in (xs, ys)
    )


def pair_score(name: str, x: Sentence, y: Sentence) -> float:
    """The aligner's score of x against y, for any two sentences, skipped
    or not: make_metric's scorer on the one cell of their encodings, tfidf
    with idf fitted on x and y alone."""
    cell = np.zeros(1, dtype=np.int64)
    return make_metric(name)(encoded_pair([x], [y]), (cell, cell))[0].item()


def jaccard(a: Sentence, b: Sentence) -> float:
    return pair_score("jaccard", a, b)


def alignment(
    src_version: int, tgt_version: int, triples
) -> SentenceAlignment:
    """Triples of ((p,s), (p,s), label-or-None); None means aligned."""
    pairs = set()
    for s_ps, t_ps, label in triples:
        pairs.add(
            (
                SentenceId(src_version, *s_ps),
                SentenceId(tgt_version, *t_ps),
                label or SentAlignLabel.ALIGNED,
            )
        )
    return SentenceAlignment(src_version, tgt_version, frozenset(pairs))


def wa(*links: tuple[int, int]) -> WordAlignment:
    return WordAlignment(frozenset(links))


def sub(a: int, b: int, c: int, d: int) -> Edit:
    return Edit((a, b), (c, d), EditKind.SUBSTITUTE)


def ins(c: int, d: int) -> Edit:
    return Edit(None, (c, d), EditKind.INSERT)


def dele(a: int, b: int) -> Edit:
    return Edit((a, b), None, EditKind.DELETE)


def keys(edits) -> frozenset:
    return frozenset(e.key() for e in edits)


def diff_cost(regions) -> int:
    """Deleted plus inserted tokens of `myers_diff` regions."""
    return sum((a1 - a0) + (b1 - b0) for a0, a1, b0, b1 in regions)
