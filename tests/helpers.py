"""Builders shared by the test modules.

The skip filters are easy to trip by accident: sentences need more than
3 tokens and mostly letters, paragraphs at least 10 tokens.  The
builders here construct content that stays alignable unless a test asks
for skipped material on purpose.
"""
from __future__ import annotations

from revkit.corpus import DocVersion, Sentence, SentenceId
from revkit.edits import Edit, EditKind, WordAlignment
from revkit.sent_align import SentAlignLabel, SentenceAlignment

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


def _letters(n: int) -> str:
    # digits spelled as letters, keeping surfaces fully alphabetic so the
    # letter-fraction filter never trips
    return "".join(chr(ord("q") + int(d)) for d in str(n))


def filler_sentence(seed: int, n: int = 6) -> str:
    """n distinct words, different seeds give disjoint vocabulary."""
    return " ".join(
        f"{FILLER[k % len(FILLER)]}{_letters(seed)}x{_letters(k)}" for k in range(n)
    )


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
