"""Independent reference implementations used only by the tests.

Everything here is written as directly as possible: plain loops, no
numpy, no sharing of code with the package beyond plain data access.
Where the package makes a policy choice (leftmost-first merge order in
the span-pair closure) the oracle encodes the same policy in its own
words, so disagreements point at real defects rather than at ordering.
"""
from __future__ import annotations

import math
import random
import re
import string
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from revkit import corpus
from revkit.corpus import DocVersion, Sentence, SentenceId
from revkit.errors import TreeParseError
from revkit.metrics import PRF, ClassificationReport
from revkit.trees import MAX_DEPTH

Span = tuple[int, int]
Key = tuple  # (src_span | None, tgt_span | None, kind string)


# ---------------------------------------------------------------------------
# longest common subsequence, textbook DP

def lcs_len(a, b) -> int:
    n, m = len(a), len(b)
    prev = [0] * (m + 1)
    for i in range(1, n + 1):
        cur = [0] * (m + 1)
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[m]


# ---------------------------------------------------------------------------
# paragraph alignment, transcribed with explicit loops

def _jac(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _lower_set(s: Sentence) -> frozenset:
    return frozenset(t.lower() for t in s.tokens)


def _para_sent_sets(p) -> list[frozenset]:
    return [_lower_set(s) for s in p.sentences if not s.skipped]


def oracle_jaccard(a: Sentence, b: Sentence) -> float:
    """Jaccard overlap of the lowercased token-surface sets."""
    return _jac(_lower_set(a), _lower_set(b))


def oracle_sim_tensor(src: DocVersion, tgt: DocVersion) -> tuple[list, list]:
    """sim1/sim2 over the non-skipped paragraphs, one block at a time:
    the best score per sentence, then a plain sum/len mean.

    The sum runs left to right, as np.mean's does below eight terms (it
    sums pairwise from there on), so exact comparisons hold for paragraphs
    of fewer than eight sentences; random_doc_pair never builds larger
    ones.
    """
    s_sets = [_para_sent_sets(p) for p in src.paragraphs if not p.skipped]
    t_sets = [_para_sent_sets(p) for p in tgt.paragraphs if not p.skipped]
    k, l = len(s_sets), len(t_sets)
    sim1 = [[0.0] * l for _ in range(k)]
    sim2 = [[0.0] * l for _ in range(k)]
    for i in range(k):
        for j in range(l):
            if not s_sets[i] or not t_sets[j]:
                continue
            best_per_src = [max(_jac(a, b) for b in t_sets[j]) for a in s_sets[i]]
            best_per_tgt = [max(_jac(a, b) for a in s_sets[i]) for b in t_sets[j]]
            sim1[i][j] = _sum_left_to_right(best_per_src) / len(best_per_src)
            sim2[i][j] = _sum_left_to_right(best_per_tgt) / len(best_per_tgt)
    return sim1, sim2


def oracle_align_paragraphs(src: DocVersion, tgt: DocVersion, t) -> frozenset[tuple[int, int]]:
    sp = [p for p in src.paragraphs if not p.skipped]
    tp = [p for p in tgt.paragraphs if not p.skipped]
    k, l = len(sp), len(tp)
    if k == 0 or l == 0:
        return frozenset()
    sim1, sim2 = oracle_sim_tensor(src, tgt)

    def d(i: int, j: int) -> float:
        return abs(i / k - j / l)

    def argmax(values: list[float]) -> int:
        best = 0
        for n in range(1, len(values)):
            if values[n] > values[best]:
                best = n
        return best

    chosen: set[tuple[int, int]] = set()
    for j in range(l):
        i_max = argmax([sim2[i][j] for i in range(k)])
        if sim1[i_max][j] > t.tau1 and d(i_max, j) < t.tau2:
            chosen.add((i_max, j))
        elif sim1[i_max][j] > t.tau3:
            chosen.add((i_max, j))
    for i in range(k):
        j_max = argmax(sim1[i])
        if sim2[i][j_max] > t.tau1 and d(i, j_max) < t.tau4:
            chosen.add((i, j_max))
        elif sim2[i][j_max] > t.tau3:
            chosen.add((i, j_max))
    return frozenset((sp[i].index, tp[j].index) for i, j in chosen)


# ---------------------------------------------------------------------------
# tf-idf cosine, recomputed from scratch for every pair.  Every sum is an
# explicit left-to-right loop: sum() of floats is compensated from Python
# 3.12 on, and the package's sums are plain left-to-right ones.

@dataclass(frozen=True)
class OracleIdf:
    """Inverse document frequencies where every sentence of the fitted
    versions counts as one document; unknown tokens back off to df = 1."""

    idf: dict
    doc_count: int

    def lookup(self, token: str) -> float:
        got = self.idf.get(token)
        if got is None:
            return math.log(self.doc_count)
        return got


def oracle_build_idf(docs) -> OracleIdf:
    df: Counter = Counter()
    n = 0
    for doc in docs:
        for p in doc.paragraphs:
            for s in p.sentences:
                n += 1
                df.update(_lower_set(s))
    if n == 0:
        raise ValueError("cannot fit idf on zero sentences")
    return OracleIdf({tok: math.log(n / c) for tok, c in df.items()}, n)


def _sum_left_to_right(values) -> float:
    acc = 0.0
    for v in values:
        acc += v
    return acc


def lower_tokens(s: Sentence) -> tuple[str, ...]:
    """The sentence's tokens, lowercased."""
    return tuple(t.lower() for t in s.tokens)


def oracle_tfidf(a: Sentence, b: Sentence, model) -> float:
    ta = Counter(lower_tokens(a))
    tb = Counter(lower_tokens(b))
    va = {tok: cnt * model.lookup(tok) for tok, cnt in ta.items()}
    vb = {tok: cnt * model.lookup(tok) for tok, cnt in tb.items()}
    if not any(va.values()) and not any(vb.values()):
        return 1.0 if ta == tb else 0.0
    if va == vb:
        return 1.0 if va else 0.0
    dot = _sum_left_to_right(w * vb.get(k, 0.0) for k, w in va.items())
    na = math.sqrt(_sum_left_to_right(w * w for w in va.values()))
    nb = math.sqrt(_sum_left_to_right(w * w for w in vb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


# ---------------------------------------------------------------------------
# character trigram cosine and sentence BLEU, recomputed from scratch for
# every pair (the n-gram loops as first written)

def oracle_char_trigram(a: Sentence, b: Sentence) -> float:
    ra = a.raw.lower()
    rb = b.raw.lower()
    ca = Counter(ra[i:i + 3] for i in range(len(ra) - 2))
    cb = Counter(rb[i:i + 3] for i in range(len(rb) - 2))
    if not ca and not cb:
        return 1.0 if ra == rb else 0.0
    if ca == cb:
        return 1.0
    dot = sum(w * cb.get(k, 0.0) for k, w in ca.items())
    na = math.sqrt(sum(w * w for w in ca.values()))
    nb = math.sqrt(sum(w * w for w in cb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _oracle_bleu_one_way(hyp: tuple, ref: tuple) -> float:
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        total = max(len(hyp) - n + 1, 0)
        hgrams = Counter(hyp[i:i + n] for i in range(total))
        rgrams = Counter(ref[i:i + n] for i in range(max(len(ref) - n + 1, 0)))
        matched = sum(min(c, rgrams[g]) for g, c in hgrams.items())
        if n == 1:
            if matched == 0:
                return 0.0
            p = matched / total
        else:
            p = (matched + 1) / (total + 1)
        log_sum += math.log(p)
    if len(hyp) > len(ref):
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(ref) / len(hyp))
    return bp * math.exp(log_sum / 4.0)


def oracle_bleu(a: Sentence, b: Sentence) -> float:
    wa = lower_tokens(a)
    wb = lower_tokens(b)
    return 0.5 * (_oracle_bleu_one_way(wa, wb) + _oracle_bleu_one_way(wb, wa))


def oracle_metric(name: str, src: DocVersion, tgt: DocVersion):
    """The named metric's oracle function of two sentences; tfidf fits its
    idf on the two versions."""
    if name == "tfidf":
        fitted = []  # fitted on first use: versions without sentences fit nothing

        def tfidf(a: Sentence, b: Sentence) -> float:
            if not fitted:
                fitted.append(oracle_build_idf([src, tgt]))
            return oracle_tfidf(a, b, fitted[0])

        return tfidf
    return {"jaccard": oracle_jaccard, "char3gram": oracle_char_trigram, "bleu": oracle_bleu}[name]


# ---------------------------------------------------------------------------
# sentence alignment, one metric call per candidate pair and direction
# (the per-cell loop as first written)

def oracle_align_directional(pairs, src: DocVersion, tgt: DocVersion, metric, threshold: float) -> set:
    """(source id, target id, label string) for every source sentence whose
    best candidate, the first maximum over the alignable sentences of
    its paragraph's partners in ascending id order, reaches threshold."""
    partners: dict[int, set[int]] = {}
    for pi, pj in pairs:
        partners.setdefault(pi, set()).add(pj)
    out = set()
    for pi in sorted(partners):
        para = src.paragraphs[pi]
        if para.skipped:
            continue
        candidates = [
            t
            for pj in sorted(partners[pi])
            if not tgt.paragraphs[pj].skipped
            for t in tgt.paragraphs[pj].sentences
            if not t.skipped
        ]
        if not candidates:
            continue
        for s in para.sentences:
            if s.skipped:
                continue
            best, best_score = None, -1.0
            for t in candidates:
                score = metric(s, t)
                if score > best_score:
                    best, best_score = t, score
            if best_score < threshold:
                continue
            aligned = best_score == 1.0 or lower_tokens(s) == lower_tokens(best)
            out.add((s.id, best.id, "aligned" if aligned else "partially-aligned"))
    return out


def oracle_align_pair(src: DocVersion, tgt: DocVersion, name: str, thresholds, threshold: float) -> set:
    """Paragraph pairs by oracle_align_paragraphs, then both directions of
    oracle_align_directional, intersected; a pair stays aligned only when
    both directions say so."""
    pairs = oracle_align_paragraphs(src, tgt, thresholds)
    if not pairs:
        return set()
    metric = oracle_metric(name, src, tgt)
    fwd = oracle_align_directional(pairs, src, tgt, metric, threshold)
    bwd = oracle_align_directional({(j, i) for i, j in pairs}, tgt, src, metric, threshold)
    back = {(t, s): label for s, t, label in bwd}
    out = set()
    for s, t, label in fwd:
        other = back.get((s, t))
        if other is not None:
            out.add((s, t, "aligned" if label == other == "aligned" else "partially-aligned"))
    return out


# ---------------------------------------------------------------------------
# link components by breadth-first search

def oracle_components(links) -> list[tuple[Span, Span]]:
    links = sorted(links)
    remaining = set(links)
    comps: list[tuple[Span, Span]] = []
    while remaining:
        seed = min(remaining)
        frontier = [seed]
        remaining.discard(seed)
        members = [seed]
        while frontier:
            i, j = frontier.pop()
            grab = [x for x in remaining if x[0] == i or x[1] == j]
            for x in grab:
                remaining.discard(x)
                frontier.append(x)
                members.append(x)
        si = [i for i, _ in members]
        tj = [j for _, j in members]
        comps.append(((min(si), max(si) + 1), (min(tj), max(tj) + 1)))
    return sorted(comps)


# ---------------------------------------------------------------------------
# edit extraction over plain surface tuples

def _seg(surfs, span: Span):
    return tuple(surfs[span[0]:span[1]])


def _changed(surf_s, surf_t, pair) -> bool:
    return _seg(surf_s, pair[0]) != _seg(surf_t, pair[1])


def oracle_closure(pairs, surf_s, surf_t) -> list[tuple[Span, Span]]:
    """Repeatedly merge the leftmost eligible pair of span pairs.

    Merging is mandatory on any overlap and allowed for both-side
    adjacency in the same order when both members differ from their
    counterpart surface.
    """
    work = [tuple(p) for p in pairs]

    def eligible(p, q) -> bool:
        (ps, pt), (qs, qt) = p, q
        if ps[0] < qs[1] and qs[0] < ps[1]:
            return True
        if pt[0] < qt[1] and qt[0] < pt[1]:
            return True
        forward = ps[1] == qs[0] and pt[1] == qt[0]
        backward = qs[1] == ps[0] and qt[1] == pt[0]
        if forward or backward:
            return _changed(surf_s, surf_t, p) and _changed(surf_s, surf_t, q)
        return False

    while True:
        hit = next(
            (
                (x, y)
                for x in range(len(work))
                for y in range(x + 1, len(work))
                if eligible(work[x], work[y])
            ),
            None,
        )
        if hit is None:
            return sorted(work)
        x, y = hit
        (ps, pt), (qs, qt) = work[x], work[y]
        work[x] = (
            (min(ps[0], qs[0]), max(ps[1], qs[1])),
            (min(pt[0], qt[0]), max(pt[1], qt[1])),
        )
        del work[y]


def oracle_strip(surf_s, surf_t, pair) -> Key | None:
    (a, b), (c, d) = pair
    left = _seg(surf_s, (a, b))
    right = _seg(surf_t, (c, d))
    pre = 0
    while pre < len(left) and pre < len(right) and left[pre] == right[pre]:
        pre += 1
    suf = 0
    while (
        suf < len(left) - pre
        and suf < len(right) - pre
        and left[-1 - suf] == right[-1 - suf]
    ):
        suf += 1
    a, b = a + pre, b - suf
    c, d = c + pre, d - suf
    if a == b and c == d:
        return None
    if a == b:
        return (None, (c, d), "insert")
    if c == d:
        return ((a, b), None, "delete")
    return ((a, b), (c, d), "substitute")


def oracle_emit(pairs, surf_s, surf_t) -> set[Key]:
    out: set[Key] = set()
    src_covered = set()
    tgt_covered = set()
    for pair in pairs:
        src_covered.update(range(*pair[0]))
        tgt_covered.update(range(*pair[1]))
        if not _changed(surf_s, surf_t, pair):
            continue
        stripped = oracle_strip(surf_s, surf_t, pair)
        if stripped is not None:
            out.add(stripped)
    for n, covered, side in ((len(surf_s), src_covered, "src"), (len(surf_t), tgt_covered, "tgt")):
        pos = 0
        while pos < n:
            if pos in covered:
                pos += 1
                continue
            end = pos
            while end < n and end not in covered:
                end += 1
            if side == "src":
                out.add(((pos, end), None, "delete"))
            else:
                out.add((None, (pos, end), "insert"))
            pos = end
    return out


def oracle_simple(surf_s, surf_t, links) -> set[Key]:
    pairs = oracle_closure(oracle_components(links), surf_s, surf_t)
    return oracle_emit(pairs, surf_s, surf_t)


# ---------------------------------------------------------------------------
# trees as nested nodes, one object per node

@dataclass(frozen=True)
class OracleTree:
    label: str
    children: tuple["OracleTree", ...]
    span: tuple[int, int]


def format_tree(node: OracleTree, spaces=(" ",)) -> str:
    """Bracketed text of a tree; a node of k parts joins them with
    spaces[k % len(spaces)]."""
    if not node.children:
        return node.label
    parts = [node.label, *[format_tree(c, spaces) for c in node.children]]
    return "(" + spaces[len(parts) % len(spaces)].join(parts) + ")"


# ---------------------------------------------------------------------------
# tree-guided extraction by exhaustive ancestor-pair search

def _chains(tree: OracleTree) -> list[list[OracleTree]]:
    chains: list[list[OracleTree]] = []

    def walk(node: OracleTree, above: list[OracleTree]) -> None:
        here = [node] + above
        if not node.children:
            chains.append(here)
        for c in node.children:
            walk(c, here)

    walk(tree, [])
    return chains


def _no_conflict(ss: Span, tt: Span, links) -> bool:
    for i, j in links:
        if (ss[0] <= i < ss[1]) != (tt[0] <= j < tt[1]):
            return False
    return True


def oracle_resolve(link, links, chain_s, chain_t, max_level: int):
    """All conflict-free ancestor pairs within the level budget; returns
    the unique pointwise-minimal one, or None.  Asserts uniqueness."""
    i, j = link
    ps = range(min(max_level, len(chain_s) - 1) + 1)
    qs = range(min(max_level, len(chain_t) - 1) + 1)
    cands = {
        (chain_s[p].span, chain_t[q].span)
        for p, q in product(ps, qs)
        if _no_conflict(chain_s[p].span, chain_t[q].span, links)
    }
    if not cands:
        return None
    minimal = [
        c
        for c in cands
        if not any(
            o != c
            and o[0][0] >= c[0][0] and o[0][1] <= c[0][1]
            and o[1][0] >= c[1][0] and o[1][1] <= c[1][1]
            for o in cands
        )
    ]
    assert len(minimal) == 1, (link, sorted(cands))
    got = minimal[0]
    for other in cands:
        assert other[0][0] <= got[0][0] and got[0][1] <= other[0][1], (link, got, other)
        assert other[1][0] <= got[1][0] and got[1][1] <= other[1][1], (link, got, other)
    return got


def oracle_maximal(pairs) -> list[tuple[Span, Span]]:
    """The distinct span pairs no other pair holds on both sides, sorted."""
    unique = sorted(set(pairs))
    return [
        c
        for c in unique
        if not any(
            o != c
            and o[0][0] <= c[0][0] and c[0][1] <= o[0][1]
            and o[1][0] <= c[1][0] and c[1][1] <= o[1][1]
            for o in unique
        )
    ]


def oracle_parse(surf_s, surf_t, links, tree_s: OracleTree, tree_t: OracleTree, max_level: int) -> set[Key]:
    links = sorted(links)
    chains_s = _chains(tree_s)
    chains_t = _chains(tree_t)
    resolved = []
    unresolved = []
    for link in links:
        got = oracle_resolve(link, links, chains_s[link[0]], chains_t[link[1]], max_level)
        if got is None:
            unresolved.append(link)
        else:
            resolved.append(got)
    maximal = oracle_maximal(resolved)
    leftover = [
        (i, j)
        for i, j in unresolved
        if not any(c[0][0] <= i < c[0][1] and c[1][0] <= j < c[1][1] for c in maximal)
    ]
    pairs = oracle_closure(maximal + oracle_components(leftover), surf_s, surf_t)
    return oracle_emit(pairs, surf_s, surf_t)


# ---------------------------------------------------------------------------
# reorders, straight from the definition: diagonal runs per diagonal,
# token-set overlap with edits, and every link pair tested for crossing

def oracle_reorder(surf_s, surf_t, links, edit_keys) -> set[Key]:
    """Maximal diagonal runs of surface-identical links that share no
    token with an edit's span, and that cross another such run; a
    crossing is any link pair (i, j), (i', j') with i < i' and j > j'."""
    by_diagonal: dict[int, list[int]] = {}
    for i, j in links:
        if surf_s[i] == surf_t[j]:
            by_diagonal.setdefault(j - i, []).append(i)
    runs: list[list[tuple[int, int]]] = []
    for diagonal, starts in by_diagonal.items():
        starts.sort()
        for n, i in enumerate(starts):
            if n == 0 or starts[n - 1] != i - 1:
                runs.append([])  # a gap on the diagonal starts a new run
            runs[-1].append((i, i + diagonal))
    src_edited = set()
    tgt_edited = set()
    for src_span, tgt_span, _ in edit_keys:
        if src_span is not None:
            src_edited.update(range(*src_span))
        if tgt_span is not None:
            tgt_edited.update(range(*tgt_span))
    runs = [
        run
        for run in runs
        if not any(i in src_edited or j in tgt_edited for i, j in run)
    ]
    out: set[Key] = set()
    for run in runs:
        for other in runs:
            if other is run:
                continue
            if any(i < i2 and j > j2 or i2 < i and j2 > j for i, j in run for i2, j2 in other):
                (i0, j0), (i1, j1) = run[0], run[-1]
                out.add(((i0, i1 + 1), (j0, j1 + 1), "reorder"))
    return out


# ---------------------------------------------------------------------------
# tree reader, as first written: a character-loop lexer and one Python
# call per node

def oracle_lex(text: str) -> list[tuple[str, int]]:
    toks: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            toks.append((ch, i))
            i += 1
        else:
            start = i
            while i < len(text) and not text[i].isspace() and text[i] not in "()":
                i += 1
            toks.append((text[start:i], start))
    return toks


def oracle_parse_tree(text: str) -> OracleTree:
    """Parse one bracketed tree by recursive descent over oracle_lex."""
    toks = oracle_lex(text)
    if not toks:
        raise TreeParseError("empty input", 0)
    tree, nxt, _ = _oracle_parse_node(toks, 0, 0, len(text), 0)
    if nxt != len(toks):
        raise TreeParseError("trailing content after tree", toks[nxt][1])
    return tree


def _oracle_parse_node(toks, i: int, leaf_start: int, end_pos: int, depth: int):
    tok, pos = toks[i]
    if tok == ")":
        raise TreeParseError("unexpected ')'", pos)
    if tok != "(":
        # bare leaf
        return OracleTree(tok, (), (leaf_start, leaf_start + 1)), i + 1, leaf_start + 1
    if depth >= MAX_DEPTH:
        raise TreeParseError(f"nesting deeper than {MAX_DEPTH} levels", pos)
    i += 1
    if i >= len(toks):
        raise TreeParseError("unbalanced brackets: expected a node label", end_pos)
    label, label_pos = toks[i]
    if label in ("(", ")"):
        raise TreeParseError("missing node label", label_pos)
    i += 1
    children: list[OracleTree] = []
    leaf_next = leaf_start
    while True:
        if i >= len(toks):
            raise TreeParseError("unbalanced brackets: expected ')'", end_pos)
        if toks[i][0] == ")":
            i += 1
            break
        child, i, leaf_next = _oracle_parse_node(toks, i, leaf_next, end_pos, depth + 1)
        children.append(child)
    if not children:
        raise TreeParseError(f"node {label!r} has no children", label_pos)
    return OracleTree(label, tuple(children), (leaf_start, leaf_next)), i, leaf_next


# ---------------------------------------------------------------------------
# tokenizer and skip filters, as first written: one Python-level test per
# character and per token, against this module's own marker list

_MARKERS = ["[REF]", "[CIT]", "[MATH]", "[EQN]"]
_MARKER_RE = re.compile(r"(\[REF\]|\[CIT\]|\[MATH\]|\[EQN\])")
_PUNCT = frozenset(string.punctuation)


def oracle_tokenize(text: str) -> tuple[str, ...]:
    tokens: list[str] = []
    for chunk in text.split():
        for piece in _MARKER_RE.split(chunk):
            if not piece:
                continue
            if piece in _MARKERS:
                tokens.append(piece)
            else:
                tokens.extend(_oracle_split_plain(piece))
    return tuple(tokens)


def _oracle_split_plain(piece: str) -> Iterator[str]:
    head: list[str] = []
    tail: list[str] = []
    while piece and piece[0] in _PUNCT:
        head.append(piece[0])
        piece = piece[1:]
    while piece and piece[-1] in _PUNCT:
        tail.append(piece[-1])
        piece = piece[:-1]
    for ch in head:
        yield ch
    if piece:
        yield piece
    for ch in reversed(tail):
        yield ch


def oracle_special_count(tokens) -> int:
    return sum(1 for t in tokens if t in _MARKERS)


def oracle_english_fraction(raw: str) -> float:
    visible = [c for c in raw if not c.isspace()]
    if not visible:
        return 0.0
    letters = sum(1 for c in visible if c.isascii() and c.isalpha())
    return letters / len(visible)


def oracle_sentence_skip(s: Sentence) -> bool:
    if len(s.raw) > corpus.SKIP_MAX_SENTENCE_CHARS:
        return True
    if len(s.tokens) <= corpus.SKIP_MAX_SENTENCE_TOKENS:
        return True
    special = oracle_special_count(s.tokens)
    if special / len(s.tokens) > corpus.SKIP_SENTENCE_SPECIAL_FRACTION:
        return True
    if oracle_english_fraction(s.raw) < corpus.SKIP_MIN_ENGLISH_FRACTION:
        return True
    stripped = s.raw.rstrip()
    if stripped.endswith(",") or stripped.endswith(":"):
        return True
    return False


def oracle_paragraph_skip(sentences) -> bool:
    toks = [t for s in sentences for t in s.tokens]
    if len(toks) < corpus.SKIP_MIN_PARAGRAPH_TOKENS:
        return True
    special = oracle_special_count(toks)
    if toks and special / len(toks) > corpus.SKIP_PARAGRAPH_SPECIAL_FRACTION:
        return True
    return False


# ---------------------------------------------------------------------------
# stats of version pairs: where changes sit, and the mix of actions per
# update-ratio bin

def _oracle_alignable_ids(doc: DocVersion) -> list[SentenceId]:
    out = []
    for para in doc.paragraphs:
        if oracle_paragraph_skip(para.sentences):
            continue
        for s in para.sentences:
            if not oracle_sentence_skip(s):
                out.append(s.id)
    return out


def oracle_relative_positions(ops, src: DocVersion, tgt: DocVersion) -> dict[str, list[float]]:
    """Per reported kind, each of its sentences' ordinal among the side's
    alignable sentences over their count, sorted.  Deletions and
    rephrasings are located in the source, insertions in the target."""
    src_ids = _oracle_alignable_ids(src)
    tgt_ids = _oracle_alignable_ids(tgt)
    out: dict[str, list[float]] = {"deletion": [], "insertion": [], "rephrasing": []}
    for op in ops:
        kind = op.kind.value
        if kind == "insertion":
            side, ids = tgt_ids, op.tgt_ids
        elif kind in ("deletion", "rephrasing"):
            side, ids = src_ids, op.src_ids
        else:
            continue
        for sid in ids:
            if sid in side:
                out[kind].append(side.index(sid) / len(side))
    for kind in out:
        out[kind].sort()
    return out


def oracle_composition(entries, bins: int) -> list[tuple]:
    """composition.csv's rows.  Bin i holds the pairs whose update ratio
    times bins rounds down to i; the last bin also holds ratio 1.0.  A
    bin with any non-copy operation gives (start, end, insertion share,
    deletion share, rephrasing share, non-copy count), each share over
    the non-copy count."""
    rows = []
    for i in range(bins):
        totals: dict[str, int] = {}
        for ratio, counts in entries:
            if min(int(ratio * bins), bins - 1) != i:
                continue
            for kind, n in counts.items():
                totals[kind.value] = totals.get(kind.value, 0) + n
        changes = 0
        for kind, n in totals.items():
            if kind != "copying":
                changes += n
        if changes == 0:
            continue
        shares = [totals.get(kind, 0) / changes for kind in ("insertion", "deletion", "rephrasing")]
        rows.append((i / bins, (i + 1) / bins, *shares, changes))
    return rows


# ---------------------------------------------------------------------------
# classification scoring, as first written: four passes over the pairs per
# class (the PRF arithmetic and the report type are the package's own)

def oracle_classification(preds, golds) -> ClassificationReport:
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} predictions, {len(golds)} golds")
    if not golds:
        raise ValueError("nothing to evaluate")
    classes = sorted(set(preds) | set(golds))
    per_class = {}
    support = {}
    for c in classes:
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
        fn = sum(1 for p, g in zip(preds, golds) if p != c and g == c)
        per_class[c] = PRF.from_counts(tp, fp, fn)
        support[c] = sum(1 for g in golds if g == c)
    accuracy = sum(1 for p, g in zip(preds, golds) if p == g) / len(golds)
    weighted = sum(support[c] * per_class[c].f1 for c in classes) / len(golds)
    return ClassificationReport(per_class, support, accuracy, weighted)


# ---------------------------------------------------------------------------
# random generators

VOCAB = [f"{a}{b}" for a in "bcdfghjklmnpqrstvw" for b in "aeiou"]


def random_sentence_raw(rng: random.Random, n_min: int = 4, n_max: int = 8, vocab=None) -> str:
    words = vocab or VOCAB
    return " ".join(rng.choice(words) for _ in range(rng.randint(n_min, n_max)))


def make_sentence(raw: str, version: int = 1, para: int = 0, idx: int = 0) -> Sentence:
    return Sentence.build(raw, SentenceId(version, para, idx))


def random_doc_pair(rng: random.Random) -> tuple[DocVersion, DocVersion]:
    """A source document and a perturbed revision of it.

    Perturbations cover drops, rewrites, fresh paragraphs, shuffles and
    deliberately skip-triggering material on either side.
    """
    vocab = rng.sample(VOCAB, 30)

    def sentence() -> str:
        return random_sentence_raw(rng, 4, 8, vocab)

    def noisy(raws: list[str]) -> list[str]:
        out = []
        for raw in raws:
            roll = rng.random()
            if roll < 0.5:
                out.append(raw)
            elif roll < 0.8:
                words = raw.split()
                for _ in range(rng.randint(1, 3)):
                    words[rng.randrange(len(words))] = rng.choice(vocab)
                out.append(" ".join(words))
            else:
                out.append(sentence())
        if rng.random() < 0.2:
            out.append(sentence())
        return out

    def maybe_junk(paras: list[list[str]]) -> None:
        roll = rng.random()
        if roll < 0.15:
            paras.insert(rng.randint(0, len(paras)), ["tiny one"])  # under 10 tokens
        elif roll < 0.25:
            # alignable paragraph holding one skipped sentence
            target = paras[rng.randrange(len(paras))]
            target.append("x 1")

    src_paras = [
        [sentence() for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(1, 20))
    ]
    tgt_paras = [noisy(list(p)) for p in src_paras]
    if len(tgt_paras) > 2 and rng.random() < 0.4:
        del tgt_paras[rng.randrange(len(tgt_paras))]
    if rng.random() < 0.4:
        tgt_paras.insert(
            rng.randint(0, len(tgt_paras)), [sentence() for _ in range(rng.randint(1, 4))]
        )
    if rng.random() < 0.2:
        rng.shuffle(tgt_paras)
    maybe_junk(src_paras)
    maybe_junk(tgt_paras)
    return (
        DocVersion.build(1, 1000, src_paras),
        DocVersion.build(2, 2000, tgt_paras),
    )


def random_tree(rng: random.Random, surfaces, start: int = 0, depth: int = 0) -> OracleTree:
    """Random bracketing over the given leaf surfaces."""
    n = len(surfaces)
    if n == 1:
        return OracleTree(surfaces[0], (), (start, start + 1))
    if depth > 0 and (n <= 2 and rng.random() < 0.3):
        # flat node over bare leaves
        kids = tuple(
            OracleTree(s, (), (start + k, start + k + 1)) for k, s in enumerate(surfaces)
        )
        return OracleTree(f"N{depth}", kids, (start, start + n))
    cut_count = rng.randint(1, min(3, n - 1))
    cuts = sorted(rng.sample(range(1, n), cut_count))
    bounds = [0, *cuts, n]
    kids = []
    for lo, hi in zip(bounds, bounds[1:]):
        piece = surfaces[lo:hi]
        if len(piece) == 1 and rng.random() < 0.6:
            kids.append(OracleTree(piece[0], (), (start + lo, start + lo + 1)))
        else:
            kids.append(random_tree(rng, piece, start + lo, depth + 1))
    return OracleTree(f"N{depth}", tuple(kids), (start, start + n))


def random_links(rng: random.Random, src_len: int, tgt_len: int) -> frozenset[tuple[int, int]]:
    links = {
        (i, j)
        for i in range(src_len)
        for j in range(tgt_len)
        if rng.random() < 0.12
    }
    if not links and src_len and tgt_len:
        links.add((rng.randrange(src_len), rng.randrange(tgt_len)))
    return frozenset(links)


# ---------------------------------------------------------------------------
# gold revision generator for the extraction round trip

def generate_gold_revision(rng: random.Random):
    """Random sentence pair with known edits and the alignment they imply.

    Guarantees extraction can recover the gold exactly: every edit is
    separated from its neighbours by at least one copied token on both
    sides, and all non-copied tokens are globally unique.
    """
    src_words: list[str] = []
    tgt_words: list[str] = []
    gold: list[tuple] = []
    links: set[tuple[int, int]] = set()
    serial = 0

    def fresh(tag: str) -> str:
        nonlocal serial
        serial += 1
        return f"{tag}{serial}"

    def copy_run() -> None:
        for _ in range(rng.randint(1, 3)):
            w = fresh("c")
            links.add((len(src_words), len(tgt_words)))
            src_words.append(w)
            tgt_words.append(w)

    copy_run()
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("substitute", "delete", "insert"))
        a, c = len(src_words), len(tgt_words)
        if kind == "substitute":
            src_words.extend(fresh("s") for _ in range(rng.randint(1, 3)))
            tgt_words.extend(fresh("t") for _ in range(rng.randint(1, 3)))
            links.update(product(range(a, len(src_words)), range(c, len(tgt_words))))
            gold.append(((a, len(src_words)), (c, len(tgt_words)), "substitute"))
        elif kind == "delete":
            src_words.extend(fresh("d") for _ in range(rng.randint(1, 3)))
            gold.append(((a, len(src_words)), None, "delete"))
        else:
            tgt_words.extend(fresh("n") for _ in range(rng.randint(1, 3)))
            gold.append((None, (c, len(tgt_words)), "insert"))
        copy_run()
    src = make_sentence(" ".join(src_words), version=1)
    tgt = make_sentence(" ".join(tgt_words), version=2)
    assert src.tokens == tuple(src_words)
    assert tgt.tokens == tuple(tgt_words)
    return src, tgt, set(gold), frozenset(links)
