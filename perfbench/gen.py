"""Seeded input generator for the pipeline benchmark.

Everything the program under test sees comes from the files written
here; this module imports nothing from revkit.  The same seed and size
always give byte-identical files.

Three workload shapes are generated:

* ``c40``: several article groups of 2-4 versions, with the per-document
  shape of the reference corpus (many medium documents).
* ``long_docs``: one group of two long versions, so the quadratic
  sentence-by-sentence work dominates.
* ``edits``: one version pair with hundreds of changed aligned sentence
  pairs, plus everything the span-edit commands read (alignment, Pharaoh
  word alignments, bracketed trees, gold edits, intention predictions
  and a perturbed predicted alignment).

Sentences use a letter-only vocabulary.  A small fixed share of
sentences trips each skip-filter reason (three tokens or fewer, mostly
markers, mostly digits, trailing ':') and a few paragraphs are short
headings, so the filters do real work.
"""
from __future__ import annotations

import json
import os
import random
import string
from dataclasses import dataclass, field

MARKERS = ("[CIT]", "[MATH]", "[REF]")
FUNCTION_WORDS = (
    "the", "of", "and", "to", "in", "a", "is", "we", "that", "for", "this",
    "with", "on", "as", "are", "by", "be", "from", "an", "which", "our", "it",
)
SUBJECTS = ("cs.CL", "math.AG", "hep-th", "q-bio.NC", "stat.ML", "cond-mat.str-el")
FINE_LABELS = (
    "Language-Accurate", "Language-Style", "Language-Simplify", "Language-Other",
    "Grammar-Typo", "Update-Content", "Adjust-Format",
)

# share of generated sentences that trip each skip-filter reason
SKIP_TRIP_SHARE = 0.01
HEADING_EVERY = 25        # every 25th paragraph is a short, skipped heading
REWRITE_SHARE = 0.20
INDEL_SHARE = 0.025       # each of: sentence deleted, sentence inserted


@dataclass(frozen=True)
class Shape:
    groups: int
    versions: tuple[int, int]
    paragraphs: tuple[int, int]
    sentences: tuple[int, int]
    tokens: tuple[int, int]


# Group counts are scaled so one pass of a workload takes a few seconds
# on two cores; per-document shapes follow the reference corpus.  Version
# and paragraph counts are spread evenly over their ranges and only their
# order follows the seed, so every seed asks for the same amount of work.
SHAPES = {
    "c40": {
        "full": Shape(6, (2, 4), (20, 60), (2, 8), (8, 35)),
        "tiny": Shape(3, (2, 3), (3, 5), (2, 4), (8, 20)),
    },
    "long_docs": {
        "full": Shape(1, (2, 2), (200, 200), (4, 10), (8, 35)),
        "tiny": Shape(1, (2, 2), (6, 8), (3, 5), (8, 20)),
    },
}
# edits workload: (changed pairs, identical pairs, token range)
EDIT_SHAPES = {"full": (300, 100, (20, 60)), "tiny": (12, 4, (20, 30))}


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n values spread evenly over [lo, hi]."""
    return [round(lo + (hi - lo) * (k + 0.5) / n) for k in range(n)]


class Vocab:
    """Letter-only words drawn with a Zipf-like skew, function words first."""

    def __init__(self, rng: random.Random, size: int = 8000) -> None:
        words = list(FUNCTION_WORDS)
        seen = set(words)
        while len(words) < size:
            w = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 11)))
            if w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words
        total = 0.0
        self.cum = []
        for rank in range(len(words)):
            total += 1.0 / (rank + 8)
            self.cum.append(total)

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def _sentence_tokens(rng: random.Random, vocab: Vocab, lo: int, hi: int) -> list[str]:
    n = rng.randint(lo, hi)
    body = vocab.draw(rng, n - 1)
    toks: list[str] = []
    for w in body:
        r = rng.random()
        if r < 0.03:
            toks.append(rng.choice(MARKERS))
        elif r < 0.10 and toks and toks[-1] != ",":
            toks.append(",")
        else:
            toks.append(w)
    if toks[0] in MARKERS or toks[0] == ",":
        toks[0] = body[0]
    toks[0] = toks[0].capitalize()
    toks.append(".")
    return toks


def _skip_trip(rng: random.Random, vocab: Vocab, reason: str) -> str:
    if reason == "short":
        return " ".join(vocab.draw(rng, 2)).capitalize() + " ."
    if reason == "markers":
        return "[MATH] [MATH] = [MATH] [CIT] [REF] ."
    if reason == "digits":
        nums = " ".join(f"{rng.randint(10, 999)}.{rng.randint(10, 99)}" for _ in range(5))
        return f"Values {nums} were measured ."
    toks = _sentence_tokens(rng, vocab, 8, 20)
    return " ".join(toks[:-1] + [":"])


SKIP_REASONS = ("short", "markers", "digits", "colon")


def _new_sentence(rng: random.Random, vocab: Vocab, shape: Shape) -> tuple[str, bool]:
    """Returns (raw, is_normal); abnormal sentences trip a skip filter."""
    r = rng.random()
    for n, reason in enumerate(SKIP_REASONS):
        if r < SKIP_TRIP_SHARE * (n + 1):
            return _skip_trip(rng, vocab, reason), False
    return " ".join(_sentence_tokens(rng, vocab, *shape.tokens)), True


def _rewrite(rng: random.Random, vocab: Vocab, raw: str) -> str:
    """Local word-level rewrite that keeps most of the sentence."""
    toks = raw.split()
    body, end = toks[:-1], toks[-1]
    for _ in range(rng.randint(1, 3)):
        op = rng.random()
        pos = rng.randrange(len(body))
        if op < 0.5:
            body[pos] = vocab.draw(rng, 1)[0]
        elif op < 0.8:
            body[pos:pos] = vocab.draw(rng, rng.randint(1, 3))
        elif len(body) > 6:
            del body[pos:pos + rng.randint(1, 2)]
    if body[0][0].islower():
        body[0] = body[0].capitalize()
    return " ".join(body + [end])


@dataclass
class Paragraph:
    sentences: list[tuple[str, bool]]  # (raw, is_normal)
    heading: bool = False


def _first_version(rng: random.Random, vocab: Vocab, shape: Shape, n_paras: int) -> list[Paragraph]:
    counts = _spread(*shape.sentences, n_paras)
    rng.shuffle(counts)
    paras = []
    for k, n_sents in enumerate(counts):
        if k % HEADING_EVERY == HEADING_EVERY - 1:
            paras.append(Paragraph([(" ".join(vocab.draw(rng, 2)).capitalize() + " .", False)], True))
            continue
        paras.append(Paragraph([_new_sentence(rng, vocab, shape) for _ in range(n_sents)]))
    return paras


def _next_version(
    rng: random.Random, vocab: Vocab, shape: Shape, prev: list[Paragraph]
) -> tuple[list[Paragraph], int, int]:
    """Evolve a version; returns it with the number of normal sentences
    copied verbatim and the number rewritten.  The numbers of deleted,
    rewritten and inserted sentences are fixed shares; the seed picks
    which sentences."""
    slots = [(p, k) for p, para in enumerate(prev) if not para.heading
             for k in range(len(para.sentences))]
    normal = [(p, k) for p, k in slots if prev[p].sentences[k][1]]
    n_del = round(INDEL_SHARE * len(normal))
    picked = rng.sample(normal, n_del + round(REWRITE_SHARE * len(normal)))
    deleted, rewritten = set(picked[:n_del]), set(picked[n_del:])
    inserted_after = set(rng.sample(slots, round(INDEL_SHARE * len(slots))))
    out = []
    copies = 0
    for p, para in enumerate(prev):
        if para.heading:
            out.append(para)
            continue
        sents: list[tuple[str, bool]] = []
        for k, (raw, is_normal) in enumerate(para.sentences):
            if (p, k) in rewritten:
                sents.append((_rewrite(rng, vocab, raw), True))
            elif (p, k) not in deleted:
                sents.append((raw, is_normal))
                copies += is_normal
            if (p, k) in inserted_after:
                sents.append(_new_sentence(rng, vocab, shape))
        if not sents:
            sents.append(para.sentences[0])
            copies += para.sentences[0][1]
        out.append(Paragraph(sents))
    return out, copies, len(rewritten)


def _version_json(index: int, timestamp: int, paras: list[Paragraph]) -> dict:
    return {
        "version": index,
        "timestamp": timestamp,
        "paragraphs": [{"sentences": [raw for raw, _ in p.sentences]} for p in paras],
    }


@dataclass
class Generated:
    """Paths of the generated inputs plus what the generator knows."""

    workload: str
    corpus: str
    facts: dict = field(default_factory=dict)
    # (arxiv_id, src_version, tgt_version) -> normal sentences copied verbatim
    shared: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def generate_corpus(workload: str, seed: int, size: str, out_dir: str) -> Generated:
    rng = random.Random(f"{workload}:{seed}:{size}")
    vocab = Vocab(rng)
    shape = SHAPES[workload][size]
    groups = []
    gen = Generated(workload, os.path.join(out_dir, "corpus.json"))
    sentences = pairs = changed = copies = pair_sources = 0
    n_versions = [shape.versions[0] + g % (shape.versions[1] - shape.versions[0] + 1)
                  for g in range(shape.groups)]
    sizes = list(zip(n_versions, _spread(*shape.paragraphs, shape.groups)))
    rng.shuffle(sizes)
    for g, (n_version, n_paras) in enumerate(sizes):
        arxiv_id = f"2210.{seed % 1000:03d}{g:02d}"
        version = _first_version(rng, vocab, shape, n_paras)
        ts = 1_600_000_000 + rng.randint(0, 10_000_000)
        versions = [_version_json(1, ts, version)]
        for v in range(2, n_version + 1):
            pair_sources += sum(len(p.sentences) for p in version)
            version, n_copy, n_rew = _next_version(rng, vocab, shape, version)
            ts += rng.randint(86_400, 90 * 86_400)
            versions.append(_version_json(v, ts, version))
            gen.shared[(arxiv_id, v - 1, v)] = n_copy
            pairs += 1
            changed += n_rew
            copies += n_copy
        sentences += sum(len(p["sentences"]) for v in versions for p in v["paragraphs"])
        groups.append({"arxiv_id": arxiv_id, "subject": rng.choice(SUBJECTS), "versions": versions})
    _write(gen.corpus, json.dumps(groups, ensure_ascii=False, indent=1) + "\n")
    gen.facts = {
        "groups": shape.groups,
        "version_pairs": pairs,
        "sentences": sentences,
        "changed_pairs": changed,
        "copy_share": round(copies / pair_sources, 4),
        "corpus_bytes": os.path.getsize(gen.corpus),
    }
    return gen


# ---------------------------------------------------------------------------
# edits workload


def _random_tree(rng: random.Random, leaves: list[str]) -> str:
    """Random binary bracketing with the tokens as leaves."""
    nodes = list(leaves)
    while len(nodes) > 1:
        k = rng.randrange(len(nodes) - 1)
        nodes[k:k + 2] = [f"(X {nodes[k]} {nodes[k + 1]})"]
    return nodes[0] if nodes[0].startswith("(") else f"(X {nodes[0]})"


def _edit_pair(rng: random.Random, vocab: Vocab, src: list[str]):
    """Apply 2-6 non-overlapping edits to src.  Returns the target tokens,
    the word links and the gold edits in target coordinates."""
    n = len(src) - 1  # the final "." stays put
    count = rng.randint(2, 6)
    slots = sorted(rng.sample(range(1, n - 2), count))
    # keep edits apart so their spans stay disjoint
    cuts = [s for k, s in enumerate(slots) if k == 0 or s - slots[k - 1] >= 3]
    ops = [(pos, rng.choice(("substitute", "insert", "delete", "move"))) for pos in cuts]
    tgt: list[str] = []
    src_of: list[int | None] = []  # source index per target token, None for new tokens

    def emit(token: str, source: int | None) -> None:
        tgt.append(token)
        src_of.append(source)

    edits = []
    moved: list[tuple[int, int]] = []
    i = 0
    for pos, kind in ops:
        while i < pos:
            emit(src[i], i)
            i += 1
        if kind == "substitute":
            width = rng.randint(1, min(2, n - i))
            new = [w for w in vocab.draw(rng, width + rng.randint(0, 1)) if w not in src[i:i + width]]
            t0 = len(tgt)
            for w in new or ["revised"]:
                emit(w, None)
            edits.append(("substitute", (i, i + width), (t0, len(tgt)), range(i, i + width)))
            i += width
        elif kind == "insert":
            t0 = len(tgt)
            for w in vocab.draw(rng, rng.randint(1, 4)):
                emit(w, None)
            edits.append(("insert", None, (t0, len(tgt)), ()))
        elif kind == "delete":
            width = rng.randint(1, min(3, n - i))
            edits.append(("delete", (i, i + width), None, ()))
            i += width
        elif i + 1 < n and src[i] != src[i + 1]:
            # swap two adjacent tokens: a crossing the reorder step sees
            emit(src[i + 1], i + 1)
            emit(src[i], i)
            moved.append((i, len(tgt) - 1))
            i += 2
    while i < len(src):
        emit(src[i], i)
        i += 1
    links = {(s, j) for j, s in enumerate(src_of) if s is not None}
    gold = []
    for kind, s_span, t_span, src_tokens in edits:
        if kind == "substitute":
            for s in src_tokens:
                for j in range(*t_span):
                    links.add((s, j))
        gold.append({"src": list(s_span) if s_span else None,
                     "tgt": list(t_span) if t_span else None, "kind": kind})
    for s, j in moved:
        gold.append({"src": [s, s + 1], "tgt": [j, j + 1], "kind": "reorder"})
    return tgt, sorted(links), gold


def _edit_sort_key(e: dict) -> tuple:
    # the order edit files are read back in
    return (e["src"] is None, tuple(e["src"] or (0, 0)), e["tgt"] is None,
            tuple(e["tgt"] or (0, 0)), e["kind"])


def generate_edits(seed: int, size: str, out_dir: str) -> Generated:
    rng = random.Random(f"edits:{seed}:{size}")
    vocab = Vocab(rng)
    n_changed, n_same, tok_range = EDIT_SHAPES[size]
    kinds = [True] * n_changed + [False] * n_same
    rng.shuffle(kinds)
    src_paras: list[list[str]] = []
    tgt_paras: list[list[str]] = []
    records = []  # (src id, tgt id, changed, links, gold, src toks, tgt toks)
    for n, is_changed in enumerate(kinds):
        if n % 6 == 0:
            src_paras.append([])
            tgt_paras.append([])
        p, s = len(src_paras) - 1, len(src_paras[-1])
        toks = _sentence_tokens(rng, vocab, *tok_range)
        toks = [t for t in toks if t not in MARKERS]
        if is_changed:
            tgt, links, gold = _edit_pair(rng, vocab, toks)
        else:
            tgt, links, gold = list(toks), [(k, k) for k in range(len(toks))], []
        src_paras[-1].append(" ".join(toks))
        tgt_paras[-1].append(" ".join(tgt))
        records.append(((p, s), (p, s), is_changed and tgt != toks, links, gold, toks, tgt))

    arxiv_id = f"2210.{seed % 1000:03d}99"
    ts = 1_600_000_000
    corpus = [{
        "arxiv_id": arxiv_id,
        "subject": "cs.CL",
        "versions": [
            {"version": 1, "timestamp": ts, "paragraphs": [{"sentences": p} for p in src_paras]},
            {"version": 2, "timestamp": ts + 86_400, "paragraphs": [{"sentences": p} for p in tgt_paras]},
        ],
    }]
    gen = Generated("edits", os.path.join(out_dir, "corpus.json"))
    _write(gen.corpus, json.dumps(corpus, ensure_ascii=False, indent=1) + "\n")

    def path(name: str) -> str:
        gen.files[name] = os.path.join(out_dir, name)
        return gen.files[name]

    pairs = [{"src": list(s), "tgt": list(t), "label": "partially-aligned" if ch else "aligned"}
             for s, t, ch, *_ in records]
    align = {"arxiv_id": arxiv_id, "src_version": 1, "tgt_version": 2, "pairs": pairs}
    _write(path("alignment.json"), json.dumps(align, indent=1) + "\n")
    # perturbed prediction: drop some gold pairs, add some wrong ones
    pred_pairs = [p for p in pairs if rng.random() > 0.1]
    for _ in range(len(pairs) // 20):
        a, b = rng.choice(records), rng.choice(records)
        pred_pairs.append({"src": list(a[0]), "tgt": list(b[1]), "label": "partially-aligned"})
    pred = {"arxiv_id": arxiv_id, "src_version": 1, "tgt_version": 2, "pairs": pred_pairs}
    _write(path("alignment_pred.json"), json.dumps(pred, indent=1) + "\n")

    # records are already in sorted (src, tgt) order, the order of the
    # per-pair input lines
    pharaoh, trees_src, trees_tgt, revisions, predictions = [], [], [], [], []
    n_links = 0
    for s, t, changed, links, gold, stoks, ttoks in records:
        pharaoh.append(" ".join(f"{i}-{j}" for i, j in links))
        n_links += len(links)
        trees_src.append(_random_tree(rng, stoks) if changed else "")
        trees_tgt.append(_random_tree(rng, ttoks) if changed else "")
        rid = f"v1p{s[0]}s{s[1]}-v2p{t[0]}s{t[1]}"
        gold = sorted(gold, key=_edit_sort_key)
        for k, e in enumerate(gold):
            e["intention"] = rng.choice(FINE_LABELS)
            label = e["intention"] if rng.random() < 0.7 else rng.choice(FINE_LABELS)
            predictions.append(json.dumps({"revision_id": rid, "edit_index": k, "label": label}))
        revisions.append({"revision_id": rid, "src": [1, *s], "tgt": [2, *t], "edits": gold})
    _write(path("pharaoh.txt"), "\n".join(pharaoh) + "\n")
    _write(path("trees_src.txt"), "\n".join(trees_src) + "\n")
    _write(path("trees_tgt.txt"), "\n".join(trees_tgt) + "\n")
    _write(path("gold_edits.json"), json.dumps({"revisions": revisions}, indent=1) + "\n")
    _write(path("intentions.jsonl"), "\n".join(predictions) + "\n")
    gen.shared[(arxiv_id, 1, 2)] = n_same
    gen.facts = {
        "groups": 1,
        "version_pairs": 1,
        "sentences": 2 * len(records),
        "changed_pairs": sum(1 for r in records if r[2]),
        "copy_share": round(sum(1 for r in records if not r[2]) / len(records), 4),
        "links": n_links,
        "gold_edits": sum(len(r["edits"]) for r in revisions),
        "corpus_bytes": os.path.getsize(gen.corpus),
    }
    return gen


def generate_degenerate(out_dir: str) -> dict[str, str]:
    """Two small corpora, one per input that aborts a whole run at the
    parent commit: a version with no paragraphs, and a source version
    whose sentences are all skipped.  Each sits beside a healthy group."""
    rng = random.Random("degenerate")
    vocab = Vocab(rng, size=500)

    def normal(n: int) -> list[dict]:
        return [{"sentences": [" ".join(_sentence_tokens(rng, vocab, 10, 20)) for _ in range(3)]}
                for _ in range(n)]

    def group(arxiv_id: str, v1: list[dict], v2: list[dict]) -> dict:
        return {"arxiv_id": arxiv_id, "subject": "cs.CL", "versions": [
            {"version": 1, "timestamp": 1, "paragraphs": v1},
            {"version": 2, "timestamp": 2, "paragraphs": v2}]}

    healthy = normal(4)
    all_skipped = [{"sentences": ["Proof omitted .", "[MATH] [MATH] = [MATH] [CIT] [REF] ."]}]
    cases = {
        "empty_version": group("2210.90002", normal(3), []),
        "all_skipped_source": group("2210.90003", all_skipped, normal(3)),
    }
    paths = {}
    for name, bad in cases.items():
        paths[name] = os.path.join(out_dir, f"degenerate_{name}.json")
        _write(paths[name], json.dumps([group("2210.90001", healthy, healthy), bad], indent=1) + "\n")
    return paths


def generate(workload: str, seed: int, size: str, out_dir: str) -> Generated:
    os.makedirs(out_dir, exist_ok=True)
    if workload == "edits":
        return generate_edits(seed, size, out_dir)
    return generate_corpus(workload, seed, size, out_dir)
