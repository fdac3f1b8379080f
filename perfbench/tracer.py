"""Span tracer that wraps revkit's layer functions from outside.

Each wrapper replaces a function where the calling module looks it up
(``revkit.cli.load_corpus``, ``revkit.para_align.jaccard_matrix``, ...),
so the program itself is unchanged.  A span records name, start, end,
parent and trace id; spans opened inside one version pair (one call of
the per-pair function) share that pair's trace id, all other spans of a
command share the command's.  Spans stay in memory and are returned by
``Tracer.dump`` when the command ends.

Work that has no span of its own but runs inside one is charged to that
span's ``hidden`` time, so it is not counted as the span's self time:
the calls of the sentence-similarity callable (too many to record one by
one; their count and time go into the span's counts) and the tracer's
own bookkeeping after a wrapped call returns.

This module must not import revkit at import time: run.py imports it
only to aggregate spans.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace", "hidden", "counts")

    def __init__(self, name, start, parent, trace):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.trace = trace
        self.hidden = 0.0
        self.counts = {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.traces = 0

    def open(self, name: str, new_trace: bool = False) -> int:
        parent = self.stack[-1] if self.stack else None
        if new_trace or parent is None:
            self.traces += 1
            trace = self.traces
        else:
            trace = self.spans[parent].trace
        self.spans.append(Span(name, time.perf_counter(), parent, trace))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def top(self) -> Span:
        return self.spans[self.stack[-1]]

    def dump(self) -> list:
        return [
            [s.name, s.start, s.end, s.parent, s.trace, s.hidden, s.counts] for s in self.spans
        ]

    def wrap(self, fn, name, post=None, pre=None, new_trace=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre() if pre is not None else None
            idx = self.open(name, new_trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if post is not None:
                t0 = time.perf_counter()
                result = post(self.spans[idx].counts, args, result, state)
                if self.stack:
                    self.top().hidden += time.perf_counter() - t0
            return result

        return traced

    def scored(self, metric):
        """Wrap a sentence-similarity callable: time and count each call
        and charge it to the enclosing span as hidden time."""

        def call(a, b):
            t0 = time.perf_counter()
            value = metric(a, b)
            dt = time.perf_counter() - t0
            span = self.top()
            span.hidden += dt
            c = span.counts
            c["similarity.score_s"] = c.get("similarity.score_s", 0.0) + dt
            c["similarity.calls"] = c.get("similarity.calls", 0) + 1
            return value

        return call


def _add(counts: dict, key: str, n) -> None:
    counts[key] = counts.get(key, 0) + n


def _post_load(counts, args, groups, rss_before):
    sentences = alignable = 0
    for g in groups:
        for v in g.versions:
            sentences += sum(len(p.sentences) for p in v.paragraphs)
            alignable += len(v.alignable_sentences())
    _add(counts, "corpus.sentences", sentences)
    _add(counts, "corpus.alignable", alignable)
    counts["~corpus.load_rss_mb"] = current_rss_mb() - rss_before
    return groups


def _post_cells(counts, args, matrix, _):
    _add(counts, "kernels.cells", matrix.shape[0] * matrix.shape[1])
    return matrix


def _post_blocks(counts, args, result, _):
    src, tgt = args[0], args[1]
    _add(counts, "para_align.blocks", len(src.alignable_paragraphs()) * len(tgt.alignable_paragraphs()))
    return result


def _post_merge(counts, args, merged, _):
    _add(counts, "sent_align.forward", len(args[0].pairs))
    _add(counts, "sent_align.pairs", len(merged.pairs))
    return merged


def _post_write_text(counts, args, result, _):
    _add(counts, "formats.bytes_written", len(args[1].encode("utf-8")))
    return result


def _post_write_edits(counts, args, result, _):
    _add(counts, "formats.bytes_written", os.path.getsize(args[0]))
    _add(counts, "edits.emitted", sum(len(r.edits) for r in args[1]))
    return result


def _post_pharaoh(counts, args, was, _):
    _add(counts, "edits.links", sum(len(w.links) for w in was))
    return was


def _post_tree(counts, args, tree, _):
    stack, nodes = [tree], 0
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children)
    _add(counts, "trees.nodes", nodes)
    return tree


def _post_rule(counts, args, label, _):
    _add(counts, "intention.edits", 1)
    return label


# (module, attribute, span name, post hook); names map to layers below.
TARGETS = (
    ("revkit.cli", "load_corpus", "corpus.load", _post_load),
    ("revkit.para_align", "jaccard_matrix", "kernels.jaccard_matrix", _post_cells),
    ("revkit.cli", "align_paragraphs", "para_align.align_paragraphs", _post_blocks),
    ("revkit.cli", "align_sentences_directional", "sent_align.directional", None),
    ("revkit.cli", "merge_bidirectional", "sent_align.merge", _post_merge),
    ("revkit.cli", "doc_operations", "doc_ops.doc_operations", None),
    ("revkit.cli", "update_ratio", "doc_ops.update_ratio", None),
    ("revkit.cli", "relative_positions", "doc_ops.relative_positions", None),
    ("revkit.cli", "alignment_to_json", "formats.write.alignment_to_json", None),
    ("revkit.cli", "dump_json", "formats.write.dump_json", None),
    ("revkit.cli", "format_csv", "formats.write.format_csv", None),
    ("revkit.cli", "atomic_write_text", "formats.write.atomic_write_text", _post_write_text),
    ("revkit.cli", "write_edit_file", "formats.write.write_edit_file", _post_write_edits),
    ("revkit.cli", "read_alignment", "formats.read.read_alignment", None),
    ("revkit.cli", "read_pharaoh_file", "formats.read.read_pharaoh_file", _post_pharaoh),
    ("revkit.cli", "read_tree_file", "formats.read.read_tree_file", None),
    ("revkit.cli", "read_edit_file", "formats.read.read_edit_file", None),
    ("revkit.cli", "ingest_predictions", "formats.read.ingest_predictions", None),
    ("revkit.formats", "parse_tree_read", "trees.parse_tree_read", _post_tree),
    ("revkit.edits", "myers_diff", "myers.myers_diff", None),
    ("revkit.cli", "edits_from_diff", "edits.diff", None),
    ("revkit.cli", "edits_from_alignment_simple", "edits.simple", None),
    ("revkit.cli", "edits_with_parse", "edits.parse", None),
    ("revkit.cli", "derive_reorder", "edits.reorder", None),
    ("revkit.cli", "eval_alignment", "metrics.eval_alignment", None),
    ("revkit.cli", "eval_edits_corpus", "metrics.eval_edits_corpus", None),
    ("revkit.cli", "eval_classification", "metrics.eval_classification", None),
    ("revkit.intention", "classify_edit_rule", "intention.classify_edit_rule", _post_rule),
)
# per-pair functions of the CLI: each call starts a new trace id
PAIR_TARGETS = (
    ("revkit.cli", "_align_pair", "align.pair"),
    ("revkit.cli", "_stats_for_file", "stats.pair"),
)


def install(tracer: Tracer) -> None:
    for module, attr, name, post in TARGETS:
        mod = importlib.import_module(module)
        pre = current_rss_mb if name == "corpus.load" else None
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, post=post, pre=pre))
    for module, attr, name in PAIR_TARGETS:
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, new_trace=True))
    cli = importlib.import_module("revkit.cli")
    make_metric = cli.make_metric

    def _post_metric(counts, args, metric, _):
        return tracer.scored(metric)

    cli.make_metric = tracer.wrap(make_metric, "similarity.make_metric", post=_post_metric)


# ---------------------------------------------------------------------------
# aggregation (runs in run.py)

# span-name prefix -> self-time metric
SELF_TIME = (
    ("corpus.load", "corpus.load_s"),
    ("kernels.", "kernels.jaccard_s"),
    ("para_align.", "para_align.self_s"),
    ("similarity.make_metric", "similarity.fit_s"),
    ("sent_align.", "sent_align.self_s"),
    ("doc_ops.", "doc_ops.s"),
    ("formats.write.", "formats.write_s"),
    ("formats.read.", "formats.read_s"),
    ("trees.", "trees.parse_s"),
    ("myers.", "myers.s"),
    ("edits.diff", "edits.diff_s"),
    ("edits.simple", "edits.simple_s"),
    ("edits.parse", "edits.parse_s"),
    ("edits.reorder", "edits.reorder_s"),
    ("intention.", "intention.rule_s"),
    ("metrics.", "metrics.s"),
)


def summarize(spans: list) -> tuple[dict, dict, list]:
    """Self time per layer metric, summed counts, and the durations of
    the per-pair align spans, from one command's dumped spans."""
    covered = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    times: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    pair_s = []
    for idx, (name, start, end, parent, trace, hidden, span_counts) in enumerate(spans):
        self_s = end - start - covered[idx] - hidden
        for prefix, metric in SELF_TIME:
            if name.startswith(prefix):
                times[metric] += self_s
                break
        if name == "align.pair":
            pair_s.append(end - start)
        for key, n in span_counts.items():
            if key.startswith("~"):
                counts[key] = max(counts[key], n)
            else:
                counts[key] += n
    return dict(times), dict(counts), pair_s
