import ast
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import revkit
from revkit import cli, para_align, sent_align
from revkit.config import RunConfig
from revkit.corpus import build_group
from revkit.para_align import CandidateCells, encode_versions
from revkit.similarity import METRIC_NAMES

from helpers import doc, serialize_corpus
from oracles import VOCAB, random_doc_pair, random_sentence_raw

SRC = Path(revkit.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _unused_imports(source: str) -> list[str]:
    """The names a module's import statements bind and its code never
    reads, in import order.  A name read only inside a quoted annotation
    counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = _names(tree)
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read |= _names(ast.parse(part.value, mode="eval"))
    return [name for name in imported if name not in read]


def test_unused_import_finder_sees_an_unused_name():
    source = (
        "import os, sys, os.path as p\nfrom typing import Any, List as L, Set\n"
        "def f(x: 'Any | None') -> dict['Set', int]: return sys.argv\n"
        "'Set, L, os'\n"
    )
    assert _unused_imports(source) == ["os", "p", "L"]


@pytest.mark.parametrize("path", sorted((SRC / "revkit").glob("*.py")), ids=lambda p: p.name)
def test_every_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "module",
    [
        "config", "corpus", "doc_ops", "edits", "errors", "formats",
        "intention", "metrics", "myers", "sent_align", "similarity", "trees",
    ],
)
def test_modules_that_build_no_matrix_leave_numpy_unimported(module):
    code = f"import sys, revkit.{module}; sys.exit('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert res.returncode == 0, f"importing revkit.{module} imports numpy"


def test_cli_leaves_multiprocessing_unimported(tmp_path):
    """Neither importing revkit.cli nor an `align --jobs 2` pass, which
    forks its workers with os.fork, imports multiprocessing."""
    rng = random.Random(5)
    paragraphs = [[random_sentence_raw(rng, 6, 12, VOCAB) for _ in range(3)] for _ in range(3)]
    groups = [
        build_group(arxiv_id, "cs.CL", [doc(paragraphs[: 1 + v], v) for v in (1, 2)])
        for arxiv_id in ("2001.0001", "2001.0002")
    ]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(serialize_corpus(groups))
    out = tmp_path / "out"
    code = (
        "import sys, revkit.cli\n"
        "imported = 'multiprocessing' in sys.modules\n"
        f"rc = revkit.cli.main(['align', '--corpus', {str(corpus)!r}, '--out', {str(out)!r}, '--jobs', '2'])\n"
        "print(imported, rc, 'multiprocessing' in sys.modules)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True
    )
    assert res.stdout == "False 0 False\n", res.stderr
    assert len(os.listdir(out)) == 2


def _perfbench_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_hooks_resolve():
    """Every revkit name the benchmark's tracer wraps and its child calls
    must exist, or `perfbench/run.py --trace 1` breaks."""
    tracer = _perfbench_tracer()
    hooks = [(module, attr) for module, attr, *_ in tracer.TARGETS + tracer.PAIR_TARGETS]
    hooks += [
        ("revkit.cli", "make_metric"),
        ("revkit.intention", "classify_edit_rule"),
        ("revkit.corpus", "load_corpus"),
        ("revkit.formats", "read_edit_file"),
    ]
    missing = [
        f"{module}.{attr}"
        for module, attr in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


def test_benchmark_kernel_hook_counts_every_cell_once(monkeypatch):
    """The tracer wraps revkit.para_align.jaccard_matrix and adds each
    result's shape[0] * shape[1] to kernels.cells, so a version pair
    scored in several blocks must still return 2-D arrays whose cells add
    up to n x m.  It also wraps revkit.cli.align_paragraphs and adds k x l
    to para_align.blocks from the call's first two arguments."""
    tracer = _perfbench_tracer()
    spans = tracer.Tracer()
    results = []

    def post(counts, args, matrix, state):
        results.append(matrix)
        return tracer._post_cells(counts, args, matrix, state)

    wrapped = spans.wrap(para_align.jaccard_matrix, "kernels.jaccard_matrix", post=post)
    monkeypatch.setattr(para_align, "jaccard_matrix", wrapped)
    paragraphs = spans.wrap(cli.align_paragraphs, "para_align.align_paragraphs", post=tracer._post_blocks)
    monkeypatch.setattr(cli, "align_paragraphs", paragraphs)
    rng = random.Random(5)
    src, tgt = (
        doc([[random_sentence_raw(rng, 6, 12, VOCAB) for _ in range(6)] for _ in range(50)], v)
        for v in (1, 2)
    )
    cli._align_pair(src, tgt, RunConfig(), encode_versions((src, tgt)))
    n, m = len(src.alignable_sentences()), len(tgt.alignable_sentences())
    assert len(results) > 1
    assert all(isinstance(r, np.ndarray) and r.ndim == 2 and r.shape[1] == m for r in results)
    _, counts, _ = tracer.summarize(spans.dump())
    assert counts["kernels.cells"] == n * m
    k, l = len(src.alignable_paragraphs()), len(tgt.alignable_paragraphs())
    assert counts["para_align.blocks"] == k * l == 50 * 50


def test_benchmark_sentence_hooks_count_every_pair_once(monkeypatch):
    """The tracer wraps revkit.cli.align_sentences_directional and
    revkit.cli.merge_bidirectional, and its merge hook adds the forward
    alignment's pairs to sent_align.forward and the merged ones to
    sent_align.pairs.  So _align_pair must make both directional calls and
    the merge through those names: a change that goes round them reads
    zero here, not only under `perfbench/run.py --trace 1`."""
    tracer = _perfbench_tracer()
    spans = tracer.Tracer()
    hooks = {(module, attr): (name, post) for module, attr, name, post in tracer.TARGETS}
    for attr in ("align_sentences_directional", "merge_bidirectional"):
        name, post = hooks["revkit.cli", attr]
        monkeypatch.setattr(cli, attr, spans.wrap(getattr(cli, attr), name, post=post))
    src, tgt = random_doc_pair(random.Random(9))
    cfg = RunConfig()
    encodings = encode_versions((src, tgt))
    merged = cli._align_pair(src, tgt, cfg, encodings)
    # the forward alignment again, through no traced name
    cells = CandidateCells(para_align.align_paragraphs(src, tgt, cfg, encodings), encodings, cli.make_metric("jaccard"))
    forward = sent_align.align_sentences_directional(cells, src, tgt, cfg.effective_sentence_threshold())
    names = [name for name, *_ in spans.dump()]
    assert names.count("sent_align.directional") == 2 and names.count("sent_align.merge") == 1
    _, counts, _ = tracer.summarize(spans.dump())
    assert counts["sent_align.forward"] == len(forward.pairs) > 0
    assert counts["sent_align.pairs"] == len(merged.pairs) > 0


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_benchmark_metric_hook_counts_one_scorer_call_per_pair(monkeypatch, metric):
    """The tracer's install wraps revkit.cli.make_metric and the scorer it
    returns, which it calls as call(a, b) and counts in similarity.calls.
    So _align_pair must make its metric through that name and score all
    of a version pair's cells in one call of two positional arguments,
    and the traced run must give what the untraced one does."""
    tracer = _perfbench_tracer()
    spans = tracer.Tracer()
    src, tgt = random_doc_pair(random.Random(9))
    third = doc([[s.raw for s in p.sentences] for p in tgt.paragraphs[::-1]], 3)
    cfg = RunConfig(sentence_metric=metric)
    encoded = encode_versions((src, tgt, third))
    pairs = list(zip(encoded, encoded[1:]))
    plain = [cli._align_pair(a.doc, b.doc, cfg, (a, b)) for a, b in pairs]
    for module, attr, *_ in tracer.TARGETS + tracer.PAIR_TARGETS + (("revkit.cli", "make_metric"),):
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # put back after the test
    tracer.install(spans)
    assert [cli._align_pair(a.doc, b.doc, cfg, (a, b)) for a, b in pairs] == plain
    assert all(merged.pairs for merged in plain)
    names = [name for name, *_ in spans.dump()]
    assert names.count("align.pair") == names.count("similarity.make_metric") == len(pairs) == 2
    _, counts, _ = tracer.summarize(spans.dump())
    assert counts["similarity.calls"] == len(pairs)
    assert counts["similarity.score_s"] > 0


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_align_leaves_numpy_ma_unimported(tmp_path, metric):
    """np.unique's first call imports numpy.ma, which adds resident memory
    to the command, so the kernels lay out their rows by a stable sort."""
    rng = random.Random(11)
    paragraphs = [[random_sentence_raw(rng, 6, 12, VOCAB) for _ in range(4)] for _ in range(5)]
    versions = [doc(paragraphs[: 3 + v], v) for v in (1, 2)]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(serialize_corpus([build_group("2001.0001", "cs.CL", versions)]))
    out = tmp_path / "out"
    argv = ["align", "--corpus", str(corpus), "--out", str(out), "--metric", metric]
    code = f"import sys; from revkit import cli; sys.exit(cli.main({argv!r}) or 3 * ('numpy.ma' in sys.modules))"
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert res.returncode == 0, "align failed" if res.returncode != 3 else "align imported numpy.ma"
    (written,) = out.iterdir()
    assert json.loads(written.read_text())["pairs"]


def test_align_writes_the_texts_its_traced_writer_returns(tmp_path, monkeypatch):
    """The tracer wraps revkit.cli.alignment_to_json as
    formats.write.alignment_to_json, so that span covers the encoding of
    the alignment files only if the call returns a file's text: each file
    `align` writes must be one text the call returned."""
    write = cli.alignment_to_json
    returned = []

    def recorder(*args, **kwargs):
        returned.append(write(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(cli, "alignment_to_json", recorder)
    rng = random.Random(13)
    paragraphs = [[random_sentence_raw(rng, 6, 12, VOCAB) for _ in range(4)] for _ in range(6)]
    groups = [
        build_group(arxiv_id, "cs.CL", [doc(paragraphs[: 2 + v], v) for v in range(1, size + 1)])
        for arxiv_id, size in (("2001.0001", 3), ("2001.0002", 2))
    ]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(serialize_corpus(groups))
    out = tmp_path / "out"
    assert cli.main(["align", "--corpus", str(corpus), "--out", str(out), "--jobs", "1"]) == 0
    written = sorted(path.read_text() for path in out.iterdir())
    assert len(written) == 3 and written == sorted(returned)
