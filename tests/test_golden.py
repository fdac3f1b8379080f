"""Seed 0 of every benchmark workload, and edits seed 4, run in-process
through the command line and checked against the SHA-256 digests in
perfbench/golden.json, so that every output stays byte-identical without
a benchmark sweep.  The benchmark aligns with jaccard and tfidf only; the
char3gram and bleu alignments of its corpora are checked against
golden_cell_metrics.json here."""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from revkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CELL_METRIC_GOLDEN = Path(__file__).resolve().parent / "golden_cell_metrics.json"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py, loaded by path; it reads perfbench/ and writes
    nothing there."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = run
    try:
        spec.loader.exec_module(run)
        yield run
    finally:
        sys.path[:] = path
        del sys.modules[spec.name]


def _check_golden_digests(bench, name, seed, tmp_path):
    golden = bench.load_golden(name, "full", seed)
    assert golden
    w = bench.build_workload(name, bench.gen.generate(name, seed, "full", str(tmp_path / "input")),
                             str(tmp_path / "out"))
    (tmp_path / "out").mkdir()
    rcs = {cmd.key: cli.main(cmd.argv) for cmd in w.cmds}
    checker = bench.Checker(name, w, golden)
    checker.check(str(tmp_path / "out"), rcs)
    assert checker.attempted == len(w.expected)
    assert checker.failed == 0, checker.problems


@pytest.mark.parametrize("name", ["c40", "long_docs", "edits"])
def test_seed_0_outputs_match_golden_digests(bench, name, tmp_path):
    _check_golden_digests(bench, name, 0, tmp_path)


def test_edits_seed_4_outputs_match_golden_digests(bench, tmp_path):
    """Seed 4 is the first full-size edits input whose parse route
    merges span pairs, so its outputs pin the closure's merge path."""
    _check_golden_digests(bench, "edits", 4, tmp_path)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["c40", "long_docs"])
def test_char3gram_and_bleu_alignments_match_golden_digests(bench, name, seed, tmp_path):
    """`align --metric char3gram` and `--metric bleu` on the benchmark's
    full-size corpora write the files whose SHA-256 digests are stored,
    keyed "workload/seed/metric"."""
    golden = json.loads(CELL_METRIC_GOLDEN.read_text())
    corpus = bench.gen.generate(name, seed, "full", str(tmp_path / "input")).corpus
    for metric in ("char3gram", "bleu"):
        out = tmp_path / metric
        assert cli.main(["align", "--corpus", corpus, "--out", str(out), "--metric", metric, "--jobs", "1"]) == 0
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert got == golden[f"{name}/{seed}/{metric}"]
