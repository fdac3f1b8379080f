import contextlib
import errno
import importlib.util
import io
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import revkit
from revkit import cli
from revkit.cli import main
from revkit.config import RunConfig
from revkit.corpus import DocVersion, RawGroup, SentenceId, build_group, load_corpus
from revkit.errors import CorpusFormatError
from revkit.formats import dump_json, read_alignment, read_edit_file
from revkit.intention import COARSE_LABELS, FINE_LABELS
from revkit.sent_align import SentAlignLabel

from helpers import filler_sentence, serialize_corpus
from oracles import VOCAB, oracle_align_pair, random_doc_pair, random_sentence_raw


def changed(raw, tag):
    parts = raw.split()
    parts[-1] = f"zz{tag}"
    return " ".join(parts)


def write_corpus(path, ids=("2001.0001",)):
    """One group per id, each of three versions: v2 rewrites one sentence
    of the first paragraph, v3 additionally rewrites both sentences of
    the second."""
    f = filler_sentence
    v1 = [[f(0), f(1)], [f(2), f(3)]]
    v2 = [[f(0), changed(f(1), "a")], [f(2), f(3)]]
    v3 = [[f(0), changed(f(1), "a")], [changed(f(2), "b"), changed(f(3), "c")]]
    groups = [
        build_group(
            arxiv_id,
            "cs.CL",
            [
                DocVersion.build(1, 1000, v1),
                DocVersion.build(2, 2000, v2),
                DocVersion.build(3, 4000, v3),
            ],
        )
        for arxiv_id in ids
    ]
    path.write_text(serialize_corpus(groups))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.json"
    write_corpus(corpus)
    align_dir = root / "align"
    rc = main(["align", "--corpus", str(corpus), "--out", str(align_dir)])
    assert rc == 0
    return SimpleNamespace(
        root=root,
        corpus=str(corpus),
        align_dir=align_dir,
        v12=str(align_dir / "2001.0001.v1-v2.json"),
        v23=str(align_dir / "2001.0001.v2-v3.json"),
    )


# ---------------------------------------------------------------------------
# align

def test_align_writes_one_file_per_adjacent_pair(ws):
    assert sorted(os.listdir(ws.align_dir)) == [
        "2001.0001.v1-v2.json",
        "2001.0001.v2-v3.json",
    ]


def test_align_pair_content(ws):
    aid, got = read_alignment(ws.v12)
    assert aid == "2001.0001"
    by_pair = {
        ((s.paragraph, s.sentence), (t.paragraph, t.sentence)): label
        for s, t, label in got.sorted_positive()
    }
    assert by_pair == {
        ((0, 0), (0, 0)): SentAlignLabel.ALIGNED,
        ((0, 1), (0, 1)): SentAlignLabel.PARTIAL,
        ((1, 0), (1, 0)): SentAlignLabel.ALIGNED,
        ((1, 1), (1, 1)): SentAlignLabel.ALIGNED,
    }

    _, second = read_alignment(ws.v23)
    labels = [label for _, _, label in second.sorted_positive()]
    assert labels.count(SentAlignLabel.PARTIAL) == 2


def test_align_rerun_is_byte_identical(ws):
    before = {n: (ws.align_dir / n).read_bytes() for n in os.listdir(ws.align_dir)}
    assert main(["align", "--corpus", ws.corpus, "--out", str(ws.align_dir)]) == 0
    after = {n: (ws.align_dir / n).read_bytes() for n in os.listdir(ws.align_dir)}
    assert after == before


def test_align_parallel_jobs_match_serial(ws, tmp_path):
    out = tmp_path / "align2"
    rc = main(["align", "--corpus", ws.corpus, "--out", str(out), "--jobs", "2"])
    assert rc == 0
    for name in os.listdir(ws.align_dir):
        assert (out / name).read_bytes() == (ws.align_dir / name).read_bytes()


# ---------------------------------------------------------------------------
# --jobs: share 0 in the parent, one forked child per other share

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _returns_within(seconds):
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")  # not an Exception: main cannot swallow it

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _patch_align_group(monkeypatch, in_parent, in_child):
    """Make cli._align_group run `in_parent` in this process and
    `in_child` in a forked worker."""
    parent = os.getpid()
    monkeypatch.setattr(
        cli, "_align_group", lambda payload: (in_parent if os.getpid() == parent else in_child)(payload)
    )


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_map_jobs_returns_results_in_item_order(jobs):
    for n in range(8):
        items = [f"item{i}" for i in range(n)]
        assert cli._map_jobs(str.upper, items, jobs) == [x.upper() for x in items]
    _no_child_left()


def test_map_jobs_maps_share_zero_in_the_parent():
    pids = cli._map_jobs(lambda _: os.getpid(), range(5), 2)
    assert pids[0::2] == [os.getpid()] * 3
    assert len(set(pids[1::2])) == 1 and pids[1] != os.getpid()
    _no_child_left()


def test_map_jobs_maps_serially_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert cli._map_jobs(lambda _: os.getpid(), range(3), 2) == [os.getpid()] * 3


def _record_placement(monkeypatch, cpus):
    """Make os.sched_getaffinity give `cpus` and os.sched_setaffinity
    record its calls, in each process's own copy of the list."""
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: calls.append((pid, set(mask))), raising=False)
    return calls


def test_map_jobs_starts_each_share_on_its_own_cpu(monkeypatch):
    calls = _record_placement(monkeypatch, {0, 1})
    got = cli._map_jobs(lambda _: list(calls), [0, 1], 2)
    assert got == [[(0, {0}), (0, {0, 1})], [(0, {1}), (0, {0, 1})]]
    _no_child_left()


def test_map_jobs_ignores_a_refused_cpu_move(monkeypatch):
    def refuse(pid, mask):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    items = [f"item{i}" for i in range(5)]
    assert cli._map_jobs(str.upper, items, 2) == [x.upper() for x in items]
    _no_child_left()


@pytest.mark.parametrize("case", ["one cpu", "no sched_setaffinity"])
def test_map_jobs_moves_nothing_without_a_second_cpu(monkeypatch, case):
    calls = _record_placement(monkeypatch, {3} if case == "one cpu" else {0, 1})
    if case == "no sched_setaffinity":
        monkeypatch.delattr(os, "sched_setaffinity")
    got = cli._map_jobs(lambda item: (item.upper(), list(calls)), ["a", "b", "c"], 2)
    assert got == [("A", []), ("B", []), ("C", [])]
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_map_jobs_gives_every_share_the_whole_cpu_set_back():
    before = os.sched_getaffinity(0)
    got = cli._map_jobs(lambda _: os.sched_getaffinity(0), range(4), 2)
    assert os.sched_getaffinity(0) == before
    assert got == [before] * 4
    _no_child_left()


def test_align_worker_killed_by_a_signal_exits_2(two_groups, tmp_path, monkeypatch, capsys):
    _patch_align_group(monkeypatch, cli._align_group, lambda payload: os.kill(os.getpid(), signal.SIGKILL))
    out = tmp_path / "out"
    with _returns_within(10):
        assert main(["align", "--corpus", two_groups.corpus, "--out", str(out), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("revkit: error: worker process ") and err.endswith(" was killed by SIGKILL\n")
    assert not out.exists()
    _no_child_left()


def test_align_error_in_the_parent_share_stops_the_children(two_groups, tmp_path, monkeypatch, capsys):
    def fail(payload):
        raise CorpusFormatError("the parent's share failed")

    _patch_align_group(monkeypatch, fail, lambda payload: time.sleep(60))
    out = tmp_path / "out"
    with _returns_within(10):
        assert main(["align", "--corpus", two_groups.corpus, "--out", str(out), "--jobs", "2"]) == 2
    assert capsys.readouterr().err == "revkit: error: the parent's share failed\n"
    assert not out.exists()
    _no_child_left()


@pytest.mark.parametrize(
    "error",
    [CorpusFormatError("group 2001.0002: bad"), FileNotFoundError(2, "No such file or directory", "gone.json")],
    ids=["RevkitError", "OSError"],
)
def test_child_error_reaches_main_as_it_was_raised(two_groups, tmp_path, monkeypatch, capsys, error):
    def fail(item):
        if item:
            raise error
        return item

    with pytest.raises(type(error)) as got:
        cli._map_jobs(fail, [0, 1], 2)
    assert type(got.value) is type(error) and str(got.value) == str(error)
    _no_child_left()

    _patch_align_group(monkeypatch, cli._align_group, fail)
    out = tmp_path / "out"
    assert main(["align", "--corpus", two_groups.corpus, "--out", str(out), "--jobs", "2"]) == 2
    assert capsys.readouterr().err == f"revkit: error: {error}\n"
    assert not out.exists()
    _no_child_left()


def test_internal_error_in_a_child_exits_1_with_its_traceback(two_groups, tmp_path, monkeypatch, capsys):
    def broken_in_child(payload):
        raise KeyError("lost")

    _patch_align_group(monkeypatch, cli._align_group, broken_in_child)
    out = tmp_path / "out"
    assert main(["align", "--corpus", two_groups.corpus, "--out", str(out), "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("revkit: internal error\n")
    assert "in worker process" in err and "in broken_in_child" in err and err.endswith("KeyError: 'lost'\n")
    assert not out.exists()
    _no_child_left()


def test_stats_parallel_jobs_match_serial(ws, stats_dir, tmp_path):
    out = tmp_path / "stats2"
    assert main(["stats", "--corpus", ws.corpus, "--alignments", ws.v23, ws.v12, "--out", str(out), "--jobs", "2"]) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(stats_dir))
    for name in os.listdir(stats_dir):
        assert (out / name).read_bytes() == (stats_dir / name).read_bytes()
    _no_child_left()


def test_align_slash_in_id_becomes_underscore(tmp_path):
    f = filler_sentence
    paras = [[f(0), f(1)]]
    group = build_group(
        "math/0101001",
        "math.GT",
        [DocVersion.build(1, 10, paras), DocVersion.build(2, 20, paras)],
    )
    corpus = tmp_path / "old.json"
    corpus.write_text(serialize_corpus([group]))
    out = tmp_path / "out"
    assert main(["align", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert os.listdir(out) == ["math_0101001.v1-v2.json"]


def test_align_repeated_arxiv_id_exits_2_before_writing(ws, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, ids=("2001.0001", "2001.0002", "2001.0001"))
    out = tmp_path / "out"
    assert main(["align", "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{corpus}: $[2].arxiv_id: repeats arxiv_id '2001.0001'" in err
    assert not out.exists()


def test_align_ids_sharing_a_file_name_exit_2_before_writing(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, ids=("math/0101001", "math_0101001"))
    out = tmp_path / "out"
    assert main(["align", "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'math/0101001' and 'math_0101001' would both write math_0101001.v1-v2.json" in err
    assert not out.exists()


def test_align_id_with_a_null_character_exits_2_before_writing(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, ids=("2001.0001", "math\x000101001"))
    out = tmp_path / "out"
    assert main(["align", "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{corpus}: group 'math\\x000101001': a file name cannot hold '\\x00'" in err
    assert not out.exists()


@pytest.mark.parametrize("arxiv_id", ["a\ud800b", "a\udc80b"])
def test_align_id_with_a_lone_surrogate_exits_2_before_writing(tmp_path, capsys, arxiv_id):
    # os.fsencode cannot encode a high surrogate, and would write a low one
    # as a byte that is not UTF-8; stats would fail to write it in a CSV
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, ids=("2001.0001", arxiv_id))
    out = tmp_path / "out"
    assert main(["align", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert f"{corpus}: $[1].arxiv_id: cannot hold a lone surrogate" in capsys.readouterr().err
    assert not out.exists()
    alignment = tmp_path / "alignment.json"
    alignment.write_text(json.dumps({"arxiv_id": arxiv_id, "src_version": 1, "tgt_version": 2, "pairs": []}))
    assert main(["stats", "--corpus", str(corpus), "--alignments", str(alignment), "--out", str(out)]) == 2
    assert not out.exists()


def test_align_id_the_file_system_cannot_encode_exits_2_before_writing(tmp_path):
    """Under an ASCII file system encoding, an id with a non-ASCII letter
    names no file."""
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, ids=("2001.0001", "caf\xe9"))
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(revkit.__file__)))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    code = "import sys; print(sys.getfilesystemencoding())"
    if subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env).stdout != "ascii\n":
        pytest.skip("this platform does not give Python an ASCII file system encoding")
    res = subprocess.run(
        [sys.executable, "-m", "revkit", "align", "--corpus", str(corpus), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2, res.stderr
    assert "group 'caf\\xe9': cannot name a file: 'ascii' codec can't encode" in res.stderr
    assert not out.exists()


def _skip_unless_name_max_is_255(path):
    if os.pathconf(path, "PC_NAME_MAX") != 255:
        pytest.skip("this file system does not take names of up to 255 bytes")


def test_align_id_naming_a_255_byte_file_writes_it(tmp_path):
    """The temp file written beside each output has a short name of its
    own, so an output name of the longest length the file system takes
    is written."""
    _skip_unless_name_max_is_255(tmp_path)
    arxiv_id = "a" * 244
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, ids=(arxiv_id,))
    out = tmp_path / "out"
    assert main(["align", "--corpus", str(corpus), "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert names == [f"{arxiv_id}.v1-v2.json", f"{arxiv_id}.v2-v3.json"]
    assert [len(os.fsencode(name)) for name in names] == [255, 255]


def _count_builds(monkeypatch):
    built = []
    build = RawGroup.build
    monkeypatch.setattr(RawGroup, "build", lambda self: built.append(self.arxiv_id) or build(self))
    return built


def test_align_id_naming_a_256_byte_file_exits_2_before_building(tmp_path, capsys, monkeypatch):
    """The name is refused with the other file name checks, before any
    group is built, not once every group is aligned."""
    arxiv_id = "a" * 245
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, ids=("2001.0001", arxiv_id))
    out = tmp_path / "out"
    built = _count_builds(monkeypatch)
    assert main(["align", "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{corpus}: group {arxiv_id!r}: a file name of 256 bytes is over the limit of 255" in err
    assert built == []
    assert not out.exists()


def test_align_file_name_limit_is_the_output_directory_s(tmp_path, capsys, monkeypatch):
    """Once --out exists, its own PC_NAME_MAX is the limit."""
    corpus = tmp_path / "corpus.json"
    out = tmp_path / "out"
    out.mkdir()
    asked = []
    monkeypatch.setattr(os, "pathconf", lambda path, name: asked.append((path, name)) or 20)
    write_corpus(corpus, ids=("2001.0001",))  # 2001.0001.v1-v2.json: 20 bytes
    assert main(["align", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert asked == [(str(out), "PC_NAME_MAX")]
    write_corpus(corpus, ids=("2001.0001", "2001.00012"))
    built = _count_builds(monkeypatch)
    assert main(["align", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert "group '2001.00012': a file name of 21 bytes is over the limit of 20" in capsys.readouterr().err
    assert built == []
    assert sorted(os.listdir(out)) == ["2001.0001.v1-v2.json", "2001.0001.v2-v3.json"]


def test_align_threshold_config_and_flag(ws, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sentence_threshold = 0.99\n")
    strict = tmp_path / "strict"
    assert main(["align", "--corpus", ws.corpus, "--out", str(strict), "--config", str(cfg)]) == 0
    _, got = read_alignment(str(strict / "2001.0001.v1-v2.json"))
    # the rewritten sentence scores 5/7 and falls below the file's bar
    assert len(got.sorted_positive()) == 3

    loose = tmp_path / "loose"
    rc = main(
        [
            "align", "--corpus", ws.corpus, "--out", str(loose),
            "--config", str(cfg), "--threshold", "0.3",
        ]
    )
    assert rc == 0
    _, got = read_alignment(str(loose / "2001.0001.v1-v2.json"))
    assert len(got.sorted_positive()) == 4


def test_missing_corpus_path_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.json")
    rc = main(["align", "--corpus", missing, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nowhere.json" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("broken", [0, 1], ids=["first group", "last group"])
@pytest.mark.parametrize("fault", ["schema", "timestamp order"])
def test_align_invalid_group_exits_2_before_writing(ws, tmp_path, capsys, jobs, broken, fault):
    groups = [json.loads(Path(ws.corpus).read_text())[0] for _ in range(2)]
    groups[1]["arxiv_id"] = "2001.0002"
    versions = groups[broken]["versions"]
    versions[-1]["timestamp"] = "later" if fault == "schema" else versions[0]["timestamp"]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(groups))
    with pytest.raises(CorpusFormatError) as expected:
        load_corpus(str(corpus))
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("older output")

    assert main(["align", "--corpus", str(corpus), "--out", str(out), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"revkit: error: {expected.value}\n"
    assert os.listdir(out) == ["kept.txt"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_align_compat_corpus_matches_native_spelling(ws, tmp_path, jobs):
    released = {"papers": [
        {
            "paper_id": g["arxiv_id"],
            "primary_category": g["subject"],
            "versions": {
                f"v{v['version']}": {
                    "created": v["timestamp"],
                    "paragraphs": [p["sentences"] for p in v["paragraphs"]],
                }
                for v in reversed(g["versions"])
            },
        }
        for g in json.loads(Path(ws.corpus).read_text())
    ]}
    corpus = tmp_path / "released.json"
    corpus.write_text(json.dumps(released))
    out = tmp_path / "out"
    argv = ["align", "--corpus", str(corpus), "--out", str(out), "--compat", "--jobs", jobs]
    assert main(argv) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(ws.align_dir))
    for name in os.listdir(ws.align_dir):
        assert (out / name).read_bytes() == (ws.align_dir / name).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_empty_version_aligns_beside_a_healthy_group(ws, tmp_path, jobs):
    healthy = json.loads(Path(ws.corpus).read_text())[0]
    bad = json.loads(json.dumps(healthy))
    bad["arxiv_id"] = "2001.0002"
    bad["versions"][1]["paragraphs"] = []
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([healthy, bad]))
    out = tmp_path / "out"
    assert main(["align", "--corpus", str(corpus), "--out", str(out), "--jobs", jobs]) == 0
    for name in os.listdir(ws.align_dir):
        assert (out / name).read_bytes() == (ws.align_dir / name).read_bytes()
    for pair in ("v1-v2", "v2-v3"):
        _, got = read_alignment(str(out / f"2001.0002.{pair}.json"))
        assert got.pairs == frozenset()
    assert len(os.listdir(out)) == 4


@pytest.mark.parametrize("metric", ["jaccard", "tfidf", "char3gram", "bleu"])
def test_two_empty_versions_align_to_no_pairs_under_every_metric(ws, tmp_path, metric):
    healthy = json.loads(Path(ws.corpus).read_text())[0]
    bad = json.loads(json.dumps(healthy))
    bad["arxiv_id"] = "2001.0002"
    bad["versions"] = bad["versions"][:2]
    for version in bad["versions"]:
        version["paragraphs"] = []
    alone, both = tmp_path / "alone.json", tmp_path / "both.json"
    alone.write_text(json.dumps([healthy]))
    both.write_text(json.dumps([healthy, bad]))
    for corpus in (alone, both):
        argv = ["align", "--corpus", str(corpus), "--out", str(tmp_path / corpus.stem), "--metric", metric]
        assert main(argv) == 0
    _, got = read_alignment(str(tmp_path / "both" / "2001.0002.v1-v2.json"))
    assert got.pairs == frozenset()
    for name in os.listdir(tmp_path / "alone"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


# every word carries digits, so the letter-fraction filter drops every sentence
DIGIT_PARAGRAPHS = [["a12 b34 c56 d78 e90 f11 g22 .", "h33 i44 j55 k66 l77 m88 ."], ["n99 o10 p20 q30 r40 s50 ."]]


def test_align_warns_for_each_version_the_skip_filters_empty(ws, tmp_path, capsys, caplog):
    healthy = json.loads(Path(ws.corpus).read_text())[0]
    digits = json.loads(json.dumps(healthy))
    digits["arxiv_id"] = "2001.0002"
    for version in digits["versions"][:2]:
        version["paragraphs"] = [{"sentences": p} for p in DIGIT_PARAGRAPHS]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([healthy, digits]))
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="revkit"):
        assert main(["align", "--corpus", str(corpus), "--out", str(out), "--jobs", "1"]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        "group 2001.0002 version 1: the skip filters dropped all 3 sentences",
        "group 2001.0002 version 2: the skip filters dropped all 3 sentences",
    ]
    # the warning goes to the log only: stdout and the outputs are as before
    assert capsys.readouterr().out == ""
    for name in os.listdir(ws.align_dir):
        assert (out / name).read_bytes() == (ws.align_dir / name).read_bytes()
    for pair in ("v1-v2", "v2-v3"):
        text = (out / f"2001.0002.{pair}.json").read_text()
        src_v, tgt_v = int(pair[1]), int(pair[4])
        assert text == dump_json(
            {"arxiv_id": "2001.0002", "pairs": [], "src_version": src_v, "tgt_version": tgt_v}
        )
    assert len(os.listdir(out)) == 4


# ---------------------------------------------------------------------------
# extract-edits

REVISION_IDS = [
    "v1p0s0-v2p0s0",
    "v1p0s1-v2p0s1",
    "v1p1s0-v2p1s0",
    "v1p1s1-v2p1s1",
]


def extract(ws, out, method, extra=()):
    argv = [
        "extract-edits",
        "--corpus", ws.corpus,
        "--alignment", ws.v12,
        "--out", str(out),
        "--method", method,
        *extra,
    ]
    return main(argv)


def wa_lines(ws, path):
    # one line per aligned pair in sorted order; identical pairs get a
    # line too, which is consumed without being interpreted
    path.write_text("0-0\n" + " ".join(f"{k}-{k}" for k in range(6)) + "\n0-0\n0-0\n")
    return str(path)


def test_extract_edits_diff(ws, tmp_path):
    out = tmp_path / "edits.json"
    assert extract(ws, out, "diff") == 0
    entries = read_edit_file(str(out))
    assert [e.revision_id for e in entries] == REVISION_IDS
    got = {e.revision_id: [x.key() for x in e.edits] for e in entries}
    assert got["v1p0s0-v2p0s0"] == []
    assert got["v1p0s1-v2p0s1"] == [((5, 6), (5, 6), "substitute")]
    assert got["v1p1s0-v2p1s0"] == []
    assert got["v1p1s1-v2p1s1"] == []


def test_extract_edits_simple_matches_diff_here(ws, tmp_path):
    diff_out = tmp_path / "diff.json"
    simple_out = tmp_path / "simple.json"
    assert extract(ws, diff_out, "diff") == 0
    wa = wa_lines(ws, tmp_path / "wa.txt")
    assert extract(ws, simple_out, "simple", ["--word-alignments", wa]) == 0
    assert diff_out.read_bytes() == simple_out.read_bytes()


def test_extract_edits_parse(ws, tmp_path):
    f = filler_sentence
    src_tree = "(S " + " ".join(f(1).split()) + ")"
    tgt_tree = "(S " + " ".join(changed(f(1), "a").split()) + ")"
    trees_src = tmp_path / "src.trees"
    trees_tgt = tmp_path / "tgt.trees"
    trees_src.write_text(f"\n{src_tree}\n\n\n")
    trees_tgt.write_text(f"\n{tgt_tree}\n\n\n")
    out = tmp_path / "parse.json"
    wa = wa_lines(ws, tmp_path / "wa.txt")
    rc = extract(
        ws, out, "parse",
        ["--word-alignments", wa, "--trees-src", str(trees_src), "--trees-tgt", str(trees_tgt)],
    )
    assert rc == 0
    entries = read_edit_file(str(out))
    got = {e.revision_id: [x.key() for x in e.edits] for e in entries}
    assert got["v1p0s1-v2p0s1"] == [((5, 6), (5, 6), "substitute")]


def test_extract_edits_line_count_mismatch(ws, tmp_path, capsys):
    wa = tmp_path / "short.txt"
    wa.write_text("0-0\n0-0\n0-0\n")
    rc = extract(ws, tmp_path / "e.json", "simple", ["--word-alignments", str(wa)])
    assert rc == 2
    assert "3 lines for 4 aligned pairs" in capsys.readouterr().err


def test_extract_edits_simple_needs_word_alignments(ws, tmp_path, capsys):
    rc = extract(ws, tmp_path / "e.json", "simple")
    assert rc == 2
    assert "--word-alignments" in capsys.readouterr().err


def test_extract_edits_parse_needs_trees_for_changed_pairs(ws, tmp_path, capsys):
    blank = tmp_path / "blank.trees"
    blank.write_text("\n\n\n\n")
    wa = wa_lines(ws, tmp_path / "wa.txt")
    rc = extract(
        ws, tmp_path / "e.json", "parse",
        ["--word-alignments", wa, "--trees-src", str(blank), "--trees-tgt", str(blank)],
    )
    assert rc == 2
    assert "pair 2 needs trees on both sides" in capsys.readouterr().err


def test_extract_edits_parse_tree_leaf_count_mismatch(ws, tmp_path, capsys):
    # pair 2 has six tokens on each side; a bare-leaf tree covers one
    short = tmp_path / "short.trees"
    short.write_text("\nword\n\n\n")
    good = tmp_path / "good.trees"
    good.write_text("\n(S " + changed(filler_sentence(1), "a") + ")\n\n\n")
    wa = wa_lines(ws, tmp_path / "wa.txt")
    rc = extract(
        ws, tmp_path / "e.json", "parse",
        ["--word-alignments", wa, "--trees-src", str(short), "--trees-tgt", str(good)],
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "pair 2 (" in err and "source tree covers 1 tokens, sentence has 6" in err


@pytest.mark.parametrize("method", ["simple", "parse"])
def test_extract_edits_out_of_range_link_exits_2(ws, tmp_path, capsys, method):
    # pair 2 has six tokens on each side; the alignment is checked once,
    # by the extraction route, and its error names the pair
    path = tmp_path / "wa.txt"
    path.write_text("0-0\n0-0 6-1\n0-0\n0-0\n")
    tree = "\n(S " + changed(filler_sentence(1), "a") + ")\n\n\n"
    trees = tmp_path / "t.trees"
    trees.write_text(tree)
    extra = ["--trees-src", str(trees), "--trees-tgt", str(trees)] if method == "parse" else []
    rc = extract(ws, tmp_path / "e.json", method, ["--word-alignments", str(path), *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pair 2 (" in err and "link (6, 1) out of range for lengths (6, 6)" in err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize(
    "field",
    [
        pytest.param("٣-١", id="arabic-indic digits"),
        pytest.param("１-２", id="fullwidth digits"),
        pytest.param("1-٢", id="one non-ascii side"),
    ],
)
def test_extract_edits_pharaoh_links_take_ascii_digits_only(ws, tmp_path, capsys, field):
    # str.isdecimal() holds for these, and int() reads them as numbers
    path = tmp_path / "wa.txt"
    path.write_text("0-0\n0-0 " + field + "\n0-0\n0-0\n", encoding="utf-8")
    assert extract(ws, tmp_path / "e.json", "simple", ["--word-alignments", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: bad link {field!r}" in err
    assert not (tmp_path / "e.json").exists()


def test_extract_edits_unknown_group_exits_2(ws, tmp_path, capsys):
    stray = tmp_path / "stray.json"
    obj = {"arxiv_id": "9999.9999", "src_version": 1, "tgt_version": 2, "pairs": []}
    stray.write_text(json.dumps(obj))
    rc = main(
        [
            "extract-edits", "--corpus", ws.corpus, "--alignment", str(stray),
            "--out", str(tmp_path / "e.json"), "--method", "diff",
        ]
    )
    assert rc == 2
    assert "'9999.9999' not in the corpus" in capsys.readouterr().err


def test_extract_edits_false_id_exits_2_on_a_one_group_corpus(ws, tmp_path, capsys):
    """Only an absent or null id means "no id"; a falsy id is not read
    as one and run against the corpus's only group."""
    obj = json.loads(Path(ws.v12).read_text(encoding="utf-8"))
    obj["arxiv_id"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "e.json"
    rc = main(["extract-edits", "--corpus", ws.corpus, "--alignment", str(bad), "--out", str(out), "--method", "diff"])
    assert rc == 2
    assert f"{bad}: arxiv_id must be a string and not empty" in capsys.readouterr().err
    assert not out.exists()


def test_extract_edits_pair_under_two_labels_exits_2_before_writing(ws, tmp_path, capsys):
    """One sentence pair listed as aligned and as partially-aligned would
    give two revisions with one revision_id."""
    obj = json.loads(Path(ws.v12).read_text(encoding="utf-8"))
    first = obj["pairs"][0]
    other = "partially-aligned" if first["label"] == "aligned" else "aligned"
    obj["pairs"].append(dict(first, label=other))
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps(obj))
    out = tmp_path / "e.json"
    rc = main(
        [
            "extract-edits", "--corpus", ws.corpus, "--alignment", str(twice),
            "--out", str(out), "--method", "diff",
        ]
    )
    assert rc == 2
    s, t = SentenceId(1, *first["src"]), SentenceId(2, *first["tgt"])
    assert f"{twice}: pair {s} -> {t} listed as aligned and partially-aligned" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# stats

@pytest.fixture(scope="module")
def stats_dir(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("stats")
    rc = main(["stats", "--corpus", ws.corpus, "--alignments", str(ws.align_dir), "--out", str(out)])
    assert rc == 0
    return out


def test_stats_summary(stats_dir):
    summary = json.loads((stats_dir / "summary.json").read_text())
    assert summary["pairs"] == 2
    assert summary["groups"] == 1
    assert summary["kept_definition"] == "copy_only"
    assert summary["operation_counts"] == {
        "insertion": 0,
        "deletion": 0,
        "copying": 5,
        "rephrasing": 3,
        "splitting": 0,
        "merging": 0,
        "fusion": 0,
    }
    assert summary["mean_update_ratio"] == pytest.approx(0.375)
    # ratios 0.25 and 0.5 move with time deltas 1000 and 2000
    assert summary["correlations"]["overall"] == pytest.approx(1.0)
    assert summary["correlations"]["two_version"] is None
    assert summary["correlations"]["multi_version"] == pytest.approx(1.0)


def test_stats_update_ratio_rows(stats_dir):
    lines = (stats_dir / "update_ratios.csv").read_text().splitlines()
    assert lines[0] == "arxiv_id,src_version,tgt_version,time_delta,update_ratio"
    assert lines[1] == "2001.0001,1,2,1000,0.25"
    assert lines[2] == "2001.0001,2,3,2000,0.5"


def test_stats_position_histograms(stats_dir):
    revised = (stats_dir / "positions_revised.csv").read_text().splitlines()
    assert revised[0] == "bin_start,bin_end,count"
    counts = [int(row.rsplit(",", 1)[1]) for row in revised[1:]]
    # rewritten sentences sit at relative positions 0.25, 0.5 and 0.75
    assert len(counts) == 10
    assert counts[2] == 1 and counts[5] == 1 and counts[7] == 1
    assert sum(counts) == 3

    for name in ("positions_inserted.csv", "positions_deleted.csv"):
        rows = (stats_dir / name).read_text().splitlines()[1:]
        assert all(row.endswith(",0") for row in rows)


def test_stats_composition(stats_dir):
    lines = (stats_dir / "composition.csv").read_text().splitlines()
    assert lines[0] == (
        "ratio_bin_start,ratio_bin_end,insertion,deletion,rephrasing,total_changes"
    )
    assert lines[1] == "0.2,0.3,0.0,0.0,1.0,1"
    assert lines[2] == "0.5,0.6,0.0,0.0,1.0,2"
    assert len(lines) == 3


def test_stats_kept_definition_flag(ws, tmp_path):
    out = tmp_path / "loose"
    rc = main(
        [
            "stats", "--corpus", ws.corpus, "--alignments", str(ws.align_dir),
            "--out", str(out), "--kept-definition", "copy_or_rephrase",
        ]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_update_ratio"] == 0.0
    # constant ratios have no variance, so no correlation is reported
    assert summary["correlations"]["overall"] is None


@pytest.mark.parametrize("seed", range(3))
def test_identical_versions_are_all_copies(tmp_path, seed):
    # metamorphic: a version aligned against an unchanged copy of itself
    # pairs every kept sentence with itself and revises nothing
    rng = random.Random(seed)
    vocab = rng.sample(VOCAB, 30)
    paras = [
        [random_sentence_raw(rng, 4, 8, vocab) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(2, 5))
    ]
    versions = [DocVersion.build(1, 1000, paras), DocVersion.build(2, 3000, paras)]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(serialize_corpus([build_group("2001.0002", "cs.CL", versions)]))
    align_dir, out = tmp_path / "align", tmp_path / "stats"
    assert main(["align", "--corpus", str(corpus), "--out", str(align_dir)]) == 0
    assert main(["stats", "--corpus", str(corpus), "--alignments", str(align_dir), "--out", str(out)]) == 0
    _, al = read_alignment(str(align_dir / "2001.0002.v1-v2.json"))
    assert al.pairs and all(
        (s.paragraph, s.sentence, label) == (t.paragraph, t.sentence, SentAlignLabel.ALIGNED)
        for s, t, label in al.pairs
    )
    summary = json.loads((out / "summary.json").read_text())
    counts = summary["operation_counts"]
    assert counts.pop("copying") == len(al.pairs)
    assert set(counts.values()) == {0}
    assert summary["mean_update_ratio"] == 0
    rows = (out / "update_ratios.csv").read_text().splitlines()[1:]
    assert rows == ["2001.0002,1,2,2000,0.0"]


def _several_groups(seed):
    """Corpus JSON of four random groups with distinct time deltas, one of
    them with a third version that reverses the second's paragraphs."""
    rng = random.Random(seed)
    groups = []
    for n in range(4):
        src, tgt = random_doc_pair(rng)
        group = json.loads(serialize_corpus([build_group(f"2001.{n:04d}", "cs.CL", [src, tgt])]))[0]
        group["versions"][1]["timestamp"] = 1000 + 1000 * rng.randint(1, 9)
        groups.append(group)
    second = groups[2]["versions"][1]
    groups[2]["versions"].append(
        {"version": 3, "timestamp": second["timestamp"] + 500, "paragraphs": second["paragraphs"][::-1]}
    )
    return groups


def _align_and_stats(root, groups):
    """Every align and stats output of the corpus, by relative path."""
    root.mkdir()
    corpus = root / "corpus.json"
    corpus.write_text(json.dumps(groups))
    align_dir, stats_dir = root / "align", root / "stats"
    assert main(["align", "--corpus", str(corpus), "--out", str(align_dir)]) == 0
    assert main(["stats", "--corpus", str(corpus), "--alignments", str(align_dir), "--out", str(stats_dir)]) == 0
    return {
        f"{d.name}/{f.name}": f.read_bytes() for d in (align_dir, stats_dir) for f in d.iterdir()
    }


@pytest.mark.parametrize("seed", range(3))
def test_group_order_changes_no_output(tmp_path, seed):
    # metamorphic: the order of the groups in the corpus file is not data
    groups = _several_groups(seed)
    forward = _align_and_stats(tmp_path / "forward", groups)
    assert len(forward) == 5 + 6  # five version pairs, six stats files
    assert _align_and_stats(tmp_path / "reversed", groups[::-1]) == forward


def _oracle_align_files(corpus, name):
    """What `align --metric name` should write, by file name: each version
    pair through oracles.oracle_align_pair, in dump_json's layout."""
    threshold = RunConfig(sentence_metric=name).effective_sentence_threshold()
    files = {}
    for group in load_corpus(str(corpus)):
        for src, tgt in zip(group.versions, group.versions[1:]):
            pairs = oracle_align_pair(src, tgt, name, RunConfig(), threshold)
            obj = {
                "arxiv_id": group.arxiv_id,
                "src_version": src.version_index,
                "tgt_version": tgt.version_index,
                "pairs": [
                    {"src": [s.paragraph, s.sentence], "tgt": [t.paragraph, t.sentence], "label": label}
                    for s, t, label in sorted(pairs)
                ],
            }
            name_ = f"{group.arxiv_id.replace('/', '_')}.v{src.version_index}-v{tgt.version_index}.json"
            files[name_] = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    return files


def _perfbench_gen():
    """The benchmark's input generator, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


@pytest.mark.parametrize("metric", ["jaccard", "tfidf", "char3gram", "bleu"])
@pytest.mark.parametrize("source", ["random 0", "random 1", "gen c40", "gen long_docs"])
def test_align_every_metric_writes_what_the_oracle_pipeline_does(tmp_path, metric, source):
    kind, arg = source.split()
    if kind == "random":
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(_several_groups(int(arg))))
    else:
        corpus = Path(_perfbench_gen().generate(arg, 3, "tiny", str(tmp_path / "gen")).corpus)
    out = tmp_path / "align"
    assert main(["align", "--corpus", str(corpus), "--out", str(out), "--metric", metric]) == 0
    got = {f.name: f.read_bytes() for f in out.iterdir()}
    assert got == _oracle_align_files(corpus, metric)
    assert any(b'"pairs": []' not in text for text in got.values())


def _four_versions(seed):
    """Sentence strings per paragraph of four successive versions.  Each
    later version rewrites, upper-cases or brings back from two versions
    earlier some sentences, and swaps two neighbouring paragraphs."""
    rng = random.Random(seed)
    versions = [[[s.raw for s in p.sentences] for p in v.paragraphs] for v in random_doc_pair(rng)]
    for _ in range(2):
        older = [raw for p in versions[-2] for raw in p]
        paras = [list(p) for p in versions[-1]]
        for p in paras:
            for n in range(len(p)):
                r = rng.random()
                if r < 0.2:
                    p[n] = random_sentence_raw(rng)
                elif r < 0.3:
                    p[n] = p[n].upper()  # new surfaces, the same lowercase tokens
                elif r < 0.4 and older:
                    p[n] = rng.choice(older)
        if len(paras) > 1:
            i = rng.randrange(len(paras) - 1)
            paras[i], paras[i + 1] = paras[i + 1], paras[i]
        versions.append(paras)
    return versions


def _align_files(root, versions, first=1):
    """The alignment files of one group holding `versions`, numbered from `first`."""
    root.mkdir()
    corpus = root / "corpus.json"
    corpus.write_text(json.dumps([{
        "arxiv_id": "2001.0001",
        "subject": "cs.CL",
        "versions": [
            {"version": k, "timestamp": 1000 * k, "paragraphs": [{"sentences": p} for p in paras]}
            for k, paras in enumerate(versions, first)
        ],
    }]))
    assert main(["align", "--corpus", str(corpus), "--out", str(root / "align")]) == 0
    return {f.name: f.read_bytes() for f in (root / "align").iterdir()}


@pytest.mark.parametrize("seed", range(4))
def test_a_group_aligns_as_its_version_pairs_do_alone(tmp_path, seed):
    # metamorphic: a group's pairs share one encoding of each text, and
    # that sharing changes no byte against aligning each pair alone
    versions = _four_versions(seed)
    whole = _align_files(tmp_path / "whole", versions)
    assert sorted(whole) == [f"2001.0001.v{k}-v{k + 1}.json" for k in (1, 2, 3)]
    split = {}
    for k in (1, 2, 3):
        split.update(_align_files(tmp_path / f"v{k}", versions[k - 1:k + 1], first=k))
    assert split == whole
    assert any(b'"aligned"' in data for data in whole.values())


@pytest.mark.parametrize("seed", range(3))
def test_renaming_a_group_renames_only_its_outputs(tmp_path, seed):
    # metamorphic: a new id that keeps the group's sort position changes
    # its file names, its arxiv_id fields and its update_ratios.csv id
    # cells, and nothing else
    old, new = "2001.0002", "2001.0002/b"
    groups = _several_groups(seed)
    before = _align_and_stats(tmp_path / "before", groups)
    groups[2]["arxiv_id"] = new
    after = _align_and_stats(tmp_path / "after", groups)

    want = {}
    for name, data in before.items():
        if name.startswith(f"align/{old}."):
            name = name.replace(old, "2001.0002_b", 1)
            assert data.count(b'"arxiv_id": "2001.0002"') == 1
            data = data.replace(b'"arxiv_id": "2001.0002"', b'"arxiv_id": "2001.0002/b"')
        elif name == "stats/update_ratios.csv":
            rows = [line.split(",") for line in data.decode().splitlines(keepends=True)]
            assert sum(row[0] == old for row in rows) == 2
            data = "".join(",".join([new if row[0] == old else row[0], *row[1:]]) for row in rows).encode()
        want[name] = data
    assert after == want


def test_stats_skips_the_ratio_of_an_all_skipped_source(ws, tmp_path, caplog):
    healthy = json.loads(Path(ws.corpus).read_text())[0]
    bad = json.loads(json.dumps(healthy))
    bad["arxiv_id"] = "2001.0002"
    bad["versions"][1]["paragraphs"] = [{"sentences": p} for p in DIGIT_PARAGRAPHS]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([healthy, bad]))
    align_dir, out = tmp_path / "align", tmp_path / "stats"
    assert main(["align", "--corpus", str(corpus), "--out", str(align_dir)]) == 0
    caplog.clear()
    with caplog.at_level("WARNING", logger="revkit"):
        rc = main(["stats", "--corpus", str(corpus), "--alignments", str(align_dir), "--out", str(out)])
    assert rc == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert str(align_dir / "2001.0002.v2-v3.json") in warnings[0]

    rows = (out / "update_ratios.csv").read_text().splitlines()[1:]
    # v1 -> v2 loses every source sentence; v2 -> v3 has no ratio
    assert rows == [
        "2001.0001,1,2,1000,0.25",
        "2001.0001,2,3,2000,0.5",
        "2001.0002,1,2,1000,1.0",
        "2001.0002,2,3,2000,",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pairs"] == 4
    assert summary["groups"] == 2
    assert summary["mean_update_ratio"] == pytest.approx((0.25 + 0.5 + 1.0) / 3)
    # three rated pairs of multi-version groups
    assert summary["correlations"]["multi_version"] == summary["correlations"]["overall"]
    assert summary["correlations"]["overall"] is not None
    comp = (out / "composition.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in comp] == [["0.2", "0.3"], ["0.5", "0.6"], ["0.9", "1.0"]]


def test_stats_mean_ratio_is_null_when_no_pair_has_one(ws, tmp_path, caplog):
    group = json.loads(Path(ws.corpus).read_text())[0]
    group["versions"] = group["versions"][:2]
    group["versions"][0]["paragraphs"] = [{"sentences": p} for p in DIGIT_PARAGRAPHS]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([group]))
    align_dir, out = tmp_path / "align", tmp_path / "stats"
    assert main(["align", "--corpus", str(corpus), "--out", str(align_dir)]) == 0
    assert main(["stats", "--corpus", str(corpus), "--alignments", str(align_dir), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pairs"] == 1
    assert summary["mean_update_ratio"] is None
    assert summary["operation_counts"]["insertion"] == 4
    assert (out / "update_ratios.csv").read_text().splitlines()[1:] == ["2001.0001,1,2,1000,"]
    assert (out / "composition.csv").read_text().splitlines()[1:] == []


@pytest.mark.parametrize("scale", [10**300, 10**400], ids=["1e300", "1e400"])
def test_stats_correlations_are_null_when_the_gaps_overflow_floats(ws, tmp_path, scale):
    # three two-version groups of update ratio 0.25, 0.75 and 0.5; a gap
    # near 10**400 is out of float range, and one near 10**300 is in it,
    # but its squared deviation from the mean is not
    healthy = json.loads(Path(ws.corpus).read_text())[0]
    groups = []
    for k, (old, new) in enumerate([(0, 1), (0, 2), (1, 2)]):
        group = json.loads(json.dumps(healthy))
        group["arxiv_id"] = f"2001.000{k + 1}"
        group["versions"] = [group["versions"][old], group["versions"][new]]
        for index, (version, timestamp) in enumerate(zip(group["versions"], (0, (1, 3, 2)[k] * scale)), 1):
            version.update(version=index, timestamp=timestamp)
        groups.append(group)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(groups))
    align_dir, out = tmp_path / "align", tmp_path / "stats"
    assert main(["align", "--corpus", str(corpus), "--out", str(align_dir)]) == 0
    assert main(["stats", "--corpus", str(corpus), "--alignments", str(align_dir), "--out", str(out)]) == 0
    assert (out / "update_ratios.csv").read_text().splitlines()[1:] == [
        f"2001.0001,1,2,{scale},0.25",
        f"2001.0002,1,2,{3 * scale},0.75",
        f"2001.0003,1,2,{2 * scale},0.5",
    ]
    text = (out / "summary.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text)["correlations"] == {"overall": None, "two_version": None, "multi_version": None}


def test_stats_correlations_are_null_when_every_ratio_is_equal(tmp_path):
    # three two-version groups, each rewriting seven sentences in ten,
    # share the update ratio 0.7, whose mean over three is not 0.7; the
    # correlation with their gaps of 1000, 2000 and 3000 is undefined, not
    # 0.0
    f = filler_sentence
    v1 = [[f(k) for k in range(5)], [f(k) for k in range(5, 10)]]
    v2 = [[changed(f(k), str(k)) for k in range(5)], [changed(f(5), "5"), changed(f(6), "6"), *v1[1][2:]]]
    groups = [
        build_group(f"2001.000{k}", "cs.CL", [DocVersion.build(1, 0, v1), DocVersion.build(2, 1000 * k, v2)])
        for k in (1, 2, 3)
    ]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(serialize_corpus(groups))
    align_dir, out = tmp_path / "align", tmp_path / "stats"
    assert main(["align", "--corpus", str(corpus), "--out", str(align_dir)]) == 0
    assert main(["stats", "--corpus", str(corpus), "--alignments", str(align_dir), "--out", str(out)]) == 0
    ratios = {row.split(",")[-1] for row in (out / "update_ratios.csv").read_text().splitlines()[1:]}
    assert ratios == {"0.7"}
    assert json.loads((out / "summary.json").read_text())["correlations"] == {
        "overall": None, "two_version": None, "multi_version": None,
    }


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_stats_names_the_first_bad_file_under_any_jobs(tmp_path, capsys, jobs):
    # the second and third of five files pair a sentence their versions
    # lack; under --jobs 2 the second falls to the child's share and the
    # third to the parent's, and the error names the second either way
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(_several_groups(0)))
    align_dir, out = tmp_path / "align", tmp_path / "stats"
    assert main(["align", "--corpus", str(corpus), "--out", str(align_dir)]) == 0
    names = sorted(os.listdir(align_dir))
    assert len(names) == 5
    for name in names[1:3]:
        obj = json.loads((align_dir / name).read_text())
        obj["pairs"].append({"src": [999, 0], "tgt": [0, 0], "label": "aligned"})
        (align_dir / name).write_text(json.dumps(obj))
    argv = ["stats", "--corpus", str(corpus), "--alignments", str(align_dir), "--out", str(out), "--jobs", jobs]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"revkit: error: {align_dir / names[1]}: ") and names[2] not in err
    assert not out.exists()
    _no_child_left()


def test_stats_no_alignments_exit_2(ws, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["stats", "--corpus", ws.corpus, "--alignments", str(empty), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "no alignment files" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["same file", "renamed copy"])
def test_stats_exits_2_on_a_version_pair_named_twice(ws, tmp_path, capsys, spelling):
    # the directory and one of its files, or a copy of that file under another name
    if spelling == "same file":
        second = ws.v12
    else:
        other = tmp_path / "other"
        other.mkdir()
        second = str(other / "renamed.json")
        shutil.copyfile(ws.v12, second)
    out = tmp_path / "o"
    rc = main(["stats", "--corpus", ws.corpus, "--alignments", str(ws.align_dir), second, "--out", str(out)])
    assert rc == 2
    assert f"{second}: group '2001.0001' pair v1-v2 is also in {ws.v12}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval

def test_eval_alignment_perfect(ws, capsys):
    rc = main(
        [
            "eval", "--task", "alignment",
            "--pred", ws.v12, "--gold", ws.v12, "--corpus", ws.corpus,
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    # only the rewritten pair is interesting; verbatim pairs are dropped
    assert report == {
        "task": "alignment",
        "precision": 1.0,
        "recall": 1.0,
        "f1": 1.0,
        "tp": 1,
        "fp": 0,
        "fn": 0,
    }


def test_eval_alignment_empty_prediction(ws, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"src_version": 1, "tgt_version": 2, "pairs": []}))
    rc = main(
        [
            "eval", "--task", "alignment",
            "--pred", str(empty), "--gold", ws.v12, "--corpus", ws.corpus,
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["recall"] == 0.0
    assert report["fn"] == 1


def test_eval_alignment_counts_a_pair_under_two_labels_once(ws, tmp_path, capsys):
    """A prediction may list one sentence pair under two labels; eval
    scores the pair once."""
    obj = json.loads(Path(ws.v12).read_text(encoding="utf-8"))
    obj["pairs"] += [dict(p, label=label) for p in obj["pairs"] for label in ("aligned", "partially-aligned")]
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps(obj))
    rc = main(
        [
            "eval", "--task", "alignment",
            "--pred", str(twice), "--gold", ws.v12, "--corpus", ws.corpus,
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["tp"], report["fp"], report["fn"]) == (1, 0, 0)


def test_eval_alignment_version_mismatch(ws, capsys):
    rc = main(
        [
            "eval", "--task", "alignment",
            "--pred", ws.v12, "--gold", ws.v23, "--corpus", ws.corpus,
        ]
    )
    assert rc == 2
    assert "prediction covers v1->v2, gold v2->v3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_groups(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_groups")
    corpus = root / "corpus.json"
    write_corpus(corpus, ids=("2001.0001", "2001.0002"))
    assert main(["align", "--corpus", str(corpus), "--out", str(root / "align")]) == 0
    return SimpleNamespace(
        corpus=str(corpus),
        a12=str(root / "align" / "2001.0001.v1-v2.json"),
        b12=str(root / "align" / "2001.0002.v1-v2.json"),
    )


def test_eval_alignment_across_groups_exits_2(two_groups, capsys):
    # both files cover v1->v2 and their indices fit either group
    rc = main(
        [
            "eval", "--task", "alignment", "--pred", two_groups.a12,
            "--gold", two_groups.b12, "--corpus", two_groups.corpus,
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("revkit: error: ")
    assert two_groups.a12 in err and two_groups.b12 in err


@pytest.mark.parametrize(
    "argv",
    [
        ["extract-edits", "--method", "diff", "--alignment", "{a12}", "--out", "{out}"],
        ["eval", "--task", "alignment", "--pred", "{a12}", "--gold", "{a12}"],
    ],
    ids=["extract-edits", "eval"],
)
def test_one_alignment_builds_only_its_group(two_groups, tmp_path, monkeypatch, argv):
    built = []
    build = RawGroup.build

    def counted(raw):
        built.append(raw.arxiv_id)
        return build(raw)

    monkeypatch.setattr(RawGroup, "build", counted)
    names = {"a12": two_groups.a12, "out": str(tmp_path / "edits.json")}
    argv = [arg.format(**names) for arg in argv] + ["--corpus", two_groups.corpus]
    assert main(argv) == 0
    assert built == ["2001.0001"]


def test_eval_edits_perfect_and_degraded(ws, tmp_path, capsys):
    gold = tmp_path / "gold.json"
    assert extract(ws, gold, "diff") == 0
    rc = main(["eval", "--task", "edits", "--pred", str(gold), "--gold", str(gold)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f1"] == 1.0
    assert report["exact_match_rate"] == 1.0
    assert report["pairs"] == 4

    obj = json.loads(gold.read_text())
    for rec in obj["revisions"]:
        rec["edits"] = []
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(obj))
    rc = main(["eval", "--task", "edits", "--pred", str(pred), "--gold", str(gold)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["recall"] == 0.0
    assert report["fn"] == 1
    assert report["exact_match_rate"] == 0.75


def test_eval_edits_out_file(ws, tmp_path, capsys):
    gold = tmp_path / "gold.json"
    assert extract(ws, gold, "diff") == 0
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "eval", "--task", "edits", "--pred", str(gold), "--gold", str(gold),
            "--out", str(report_path),
        ]
    )
    assert rc == 0
    assert json.loads(report_path.read_text()) == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "field,value,where,message",
    [
        ("src", [0, True], ".edits[1]", "span must be null or"),
        ("src", [0, 1, 2], ".edits[1]", "span must be null or"),
        ("src", "0-1", ".edits[1]", "span must be null or"),
        ("kind", "rewrite", ".edits[1]", "unknown kind 'rewrite'"),
        ("intention", "Guess", ".edits[1]", "unknown intention 'Guess'"),
        ("revision src", 7, "", "sentence id must be"),
        ("revision tgt", [2, 0, False], "", "sentence id must be"),
    ],
)
def test_eval_edits_malformed_edit_exits_2_naming_it(ws, tmp_path, capsys, field, value, where, message):
    gold = tmp_path / "gold.json"
    assert extract(ws, gold, "diff") == 0
    obj = json.loads(gold.read_text())
    rec = obj["revisions"][1]
    rec["edits"] = [
        {"src": [0, 1], "tgt": [0, 1], "kind": "substitute", "intention": None},
        {"src": [1, 2], "tgt": [1, 2], "kind": "substitute", "intention": None},
    ]
    if field.startswith("revision "):
        rec[field.split()[1]] = value
    else:
        rec["edits"][1][field] = value
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["eval", "--task", "edits", "--pred", str(pred), "--gold", str(gold)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"revkit: error: {pred}.revisions[1]{where}: {message}")


_WRITE_EVERY_OUTPUT = """
import sys
from revkit.cli import main
corpus, align_dir, root = sys.argv[1:]
edits = f"{root}/edits.json"
for argv in (
    ["align", "--corpus", corpus, "--out", f"{root}/align"],
    ["stats", "--corpus", corpus, "--alignments", align_dir, "--out", f"{root}/stats"],
    ["extract-edits", "--corpus", corpus, "--alignment", f"{align_dir}/2001.0001.v1-v2.json",
     "--method", "diff", "--out", edits],
    ["eval", "--task", "edits", "--pred", edits, "--gold", edits, "--out", f"{root}/eval.json"],
):
    assert main(argv) == 0, argv
"""


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_get_the_umask_s_mode(ws, tmp_path, umask, mode):
    """As a file opened for writing would; the umask is read once per
    process, so each umask runs in a process of its own."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(revkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-c", _WRITE_EVERY_OUTPUT, ws.corpus, str(ws.align_dir), str(tmp_path)],
        capture_output=True, text=True, env=env, umask=umask,
    )
    assert res.returncode == 0, res.stderr
    outputs = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert {p.relative_to(tmp_path).parts[0] for p in outputs} == {"align", "stats", "edits.json", "eval.json"}
    assert {oct(p.stat().st_mode & 0o777) for p in outputs} == {oct(mode)}


def test_a_replaced_output_keeps_its_mode(ws, tmp_path):
    """As open(path, "w") leaves an existing file, whatever the umask."""
    edits = str(tmp_path / "edits.json")
    runs = [
        ["align", "--corpus", ws.corpus, "--out", str(tmp_path / "align")],
        ["stats", "--corpus", ws.corpus, "--alignments", str(ws.align_dir), "--out", str(tmp_path / "stats")],
        ["extract-edits", "--corpus", ws.corpus, "--alignment", ws.v12, "--method", "diff", "--out", edits],
        ["eval", "--task", "edits", "--pred", edits, "--gold", edits, "--out", str(tmp_path / "eval.json")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    outputs = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert {p.relative_to(tmp_path).parts[0] for p in outputs} == {"align", "stats", "edits.json", "eval.json"}
    for p in outputs:
        p.chmod(0o640)
    for argv in runs:
        assert main(argv) == 0, argv
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sorted(outputs)
    assert {oct(p.stat().st_mode & 0o777) for p in outputs} == {oct(0o640)}


def _outputs(tmp_path, command):
    """The argv of an align or stats run over two three-version groups,
    less its --out directory."""
    corpus, aligned = tmp_path / "corpus.json", tmp_path / "aligned"
    write_corpus(corpus, ids=("2001.0001", "2001.0002"))
    assert main(["align", "--corpus", str(corpus), "--out", str(aligned)]) == 0
    if command == "align":
        return ["align", "--corpus", str(corpus), "--out"]
    return ["stats", "--corpus", str(corpus), "--alignments", str(aligned), "--out"]


def _fail_the_third_write(monkeypatch):
    write, calls = cli.atomic_write_text, []

    def failing(path, text):
        calls.append(path)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        write(path, text)

    monkeypatch.setattr(cli, "atomic_write_text", failing)


def _files(directory):
    return {p.name: (p.read_bytes(), p.stat().st_mode & 0o777) for p in directory.iterdir()}


@pytest.mark.parametrize("links", [True, False], ids=["links", "no-links"])
@pytest.mark.parametrize("command", ["align", "stats"])
def test_a_failed_write_puts_back_every_output_it_replaced(tmp_path, monkeypatch, command, links):
    argv, out = _outputs(tmp_path, command), tmp_path / "out"
    assert main(argv + [str(out)]) == 0
    for p in out.iterdir():
        p.write_text(f"old {p.name}\n")
        p.chmod(0o640)
    before = _files(out)
    assert len(before) > 3
    if not links:
        def no_link(src, dst):
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), src)
        monkeypatch.setattr(os, "link", no_link)
    _fail_the_third_write(monkeypatch)
    assert main(argv + [str(out)]) == 2
    # the old bytes and modes, and no temp file
    assert _files(out) == before


@pytest.mark.parametrize("command", ["align", "stats"])
def test_a_failed_write_into_a_new_directory_leaves_no_file(tmp_path, monkeypatch, command):
    argv, out = _outputs(tmp_path, command), tmp_path / "out"
    _fail_the_third_write(monkeypatch)
    assert main(argv + [str(out)]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["extract-edits", "eval"])
def test_write_into_missing_directory_names_the_path(ws, tmp_path, capsys, monkeypatch, command):
    gold = tmp_path / "gold.json"
    assert extract(ws, gold, "diff") == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    target = os.path.join("missing", "out.json")
    if command == "eval":
        rc = main(["eval", "--task", "edits", "--pred", str(gold), "--gold", str(gold), "--out", target])
    else:
        rc = extract(ws, target, "diff")
    captured = capsys.readouterr()
    assert rc == 2
    assert repr(target) in captured.err
    assert ".tmp-" not in captured.err
    # the report goes to stdout only once its file is written
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


def intention_gold(path):
    obj = {
        "revisions": [
            {
                "revision_id": "r1",
                "src": [1, 0, 0],
                "tgt": [2, 0, 0],
                "edits": [
                    {
                        "src": [0, 1], "tgt": [0, 1],
                        "kind": "substitute", "intention": "Grammar-Typo",
                    },
                    {
                        "src": None, "tgt": [3, 4],
                        "kind": "insert", "intention": "Update-Content",
                    },
                ],
            }
        ]
    }
    path.write_text(json.dumps(obj))
    return str(path)


def pred_line(idx, label):
    return json.dumps({"revision_id": "r1", "edit_index": idx, "label": label})


def test_eval_intention_fine(tmp_path, capsys):
    gold = intention_gold(tmp_path / "gold.json")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(pred_line(0, "Grammar-Typo") + "\n" + pred_line(1, "Update-Content") + "\n")
    rc = main(["eval", "--task", "intention", "--pred", str(pred), "--gold", gold])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "fine"
    assert report["accuracy"] == 1.0
    assert report["weighted_f1"] == 1.0
    assert report["per_class"]["Grammar-Typo"]["support"] == 1


def test_eval_intention_coarse_folds_gold(tmp_path, capsys):
    gold = intention_gold(tmp_path / "gold.json")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(pred_line(0, "Grammar-Typo") + "\n" + pred_line(1, "Update-Content") + "\n")
    rc = main(
        ["eval", "--task", "intention", "--pred", str(pred), "--gold", gold, "--classes", "coarse"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "coarse"
    assert report["accuracy"] == 1.0


def test_eval_intention_missing_prediction(tmp_path, capsys):
    gold = intention_gold(tmp_path / "gold.json")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(pred_line(0, "Grammar-Typo") + "\n")
    rc = main(["eval", "--task", "intention", "--pred", str(pred), "--gold", gold])
    assert rc == 2
    assert "missing predictions for [('r1', 1)]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed input files and removed flags

LATIN1 = "caf\u00e9 1-1\n".encode("latin-1")
COMPAT = '[{"id": "x", "versions": [{"version": %s, "paragraphs": []}]}]'
ALIGN = ["align", "--out", "{out}", "--corpus"]
EXTRACT = ["extract-edits", "--corpus", "{corpus}", "--out", "{out}", "--alignment"]
SIMPLE = [*EXTRACT, "{v12}", "--method", "simple", "--word-alignments"]
PARSE = [*EXTRACT, "{v12}", "--method", "parse", "--word-alignments", "{wa}", "--trees-src"]
EVAL_EDITS = ["eval", "--task", "edits", "--pred", "{bad}", "--gold", "{gold}"]
EVAL_ALIGNMENT = [
    "eval", "--task", "alignment", "--pred", "{bad}", "--gold", "{v12}", "--corpus", "{corpus}",
]
EVAL_GOLD = ["eval", "--task", "alignment", "--pred", "{v12}", "--gold", "{bad}", "--corpus", "{corpus}"]
EVAL_BOTH = ["eval", "--task", "alignment", "--pred", "{bad}", "--gold", "{bad}", "--corpus", "{corpus}"]
STATS = ["stats", "--corpus", "{corpus}", "--out", "{out}", "--alignments"]
INTENTION = ["eval", "--task", "intention", "--pred", "{bad}", "--gold", "{gold}"]
# the corpus group has versions 1-3
NO_SUCH_VERSIONS = b'{"src_version": 7, "tgt_version": 8, "pairs": []}'
# each of their two paragraphs has two sentences
NO_SUCH_SENTENCE = (
    b'{"src_version": 1, "tgt_version": 2, "pairs": [{"src": [0, 5], "tgt": [0, 0], "label": "aligned"}]}'
)
DEEP = b"[" * 100_000
LONG_INT = b"9" * 5000
DEEP_TREE = b"(X " * 2000 + b"a" + b")" * 2000


@pytest.mark.parametrize(
    "content, argv",
    [
        pytest.param((COMPAT % "0").encode(), [*ALIGN, "{bad}", "--compat"], id="compat v0"),
        pytest.param((COMPAT % '"v\u00b2"').encode(), [*ALIGN, "{bad}", "--compat"],
                     id="compat superscript"),
        pytest.param(LATIN1, [*ALIGN, "{bad}"], id="corpus"),
        pytest.param(LATIN1, [*EXTRACT, "{bad}", "--method", "diff"], id="alignment"),
        pytest.param(LATIN1, [*SIMPLE, "{bad}"], id="pharaoh"),
        pytest.param("0\u00b2-0\n0-0\n0-0\n0-0\n".encode(), [*SIMPLE, "{bad}"],
                     id="pharaoh superscript"),
        pytest.param(("1" * 5000 + "-0\n0-0\n0-0\n0-0\n").encode(), [*SIMPLE, "{bad}"],
                     id="pharaoh long index"),
        pytest.param(LATIN1, [*PARSE, "{bad}", "--trees-tgt", "{bad}"], id="tree"),
        pytest.param(LATIN1, EVAL_EDITS, id="edits"),
        pytest.param(DEEP, EVAL_EDITS, id="edits deep nesting"),
        pytest.param(b'{"revisions": [], "n": ' + LONG_INT + b"}", EVAL_EDITS,
                     id="edits long integer"),
        pytest.param(DEEP, EVAL_ALIGNMENT, id="alignment deep nesting"),
        pytest.param(b'{"src_version": ' + LONG_INT + b"}", EVAL_ALIGNMENT,
                     id="alignment long integer"),
        pytest.param(NO_SUCH_VERSIONS, [*EXTRACT, "{bad}", "--method", "diff"],
                     id="alignment missing versions"),
        pytest.param(NO_SUCH_VERSIONS, [*STATS, "{bad}"], id="stats missing versions"),
        pytest.param(NO_SUCH_SENTENCE, [*STATS, "{bad}"], id="stats missing sentence"),
        pytest.param(NO_SUCH_VERSIONS, EVAL_ALIGNMENT, id="eval pred missing versions"),
        pytest.param(NO_SUCH_VERSIONS, EVAL_GOLD, id="eval gold missing versions"),
        pytest.param(NO_SUCH_VERSIONS, EVAL_BOTH, id="eval pred and gold missing versions"),
        pytest.param(b'{"src_version": 1.9, "tgt_version": true, "pairs": []}', EVAL_BOTH,
                     id="eval non-integer versions"),
        pytest.param(LATIN1, INTENTION, id="predictions"),
        pytest.param(b"5\nnull\n", INTENTION, id="predictions not objects"),
        pytest.param(b'"revision_id edit_index label"\n', INTENTION, id="predictions string"),
        pytest.param(LONG_INT, INTENTION, id="predictions long integer"),
        pytest.param(DEEP, INTENTION, id="predictions deep nesting"),
        pytest.param(DEEP_TREE, [*PARSE, "{bad}", "--trees-tgt", "{bad}"], id="tree deep nesting"),
        pytest.param(LATIN1, [*ALIGN, "{corpus}", "--config", "{bad}"], id="config"),
    ],
)
def test_malformed_input_exits_2_naming_the_file(ws, tmp_path, capsys, content, argv):
    bad = tmp_path / "bad.in"
    bad.write_bytes(content)
    names = {
        "bad": str(bad),
        "out": str(tmp_path / "out"),
        "corpus": ws.corpus,
        "v12": ws.v12,
        "wa": wa_lines(ws, tmp_path / "wa.txt"),
        "gold": intention_gold(tmp_path / "gold.json"),
    }
    assert main([arg.format(**names) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("revkit: error: ")
    assert str(bad) in err


# ---------------------------------------------------------------------------
# fuzzed reader input: any bytes, and any JSON built from a reader's keys,
# exit 0 or 2, never 1

_junk = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=3), st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)


def _mostly(valid):
    """`valid` three draws in four, otherwise any JSON value."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else _junk)


# the corpus group has versions 1-3, each of two paragraphs of two sentences
_sentence_ids = _mostly(st.lists(st.integers(0, 1), min_size=2, max_size=2))
_labels = _mostly(st.sampled_from(["aligned", "partial", "Not_Aligned"]))
_align_pairs = _mostly(st.fixed_dictionaries(
    {"src": _sentence_ids, "tgt": _sentence_ids, "label": _labels},
    optional={
        **dict.fromkeys(("source", "src_sentence", "target", "tgt_sentence"), _sentence_ids),
        "type": _labels,
    },
))
_versions = _mostly(st.integers(1, 3))
_alignment_docs = _mostly(st.fixed_dictionaries(
    {"src_version": _versions, "tgt_version": _versions, "pairs": st.lists(_align_pairs, max_size=3)},
    optional={
        "source_version": _versions,
        "target_version": _versions,
        **dict.fromkeys(("alignments", "sentence_pairs"), _mostly(st.lists(_align_pairs, max_size=3))),
        **dict.fromkeys(("arxiv_id", "paper_id"), _mostly(st.sampled_from(["2001.0001", "9999.9999"]))),
    },
))
_spans = _mostly(st.none() | st.lists(st.integers(0, 7), min_size=2, max_size=2).map(sorted))
_edits = _mostly(st.fixed_dictionaries(
    {"kind": _mostly(st.sampled_from(["insert", "delete", "substitute", "reorder"]))},
    optional={
        "src": _spans,
        "tgt": _spans,
        "intention": _mostly(st.sampled_from(FINE_LABELS + COARSE_LABELS)),
    },
))
_edit_lists = _mostly(st.lists(_edits, max_size=3))
_revisions = _mostly(st.fixed_dictionaries(
    {"revision_id": _mostly(st.sampled_from(["r1", "r2"])), "edits": _edit_lists},
    optional={"src": _sentence_ids, "tgt": _sentence_ids, "alternatives": _mostly(st.lists(_edit_lists, max_size=2))},
))
_edit_docs = _mostly(st.fixed_dictionaries({"revisions": _mostly(st.lists(_revisions, max_size=3))}))
_predictions = _mostly(st.fixed_dictionaries({
    "revision_id": _mostly(st.just("r1")),
    "edit_index": _mostly(st.integers(0, 2)),
    "label": _mostly(st.sampled_from(FINE_LABELS + COARSE_LABELS)),
}))
_pharaoh_lines = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=8).map(
    lambda links: " ".join(f"{i}-{j}" for i, j in links)
) | st.text("0123456789- ", max_size=10)


@st.composite
def _trees_over(draw, words):
    """A random bracketing of exactly `words`."""
    if len(words) == 1 and draw(st.booleans()):
        return words[0]
    if len(words) == 1:
        return f"(T {words[0]})"
    cut = draw(st.integers(1, len(words) - 1))
    return f"(N {draw(_trees_over(words[:cut]))} {draw(_trees_over(words[cut:]))})"


_tree_lines = _trees_over(filler_sentence(1).split()) | st.text("()Xab \t", max_size=16)


def _lines(strategy, min_size=0, max_size=4):
    return st.lists(strategy, min_size=min_size, max_size=max_size).map(
        lambda ls: "\n".join(ls).encode()
    )


def _json_bytes(strategy):
    return strategy.map(lambda obj: json.dumps(obj).encode())


@pytest.fixture(scope="module")
def fuzz(ws):
    root = ws.root / "fuzz"
    root.mkdir()
    trees = root / "trees"
    trees.write_text("\n(S " + changed(filler_sentence(1), "a") + ")\n\n\n")
    empty = root / "empty"
    empty.write_text("")
    preds = root / "pred.jsonl"
    preds.write_text(pred_line(0, "Grammar-Typo") + "\n" + pred_line(1, "Update-Content") + "\n")
    return {
        "bad": str(root / "bad.in"),
        "out": str(root / "out.json"),
        "corpus": ws.corpus,
        "v12": ws.v12,
        "wa": wa_lines(ws, root / "wa.txt"),
        "gold": intention_gold(root / "gold.json"),
        "preds": str(preds),
        "empty": str(empty),
        "trees": str(trees),
    }


def _run(argv):
    """main's exit status and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def _exits_0_or_2(names, content, *argvs):
    with open(names["bad"], "wb") as fh:
        fh.write(content)
    for argv in argvs:
        rc, err = _run([arg.format(**names) for arg in argv])
        assert rc in (0, 2), err


_FUZZ = settings(max_examples=150, deadline=None)


@_FUZZ
@example(DEEP)
@example(b'{"src_version": Infinity, "tgt_version": 2, "pairs": []}')
@given(st.binary(max_size=64) | _json_bytes(_alignment_docs))
def test_fuzz_alignment_reader(fuzz, content):
    _exits_0_or_2(fuzz, content, [*EXTRACT, "{bad}", "--method", "diff"], EVAL_ALIGNMENT, EVAL_GOLD)


@_FUZZ
@example(DEEP)
@example(b'{"revisions": [{"revision_id": "r1", "edits": [{"kind": []}]}]}')
@example(b'{"revisions": [{"revision_id": "r1", "alternatives": [5]}]}')
@example(b'{"revisions": []}')
@given(st.binary(max_size=64) | _json_bytes(_edit_docs))
def test_fuzz_edit_reader(fuzz, content):
    _exits_0_or_2(
        fuzz, content,
        EVAL_EDITS,
        ["eval", "--task", "edits", "--pred", "{gold}", "--gold", "{bad}"],
        ["eval", "--task", "edits", "--pred", "{bad}", "--gold", "{bad}"],
        ["eval", "--task", "intention", "--pred", "{preds}", "--gold", "{bad}"],
        ["eval", "--task", "intention", "--pred", "{preds}", "--gold", "{bad}", "--classes", "coarse"],
        ["eval", "--task", "intention", "--pred", "{empty}", "--gold", "{bad}"],
    )


# four lines: one per aligned pair of the v1-v2 alignment
@_FUZZ
@given(st.binary(max_size=64) | _lines(_pharaoh_lines, 4, 4))
def test_fuzz_pharaoh_reader(fuzz, content):
    _exits_0_or_2(
        fuzz, content,
        [*SIMPLE, "{bad}"],
        [*EXTRACT, "{v12}", "--method", "parse", "--word-alignments", "{bad}",
         "--trees-src", "{trees}", "--trees-tgt", "{trees}"],
    )


@_FUZZ
@example(DEEP_TREE)
@given(st.binary(max_size=64) | _lines(_tree_lines, 4, 4))
def test_fuzz_tree_reader(fuzz, content):
    _exits_0_or_2(fuzz, content, [*PARSE, "{bad}", "--trees-tgt", "{trees}"])


@_FUZZ
@example(b"5\nnull\n")
@example(b'"revision_id edit_index label"\n')
@example(LONG_INT)
@example(DEEP)
@given(st.binary(max_size=64) | _lines(_predictions.map(json.dumps)))
def test_fuzz_prediction_reader(fuzz, content):
    _exits_0_or_2(fuzz, content, INTENTION, [*INTENTION, "--classes", "coarse"])


def _corpus_texts(**kwargs):
    return st.text(**kwargs) | st.sampled_from(["", ".", "..", "/", "a/b", "\x00", "\ud800", "\udc80"])


# a corpus with an empty id is not valid
_corpus_ids = (_corpus_texts(max_size=8) | _corpus_texts(max_size=3).map(lambda t: (t * 300)[:300])).filter(bool)
_corpus_sentences = _corpus_texts(max_size=30) | st.sampled_from([filler_sentence(k) for k in range(4)])
_corpus_versions = st.lists(
    st.lists(st.lists(_corpus_sentences, max_size=4).map(lambda s: {"sentences": s}), max_size=3),
    min_size=1, max_size=3,
).map(lambda vs: [{"version": n, "timestamp": 10 * n, "paragraphs": p} for n, p in enumerate(vs, 1)])
_corpora = st.lists(
    st.fixed_dictionaries({"arxiv_id": _corpus_ids, "subject": _corpus_texts(), "versions": _corpus_versions}),
    min_size=1, max_size=3, unique_by=lambda g: g["arxiv_id"],
)


def _surrogate_corpus(arxiv_id):
    f = filler_sentence
    paras = [{"sentences": [f(0), f(1)]}, {"sentences": [f(2)]}]
    versions = [{"version": n, "timestamp": n, "paragraphs": paras} for n in (1, 2)]
    return [{"arxiv_id": arxiv_id, "subject": "\ud800", "versions": versions}]


@settings(max_examples=40, deadline=None)
@example(_surrogate_corpus("a\ud800b"))
@example(_surrogate_corpus("a\udc80b"))
@given(_corpora)
def test_fuzz_corpus_through_every_command(tmp_path_factory, groups):
    """A valid corpus of any ids, subjects and sentences exits 0 or 2
    through align under every metric, then stats and extract-edits on
    what align wrote, and a command that exits 2 leaves no file."""
    root = tmp_path_factory.mktemp("corpus_fuzz")
    corpus = root / "corpus.json"
    corpus.write_text(json.dumps(groups))
    for metric in ("jaccard", "tfidf", "char3gram", "bleu"):
        align = root / metric
        rc, err = _run(["align", "--corpus", str(corpus), "--out", str(align), "--metric", metric, "--jobs", "1"])
        assert rc in (0, 2), err
        if rc == 2:
            assert not align.exists() or not any(align.iterdir()), err
            continue
        stats = root / f"{metric}_stats"
        rc, err = _run(["stats", "--corpus", str(corpus), "--alignments", str(align), "--out", str(stats)])
        assert rc in (0, 2), err
        assert rc == 0 or not stats.exists() or not any(stats.iterdir()), err
        for n, path in enumerate(sorted(align.iterdir())):
            edits = root / f"{metric}_edits_{n}.json"
            rc, err = _run(["extract-edits", "--corpus", str(corpus), "--alignment", str(path),
                            "--method", "diff", "--out", str(edits)])
            assert rc in (0, 2), err
            assert rc == 0 or not edits.exists(), err
    shutil.rmtree(root)


@pytest.mark.parametrize(
    "argv",
    [
        ["extract-edits", "--corpus", "c", "--alignment", "a", "--out", "o", "--jobs", "2"],
        ["eval", "--task", "edits", "--pred", "p", "--gold", "g", "--jobs", "2"],
        ["eval", "--task", "edits", "--pred", "p", "--gold", "g", "--config", "/nonexistent"],
    ],
)
def test_unused_flags_are_rejected(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# process-level behavior

def revkit_binary() -> list[str]:
    """The installed console script, or the module entry point when the
    package is only importable (not installed)."""
    path = shutil.which("revkit")
    return [path] if path else [sys.executable, "-m", "revkit"]


def test_console_script_logging(ws, tmp_path):
    out = tmp_path / "out"
    # the child imports the same revkit package as this test
    src = os.path.dirname(os.path.dirname(os.path.abspath(revkit.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, REVKIT_LOG="INFO", PYTHONPATH=pythonpath)
    res = subprocess.run(
        [*revkit_binary(), "align", "--corpus", ws.corpus, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0
    assert "wrote" in res.stderr

    # not a name in logging, and a name in logging that is not a level
    for value in ("NOISY", "BASIC_FORMAT"):
        env["REVKIT_LOG"] = value
        res = subprocess.run(
            [*revkit_binary(), "align", "--corpus", ws.corpus, "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0
        assert f"ignoring invalid REVKIT_LOG value '{value}'" in res.stderr


@pytest.mark.parametrize("module", ["revkit", "revkit.cli"])
def test_module_entry_points_run_main(module, tmp_path):
    """`python -m revkit` and `python -m revkit.cli` both run main: a
    missing corpus exits 2 with revkit's error line and writes nothing."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(revkit.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    res = subprocess.run(
        [sys.executable, "-m", module, "align", "--corpus", str(tmp_path / "none.json"), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert res.returncode == 2
    assert res.stderr.startswith("revkit: error: ")
    assert not out.exists()


def test_usage_error_exits_nonzero(capsys):
    rc = main(["align"])  # missing required flags
    assert rc == 2
    capsys.readouterr()
