"""One benchmark step in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``mode`` ("cli", "import", "payload" or "intention"),
``argv``, ``reference`` (run the reference job right after the command),
``t_spawn`` (run.py's CLOCK_MONOTONIC reading just before
it started this process), ``trace``, ``src`` (the source tree revkit
must be imported from) and ``result`` (where to write the result JSON).

Set-up time runs from ``t_spawn`` to the end of ``import revkit.cli``.
Peak RSS is the larger of this process's and its waited-for children's
(the ``--jobs`` pool workers).
"""
import sys
import time

import revkit.cli

T_IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _payload_mb(corpus: str) -> float:
    """Pickled size of the (group, config) payloads `align --jobs 2` ships."""
    from revkit.config import RunConfig
    from revkit.corpus import load_corpus

    cfg = RunConfig(jobs=2)
    return sum(len(pickle.dumps((g, cfg))) for g in load_corpus(corpus)) / 2**20


def _classify_simple_edits(corpus: str, edit_file: str) -> int:
    """Run the rule-based intention classifier over every extracted edit.
    No CLI command reaches it yet, so the benchmark calls the library."""
    from revkit import intention
    from revkit.corpus import SentenceId, load_corpus
    from revkit.formats import read_edit_file

    (group,) = load_corpus(corpus)
    labelled = 0
    for entry in read_edit_file(edit_file):
        src = group.version(entry.src_id[0]).sentence(SentenceId(*entry.src_id))
        tgt = group.version(entry.tgt_id[0]).sentence(SentenceId(*entry.tgt_id))
        for edit in entry.edits:
            intention.classify_edit_rule(edit, src, tgt)
            labelled += 1
    return labelled


def _reference() -> float:
    """Fixed work independent of revkit, mixing the kinds of work the
    pipeline does: JSON decoding, string splitting, set building and
    overlap, sorting, and a single-threaded dense matrix product.  Its
    time tracks the speed of the host around the command it follows.
    Returns the time it took."""
    import random
    import string

    import numpy as np

    rng = random.Random(0)
    words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 10))) for _ in range(2000)]
    text = json.dumps([[" ".join(rng.choices(words, k=20)) for _ in range(6)] for _ in range(400)])
    a = np.random.default_rng(0).random((200, 2000))
    t0 = time.perf_counter()
    for _ in range(3):
        sets = [frozenset(s.lower().split()) for para in json.loads(text) for s in para]
        overlap = sum(len(x & y) / len(x | y) for x, y in zip(sets, sets[1:] + sets[:1]))
        sorted(s for para in json.loads(text) for s in para)
    np.dot(a, a.T).sum() + overlap
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(revkit.cli.__file__).startswith(src + os.sep):
        print(f"revkit imported from {revkit.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    out = {"setup_s": T_IMPORTED - spec["t_spawn"]}
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        root = tracer.open("cli.command")
    mode = spec["mode"]
    t0 = time.perf_counter()
    rc = 0
    if mode == "cli":
        rc = revkit.cli.main(spec["argv"])
    elif mode == "payload":
        out["payload_mb"] = _payload_mb(spec["argv"][0])
    elif mode == "intention":
        out["labelled"] = _classify_simple_edits(*spec["argv"])
    out["cmd_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        out["spans"] = tracer.dump()
    out["rc"] = rc
    out["rss_mb"] = _peak_rss_mb()
    if spec["reference"]:
        out["reference_s"] = _reference()  # after the peak RSS is read
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
