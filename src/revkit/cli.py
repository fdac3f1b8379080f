"""Command line entry point.

Four commands: align produces sentence-alignment files for every
adjacent version pair of a corpus, extract-edits turns one alignment
plus word alignments (and optionally trees) into an edit file, stats
aggregates document-level revision statistics, and eval scores
predictions for the alignment, edit and intention tasks.

All outputs are written atomically and are byte-identical across reruns
on the same inputs.  REVKIT_LOG sets the logging level.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import pickle
import signal
import sys
import traceback
from collections import Counter, deque
from typing import BinaryIO, Callable, Iterable, NoReturn, Sequence, TypeVar

from .config import EDIT_METHODS, RunConfig, load_config
from .corpus import ArticleGroup, DocVersion, RawGroup, load_corpus, read_corpus
from .doc_ops import (
    KEPT_DEFINITIONS,
    DocOpKind,
    action_composition_by_ratio,
    count_operations,
    doc_operations,
    pearson,
    position_histogram,
    relative_positions,
    update_ratio,
)
from .edits import (
    SentenceRevision,
    WordAlignment,
    derive_reorder,
    edits_from_alignment_simple,
    edits_from_diff,
    edits_with_parse,
)
from .errors import AlignmentFormatError, CorpusFormatError, FormatError, RevkitError, open_text
from .formats import (
    EditFileEntry,
    alignment_to_json,
    atomic_write_text,
    dump_json,
    format_csv,
    read_alignment,
    read_edit_file,
    read_pharaoh_file,
    read_tree_file,
    write_edit_file,
)
from .intention import ingest_predictions, parse_label
from .metrics import eval_alignment, eval_classification, eval_edits_corpus
from .para_align import CandidateCells, EncodedVersion, align_paragraphs, encode_versions
from .sent_align import SentenceAlignment, align_sentences_directional, merge_bidirectional
from .similarity import METRIC_NAMES, make_metric

log = logging.getLogger("revkit")


def _setup_logging() -> None:
    name = os.environ.get("REVKIT_LOG", "").strip().upper()
    level = getattr(logging, name, None) if name else logging.WARNING
    valid = isinstance(level, int)
    logging.basicConfig(level=level if valid else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if not valid:
        log.warning("ignoring invalid REVKIT_LOG value %r", name)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return load_config(getattr(args, "config", None), overrides)


def _map_jobs(fn: Callable, items: Sequence, jobs: int) -> list:
    """[fn(item) for item in items] over `jobs` processes.  Share k is
    items[k::jobs]: the parent maps share 0 itself and forks one child
    for each other share, which inherits the items and pickles back
    only its results.  Share k starts on the k-th allowed CPU (see
    _start_on_cpu).  A child's exception is re-raised here with its
    type and message; a child that dies without its results raises
    RevkitError.  No child outlives the call."""
    jobs = min(jobs, len(items))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    sys.stdout.flush()  # a child must not inherit unwritten output
    sys.stderr.flush()
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe
    try:
        for k in range(1, jobs):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_share(fn, items[k::jobs], w, k, cpus)
            os.close(w)
            children[pid] = os.fdopen(r, "rb")
        _start_on_cpu(0, cpus)
        shares = [[fn(item) for item in items[0::jobs]]]
        for pid, fh in list(children.items()):
            with fh:
                message = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            shares.append(_share_result(pid, status, message))
    finally:
        for pid, fh in children.items():  # only on an error: stop and reap the rest
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    out: list = [None] * len(items)
    for k, share in enumerate(shares):
        out[k::jobs] = share
    return out


def _start_on_cpu(k: int, cpus: set[int]) -> None:
    """Move this process onto the k-th of `cpus` (round-robin), then allow
    it all of `cpus` again.  A forked child would otherwise stay on its
    parent's CPU for the whole of a short run; after this one move, the
    scheduler may still move it.  Nothing moves with fewer than two
    CPUs, and a refused move is ignored."""
    if len(cpus) < 2:
        return
    try:
        os.sched_setaffinity(0, {sorted(cpus)[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _run_share(fn: Callable, share: Sequence, w: int, k: int, cpus: set[int]) -> NoReturn:
    """A forked child's whole life: start on its CPU, map its share,
    pickle ("ok", results) or ("err", exception, traceback text) to the
    pipe `w`, and exit."""
    status = 1
    try:
        try:
            _start_on_cpu(k, cpus)
            message = ("ok", [fn(item) for item in share])
        except BaseException as exc:
            message = ("err", exc, traceback.format_exc())
        with os.fdopen(w, "wb") as fh:
            pickle.dump(message, fh)
        status = 0
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(status)


def _share_result(pid: int, status: int, message: bytes) -> list:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise RevkitError(f"worker process {pid} was killed by {signal.Signals(-code).name}")
    if code != 0:  # it exits 0 only once its whole message is written
        raise RevkitError(f"worker process {pid} exited with status {code} without its results")
    kind, *body = pickle.loads(message)
    if kind == "ok":
        return body[0]
    exc, tb = body
    if isinstance(exc, (RevkitError, OSError)):
        raise exc
    raise exc from RuntimeError(f"in worker process {pid}:\n{tb}")


G = TypeVar("G", ArticleGroup, RawGroup)


def _groups_by_id(groups: Iterable[G]) -> dict[str, G]:
    return {g.arxiv_id: g for g in groups}


def _find_group(groups: dict[str, G], arxiv_id: str | None, where: str) -> G:
    if arxiv_id is None:
        if len(groups) == 1:
            return next(iter(groups.values()))
        raise AlignmentFormatError(
            f"{where}: no arxiv_id in file and the corpus has {len(groups)} groups"
        )
    if arxiv_id not in groups:
        raise AlignmentFormatError(f"{where}: group {arxiv_id!r} not in the corpus")
    return groups[arxiv_id]


def _pair_documents(
    group: ArticleGroup, alignment: SentenceAlignment, where: str
) -> tuple[DocVersion, DocVersion]:
    """The two versions the alignment file `where` names, with every
    sentence it pairs checked to exist in them."""
    try:
        src = group.version(alignment.src_version)
        tgt = group.version(alignment.tgt_version)
        alignment.validate_against(src, tgt)
    except ValueError as exc:
        raise AlignmentFormatError(f"{where}: {exc}") from exc
    return src, tgt


def _pair_filename(arxiv_id: str, src_v: int, tgt_v: int) -> str:
    return f"{arxiv_id.replace('/', '_')}.v{src_v}-v{tgt_v}.json"


def _write_outputs(out_dir: str, files: Iterable[tuple[str, str]]) -> None:
    """Write each (name, text) atomically into out_dir; on any failure,
    unlink every file this call wrote before re-raising."""
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    try:
        for name, text in files:
            path = os.path.join(out_dir, name)
            atomic_write_text(path, text)
            written.append(path)
            log.info("wrote %s", path)
    except BaseException:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise


# ---------------------------------------------------------------------------
# align

def _align_pair(
    src: DocVersion, tgt: DocVersion, cfg: RunConfig, encodings: tuple[EncodedVersion, EncodedVersion]
):
    cells = CandidateCells(align_paragraphs(src, tgt, cfg, encodings), encodings, make_metric(cfg.sentence_metric))
    thr = cfg.effective_sentence_threshold()
    fwd = align_sentences_directional(cells, src, tgt, thr)
    bwd = align_sentences_directional(cells, tgt, src, thr)
    return merge_bidirectional(fwd, bwd)


def _align_group(payload: tuple[RawGroup, RunConfig]) -> list[tuple[str, str]]:
    raw, cfg = payload
    group = raw.build()
    # one encoding of each distinct text, and one layout of each version, for all the group's pairs;
    # a layout, with the tf-idf tally its pairs cache on it, goes once its second pair is done
    encoded = deque(encode_versions(group.versions))
    for e in encoded:
        if e.others and not e.sentences:
            log.warning(
                "group %s version %d: the skip filters dropped all %d sentences",
                group.arxiv_id, e.doc.version_index, len(e.others),
            )
    out = []
    while len(encoded) > 1:
        a, b = encoded.popleft(), encoded[0]
        src, tgt = a.doc, b.doc
        merged = _align_pair(src, tgt, cfg, (a, b))
        name = _pair_filename(group.arxiv_id, src.version_index, tgt.version_index)
        out.append((name, alignment_to_json(merged, group.arxiv_id)))
    return out


def _name_max(out: str) -> int:
    """The longest file name, in bytes, that the directory `out` takes:
    255, the limit common to Linux file systems, until it exists."""
    try:
        limit = os.pathconf(out, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):  # no pathconf, no `out`, or no such name here
        return 255
    return limit if limit > 0 else sys.maxsize  # -1: no limit


def _check_pair_filenames(groups: Sequence[RawGroup], where: str, out: str) -> None:
    """Ids differing only in '/' against '_' must not write one file, and
    every file name must be one the file system encoding can hold,
    without a null character, and no longer than `out` takes."""
    name_max = _name_max(out)
    owner: dict[str, str] = {}
    for g in groups:
        for (a, _, _), (b, _, _) in zip(g.versions, g.versions[1:]):
            name = _pair_filename(g.arxiv_id, a, b)
            if "\x00" in name:
                raise CorpusFormatError(f"{where}: group {g.arxiv_id!r}: a file name cannot hold '\\x00'")
            try:
                size = len(os.fsencode(name))
            except UnicodeEncodeError as exc:
                raise CorpusFormatError(f"{where}: group {g.arxiv_id!r}: cannot name a file: {exc}") from None
            if size > name_max:
                raise CorpusFormatError(
                    f"{where}: group {g.arxiv_id!r}: a file name of {size} bytes is over the limit of {name_max}"
                )
            other = owner.setdefault(name, g.arxiv_id)
            if other != g.arxiv_id:
                raise CorpusFormatError(
                    f"{where}: groups {other!r} and {g.arxiv_id!r} would both write {name}"
                )


def cmd_align(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    # validate the whole file here; each group is built where it is aligned
    groups = read_corpus(args.corpus, compat=args.compat)
    _check_pair_filenames(groups, args.corpus, args.out)
    results = _map_jobs(_align_group, [(g, cfg) for g in groups], cfg.jobs)
    _write_outputs(args.out, [f for files in results for f in files])
    return 0


# ---------------------------------------------------------------------------
# extract-edits

def cmd_extract_edits(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    groups = _groups_by_id(read_corpus(args.corpus, compat=args.compat))
    arxiv_id, alignment = read_alignment(args.alignment)
    group = _find_group(groups, arxiv_id, args.alignment).build()
    src, tgt = _pair_documents(group, alignment, args.alignment)
    pairs = alignment.sorted_positive()
    for (s, t, a), (s2, t2, b) in zip(pairs, pairs[1:]):
        if (s, t) == (s2, t2):  # two revisions would share one revision_id
            labels = " and ".join(sorted((a.value, b.value)))
            raise AlignmentFormatError(f"{args.alignment}: pair {s} -> {t} listed as {labels}")

    was: list[WordAlignment] | None = None
    trees_src = trees_tgt = None
    if cfg.method in ("simple", "parse"):
        if args.word_alignments is None:
            raise FormatError(f"method {cfg.method} needs --word-alignments")
        was = read_pharaoh_file(args.word_alignments)
        if len(was) != len(pairs):
            raise FormatError(
                f"{args.word_alignments}: {len(was)} lines for {len(pairs)} aligned pairs"
            )
    if cfg.method == "parse":
        if args.trees_src is None or args.trees_tgt is None:
            raise FormatError("method parse needs --trees-src and --trees-tgt")
        trees_src = read_tree_file(args.trees_src)
        trees_tgt = read_tree_file(args.trees_tgt)
        for path, trees in ((args.trees_src, trees_src), (args.trees_tgt, trees_tgt)):
            if len(trees) != len(pairs):
                raise FormatError(f"{path}: {len(trees)} lines for {len(pairs)} aligned pairs")

    entries: list[EditFileEntry] = []
    for n, (s_id, t_id, _) in enumerate(pairs):
        s = src.sentence(s_id)
        t = tgt.sentence(t_id)
        try:
            if s.tokens == t.tokens:
                edits = set()  # identical pair: its input line is consumed, no edits
            elif cfg.method == "diff":
                edits = edits_from_diff(s, t)
            elif cfg.method == "simple":
                assert was is not None
                edits = edits_from_alignment_simple(s, t, was[n])
                edits |= derive_reorder(edits, was[n], s, t)
            else:
                assert was is not None and trees_src is not None and trees_tgt is not None
                if trees_src[n] is None or trees_tgt[n] is None:
                    raise FormatError(f"pair {n + 1} needs trees on both sides")
                edits = edits_with_parse(s, t, was[n], trees_src[n], trees_tgt[n], cfg.max_level)
                edits |= derive_reorder(edits, was[n], s, t)
        except ValueError as exc:
            raise FormatError(f"pair {n + 1} ({s_id} -> {t_id}): {exc}") from exc
        rev = SentenceRevision(s, t, tuple(edits))  # validates and sorts the edits
        entries.append(EditFileEntry(rev.revision_id, s_id, t_id, rev.edits))
    write_edit_file(args.out, entries)
    log.info("wrote %s (%d revisions)", args.out, len(entries))
    return 0


# ---------------------------------------------------------------------------
# stats

_POSITION_FILES = {
    DocOpKind.INSERTION: "positions_inserted.csv",
    DocOpKind.DELETION: "positions_deleted.csv",
    DocOpKind.REPHRASING: "positions_revised.csv",
}


def _alignment_paths(raw: Sequence[str]) -> list[str]:
    paths: list[str] = []
    for item in raw:
        if os.path.isdir(item):
            paths.extend(
                os.path.join(item, name)
                for name in sorted(os.listdir(item))
                if name.endswith(".json")
            )
        else:
            paths.append(item)
    if not paths:
        raise RevkitError("no alignment files found")
    return paths


def _stats_for_file(payload) -> dict:
    path, group, alignment, src, tgt, cfg = payload
    ops = doc_operations(src, tgt, alignment)
    ratio = update_ratio(ops, src, cfg.kept_definition)
    if ratio is None:
        log.warning(
            "%s: version %d has no alignable sentences; the pair has no update ratio",
            path, src.version_index,
        )
    return {
        "arxiv_id": group.arxiv_id,
        "src_version": src.version_index,
        "tgt_version": tgt.version_index,
        "versions_in_group": len(group.versions),
        "time_delta": tgt.timestamp - src.timestamp,
        "ratio": ratio,
        "counts": count_operations(ops),
        "positions": relative_positions(ops, src, tgt),
    }


def _correlation(rows: list[dict]) -> float | None:
    if len(rows) < 2:
        return None
    try:
        return pearson([r["ratio"] for r in rows], [float(r["time_delta"]) for r in rows])
    except ValueError:
        return None


def cmd_stats(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    groups = _groups_by_id(load_corpus(args.corpus, compat=args.compat))
    paths = _alignment_paths(args.alignments)
    payloads = []
    # each version pair counts once, whatever files or spellings name it
    named: dict[tuple[str, int, int], str] = {}
    for path in paths:
        arxiv_id, alignment = read_alignment(path)
        group = _find_group(groups, arxiv_id, path)
        pair = (group.arxiv_id, alignment.src_version, alignment.tgt_version)
        if pair in named:
            raise AlignmentFormatError(
                f"{path}: group {pair[0]!r} pair v{pair[1]}-v{pair[2]} is also in {named[pair]}"
            )
        named[pair] = path
        # checked in file order, before any worker starts, so every --jobs names the same bad file
        src, tgt = _pair_documents(group, alignment, path)
        payloads.append((path, group, alignment, src, tgt, cfg))
    rows = _map_jobs(_stats_for_file, payloads, cfg.jobs)
    rows.sort(key=lambda r: (r["arxiv_id"], r["src_version"], r["tgt_version"]))

    total: Counter = Counter()
    for r in rows:
        total.update(r["counts"])
    # pairs whose source has no alignable sentence have no ratio to pool
    rated = [r for r in rows if r["ratio"] is not None]
    correlations = {
        "overall": _correlation(rated),
        "two_version": _correlation([r for r in rated if r["versions_in_group"] == 2]),
        "multi_version": _correlation([r for r in rated if r["versions_in_group"] > 2]),
    }
    summary = {
        "pairs": len(rows),
        "groups": len({r["arxiv_id"] for r in rows}),
        "kept_definition": cfg.kept_definition,
        "operation_counts": {k.value: total.get(k, 0) for k in DocOpKind},
        "mean_update_ratio": sum(r["ratio"] for r in rated) / len(rated) if rated else None,
        "correlations": correlations,
    }

    files = [
        ("summary.json", dump_json(summary)),
        (
            "update_ratios.csv",
            format_csv(
                ("arxiv_id", "src_version", "tgt_version", "time_delta", "update_ratio"),
                [
                    (r["arxiv_id"], r["src_version"], r["tgt_version"], r["time_delta"], r["ratio"])
                    for r in rows
                ],
            ),
        ),
    ]
    for kind, name in _POSITION_FILES.items():
        positions = (p for r in rows for p in r["positions"][kind])
        hist = position_histogram(positions, cfg.bins)
        files.append((name, format_csv(("bin_start", "bin_end", "count"), hist)))
    files.append((
        "composition.csv",
        format_csv(
            ("ratio_bin_start", "ratio_bin_end", "insertion", "deletion", "rephrasing", "total_changes"),
            action_composition_by_ratio([(r["ratio"], r["counts"]) for r in rated], cfg.bins),
        ),
    ))
    _write_outputs(args.out, files)
    return 0


# ---------------------------------------------------------------------------
# eval

def _eval_alignment_task(args: argparse.Namespace) -> dict:
    if args.corpus is None:
        raise RevkitError("task alignment needs --corpus")
    groups = _groups_by_id(read_corpus(args.corpus, compat=args.compat))
    aid_pred, pred = read_alignment(args.pred)
    aid_gold, gold = read_alignment(args.gold)
    if aid_pred and aid_gold and aid_pred != aid_gold:
        raise AlignmentFormatError(
            f"{args.pred} is for group {aid_pred!r}, {args.gold} for group {aid_gold!r}"
        )
    where = args.gold if aid_gold and not aid_pred else args.pred
    group = _find_group(groups, aid_pred or aid_gold, where).build()
    src, tgt = _pair_documents(group, pred, args.pred)
    _pair_documents(group, gold, args.gold)
    if (pred.src_version, pred.tgt_version) != (gold.src_version, gold.tgt_version):
        raise AlignmentFormatError(
            f"prediction covers v{pred.src_version}->v{pred.tgt_version}, "
            f"gold v{gold.src_version}->v{gold.tgt_version}"
        )
    res = eval_alignment(pred, gold, src, tgt)
    return {
        "task": "alignment",
        "precision": res.precision,
        "recall": res.recall,
        "f1": res.f1,
        "tp": res.tp,
        "fp": res.fp,
        "fn": res.fn,
    }


def _eval_edits_task(args: argparse.Namespace) -> dict:
    preds = {e.revision_id: e for e in read_edit_file(args.pred)}
    golds = read_edit_file(args.gold)
    if not golds:
        raise FormatError(f"{args.gold}: no revisions to score")
    gold_ids = {g.revision_id for g in golds}
    stray = sorted(set(preds) - gold_ids)
    if stray:
        raise FormatError(f"{args.pred}: revision ids not in gold: {', '.join(stray[:5])}")
    items = []
    for g in golds:
        p = preds.get(g.revision_id)
        items.append((p.edits if p else (), g.gold_alternatives()))
    res = eval_edits_corpus(items)
    return {
        "task": "edits",
        "precision": res.micro.precision,
        "recall": res.micro.recall,
        "f1": res.micro.f1,
        "tp": res.micro.tp,
        "fp": res.micro.fp,
        "fn": res.micro.fn,
        "exact_match_rate": res.exact_match_rate,
        "pairs": res.pairs,
    }


def _eval_intention_task(args: argparse.Namespace) -> dict:
    schema = args.classes
    golds = read_edit_file(args.gold)
    gold_labels: dict[tuple[str, int], str] = {}
    for g in golds:
        for n, e in enumerate(g.edits):
            if e.intention is None:
                raise FormatError(
                    f"{args.gold}: edit {n} of {g.revision_id} has no intention label"
                )
            try:
                gold_labels[(g.revision_id, n)] = parse_label(e.intention.value, schema).value
            except ValueError:
                # edit files hold only known labels, so this is a coarse one
                raise FormatError(
                    f"{args.gold}: {g.revision_id} edit {n} carries the coarse label "
                    f"{e.intention.value!r}; fine-schema scoring needs fine labels"
                ) from None
    if not gold_labels:
        raise FormatError(f"{args.gold}: no edits to score")
    with open_text(args.pred, FormatError) as fh:
        lines = fh.readlines()
    pred_map, errors = ingest_predictions(lines, schema=schema)
    if errors:
        raise FormatError(f"{args.pred}: " + "; ".join(errors))
    stray = sorted(set(pred_map) - set(gold_labels))
    if stray:
        raise FormatError(f"{args.pred}: predictions for unknown edits: {stray[:5]}")
    missing = sorted(set(gold_labels) - set(pred_map))
    if missing:
        raise FormatError(f"{args.pred}: missing predictions for {missing[:5]}")
    keys = sorted(gold_labels)
    report = eval_classification([pred_map[k].value for k in keys], [gold_labels[k] for k in keys])
    return {
        "task": "intention",
        "schema": schema,
        "accuracy": report.accuracy,
        "weighted_f1": report.weighted_f1,
        "per_class": {
            label: {
                "precision": prf.precision,
                "recall": prf.recall,
                "f1": prf.f1,
                "support": report.support[label],
            }
            for label, prf in report.per_class.items()
        },
    }


def cmd_eval(args: argparse.Namespace) -> int:
    task = {
        "alignment": _eval_alignment_task,
        "edits": _eval_edits_task,
        "intention": _eval_intention_task,
    }[args.task]
    report = task(args)
    text = dump_json(report)
    if args.out:
        atomic_write_text(args.out, text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser

_CONFIG_HELP = "key=value config file; flags override it"


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help=_CONFIG_HELP)
    p.add_argument("--jobs", type=int, help="worker processes for per-group work")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revkit", description="Analyze revisions between versions of scientific documents."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="align sentences for every adjacent version pair")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--compat", action="store_true", help="read third-party corpus JSON shapes")
    p.add_argument("--metric", dest="sentence_metric", choices=METRIC_NAMES)
    p.add_argument("--threshold", dest="sentence_threshold", type=float)
    for name in ("tau1", "tau2", "tau3", "tau4"):
        p.add_argument(f"--{name}", type=float)
    _add_config_flags(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("extract-edits", help="extract span edits for one alignment file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--alignment", required=True, help="one alignment JSON file")
    p.add_argument("--out", required=True, help="output edit JSON file")
    p.add_argument("--compat", action="store_true")
    p.add_argument("--method", choices=EDIT_METHODS)
    p.add_argument("--word-alignments", help="Pharaoh file, one line per aligned pair")
    p.add_argument("--trees-src", help="bracketed trees, one line per aligned pair")
    p.add_argument("--trees-tgt")
    p.add_argument("--max-level", dest="max_level", type=int)
    p.add_argument("--config", help=_CONFIG_HELP)
    p.set_defaults(func=cmd_extract_edits)

    p = sub.add_parser("stats", help="document-level operation statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--alignments", required=True, nargs="+", help="alignment files or directories")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--compat", action="store_true")
    p.add_argument("--kept-definition", dest="kept_definition", choices=KEPT_DEFINITIONS)
    p.add_argument("--bins", type=int)
    _add_config_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--task", required=True, choices=("alignment", "edits", "intention"))
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--corpus", help="needed for task alignment")
    p.add_argument("--compat", action="store_true")
    p.add_argument("--classes", choices=("fine", "coarse"), default="fine")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (RevkitError, OSError) as exc:
        print(f"revkit: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("revkit: internal error", file=sys.stderr)
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
