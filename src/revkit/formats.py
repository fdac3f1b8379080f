"""On-disk formats: alignment JSON, Pharaoh word alignments, tree
files, edit JSON, and CSV helpers.

Writers are deterministic (sorted keys and rows, two-space indent) so
reruns produce byte-identical files.  Readers for third-party data are
tolerant about key spellings; our own writers stick to one canonical
shape.
"""
from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import SentenceId
from .edits import Edit, EditKind, SentenceRevision, WordAlignment, edit_sort_key
from .errors import AlignmentFormatError, FormatError, decode_json, open_text
from .intention import parse_label
from .sent_align import SentAlignLabel, SentenceAlignment
from .trees import ParseTree, parse_tree_read


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file and failures leave the old content in place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# sentence alignment JSON

_LABEL_ALIASES = {
    "aligned": SentAlignLabel.ALIGNED,
    "partially-aligned": SentAlignLabel.PARTIAL,
    "partially_aligned": SentAlignLabel.PARTIAL,
    "partial": SentAlignLabel.PARTIAL,
    "not-aligned": SentAlignLabel.NOT_ALIGNED,
    "not_aligned": SentAlignLabel.NOT_ALIGNED,
}


def alignment_to_json(alignment: SentenceAlignment, arxiv_id: str | None = None) -> dict:
    """Canonical JSON form.  not-aligned pairs are an annotation-side
    concept and are not written."""
    pairs = []
    for s, t, label in alignment.sorted_positive():
        pairs.append(
            {
                "src": [s.paragraph, s.sentence],
                "tgt": [t.paragraph, t.sentence],
                "label": label.value,
            }
        )
    obj = {
        "src_version": alignment.src_version,
        "tgt_version": alignment.tgt_version,
        "pairs": pairs,
    }
    if arxiv_id is not None:
        obj["arxiv_id"] = arxiv_id
    return obj


def _is_int(value) -> bool:
    """A JSON integer: never a bool, a float or a numeric string."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_sentence_id(value, default_version: int, where: str) -> SentenceId:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise AlignmentFormatError(f"{where}: sentence id must be a list of ints")
    if len(value) == 2:
        return SentenceId(default_version, value[0], value[1])
    if len(value) == 3:
        return SentenceId(value[0], value[1], value[2])
    raise AlignmentFormatError(f"{where}: sentence id must have 2 or 3 elements")


def _pick(record: dict, names: Sequence[str], where: str):
    for name in names:
        if name in record:
            return record[name]
    raise AlignmentFormatError(f"{where}: missing {names[0]}")


def alignment_from_json(obj, where: str = "alignment") -> tuple[str | None, SentenceAlignment]:
    if not isinstance(obj, dict):
        raise AlignmentFormatError(f"{where}: expected an object")
    src_v = _pick(obj, ("src_version", "source_version"), where)
    tgt_v = _pick(obj, ("tgt_version", "target_version"), where)
    if not (_is_int(src_v) and _is_int(tgt_v)):
        raise AlignmentFormatError(f"{where}: versions must be integers")
    raw_pairs = _pick(obj, ("pairs", "alignments", "sentence_pairs"), where)
    if not isinstance(raw_pairs, list):
        raise AlignmentFormatError(f"{where}: pairs must be a list")
    pairs = set()
    for n, rec in enumerate(raw_pairs):
        loc = f"{where}.pairs[{n}]"
        if not isinstance(rec, dict):
            raise AlignmentFormatError(f"{loc}: expected an object")
        s = _as_sentence_id(_pick(rec, ("src", "source", "src_sentence"), loc), src_v, loc)
        t = _as_sentence_id(_pick(rec, ("tgt", "target", "tgt_sentence"), loc), tgt_v, loc)
        raw_label = _pick(rec, ("label", "type"), loc)
        label = _LABEL_ALIASES.get(str(raw_label).strip().lower())
        if label is None:
            raise AlignmentFormatError(f"{loc}: unknown label {raw_label!r}")
        if s.version != src_v or t.version != tgt_v:
            raise AlignmentFormatError(f"{loc}: id version disagrees with file header")
        pairs.add((s, t, label))
    arxiv_id = obj.get("arxiv_id") or obj.get("paper_id")
    if arxiv_id is not None and not isinstance(arxiv_id, str):
        raise AlignmentFormatError(f"{where}: arxiv_id must be a string")
    return arxiv_id, SentenceAlignment(src_v, tgt_v, frozenset(pairs))


def read_alignment(path: str) -> tuple[str | None, SentenceAlignment]:
    with open(path, "rb") as fh:
        obj = decode_json(fh.read(), AlignmentFormatError, path)
    return alignment_from_json(obj, where=path)


# ---------------------------------------------------------------------------
# Pharaoh word alignments, one sentence pair per line

def parse_pharaoh_line(line: str, where: str = "alignment") -> WordAlignment:
    links = set()
    for field in line.split():
        i, sep, j = field.partition("-")
        if sep and i.isdecimal() and j.isdecimal():
            try:
                links.add((int(i), int(j)))
                continue
            except ValueError:  # more digits than int() converts
                pass
        raise FormatError(f"{where}: bad link {field!r}, expected i-j")
    return WordAlignment(frozenset(links))


def read_pharaoh_file(path: str) -> list[WordAlignment]:
    """One line per sentence pair; an empty line means no links."""
    out = []
    with open_text(path, FormatError) as fh:
        for n, line in enumerate(fh, start=1):
            out.append(parse_pharaoh_line(line.strip(), where=f"{path}:{n}"))
    return out


# ---------------------------------------------------------------------------
# tree files, one bracketed tree per line

def read_tree_file(path: str) -> list[ParseTree | None]:
    """Blank lines stand for pairs that need no tree (identical pairs)."""
    out: list[ParseTree | None] = []
    with open_text(path, FormatError) as fh:
        for n, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                out.append(None)
                continue
            try:
                out.append(parse_tree_read(text))
            except FormatError as exc:
                raise FormatError(f"{path}:{n}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# edit files

_KIND_BY_VALUE = {k.value: k for k in EditKind}


def edit_to_json(e: Edit) -> dict:
    return {
        "src": list(e.src_span) if e.src_span else None,
        "tgt": list(e.tgt_span) if e.tgt_span else None,
        "kind": e.kind.value,
        "intention": e.intention.value if e.intention else None,
    }


def _span_from_json(value, loc: str) -> tuple[int, int] | None:
    if value is None:
        return None
    if isinstance(value, list) and len(value) == 2 and all(_is_int(x) for x in value):
        return (value[0], value[1])
    raise FormatError(f"{loc}: span must be null or [start, end]")


def edit_from_json(obj, loc: str = "edit") -> Edit:
    if not isinstance(obj, dict):
        raise FormatError(f"{loc}: expected an object")
    raw_kind = obj.get("kind")
    kind = _KIND_BY_VALUE.get(raw_kind) if isinstance(raw_kind, str) else None
    if kind is None:
        raise FormatError(f"{loc}: unknown kind {raw_kind!r}")
    intention = None
    raw_intention = obj.get("intention")
    if raw_intention is not None:
        try:
            intention = parse_label(raw_intention)
        except ValueError:
            raise FormatError(f"{loc}: unknown intention {raw_intention!r}") from None
    try:
        return Edit(
            _span_from_json(obj.get("src"), loc),
            _span_from_json(obj.get("tgt"), loc),
            kind,
            intention,
        )
    except ValueError as exc:
        raise FormatError(f"{loc}: {exc}") from exc


@dataclass(frozen=True)
class EditFileEntry:
    """One revision in an edit file; gold files may carry several
    equally-valid alternatives instead of a single edit set."""

    revision_id: str
    src_id: SentenceId | None
    tgt_id: SentenceId | None
    edits: tuple[Edit, ...]
    alternatives: tuple[tuple[Edit, ...], ...] | None = None

    def gold_alternatives(self) -> tuple[tuple[Edit, ...], ...]:
        if self.alternatives is not None:
            return self.alternatives
        return (self.edits,)


def revision_to_json(rev: SentenceRevision) -> dict:
    return {
        "revision_id": rev.revision_id,
        "src": list(rev.src.id),
        "tgt": list(rev.tgt.id),
        "edits": [edit_to_json(e) for e in rev.edits],
    }


def _id_from_json(value, loc: str) -> SentenceId | None:
    if value is None:
        return None
    if isinstance(value, list) and len(value) == 3 and all(_is_int(x) for x in value):
        return SentenceId(*value)
    raise FormatError(f"{loc}: sentence id must be [version, paragraph, sentence]")


def entry_from_json(obj, loc: str) -> EditFileEntry:
    if not isinstance(obj, dict):
        raise FormatError(f"{loc}: expected an object")
    rid = obj.get("revision_id")
    if not isinstance(rid, str) or not rid:
        raise FormatError(f"{loc}: missing revision_id")
    src_id = _id_from_json(obj.get("src"), loc)
    tgt_id = _id_from_json(obj.get("tgt"), loc)
    if "alternatives" in obj:
        raw_alts = obj["alternatives"]
        if not isinstance(raw_alts, list) or not raw_alts:
            raise FormatError(f"{loc}: alternatives must be a non-empty list")
        if not all(isinstance(alt, list) for alt in raw_alts):
            raise FormatError(f"{loc}: each alternative must be a list of edits")
        alts = tuple(
            tuple(
                sorted(
                    (edit_from_json(e, f"{loc}.alternatives[{a}][{n}]") for n, e in enumerate(alt)),
                    key=edit_sort_key,
                )
            )
            for a, alt in enumerate(raw_alts)
        )
        return EditFileEntry(rid, src_id, tgt_id, alts[0], alts)
    raw_edits = obj.get("edits")
    if not isinstance(raw_edits, list):
        raise FormatError(f"{loc}: missing edits list")
    edits = tuple(
        sorted(
            (edit_from_json(e, f"{loc}.edits[{n}]") for n, e in enumerate(raw_edits)),
            key=edit_sort_key,
        )
    )
    return EditFileEntry(rid, src_id, tgt_id, edits, None)


def write_edit_file(path: str, revisions: Sequence[SentenceRevision]) -> None:
    obj = {"revisions": [revision_to_json(r) for r in revisions]}
    atomic_write_text(path, dump_json(obj))


def read_edit_file(path: str) -> list[EditFileEntry]:
    with open(path, "rb") as fh:
        obj = decode_json(fh.read(), FormatError, path)
    if not isinstance(obj, dict) or not isinstance(obj.get("revisions"), list):
        raise FormatError(f"{path}: expected an object with a revisions list")
    entries = [
        entry_from_json(rec, f"{path}.revisions[{n}]") for n, rec in enumerate(obj["revisions"])
    ]
    seen = set()
    for e in entries:
        if e.revision_id in seen:
            raise FormatError(f"{path}: duplicate revision_id {e.revision_id!r}")
        seen.add(e.revision_id)
    return entries


# ---------------------------------------------------------------------------
# CSV

def format_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
