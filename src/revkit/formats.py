"""On-disk formats: alignment JSON, Pharaoh word alignments, tree
files, edit JSON, and CSV helpers.

Writers are deterministic (sorted keys and rows, two-space indent) so
reruns produce byte-identical files.  Readers for third-party data are
tolerant about key spellings; our own writers stick to one canonical
shape.

The two bulk files are spelled straight from the program's objects:
`alignment_to_json` returns a sentence-alignment file's text, and
`write_edit_file` writes an edit file from the entries that
`read_edit_file` reads back.  Both use the C string escaper, where
`json.dumps(..., indent=2)` would fall back to its pure-Python encoder.
`dump_json` writes the small reports and is the oracle both writers
must match byte for byte.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Sequence

from .corpus import SentenceId
from .edits import Edit, EditKind, WordAlignment, edit_sort_key
from .errors import AlignmentFormatError, FormatError, decode_json, open_text
from .intention import parse_label
from .sent_align import SentAlignLabel, SentenceAlignment
from .trees import Tree, parse_tree_read


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _ints(values: tuple[int, ...] | None, indent: int) -> str:
    """How `dump_json` writes a non-empty int tuple, or None, whose items
    sit `indent` spaces deep."""
    if values is None:
        return "null"
    pad = " " * indent
    return f"[\n{pad}" + f",\n{pad}".join(map(str, values)) + f"\n{pad[2:]}]"


@functools.cache
def _new_file_mode() -> int:
    """The mode `open(path, "w")` would give a new file: 0o666 less the
    umask, read once per process (reading it means setting it)."""
    umask = os.umask(0o077)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file and failures leave the old content in place.  The
    temp name is short and no `.json` name, for `stats` to skip if a
    killed run leaves it; errors name path, never the temp.  The file
    gets the mode open(path, "w") would leave, not mkstemp's 0o600: an
    existing file's permission bits, or else the umask's mode."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            try:
                mode = os.stat(path).st_mode & 0o777
            except FileNotFoundError:
                mode = _new_file_mode()
            os.fchmod(fd, mode)
            fh.write(text)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def hold_aside(path: str) -> str | None:
    """Keep the file at path under a new temp name beside it, or return
    None when no file is there.  Renaming the temp back onto path undoes
    a later atomic_write_text, content and mode alike.  The temp is a
    hard link, or a copy where the file system has none."""
    aside = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(6).hex()}")
    try:
        os.link(path, aside)
    except FileNotFoundError:
        return None
    except OSError:
        if not os.path.isfile(path):
            return None
        shutil.copy2(path, aside)
    return aside


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


def alignment_to_json(alignment: SentenceAlignment, arxiv_id: str | None = None) -> str:
    """The alignment file's text, as `dump_json` writes its canonical
    object: each pair's src and tgt are its paragraph and sentence.
    not-aligned pairs are an annotation-side concept and are not written."""
    head = "{\n" if arxiv_id is None else f'{{\n  "arxiv_id": {_quote(arxiv_id)},\n'
    pairs = ",\n".join([
        f'    {{\n      "label": {_quote(label.value)},\n'
        f'      "src": [\n        {s.paragraph},\n        {s.sentence}\n      ],\n'
        f'      "tgt": [\n        {t.paragraph},\n        {t.sentence}\n      ]\n    }}'
        for s, t, label in alignment.sorted_positive()
    ])
    listed = f"[\n{pairs}\n  ]" if pairs else "[]"
    return (
        f'{head}  "pairs": {listed},\n'
        f'  "src_version": {alignment.src_version},\n'
        f'  "tgt_version": {alignment.tgt_version}\n}}\n'
    )


def _as_sentence_id(value, default_version: int) -> SentenceId:
    if isinstance(value, list) and len(value) == 2 and type(value[0]) is int and type(value[1]) is int:
        return SentenceId(default_version, value[0], value[1])
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError("sentence id must be a list of ints")
    if len(value) == 3:
        return SentenceId(value[0], value[1], value[2])
    raise ValueError("sentence id must have 2 or 3 elements")


def _pick(record: dict, names: Sequence[str]):
    for name in names:
        if name in record:
            return record[name]
    raise ValueError(f"missing {names[0]}")


def _aligned_pair(rec, src_v: int, tgt_v: int) -> tuple[SentenceId, SentenceId, SentAlignLabel]:
    """The pair `rec` spells.  A malformed one raises ValueError, whose
    message the caller prefixes with the pair's location."""
    if not isinstance(rec, dict):
        raise ValueError("expected an object")
    s = _as_sentence_id(_pick(rec, ("src", "source", "src_sentence")), src_v)
    t = _as_sentence_id(_pick(rec, ("tgt", "target", "tgt_sentence")), tgt_v)
    raw_label = _pick(rec, ("label", "type"))
    label = _LABEL_ALIASES.get(str(raw_label).strip().lower())
    if label is None:
        raise ValueError(f"unknown label {raw_label!r}")
    if s.version != src_v or t.version != tgt_v:
        raise ValueError("id version disagrees with file header")
    return s, t, label


def alignment_from_json(obj, where: str = "alignment") -> tuple[str | None, SentenceAlignment]:
    try:
        if not isinstance(obj, dict):
            raise ValueError("expected an object")
        src_v = _pick(obj, ("src_version", "source_version"))
        tgt_v = _pick(obj, ("tgt_version", "target_version"))
        # a JSON integer: never a bool, a float or a numeric string
        if type(src_v) is not int or type(tgt_v) is not int:
            raise ValueError("versions must be integers")
        raw_pairs = _pick(obj, ("pairs", "alignments", "sentence_pairs"))
        if not isinstance(raw_pairs, list):
            raise ValueError("pairs must be a list")
    except ValueError as exc:
        raise AlignmentFormatError(f"{where}: {exc}") from None
    pairs = []
    try:
        for rec in raw_pairs:
            pairs.append(_aligned_pair(rec, src_v, tgt_v))
    except ValueError as exc:
        raise AlignmentFormatError(f"{where}.pairs[{len(pairs)}]: {exc}") from None
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
        if sep and field.isascii() and i.isdecimal() and j.isdecimal():  # [0-9]+-[0-9]+
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

def read_tree_file(path: str) -> list[Tree | None]:
    """Blank lines stand for pairs that need no tree (identical pairs)."""
    out: list[Tree | None] = []
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


def _span(value) -> tuple[int, int] | None:
    if value is None:
        return None
    if isinstance(value, list) and len(value) == 2 and type(value[0]) is int and type(value[1]) is int:
        return (value[0], value[1])
    raise ValueError("span must be null or [start, end]")


def _edit(obj) -> Edit:
    """The edit `obj` spells.  A malformed one raises ValueError, whose
    message the caller prefixes with the edit's location."""
    if not isinstance(obj, dict):
        raise ValueError("expected an object")
    raw_kind = obj.get("kind")
    kind = _KIND_BY_VALUE.get(raw_kind) if isinstance(raw_kind, str) else None
    if kind is None:
        raise ValueError(f"unknown kind {raw_kind!r}")
    intention = obj.get("intention")
    if intention is not None:
        try:
            intention = parse_label(intention)
        except ValueError:
            raise ValueError(f"unknown intention {intention!r}") from None
    return Edit(_span(obj.get("src")), _span(obj.get("tgt")), kind, intention)


def _sorted_edits(raw_edits: list, loc: str, field: str) -> tuple[Edit, ...]:
    """The edits of `raw_edits` in canonical order; an error names the
    failing edit as `{loc}{field}[n]`."""
    edits = []
    try:
        for obj in raw_edits:
            edits.append(_edit(obj))
    except ValueError as exc:
        raise FormatError(f"{loc}{field}[{len(edits)}]: {exc}") from None
    edits.sort(key=edit_sort_key)
    return tuple(edits)


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


def _id_from_json(value, loc: str) -> SentenceId | None:
    if value is None:
        return None
    if isinstance(value, list) and len(value) == 3:
        v, p, s = value
        if type(v) is int and type(p) is int and type(s) is int:
            return SentenceId(v, p, s)
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
            _sorted_edits(alt, loc, f".alternatives[{a}]") for a, alt in enumerate(raw_alts)
        )
        return EditFileEntry(rid, src_id, tgt_id, alts[0], alts)
    raw_edits = obj.get("edits")
    if not isinstance(raw_edits, list):
        raise FormatError(f"{loc}: missing edits list")
    return EditFileEntry(rid, src_id, tgt_id, _sorted_edits(raw_edits, loc, ".edits"), None)


def write_edit_file(path: str, entries: Sequence[EditFileEntry]) -> None:
    """Write `entries` as `dump_json` writes their canonical object.  Each
    entry's edits are written in their given order and its alternatives
    not at all, so `read_edit_file` returns the entries unchanged when
    their edits are in canonical order and none has alternatives."""
    revisions = []
    for entry in entries:
        edits = ",\n".join([
            f'        {{\n          "intention": {_quote(e.intention.value) if e.intention else "null"},\n'
            f'          "kind": {_quote(e.kind.value)},\n'
            f'          "src": {_ints(e.src_span, 12)},\n'
            f'          "tgt": {_ints(e.tgt_span, 12)}\n        }}'
            for e in entry.edits
        ])
        listed = f"[\n{edits}\n      ]" if edits else "[]"
        revisions.append(
            f'    {{\n      "edits": {listed},\n'
            f'      "revision_id": {_quote(entry.revision_id)},\n'
            f'      "src": {_ints(entry.src_id, 8)},\n'
            f'      "tgt": {_ints(entry.tgt_id, 8)}\n    }}'
        )
    listed = "[\n" + ",\n".join(revisions) + "\n  ]" if revisions else "[]"
    atomic_write_text(path, f'{{\n  "revisions": {listed}\n}}\n')


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
