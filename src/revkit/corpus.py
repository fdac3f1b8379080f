"""Versioned-document data model and corpus ingestion.

A corpus is a list of article groups; each group holds the successive
versions of one document, split into paragraphs with pre-segmented
sentences.  A sentence's tokens are plain strings.  Inline markers
("[REF]", "[CIT]", "[MATH]", "[EQN]") stand in for references, citations
and math; a token is a marker exactly when it is one of those strings.
Skip filters mark sentences and paragraphs that are too short, too
technical or truncated, and everything downstream (alignment, operation
statistics) ignores skipped material.

All model objects are immutable.  A sentence built from its raw text
gets its tokens, marker count and skip decision in one pass; a Sentence
made directly counts its markers on first read and keeps the count.
"""
from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from sys import intern as _intern
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .errors import CorpusFormatError, decode_json


# A token is a marker exactly when it is one of these strings.
SPECIAL_MARKERS = frozenset({"[REF]", "[CIT]", "[MATH]", "[EQN]"})

_MARKER_RE = re.compile(r"(\[REF\]|\[CIT\]|\[MATH\]|\[EQN\])")
_PUNCT = frozenset(string.punctuation)
_ASCII_LETTERS = str.maketrans("", "", string.ascii_letters)  # str.translate deletes them

# Skip-filter cutoffs.
SKIP_MAX_SENTENCE_CHARS = 1000
SKIP_MAX_SENTENCE_TOKENS = 3          # skipped when token count <= this
SKIP_SENTENCE_SPECIAL_FRACTION = 0.6  # skipped when special fraction > this
SKIP_MIN_ENGLISH_FRACTION = 0.7       # skipped when letter fraction < this
SKIP_MIN_PARAGRAPH_TOKENS = 10        # skipped when total tokens < this
SKIP_PARAGRAPH_SPECIAL_FRACTION = 0.3


def tokenize(text: str) -> tuple[str, ...]:
    """Split on whitespace, peel leading/trailing punctuation into
    single-character tokens, and keep the bracketed markers atomic.

    Joining the resulting tokens with single spaces and re-tokenizing
    reproduces the same token sequence.  A chunk with no ASCII
    punctuation at either end and no "[" holds no marker and peels
    nothing, so it is its own token, interned so that repeated words
    share one string; only the other chunks go through the marker split.
    """
    tokens: list[str] = []
    for chunk in text.split():
        if chunk[0] in _PUNCT or chunk[-1] in _PUNCT or "[" in chunk:
            tokens.extend(_tokenize_chunk(chunk))
        else:
            tokens.append(_intern(chunk))
    return tuple(tokens)


# Distinct whitespace chunks kept by _tokenize_chunk.  A chunk's tokens
# depend on the chunk alone, so repeated chunks share one tuple of token
# strings.  Only chunks with punctuation at an edge or a "[" come here:
# on the benchmark corpora, whose punctuation stands apart from words,
# that is a few chunks (7 on c40 seed 3), hit 99.9% of the time.  Running
# text with punctuation attached to words sends more: at most 7,432
# distinct chunks per group on the corpora measured, and 16,384 entries
# hold about 2.7 MB when full (tracemalloc).  A miss costs a little more
# than no cache at all; the size stays at a few groups.
_CHUNK_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=_CHUNK_CACHE_SIZE)
def _tokenize_chunk(chunk: str) -> tuple[str, ...]:
    tokens: list[str] = []
    for piece in _MARKER_RE.split(chunk):
        if piece in SPECIAL_MARKERS:
            tokens.append(piece)
        elif piece:
            tokens.extend(_split_plain(piece))
    return tuple(tokens)


def _split_plain(piece: str) -> Iterator[str]:
    head: list[str] = []
    tail: list[str] = []
    while piece and piece[0] in _PUNCT:
        head.append(piece[0])
        piece = piece[1:]
    while piece and piece[-1] in _PUNCT:
        tail.append(piece[-1])
        piece = piece[:-1]
    yield from head
    if piece:
        yield piece
    yield from reversed(tail)


class SentenceId(NamedTuple):
    version: int
    paragraph: int
    sentence: int


@dataclass(frozen=True)
class Sentence:
    id: SentenceId
    raw: str
    tokens: tuple[str, ...]
    skipped: bool = False

    @classmethod
    def build(cls, raw: str, sid: SentenceId) -> "Sentence":
        """Tokenize, count markers and apply the skip filter in one pass."""
        tokens = tokenize(raw)
        # a marker token holds "[", so a text without one has none
        special = sum(map(SPECIAL_MARKERS.__contains__, tokens)) if "[" in raw else 0
        s = cls(sid, raw, tokens, sentence_skip_filter(raw, tokens, special))
        s.__dict__["special_count"] = special  # where cached_property keeps it
        return s

    def _with_id(self, sid: SentenceId) -> "Sentence":
        """The same text under another id, sharing this sentence's tokens
        tuple, skip decision and special count."""
        s = Sentence(sid, self.raw, self.tokens, self.skipped)
        s.__dict__["special_count"] = self.special_count
        return s

    def lower_tokens(self) -> tuple[str, ...]:
        return tuple(t.lower() for t in self.tokens)

    def lower_token_set(self) -> frozenset[str]:
        return frozenset(t.lower() for t in self.tokens)

    def normalized_raw(self) -> str:
        # whitespace-normalized, case preserved
        return " ".join(self.raw.split())

    @cached_property
    def special_count(self) -> int:
        """Number of marker tokens; both skip filters read it."""
        return sum(map(SPECIAL_MARKERS.__contains__, self.tokens))


def _english_fraction(raw: str, visible: int) -> float:
    """Share of ASCII letters among the `visible` non-whitespace
    characters of raw.  Tokenizing drops exactly the whitespace, so the
    token lengths of raw add up to `visible`."""
    if not visible:
        return 0.0
    return (len(raw) - len(raw.translate(_ASCII_LETTERS))) / visible


def sentence_skip_filter(raw: str, tokens: Sequence[str], special: int) -> bool:
    """True when a sentence with this raw text, these tokens and `special`
    marker tokens must stay out of alignment: over-long raw text, too few
    tokens, mostly markers, mostly non-letter characters, or a trailing
    ','/':' that signals a truncated list or equation lead-in."""
    if len(raw) > SKIP_MAX_SENTENCE_CHARS:
        return True
    if len(tokens) <= SKIP_MAX_SENTENCE_TOKENS:
        return True
    if special / len(tokens) > SKIP_SENTENCE_SPECIAL_FRACTION:
        return True
    if _english_fraction(raw, sum(map(len, tokens))) < SKIP_MIN_ENGLISH_FRACTION:
        return True
    return raw.rstrip().endswith((",", ":"))


@dataclass(frozen=True)
class Paragraph:
    index: int
    sentences: tuple[Sentence, ...]
    skipped: bool = False

    @classmethod
    def build(
        cls, raws: Iterable[str], version: int, index: int, seen: dict[str, Sentence] | None = None
    ) -> "Paragraph":
        """Build the sentences and apply the paragraph skip filter in one
        pass.  `seen` maps each text already built to its first sentence;
        a repeated text reuses that analysis instead of redoing it."""
        if seen is None:
            seen = {}
        sents = []
        tokens = special = 0
        for n, raw in enumerate(raws):
            sid = SentenceId(version, index, n)
            first = seen.get(raw)
            if first is None:
                seen[raw] = s = Sentence.build(raw, sid)
            else:
                s = first._with_id(sid)
            sents.append(s)
            tokens += len(s.tokens)
            special += s.special_count
        return cls(index, tuple(sents), paragraph_skip_filter(tokens, special))


def paragraph_skip_filter(tokens: int, special: int) -> bool:
    """True when a paragraph whose sentences hold `tokens` tokens, of
    which `special` are markers, is excluded from alignment as a whole."""
    if tokens < SKIP_MIN_PARAGRAPH_TOKENS:
        return True
    return special / tokens > SKIP_PARAGRAPH_SPECIAL_FRACTION


@dataclass(frozen=True)
class DocVersion:
    version_index: int
    timestamp: int
    paragraphs: tuple[Paragraph, ...]

    @classmethod
    def build(
        cls,
        version_index: int,
        timestamp: int,
        paragraphs: Iterable[Iterable[str]],
        seen: dict[str, Sentence] | None = None,
    ) -> "DocVersion":
        """`seen` is as for Paragraph.build, shared by every paragraph."""
        if version_index < 1:
            raise ValueError("version_index must be positive")
        if seen is None:
            seen = {}
        paras = tuple(
            Paragraph.build(raws, version_index, n, seen) for n, raws in enumerate(paragraphs)
        )
        return cls(version_index=version_index, timestamp=timestamp, paragraphs=paras)

    def sentences(self) -> Iterator[Sentence]:
        for p in self.paragraphs:
            yield from p.sentences

    def alignable_paragraphs(self) -> tuple[Paragraph, ...]:
        return tuple(p for p in self.paragraphs if not p.skipped)

    def alignable_sentences(self) -> tuple[Sentence, ...]:
        """Sentences that take part in alignment: neither the sentence nor
        its paragraph is skipped."""
        return tuple(
            s for p in self.paragraphs if not p.skipped for s in p.sentences if not s.skipped
        )

    def paragraph(self, index: int) -> Paragraph:
        if not 0 <= index < len(self.paragraphs):
            raise ValueError(f"paragraph index {index} out of range for version {self.version_index}")
        return self.paragraphs[index]

    def sentence(self, sid: SentenceId) -> Sentence:
        if sid.version != self.version_index:
            raise ValueError(f"sentence id {sid} does not belong to version {self.version_index}")
        para = self.paragraph(sid.paragraph)
        if not 0 <= sid.sentence < len(para.sentences):
            raise ValueError(f"sentence id {sid} out of range")
        return para.sentences[sid.sentence]


class Subject(Enum):
    PHYSICS = "physics"
    MATH = "math"
    CS = "cs"
    Q_BIO = "q-bio"
    Q_FIN = "q-fin"
    STAT = "stat"
    OTHER = "other"


_PHYSICS_ARCHIVES = {
    "astro-ph", "cond-mat", "gr-qc", "hep-ex", "hep-lat", "hep-ph", "hep-th",
    "math-ph", "nlin", "nucl-ex", "nucl-th", "physics", "quant-ph",
}


def normalize_subject(raw: str) -> Subject:
    """Map a subject string (canonical name or an archive-style category
    like "cs.CL") onto the coarse subject enum; unknown strings fall back
    to OTHER."""
    base = raw.strip().lower().split(".")[0]
    try:
        return Subject(base)
    except ValueError:
        pass
    if base in _PHYSICS_ARCHIVES:
        return Subject.PHYSICS
    return Subject.OTHER


@dataclass(frozen=True)
class ArticleGroup:
    arxiv_id: str
    subject: Subject
    versions: tuple[DocVersion, ...]

    def __post_init__(self) -> None:
        if not self.arxiv_id:
            raise ValueError("arxiv_id must be non-empty")
        if not self.versions:
            raise ValueError("group must hold at least one version")

    def version(self, version_index: int) -> DocVersion:
        for v in self.versions:
            if v.version_index == version_index:
                return v
        raise ValueError(f"group {self.arxiv_id} has no version {version_index}")

    def adjacent_pairs(self) -> Iterator[tuple[DocVersion, DocVersion]]:
        for a, b in zip(self.versions, self.versions[1:]):
            yield a, b


def build_group(
    arxiv_id: str,
    subject: Subject | str,
    versions: Iterable[DocVersion],
    where: str = "group",
) -> ArticleGroup:
    """Assemble a group, sorting versions and enforcing the ordering
    invariants (unique version indices, strictly increasing timestamps)."""
    if isinstance(subject, str):
        subject = normalize_subject(subject)
    ordered = sorted(versions, key=lambda v: v.version_index)
    _check_version_order([(v.version_index, v.timestamp) for v in ordered], where)
    return ArticleGroup(arxiv_id=arxiv_id, subject=subject, versions=tuple(ordered))


def _check_version_order(ordered: Sequence[tuple], where: str) -> None:
    """`ordered` holds (version_index, timestamp, ...) sorted by index."""
    for a, b in zip(ordered, ordered[1:]):
        if a[0] == b[0]:
            raise CorpusFormatError(f"{where}: duplicate version_index {a[0]}")
        if a[1] >= b[1]:
            raise CorpusFormatError(
                f"{where}: timestamps must strictly increase with version_index "
                f"(version {b[0]} has {b[1]} <= {a[1]})"
            )


class RawGroup(NamedTuple):
    """One article group of a corpus file, validated but not yet built:
    every check of the corpus schema and of version order has passed, so
    build() cannot fail.  Plain data, cheap to send to a worker process."""

    arxiv_id: str
    subject: str
    # (version_index, timestamp, sentence strings per paragraph), by index
    versions: tuple[tuple[int, int, list[list[str]]], ...]

    def build(self) -> ArticleGroup:
        """Tokenize, filter and assemble the group.  Each distinct sentence
        text is analysed once; its repeats, in any version, share the
        result.  The memo of texts lives only as long as this call."""
        seen: dict[str, Sentence] = {}
        return build_group(
            self.arxiv_id, self.subject, (DocVersion.build(*v, seen) for v in self.versions)
        )


# ---------------------------------------------------------------------------
# corpus JSON

def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise CorpusFormatError(f"{path}: {message}")


def parse_corpus(data: bytes | str) -> tuple[ArticleGroup, ...]:
    """Parse corpus JSON (a top-level array of article groups).

    Versions are sorted by version index; timestamps must strictly
    increase with it.  Schema violations raise CorpusFormatError naming
    the offending JSON path.
    """
    return tuple(g.build() for g in _check_corpus(data, compat=False))


def _check_corpus(data: bytes | str, compat: bool) -> tuple[RawGroup, ...]:
    """The validation half of both readers; building is the other."""
    obj = decode_json(data, CorpusFormatError, "$")
    if compat and isinstance(obj, dict):
        key = next((k for k in ("groups", "papers", "data") if isinstance(obj.get(k), list)), None)
        obj = [obj] if key is None else obj[key]
    _expect(isinstance(obj, list), "$", "expected a top-level array of article groups")
    groups = []
    seen: set[str] = set()
    for n, g in enumerate(obj):
        path = f"$[{n}]"
        group = _check_group(_normalize_group(g, path) if compat else g, path)
        _expect(group.arxiv_id not in seen, f"{path}.arxiv_id",
                f"repeats arxiv_id {group.arxiv_id!r} of an earlier group")
        seen.add(group.arxiv_id)
        groups.append(group)
    return tuple(groups)


def _check_group(obj: Any, path: str) -> RawGroup:
    _expect(isinstance(obj, dict), path, "expected an object")
    _expect(isinstance(obj.get("arxiv_id"), str) and obj["arxiv_id"], f"{path}.arxiv_id",
            "expected a non-empty string")
    _expect(isinstance(obj.get("subject"), str), f"{path}.subject", "expected a string")
    versions = obj.get("versions")
    _expect(isinstance(versions, list) and versions, f"{path}.versions",
            "expected a non-empty array")
    ordered = sorted(
        (_check_version(v, f"{path}.versions[{n}]") for n, v in enumerate(versions)),
        key=lambda v: v[0],
    )
    _check_version_order(ordered, f"{path}.versions")
    return RawGroup(obj["arxiv_id"], obj["subject"], tuple(ordered))


def _check_version(obj: Any, path: str) -> tuple[int, int, list[list[str]]]:
    _expect(isinstance(obj, dict), path, "expected an object")
    version = obj.get("version")
    _expect(isinstance(version, int) and not isinstance(version, bool) and version >= 1,
            f"{path}.version", "expected a positive integer")
    timestamp = obj.get("timestamp")
    _expect(isinstance(timestamp, int) and not isinstance(timestamp, bool),
            f"{path}.timestamp", "expected an integer")
    paragraphs = obj.get("paragraphs")
    _expect(isinstance(paragraphs, list), f"{path}.paragraphs", "expected an array")
    raws: list[list[str]] = []
    for n, p in enumerate(paragraphs):
        ppath = f"{path}.paragraphs[{n}]"
        _expect(isinstance(p, dict), ppath, "expected an object")
        sentences = p.get("sentences")
        _expect(isinstance(sentences, list), f"{ppath}.sentences", "expected an array")
        for m, s in enumerate(sentences):
            _expect(isinstance(s, str), f"{ppath}.sentences[{m}]", "expected a string")
        raws.append(list(sentences))
    return version, timestamp, raws


def serialize_corpus(groups: Iterable[ArticleGroup]) -> str:
    """Serialize groups back to corpus JSON; parse_corpus round-trips it."""
    out = []
    for g in groups:
        out.append({
            "arxiv_id": g.arxiv_id,
            "subject": g.subject.value,
            "versions": [
                {
                    "version": v.version_index,
                    "timestamp": v.timestamp,
                    "paragraphs": [
                        {"sentences": [s.raw for s in p.sentences]} for p in v.paragraphs
                    ],
                }
                for v in g.versions
            ],
        })
    return json.dumps(out, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# compatibility reader for the released arXivEdits distribution

def parse_arxivedits_corpus(data: bytes | str) -> tuple[ArticleGroup, ...]:
    """Best-effort reader: maps the released distribution's field
    spellings onto the native schema, then validates like parse_corpus.

    The groups may be wrapped under "groups"/"papers"/"data".  Accepted
    per group: id under "arxiv_id"/"paper_id"/"doc_id"/"id"; subject
    under "subject"/"primary_category"/"category"; versions as an array
    or as a mapping keyed by version name.  Per version: the index under
    "version"/"version_index" (ints or strings like "v2"), the timestamp
    under "timestamp"/"time"/"created" (missing or out-of-order ones are
    repaired to preserve ordering), and paragraphs either as
    {"sentences": [...]} objects or as bare arrays of sentence strings.
    """
    return tuple(g.build() for g in _check_corpus(data, compat=True))


def _first_key(obj: dict, keys: Iterable[str]) -> Any:
    for k in keys:
        if k in obj:
            return obj[k]
    return None


def _version_index(value: Any, path: str) -> int:
    """An int, or a version name like "v2"; _check_version checks the range."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.lower().lstrip("v")
        if text.isdecimal():
            try:
                return int(text)
            except ValueError:  # more digits than int() converts
                pass
    raise CorpusFormatError(f"{path}: cannot interpret version index {value!r}")


def _normalize_group(obj: Any, path: str) -> Any:
    """Released-shape group in, native-shape group out.  Only the
    spellings are mapped; _check_group validates the result."""
    if not isinstance(obj, dict):
        return obj
    subject = _first_key(obj, ("subject", "primary_category", "category"))
    versions = obj.get("versions")
    if isinstance(versions, dict):
        # every key must name a version; entries without their own take it
        named = []
        for key, v in versions.items():
            index = _version_index(key, f"{path}.versions.{key}")
            named.append(v if not isinstance(v, dict) or "version" in v else dict(v, version=index))
        versions = named
    if isinstance(versions, list):
        versions = _normalize_versions(versions, f"{path}.versions")
    return {
        "arxiv_id": _first_key(obj, ("arxiv_id", "paper_id", "doc_id", "id")),
        # str() of a non-string JSON value never names a known subject
        "subject": subject if isinstance(subject, str) else "other",
        "versions": versions,
    }


def _normalize_versions(versions: list, path: str) -> list:
    keyed = []
    for n, v in enumerate(versions):
        name = _first_key(v, ("version", "version_index")) if isinstance(v, dict) else None
        keyed.append((_version_index(name, f"{path}[{n}]"), v))
    keyed.sort(key=lambda iv: iv[0])
    out = []
    last: int | None = None
    for index, v in keyed:
        ts = _first_key(v, ("timestamp", "time", "created"))
        if not isinstance(ts, int) or isinstance(ts, bool):
            ts = index if last is None else last + 1
        elif last is not None:
            ts = max(ts, last + 1)
        last = ts
        paragraphs = v.get("paragraphs")
        if isinstance(paragraphs, list):
            paragraphs = [p if isinstance(p, dict) else {"sentences": p} for p in paragraphs]
        out.append({"version": index, "timestamp": ts, "paragraphs": paragraphs})
    return out


def read_corpus(path: str, compat: bool = False) -> tuple[RawGroup, ...]:
    """Read and validate a corpus file without building any group.
    Every corpus error names the file; `compat` reads the released
    distribution's shapes as parse_arxivedits_corpus does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _check_corpus(data, compat)
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from None


def load_corpus(path: str, compat: bool = False) -> tuple[ArticleGroup, ...]:
    return tuple(g.build() for g in read_corpus(path, compat))
