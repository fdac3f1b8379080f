"""Exception types shared across the package.

Anything raised for malformed input files or inconsistent data derives
from :class:`RevkitError`; the CLI maps these to exit code 2 and treats
everything else as an internal error (exit code 1).  Text readers open
their files with :func:`open_text`, and JSON readers decode with
:func:`decode_json`, so undecodable bytes follow that rule.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator, TextIO


class RevkitError(Exception):
    """Base class for input and file-format errors."""


class CorpusFormatError(RevkitError):
    """Corpus JSON violates the schema; message names the JSON path."""


class AlignmentFormatError(RevkitError):
    """Sentence-alignment JSON is malformed or internally inconsistent."""


class FormatError(RevkitError):
    """Generic error for the auxiliary file formats (word alignments,
    edit files, prediction files)."""


class TreeParseError(FormatError):
    """Bracketed tree could not be parsed; carries a character offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class ConfigError(RevkitError):
    """Configuration file or flag value is invalid."""


@contextmanager
def open_text(path: str, error: type[RevkitError]) -> Iterator[TextIO]:
    """Open `path` for reading as UTF-8 text.  Bytes that do not decode
    raise `error` naming the file, not UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not valid UTF-8 ({exc.reason})") from None


def decode_json(data: bytes | str, error: type[RevkitError], where: str) -> Any:
    """Decode UTF-8 bytes (or text) holding one JSON document.  Bytes that
    are not UTF-8, invalid JSON, integers too long for int() and nesting
    too deep for the decoder raise `error` naming `where`."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not valid UTF-8 ({exc.reason})") from None
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise error(f"{where}: invalid JSON ({exc})") from None
