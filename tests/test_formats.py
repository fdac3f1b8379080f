import json
import os

import pytest

from revkit.corpus import SentenceId
from revkit.edits import Edit, EditKind, SentenceRevision
from revkit.errors import AlignmentFormatError, FormatError
from revkit.formats import (
    alignment_from_json,
    alignment_to_json,
    atomic_write_text,
    dump_json,
    edit_from_json,
    edit_to_json,
    format_csv,
    parse_pharaoh_line,
    read_alignment,
    read_edit_file,
    read_pharaoh_file,
    read_tree_file,
    write_edit_file,
)
from revkit.intention import CoarseIntention, IntentionLabel
from revkit.sent_align import SentAlignLabel, SentenceAlignment

from helpers import dele, ins, sub, wa
from oracles import make_sentence


def test_dump_json_is_deterministic():
    a = dump_json({"b": 1, "a": [2, 3]})
    b = dump_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert '"a"' in a.splitlines()[1]  # keys sorted


def test_atomic_write_text(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "first\n")
    assert path.read_text() == "first\n"
    atomic_write_text(str(path), "second\n")
    assert path.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]  # no temp litter


# ---------------------------------------------------------------------------
# alignment JSON

def sample_alignment():
    return SentenceAlignment(
        1, 2,
        frozenset(
            {
                (SentenceId(1, 0, 0), SentenceId(2, 0, 0), SentAlignLabel.ALIGNED),
                (SentenceId(1, 0, 1), SentenceId(2, 1, 0), SentAlignLabel.PARTIAL),
                (SentenceId(1, 2, 0), SentenceId(2, 2, 0), SentAlignLabel.NOT_ALIGNED),
            }
        ),
    )


def test_alignment_round_trip(tmp_path):
    path = str(tmp_path / "a.json")
    text = dump_json(alignment_to_json(sample_alignment(), arxiv_id="1234.5678"))
    atomic_write_text(path, text)
    got_id, got = read_alignment(path)
    assert got_id == "1234.5678"
    assert got.src_version == 1 and got.tgt_version == 2
    # the writer keeps positive pairs only
    assert got.sorted_positive() == sample_alignment().sorted_positive()
    assert all(label is not SentAlignLabel.NOT_ALIGNED for _, _, label in got.pairs)
    # what was read writes back byte for byte
    assert dump_json(alignment_to_json(got, got_id)) == text


def test_alignment_reader_accepts_aliases():
    obj = {
        "source_version": 3,
        "target_version": 4,
        "paper_id": "9876.5432",
        "alignments": [
            {"source": [0, 0], "target": [4, 3, 0], "type": "Partially_Aligned"},
            {"src_sentence": [1, 2], "tgt_sentence": [4, 1], "label": "ALIGNED"},
        ],
    }
    got_id, got = alignment_from_json(obj)
    assert got_id == "9876.5432"
    assert got.pairs == frozenset(
        {
            (SentenceId(3, 0, 0), SentenceId(4, 3, 0), SentAlignLabel.PARTIAL),
            (SentenceId(3, 1, 2), SentenceId(4, 4, 1), SentAlignLabel.ALIGNED),
        }
    )


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda o: o.pop("src_version"), "missing src_version"),
        (lambda o: o.update(src_version="one"), "versions must be integers"),
        (lambda o: o.update(pairs={}), "pairs must be a list"),
        (lambda o: o["pairs"].append({"tgt": [0, 0], "label": "aligned"}), "missing src"),
        (
            lambda o: o["pairs"].append({"src": [0, True], "tgt": [0, 0], "label": "aligned"}),
            "list of ints",
        ),
        (
            lambda o: o["pairs"].append({"src": [0], "tgt": [0, 0], "label": "aligned"}),
            "2 or 3 elements",
        ),
        (
            lambda o: o["pairs"].append({"src": [0, 0], "tgt": [0, 0], "label": "somehow"}),
            "unknown label",
        ),
        (
            lambda o: o["pairs"].append({"src": [9, 0, 0], "tgt": [0, 0], "label": "aligned"}),
            "disagrees with file header",
        ),
        (lambda o: o.update(arxiv_id=7), "arxiv_id must be a string"),
    ],
)
def test_alignment_reader_errors(mutate, message):
    obj = {"src_version": 1, "tgt_version": 2, "pairs": []}
    mutate(obj)
    with pytest.raises(AlignmentFormatError, match=message):
        alignment_from_json(obj)


@pytest.mark.parametrize(
    "field,value",
    [("src_version", "1"), ("src_version", 1.9), ("tgt_version", 2.0), ("tgt_version", True)],
    ids=["numeric-string", "float", "integral-float", "bool"],
)
def test_alignment_reader_rejects_non_int_versions(field, value):
    obj = {"src_version": 1, "tgt_version": 2, "pairs": []}
    obj[field] = value
    with pytest.raises(AlignmentFormatError, match="versions must be integers"):
        alignment_from_json(obj)


def test_read_alignment_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(AlignmentFormatError, match="invalid JSON"):
        read_alignment(str(path))


def test_alignment_reader_rejects_non_object():
    with pytest.raises(AlignmentFormatError, match="expected an object"):
        alignment_from_json([1, 2, 3])


# ---------------------------------------------------------------------------
# Pharaoh lines

def test_pharaoh_round_trip():
    al = parse_pharaoh_line("0-0 1-3 2-1")
    assert al == wa((0, 0), (2, 1), (1, 3))
    assert " ".join(f"{i}-{j}" for i, j in sorted(al.links)) == "0-0 1-3 2-1"


def test_pharaoh_empty_line_means_no_links():
    assert parse_pharaoh_line("") == wa()


@pytest.mark.parametrize(
    "bad",
    ["x-1", "3_4", "5-", "-2", "1-2-3", "0\u00b2-0",
     pytest.param("1" * 5000 + "-0", id="5000-digit index")],
)
def test_pharaoh_malformed(bad):
    with pytest.raises(FormatError, match="bad link"):
        parse_pharaoh_line(bad)


def test_read_pharaoh_file(tmp_path):
    path = tmp_path / "wa.txt"
    path.write_text("0-0 1-1\n\n2-0\n")
    got = read_pharaoh_file(str(path))
    assert got == [wa((0, 0), (1, 1)), wa(), wa((2, 0))]


def test_read_pharaoh_file_reports_line(tmp_path):
    path = tmp_path / "wa.txt"
    path.write_text("0-0\nbogus\n")
    with pytest.raises(FormatError, match=r"wa\.txt:2"):
        read_pharaoh_file(str(path))


# ---------------------------------------------------------------------------
# tree files

def test_read_tree_file(tmp_path):
    path = tmp_path / "trees.txt"
    path.write_text("(S (NP a) (VP b))\n\n(S c)\n")
    first, second, third = read_tree_file(str(path))
    assert first.label == "S" and first.span == (0, 2)
    assert second is None
    assert third.span == (0, 1)


def test_read_tree_file_reports_line(tmp_path):
    path = tmp_path / "trees.txt"
    path.write_text("(S a)\n(S (NP b)\n")
    with pytest.raises(FormatError, match=r"trees\.txt:2"):
        read_tree_file(str(path))


@pytest.mark.parametrize(
    "reader, error",
    [
        (read_alignment, AlignmentFormatError),
        (read_edit_file, FormatError),
        (read_pharaoh_file, FormatError),
        (read_tree_file, FormatError),
    ],
)
def test_readers_reject_invalid_utf8(tmp_path, reader, error):
    path = tmp_path / "latin1.txt"
    path.write_bytes("0-0\ncaf\u00e9 1-1\n".encode("latin-1"))
    with pytest.raises(error, match=r"latin1\.txt: not valid UTF-8"):
        reader(str(path))


# ---------------------------------------------------------------------------
# edit JSON

def test_edit_json_round_trip():
    edits = [
        sub(0, 2, 1, 3),
        ins(4, 5),
        dele(3, 4),
        Edit((0, 1), (0, 1), EditKind.SUBSTITUTE, IntentionLabel.LANG_STYLE),
        Edit((1, 2), None, EditKind.DELETE, CoarseIntention.IMPROVE_LANGUAGE),
    ]
    for e in edits:
        assert edit_from_json(edit_to_json(e)) == e


def test_edit_json_shared_label_strings_read_as_fine():
    # three label strings exist at both granularities; the reader
    # resolves them to the fine enum
    e = Edit((1, 2), None, EditKind.DELETE, CoarseIntention.UPDATE_CONTENT)
    back = edit_from_json(edit_to_json(e))
    assert back.intention is IntentionLabel.UPDATE_CONTENT


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"kind": "rewrite", "src": [0, 1], "tgt": [0, 1]}, "unknown kind"),
        (
            {"kind": "substitute", "src": [0, 1], "tgt": [0, 1], "intention": "Guess"},
            "unknown intention",
        ),
        ({"kind": "substitute", "src": [0], "tgt": [0, 1]}, "span must be null"),
        ({"kind": "insert", "src": [0, 1], "tgt": [0, 1]}, "insert"),
        ("not a dict", "expected an object"),
    ],
)
def test_edit_json_errors(obj, message):
    with pytest.raises(FormatError, match=message):
        edit_from_json(obj)


def two_revisions():
    a = SentenceRevision(
        make_sentence("aa bb cc", version=1),
        make_sentence("aa dd cc", version=2),
        (sub(1, 2, 1, 2),),
    )
    b = SentenceRevision(
        make_sentence("ee ff", version=1, para=1),
        make_sentence("ee ff gg", version=2, para=1),
        (ins(2, 3),),
    )
    return [a, b]


def test_edit_file_round_trip(tmp_path):
    path = str(tmp_path / "edits.json")
    revisions = two_revisions()
    write_edit_file(path, revisions)
    entries = read_edit_file(path)
    assert [e.revision_id for e in entries] == [r.revision_id for r in revisions]
    assert entries[0].src_id == SentenceId(1, 0, 0)
    assert entries[0].edits == revisions[0].edits
    assert entries[0].alternatives is None
    assert entries[0].gold_alternatives() == (revisions[0].edits,)

    with open(path) as fh:
        first = fh.read()
    write_edit_file(path, revisions)
    with open(path) as fh:
        assert fh.read() == first


def test_edit_file_alternatives(tmp_path):
    path = tmp_path / "gold.json"
    obj = {
        "revisions": [
            {
                "revision_id": "r1",
                "src": [1, 0, 0],
                "tgt": [2, 0, 0],
                "alternatives": [
                    [
                        {"src": None, "tgt": [1, 2], "kind": "insert", "intention": None},
                        {"src": [0, 1], "tgt": None, "kind": "delete", "intention": None},
                    ],
                    [
                        {"src": [0, 1], "tgt": [1, 2], "kind": "substitute", "intention": None},
                    ],
                ],
            }
        ]
    }
    path.write_text(json.dumps(obj))
    (entry,) = read_edit_file(str(path))
    # alternatives come back canonically sorted, first one doubles as edits
    assert entry.alternatives == ((dele(0, 1), ins(1, 2)), (sub(0, 1, 1, 2),))
    assert entry.edits == (dele(0, 1), ins(1, 2))
    assert entry.gold_alternatives() == entry.alternatives


def test_edit_file_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.json"
    rec = {"revision_id": "r1", "src": None, "tgt": None, "edits": []}
    path.write_text(json.dumps({"revisions": [rec, rec]}))
    with pytest.raises(FormatError, match="duplicate revision_id 'r1'"):
        read_edit_file(str(path))


@pytest.mark.parametrize(
    "obj,message",
    [
        ([], "revisions list"),
        ({"revisions": [{"src": None, "tgt": None, "edits": []}]}, "missing revision_id"),
        ({"revisions": [{"revision_id": "r", "src": [1, 0], "edits": []}]}, "sentence id"),
        ({"revisions": [{"revision_id": "r", "src": None, "tgt": None}]}, "missing edits"),
        (
            {"revisions": [{"revision_id": "r", "src": None, "tgt": None, "alternatives": []}]},
            "non-empty list",
        ),
    ],
)
def test_edit_file_structure_errors(tmp_path, obj, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=message):
        read_edit_file(str(path))


# ---------------------------------------------------------------------------
# CSV

def test_format_csv():
    got = format_csv(["name", "value"], [["plain", 1], ["with, comma", 2.5]])
    assert got == 'name,value\nplain,1\n"with, comma",2.5\n'
