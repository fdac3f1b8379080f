import json
import os
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revkit.corpus import SentenceId
from revkit.edits import Edit, EditKind, SentenceRevision, edit_sort_key
from revkit.errors import AlignmentFormatError, FormatError
from revkit.formats import (
    EditFileEntry,
    alignment_from_json,
    alignment_to_json,
    atomic_write_text,
    dump_json,
    entry_from_json,
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


def test_atomic_write_text_renames_from_a_name_that_is_no_json_file(tmp_path, monkeypatch):
    """`stats --alignments DIR` reads every *.json name in DIR, so a temp
    that a killed run left there must not be one."""
    renamed = []
    replace = os.replace

    def spy(src, dst):
        renamed.append((src, dst))
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    path = str(tmp_path / "2001.0001.v1-v2.json")
    atomic_write_text(path, "{}\n")
    ((tmp, dst),) = renamed
    assert dst == path
    assert os.path.dirname(tmp) == str(tmp_path)
    assert not tmp.endswith(".json")
    assert os.listdir(tmp_path) == ["2001.0001.v1-v2.json"]


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
    text = alignment_to_json(sample_alignment(), arxiv_id="1234.5678")
    atomic_write_text(path, text)
    got_id, got = read_alignment(path)
    assert got_id == "1234.5678"
    assert got.src_version == 1 and got.tgt_version == 2
    # the writer keeps positive pairs only
    assert got.sorted_positive() == sample_alignment().sorted_positive()
    assert all(label is not SentAlignLabel.NOT_ALIGNED for _, _, label in got.pairs)
    # what was read writes back byte for byte
    assert alignment_to_json(got, got_id) == text


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


@pytest.mark.parametrize(
    "bad,message",
    [
        ({"src": [0, False], "tgt": [0, 1], "label": "aligned"}, "list of ints"),
        ("pair", "expected an object"),
        ({"src": [0, 0], "label": "aligned"}, "missing tgt"),
    ],
)
def test_alignment_reader_names_the_failing_pair(bad, message):
    good = {"src": [0, 0], "tgt": [0, 0], "label": "aligned"}
    # the repeated pair still counts as an index
    obj = {"src_version": 1, "tgt_version": 2, "pairs": [good, good, bad]}
    with pytest.raises(AlignmentFormatError, match=rf"^f\.json\.pairs\[2\]: .*{message}"):
        alignment_from_json(obj, "f.json")


# strings that exercise every escape the writers must reproduce
_STRINGS = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\U0001f600')),
    max_size=12,
)
_INTS = st.one_of(st.integers(), st.integers(min_value=2**63, max_value=2**80))


def alignment_object(alignment: SentenceAlignment, arxiv_id: str | None = None) -> dict:
    """The object an alignment file holds: `dump_json` of it is the
    writer's reference text."""
    positive = [p for p in alignment.pairs if p[2] is not SentAlignLabel.NOT_ALIGNED]
    obj = {
        "src_version": alignment.src_version,
        "tgt_version": alignment.tgt_version,
        "pairs": [
            {"src": [s.paragraph, s.sentence], "tgt": [t.paragraph, t.sentence], "label": label.value}
            for s, t, label in sorted(positive, key=lambda p: (p[0], p[1]))
        ],
    }
    if arxiv_id is not None:
        obj["arxiv_id"] = arxiv_id
    return obj


@st.composite
def _alignments(draw):
    src_v, tgt_v = draw(_INTS), draw(_INTS)
    pairs = draw(
        st.frozensets(
            st.tuples(
                st.builds(SentenceId, st.just(src_v), _INTS, _INTS),
                st.builds(SentenceId, st.just(tgt_v), _INTS, _INTS),
                st.sampled_from(SentAlignLabel),
            ),
            max_size=5,
        )
    )
    return SentenceAlignment(src_v, tgt_v, pairs)


@settings(max_examples=200)
@given(_alignments(), st.one_of(st.none(), _STRINGS))
@example(SentenceAlignment(1, 2, frozenset()), None)
@example(SentenceAlignment(1, 2, frozenset()), "caf\u00e9/\"1\"\\\n")
@example(
    SentenceAlignment(2**64, -1, frozenset({
        (SentenceId(2**64, 2**63, 0), SentenceId(-1, -1, 2**80), SentAlignLabel.ALIGNED),
        (SentenceId(2**64, 0, 0), SentenceId(-1, 0, 0), SentAlignLabel.NOT_ALIGNED),
    })),
    None,
)
def test_alignment_writer_matches_dump_json(alignment, arxiv_id):
    assert alignment_to_json(alignment, arxiv_id) == dump_json(alignment_object(alignment, arxiv_id))


@given(_alignments(), st.one_of(st.none(), _STRINGS.filter(bool)))
def test_written_alignment_reads_back_equal(tmp_path_factory, alignment, arxiv_id):
    path = str(tmp_path_factory.mktemp("align") / "a.json")
    atomic_write_text(path, alignment_to_json(alignment, arxiv_id))
    # the file holds the positive pairs only
    positive = frozenset(p for p in alignment.pairs if p[2] is not SentAlignLabel.NOT_ALIGNED)
    assert read_alignment(path) == (arxiv_id, replace(alignment, pairs=positive))


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

def edit_object(e: Edit) -> dict:
    """The object an edit file holds for `e`."""
    return {
        "src": list(e.src_span) if e.src_span else None,
        "tgt": list(e.tgt_span) if e.tgt_span else None,
        "kind": e.kind.value,
        "intention": e.intention.value if e.intention else None,
    }


def edit_file_object(entries) -> dict:
    """The object an edit file of `entries` holds: `dump_json` of it is
    the writer's reference text."""
    return {
        "revisions": [
            {
                "revision_id": e.revision_id,
                "src": None if e.src_id is None else list(e.src_id),
                "tgt": None if e.tgt_id is None else list(e.tgt_id),
                "edits": [edit_object(x) for x in e.edits],
            }
            for e in entries
        ]
    }


def read_one_edit(obj):
    """The edit `obj` spells, read as the only edit of an edit-file entry."""
    (edit,) = entry_from_json({"revision_id": "r", "src": None, "tgt": None, "edits": [obj]}, "entry").edits
    return edit


def test_edit_json_round_trip():
    edits = [
        sub(0, 2, 1, 3),
        ins(4, 5),
        dele(3, 4),
        Edit((0, 1), (0, 1), EditKind.SUBSTITUTE, IntentionLabel.LANG_STYLE),
        Edit((1, 2), None, EditKind.DELETE, CoarseIntention.IMPROVE_LANGUAGE),
    ]
    for e in edits:
        assert read_one_edit(edit_object(e)) == e


def test_edit_json_shared_label_strings_read_as_fine():
    # three label strings exist at both granularities; the reader
    # resolves them to the fine enum
    e = Edit((1, 2), None, EditKind.DELETE, CoarseIntention.UPDATE_CONTENT)
    back = read_one_edit(edit_object(e))
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
    with pytest.raises(FormatError, match=rf"^entry\.edits\[0\]: .*{message}"):
        read_one_edit(obj)


def two_entries():
    """Two entries as extract-edits makes them, from validated revisions."""
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
    return [EditFileEntry(r.revision_id, r.src.id, r.tgt.id, r.edits) for r in (a, b)]


def test_edit_file_round_trip(tmp_path):
    path = str(tmp_path / "edits.json")
    written = two_entries()
    write_edit_file(path, written)
    entries = read_edit_file(path)
    assert [e.revision_id for e in entries] == ["v1p0s0-v2p0s0", "v1p1s0-v2p1s0"]
    assert entries[0].src_id == SentenceId(1, 0, 0)
    assert entries[0].edits == (sub(1, 2, 1, 2),)
    assert entries[0].alternatives is None
    assert entries[0].gold_alternatives() == ((sub(1, 2, 1, 2),),)
    assert entries == written

    with open(path) as fh:
        first = fh.read()
    write_edit_file(path, written)
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


_SPANS = st.tuples(st.integers(0, 2**70), st.integers(1, 2**70)).map(lambda ab: (ab[0], ab[0] + ab[1]))


@st.composite
def _edits(draw):
    kind = draw(st.sampled_from(EditKind))
    src = None if kind is EditKind.INSERT else draw(_SPANS)
    tgt = None if kind is EditKind.DELETE else draw(_SPANS)
    return Edit(src, tgt, kind, draw(st.one_of(st.none(), st.sampled_from(IntentionLabel))))


_IDS = st.one_of(st.none(), st.builds(SentenceId, _INTS, _INTS, _INTS))
_ENTRIES = st.lists(
    st.builds(
        EditFileEntry,
        _STRINGS.filter(bool),
        _IDS,
        _IDS,
        st.lists(_edits(), max_size=4).map(lambda es: tuple(sorted(es, key=edit_sort_key))),
    ),
    max_size=4,
    unique_by=lambda e: e.revision_id,
)


@settings(max_examples=200)
@given(_ENTRIES)
@example([])
@example([EditFileEntry("r\u00e9\"\\\t", SentenceId(1, 2**64, 0), SentenceId(2, 0, 0), ())])
@example([EditFileEntry("r", SentenceId(1, 0, 0), SentenceId(2, 0, 0), (ins(0, 2**63),))])
def test_edit_writer_matches_dump_json(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("edits") / "e.json"
    write_edit_file(str(path), entries)
    assert path.read_text() == dump_json(edit_file_object(entries))


def test_write_edit_file_matches_dump_json(tmp_path):
    path = tmp_path / "edits.json"
    entries = two_entries()
    write_edit_file(str(path), entries)
    assert path.read_text() == dump_json(edit_file_object(entries))


@given(_ENTRIES)
def test_written_edit_file_reads_back_equal(tmp_path_factory, entries):
    path = str(tmp_path_factory.mktemp("edits") / "e.json")
    write_edit_file(path, entries)
    assert read_edit_file(path) == entries


# ---------------------------------------------------------------------------
# CSV

def test_format_csv():
    got = format_csv(["name", "value"], [["plain", 1], ["with, comma", 2.5]])
    assert got == 'name,value\nplain,1\n"with, comma",2.5\n'
