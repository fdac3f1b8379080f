import json

import pytest

from revkit.intention import (
    COARSE_LABELS,
    FINE_LABELS,
    CoarseIntention,
    IntentionLabel,
    classify_edit_rule,
    coarse_of,
    ingest_predictions,
    levenshtein,
    parse_label,
)

from helpers import dele, ins, sub
from oracles import make_sentence


def test_coarse_of_folds_language_and_keeps_the_rest():
    assert coarse_of(IntentionLabel.LANG_STYLE) is CoarseIntention.IMPROVE_LANGUAGE
    assert coarse_of(IntentionLabel.LANG_ACCURATE) is CoarseIntention.IMPROVE_LANGUAGE
    assert coarse_of(IntentionLabel.LANG_SIMPLIFY) is CoarseIntention.IMPROVE_LANGUAGE
    assert coarse_of(IntentionLabel.LANG_OTHER) is CoarseIntention.IMPROVE_LANGUAGE
    assert coarse_of(IntentionLabel.GRAMMAR_TYPO) is CoarseIntention.GRAMMAR_TYPO
    assert coarse_of(IntentionLabel.UPDATE_CONTENT) is CoarseIntention.UPDATE_CONTENT
    assert coarse_of(IntentionLabel.ADJUST_FORMAT) is CoarseIntention.ADJUST_FORMAT


def test_coarse_of_idempotent():
    for c in CoarseIntention:
        assert coarse_of(c) is c


def test_label_vocabularies():
    assert len(FINE_LABELS) == 7
    assert len(COARSE_LABELS) == 4
    # the non-language classes share value strings across both levels
    assert set(COARSE_LABELS) & set(FINE_LABELS) == {
        "Grammar-Typo", "Update-Content", "Adjust-Format",
    }


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("", "", 0),
        ("", "abc", 3),
        ("kitten", "sitting", 3),
        ("Not", "Note", 1),
        ("same", "same", 0),
        ("a", "A", 1),
    ],
)
def test_levenshtein(a, b, want):
    assert levenshtein(a, b) == want
    assert levenshtein(b, a) == want


# ---------------------------------------------------------------------------
# rule cascade

def classify(src_raw, tgt_raw, edit):
    src = make_sentence(src_raw, version=1)
    tgt = make_sentence(tgt_raw, version=2)
    return classify_edit_rule(edit, src, tgt)


def test_rule_figure_family_rename_is_formatting():
    got = classify(
        "see Figure 1 here", "see Fig . 1 here", sub(1, 2, 1, 3)
    )
    assert got is IntentionLabel.ADJUST_FORMAT


def test_rule_table_family_is_formatting():
    got = classify("in Table 2", "in Tab . 2", sub(1, 2, 1, 3))
    assert got is IntentionLabel.ADJUST_FORMAT


def test_rule_cross_family_rename_is_not_formatting():
    got = classify("see Figure 1", "see Table 1", sub(1, 2, 1, 2))
    assert got is IntentionLabel.LANG_OTHER


def test_rule_pure_punctuation_is_formatting_not_typo():
    got = classify("end , here", "end ; here", sub(1, 2, 1, 2))
    assert got is IntentionLabel.ADJUST_FORMAT


def test_rule_marker_swap_is_formatting():
    got = classify("as [MATH] shows", "as [REF] shows", sub(1, 2, 1, 2))
    assert got is IntentionLabel.ADJUST_FORMAT


def test_rule_long_insert_is_content():
    tgt = "start aa bb cc dd ee ff gg end"
    got = classify("start end", tgt, ins(1, 8))
    assert got is IntentionLabel.UPDATE_CONTENT


def test_rule_long_delete_is_content():
    src = "start aa bb cc dd ee ff gg end"
    got = classify(src, "start end", dele(1, 8))
    assert got is IntentionLabel.UPDATE_CONTENT


def test_rule_six_token_insert_is_not_content():
    tgt = "start aa bb cc dd ee ff end"
    got = classify("start end", tgt, ins(1, 7))
    assert got is IntentionLabel.LANG_OTHER


def test_rule_long_marker_insert_stays_formatting():
    # the formatting test outranks the length test
    tgt = "x [MATH] [MATH] [MATH] [MATH] [MATH] [MATH] [MATH] y"
    got = classify("x y", tgt, ins(1, 8))
    assert got is IntentionLabel.ADJUST_FORMAT


def test_rule_close_substitute_is_typo():
    got = classify("Not that one", "Note that one", sub(0, 1, 0, 1))
    assert got is IntentionLabel.GRAMMAR_TYPO


def test_rule_distant_substitute_is_language():
    got = classify("a quick fix", "a thorough fix", sub(1, 2, 1, 2))
    assert got is IntentionLabel.LANG_OTHER


def test_rule_multi_token_substitute_never_typo():
    got = classify("is not here", "is nt here now", sub(1, 2, 1, 3))
    assert got is IntentionLabel.LANG_OTHER


def test_rule_long_substitute_is_not_content():
    src = "start aa bb cc dd ee ff gg end"
    tgt = "start hh ii jj kk ll mm nn end"
    got = classify(src, tgt, sub(1, 8, 1, 8))
    assert got is IntentionLabel.LANG_OTHER


# ---------------------------------------------------------------------------
# prediction ingestion

def line(rid, idx, label):
    return json.dumps({"revision_id": rid, "edit_index": idx, "label": label})


def test_ingest_good_fine_lines():
    lines = [
        line("v1p0s0-v2p0s0", 0, "Grammar-Typo"),
        "",
        line("v1p0s0-v2p0s0", 1, "Update-Content"),
    ]
    got, errs = ingest_predictions(lines, schema="fine")
    assert errs == ()
    assert got == {
        ("v1p0s0-v2p0s0", 0): IntentionLabel.GRAMMAR_TYPO,
        ("v1p0s0-v2p0s0", 1): IntentionLabel.UPDATE_CONTENT,
    }


def test_ingest_coarse_schema_folds_fine_labels():
    lines = [
        line("r", 0, "Improve-Language"),
        line("r", 1, "Language-Style"),
        line("r", 2, "Grammar-Typo"),
    ]
    got, errs = ingest_predictions(lines, schema="coarse")
    assert errs == ()
    assert got == {
        ("r", 0): CoarseIntention.IMPROVE_LANGUAGE,
        ("r", 1): CoarseIntention.IMPROVE_LANGUAGE,
        ("r", 2): CoarseIntention.GRAMMAR_TYPO,
    }


def test_ingest_coarse_label_in_fine_schema_is_hinted():
    got, errs = ingest_predictions([line("r", 0, "Improve-Language")], schema="fine")
    assert got == {}
    assert len(errs) == 1
    assert "coarse label given" in errs[0]
    assert "line 1" in errs[0]


def test_ingest_unknown_label():
    got, errs = ingest_predictions([line("r", 0, "Fixing-Stuff")], schema="fine")
    assert got == {}
    assert "unknown fine label 'Fixing-Stuff'" in errs[0]
    assert "coarse label given" not in errs[0]


def test_ingest_unknown_coarse_label():
    got, errs = ingest_predictions([line("r", 0, "Fixing-Stuff")], schema="coarse")
    assert got == {}
    assert errs == ("line 1: unknown coarse label 'Fixing-Stuff'",)


def test_parse_label_schemas():
    assert parse_label("Grammar-Typo") is IntentionLabel.GRAMMAR_TYPO
    assert parse_label("Improve-Language") is CoarseIntention.IMPROVE_LANGUAGE
    assert parse_label("Grammar-Typo", "coarse") is CoarseIntention.GRAMMAR_TYPO
    assert parse_label("Language-Style", "coarse") is CoarseIntention.IMPROVE_LANGUAGE
    assert parse_label("Language-Style", "fine") is IntentionLabel.LANG_STYLE
    with pytest.raises(ValueError, match=r"^unknown fine label 'Improve-Language' \(coarse"):
        parse_label("Improve-Language", "fine")
    with pytest.raises(ValueError, match=r"^unknown label 7$"):
        parse_label(7)
    with pytest.raises(ValueError, match="unknown schema"):
        parse_label("Grammar-Typo", "medium")


def test_ingest_duplicate_key():
    lines = [line("r", 0, "Grammar-Typo"), line("r", 0, "Update-Content")]
    got, errs = ingest_predictions(lines)
    assert got == {("r", 0): IntentionLabel.GRAMMAR_TYPO}
    assert "line 2: duplicate prediction" in errs[0]


def test_ingest_bad_json_and_missing_keys():
    lines = ["not json", json.dumps({"revision_id": "r"})]
    got, errs = ingest_predictions(lines)
    assert got == {}
    assert errs[0].startswith("line 1: bad JSON")
    assert errs[1] == "line 2: missing edit_index, label"


def test_ingest_rejects_bool_edit_index():
    rec = json.dumps({"revision_id": "r", "edit_index": True, "label": "Grammar-Typo"})
    got, errs = ingest_predictions([rec])
    assert got == {}
    assert "edit_index int" in errs[0]


def test_ingest_rejects_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        ingest_predictions([], schema="medium")
