import pytest

from revkit.edits import Edit, EditKind
from revkit.intention import IntentionLabel
from revkit.metrics import (
    PRF,
    eval_alignment,
    eval_classification,
    eval_edits,
    eval_edits_corpus,
)

from helpers import alignment, dele, doc, filler_sentence, ins, sub


def test_prf_from_counts():
    got = PRF.from_counts(2, 1, 2)
    assert got.precision == pytest.approx(2 / 3)
    assert got.recall == pytest.approx(1 / 2)
    assert got.f1 == pytest.approx(4 / 7)
    assert (got.tp, got.fp, got.fn) == (2, 1, 2)


def test_prf_zero_denominators():
    assert PRF.from_counts(0, 0, 0) == PRF(0.0, 0.0, 0.0, 0, 0, 0)
    assert PRF.from_counts(0, 3, 0).precision == 0.0
    assert PRF.from_counts(0, 0, 3).recall == 0.0


# ---------------------------------------------------------------------------
# sentence alignment scoring

def alignment_fixture():
    f = filler_sentence
    src = doc([[f(0), f(1), f(2), f(3), f(4)]], 1)
    # target sentence 0 repeats source sentence 0 verbatim
    tgt = doc([[f(0), f(30), f(31), f(32), f(33)]], 2)
    gold = alignment(1, 2, [((0, n), (0, n), None) for n in range(5)])
    pred = alignment(
        1, 2,
        [
            ((0, 0), (0, 0), None),
            ((0, 1), (0, 1), None),
            ((0, 2), (0, 2), None),
            ((0, 3), (0, 4), None),
        ],
    )
    return src, tgt, pred, gold


def test_eval_alignment_hand_counts():
    src, tgt, pred, gold = alignment_fixture()
    got = eval_alignment(pred, gold, src, tgt)
    # the verbatim pair drops out of both sides: 3 predictions remain,
    # 4 gold pairs, 2 in common
    assert (got.tp, got.fp, got.fn) == (2, 1, 2)
    assert got.precision == pytest.approx(2 / 3)
    assert got.recall == pytest.approx(1 / 2)
    assert got.f1 == pytest.approx(4 / 7)


def test_eval_alignment_swap_transposes_counts():
    src, tgt, pred, gold = alignment_fixture()
    swapped = eval_alignment(gold, pred, src, tgt)
    assert swapped.precision == pytest.approx(1 / 2)
    assert swapped.recall == pytest.approx(2 / 3)


def test_eval_alignment_perfect_and_empty():
    src, tgt, _, gold = alignment_fixture()
    perfect = eval_alignment(gold, gold, src, tgt)
    assert perfect.f1 == 1.0 and perfect.tp == 4
    nothing = eval_alignment(alignment(1, 2, []), gold, src, tgt)
    assert nothing == PRF(0.0, 0.0, 0.0, 0, 0, 4)


# ---------------------------------------------------------------------------
# edit scoring

E1 = sub(0, 1, 0, 1)
E2 = dele(2, 3)
E3 = ins(4, 5)
E4 = sub(5, 6, 5, 7)


def test_eval_edits_exact_match():
    got = eval_edits([E1, E2], [[E2, E1]])
    assert got.prf.f1 == 1.0
    assert got.exact_match


def test_eval_edits_empty_prediction():
    got = eval_edits([], [[E1, E2]])
    assert got.prf == PRF(0.0, 0.0, 0.0, 0, 0, 2)
    assert not got.exact_match


def test_eval_edits_partial_overlap():
    got = eval_edits([E1, E2, E3], [[E1, E2, E4, ins(9, 10)]])
    assert (got.prf.tp, got.prf.fp, got.prf.fn) == (2, 1, 2)
    assert got.prf.f1 == pytest.approx(4 / 7)
    assert not got.exact_match


def test_eval_edits_best_alternative_wins():
    got = eval_edits([E1], [[E3], [E1, E2]])
    assert got.prf.f1 == pytest.approx(2 / 3)
    assert not got.exact_match
    # an alternative equal to the prediction makes it exact
    again = eval_edits([E1], [[E3], [E1]])
    assert again.exact_match and again.prf.f1 == 1.0


def test_eval_edits_both_empty_full_credit():
    got = eval_edits([], [[E1], []])
    assert got.prf == PRF(1.0, 1.0, 1.0, 0, 0, 0)
    assert got.exact_match


def test_eval_edits_ignores_intention_labels():
    labelled = Edit((0, 1), (0, 1), EditKind.SUBSTITUTE, IntentionLabel.GRAMMAR_TYPO)
    got = eval_edits([labelled], [[E1]])
    assert got.exact_match


def test_eval_edits_needs_gold():
    with pytest.raises(ValueError, match="alternative"):
        eval_edits([E1], [])


def test_eval_edits_corpus_micro_average():
    items = [
        ([E1, E2], [[E1, E2]]),          # perfect: tp 2
        ([E1], [[E1, E2]]),              # half: tp 1, fn 1
    ]
    got = eval_edits_corpus(items)
    assert (got.micro.tp, got.micro.fp, got.micro.fn) == (3, 0, 1)
    assert got.micro.precision == 1.0
    assert got.micro.recall == pytest.approx(3 / 4)
    assert got.exact_match_rate == 0.5
    assert got.pairs == 2


def test_eval_edits_corpus_all_unchanged():
    got = eval_edits_corpus([([], [[]]), ([], [[]])])
    assert got.micro.f1 == 1.0
    assert got.exact_match_rate == 1.0


def test_eval_edits_corpus_rejects_empty():
    with pytest.raises(ValueError, match="no sentence pairs"):
        eval_edits_corpus([])


# ---------------------------------------------------------------------------
# classification scoring

def test_eval_classification_weighted_f1():
    golds = ["A", "A", "B", "B", "B", "C", "C", "C", "C", "C"]
    preds = ["A", "A", "B", "C", "D", "C", "C", "C", "C", "D"]
    got = eval_classification(preds, golds)
    assert got.per_class["A"].f1 == pytest.approx(1.0)
    assert got.per_class["B"].f1 == pytest.approx(0.5)
    assert got.per_class["C"].f1 == pytest.approx(0.8)
    assert got.per_class["D"].f1 == 0.0
    assert got.support == {"A": 2, "B": 3, "C": 5, "D": 0}
    assert got.accuracy == pytest.approx(0.7)
    # 2/10 * 1.0 + 3/10 * 0.5 + 5/10 * 0.8
    assert got.weighted_f1 == pytest.approx(0.75)


def test_eval_classification_input_errors():
    with pytest.raises(ValueError, match="mismatch"):
        eval_classification(["A"], ["A", "B"])
    with pytest.raises(ValueError, match="nothing"):
        eval_classification([], [])
