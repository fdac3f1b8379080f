import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revkit.errors import TreeParseError
from revkit.trees import MAX_DEPTH, ParseTree, _lex, parse_tree_read

from oracles import oracle_lex, random_tree


def test_two_leaf_tree():
    t = parse_tree_read("(S (NP a) (VP b))")
    assert t.label == "S"
    assert t.span == (0, 2)
    assert [c.label for c in t.children] == ["NP", "VP"]
    assert t.children[0].span == (0, 1)
    assert t.children[1].span == (1, 2)
    assert [leaf.label for leaf in t.leaves()] == ["a", "b"]
    assert t.leaf_count() == 2


def test_bare_leaf_children():
    t = parse_tree_read("(X a b c)")
    assert t.span == (0, 3)
    assert all(c.is_leaf for c in t.children)


def test_spans_tile_the_sentence():
    t = parse_tree_read("(S (A (B a) (C b c)) (D (E d) e))")

    def check(node):
        if node.is_leaf:
            assert node.span[1] == node.span[0] + 1
            return
        assert node.children[0].span[0] == node.span[0]
        assert node.children[-1].span[1] == node.span[1]
        for left, right in zip(node.children, node.children[1:]):
            assert left.span[1] == right.span[0]
        for c in node.children:
            check(c)

    check(t)
    assert t.leaf_count() == 5


def test_leaf_paths_run_leaf_to_root():
    t = parse_tree_read("(S (NP the cat) (VP sat))")
    paths = t.leaf_paths()
    assert len(paths) == 3
    assert [n.label for n in paths[0]] == ["the", "NP", "S"]
    assert [n.label for n in paths[2]] == ["sat", "VP", "S"]
    # every path starts at a width-one span and widens monotonically
    for path in paths:
        spans = [n.span for n in path]
        assert spans[0][1] - spans[0][0] == 1
        for inner, outer in zip(spans, spans[1:]):
            assert outer[0] <= inner[0] and inner[1] <= outer[1]


def test_nesting_up_to_max_depth_parses_and_walks():
    t = parse_tree_read("(X " * MAX_DEPTH + "a" + ")" * MAX_DEPTH)
    assert len(t.leaf_paths()[0]) == MAX_DEPTH + 1
    assert [leaf.label for leaf in t.leaves()] == ["a"]


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("   ", 0),
        ("(S a", 4),             # unbalanced at end of input
        ("(S a) b", 6),          # trailing content
        ("( (NP a))", 2),        # missing label
        ("()", 1),               # ')' where the label should be
        ("(S)", 1),              # labelled node with no children
        (")", 0),
        pytest.param("(X " * 2000 + "a" + ")" * 2000, 1500, id="too deep"),  # 501st '('
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(TreeParseError) as err:
        parse_tree_read(text)
    assert err.value.pos == offset
    assert f"offset {offset}" in str(err.value)


@given(st.text(st.sampled_from("()ab \t\n\xa0\u2028\x1c\u3000")))
def test_lexer_matches_character_loop(text):
    assert _lex(text) == oracle_lex(text)


def test_single_bare_leaf():
    t = parse_tree_read("word")
    assert t.is_leaf and t.span == (0, 1)


def test_random_trees_are_well_formed():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 8)
        t = random_tree(rng, [f"w{i}" for i in range(n)])
        assert t.span == (0, n)
        assert t.leaf_count() == n
        assert [leaf.span[0] for leaf in t.leaves()] == list(range(n))


def test_parse_round_trip_through_format():
    text = "(S (NP the cat) (VP (V sat) (PP on (NP the mat))))"
    t = parse_tree_read(text)
    assert t.leaf_count() == 6

    def fmt(node: ParseTree) -> str:
        if node.is_leaf:
            return node.label
        return "(" + " ".join([node.label, *[fmt(c) for c in node.children]]) + ")"

    assert fmt(t) == text
    assert parse_tree_read(fmt(t)) == t
