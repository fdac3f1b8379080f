import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revkit.errors import TreeParseError
from revkit.trees import MAX_DEPTH, TreeNode, _lex, _tokens, parse_tree_read

from oracles import OracleTree, format_tree, oracle_lex, oracle_parse_tree, random_tree


def test_two_leaf_tree():
    t = parse_tree_read("(S (NP a) (VP b))")
    assert t.label == "S"
    assert t.span == (0, 2)
    assert [c.label for c in t.children] == ["NP", "VP"]
    assert t.children[0].span == (0, 1)
    assert t.children[1].span == (1, 2)
    assert [t.labels[k] for k in t.leaf_nodes] == ["a", "b"]
    assert t.leaf_count() == 2


def test_bare_leaf_children():
    t = parse_tree_read("(X a b c)")
    assert t.span == (0, 3)
    assert all(not c.children and c.leaf_count() == 1 for c in t.children)


def test_spans_tile_the_sentence():
    t = parse_tree_read("(S (A (B a) (C b c)) (D (E d) e))")

    def check(node):
        if not node.children:
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


def _leaf_path(tree, i: int) -> list:
    """Nodes from leaf i up to the root, climbing by parent index."""
    path = [tree.leaf_nodes[i]]
    while tree.parents[path[-1]] >= 0:
        path.append(tree.parents[path[-1]])
    return [TreeNode(tree, k) for k in path]


def test_leaf_paths_run_leaf_to_root():
    t = parse_tree_read("(S (NP the cat) (VP sat))")
    assert len(t.leaf_nodes) == 3
    paths = [_leaf_path(t, i) for i in range(3)]
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
    assert [n.label for n in _leaf_path(t, 0)] == ["a"] + ["X"] * MAX_DEPTH
    assert len(_preorder(t)) == MAX_DEPTH + 1


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


# every code point str.isspace() accepts: 29 on every Python since 3.10
_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def test_isspace_and_regex_whitespace_agree_on_every_code_point():
    # _tokens splits on str.isspace and _lex's pattern on \s; the parser
    # relies on the two meaning the same characters
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\s", every)) == _WHITESPACE
    assert len(_WHITESPACE) == 29


@example("(S\x1c(NP a)\x85b\u2009)\u3000c")
@example("".join(f"({k}" + w for k, w in enumerate(_WHITESPACE)) + ")" * len(_WHITESPACE))
@given(st.text(st.sampled_from("()ab" + _WHITESPACE)))
def test_tokens_are_the_lexer_tokens(text):
    assert _tokens(text) == [t for t, _ in _lex(text)]


_TREE_TEXT = st.text(st.sampled_from("()ab \t\n\xa0\u2028\x1c\u3000"))
_SPACE = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2028", "\u3000"])


@st.composite
def _tree_texts(draw) -> str:
    shape = draw(st.sampled_from(("chars", "deep", "tree")))
    if shape == "chars":
        return draw(_TREE_TEXT)
    if shape == "deep":
        # nesting on both sides of MAX_DEPTH, closed too early, exactly or too late
        depth = draw(st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2))
        closing = depth + draw(st.integers(-2, 2))
        return "(X " * depth + draw(_TREE_TEXT) + ")" * max(closing, 0)
    rng = random.Random(draw(st.integers(0, 2**32)))
    text = format_tree(
        random_tree(rng, [f"w{k}" for k in range(rng.randint(1, 9))]),
        draw(st.lists(_SPACE, min_size=1, max_size=3)),
    )
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(text) - 1))
        text = text[:cut] + text[cut + 1:]  # one character dropped
    return text


def _preorder(tree) -> list[tuple]:
    # a parsed tree's node views and the oracle's nested nodes alike;
    # iterative, so trees nested MAX_DEPTH deep compare without recursion
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        out.append((node.label, node.span, len(node.children)))
        todo.extend(reversed(node.children))
    return out


@given(_tree_texts())
@example(" ) (S a)")
@example("\u3000(S\xa0(NP a) (VP b)) (T c)")
@example("(S ( (NP a)))")
@example("(S (NP a) ()")
@example("(X " * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1))
@settings(max_examples=300)
def test_parser_matches_recursive_oracle(text):
    try:
        want = oracle_parse_tree(text)
    except TreeParseError as exc:
        with pytest.raises(TreeParseError) as err:
            parse_tree_read(text)
        assert (str(err.value), err.value.pos) == (str(exc), exc.pos)
    else:
        assert _preorder(parse_tree_read(text)) == _preorder(want)


def test_single_bare_leaf():
    t = parse_tree_read("word")
    assert t.label == "word" and t.span == (0, 1) and not t.children
    assert (t.leaf_nodes, t.parents, t.firsts) == ([0], [-1], [0])


def test_random_trees_are_well_formed():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 8)
        t = random_tree(rng, [f"w{i}" for i in range(n)])
        assert t.span == (0, n)
        leaves = [span for _, span, kids in _preorder(t) if not kids]
        assert leaves == [(k, k + 1) for k in range(n)]


def test_parse_round_trip_through_format():
    text = "(S (NP the cat) (VP (V sat) (PP on (NP the mat))))"
    t = parse_tree_read(text)
    assert t.leaf_count() == 6
    assert format_tree(t) == text
    assert _preorder(parse_tree_read(format_tree(t))) == _preorder(t)


def _closing_order(tree: OracleTree) -> list[list]:
    """[label, span, parent, first descendant] per node, in closing order."""
    rows: list[list] = []

    def close(node: OracleTree) -> int:
        first = len(rows)
        kids = [close(c) for c in node.children]
        rows.append([node.label, node.span, -1, first])
        for c in kids:
            rows[c][2] = len(rows) - 1
        return len(rows) - 1

    close(tree)
    return rows


def test_node_lists_follow_closing_order():
    rng = random.Random(29)
    for _ in range(300):
        want = random_tree(rng, [f"w{k}" for k in range(rng.randint(1, 12))])
        t = parse_tree_read(format_tree(want))
        rows = _closing_order(want)
        assert [list(r) for r in zip(t.labels, zip(t.starts, t.ends), t.parents, t.firsts)] == rows
        assert t.leaf_nodes == [k for k, row in enumerate(rows) if row[3] == k]


def _walk_children(tree) -> int:
    # the walk the benchmark's tracer makes to count trees.nodes
    stack, nodes = [tree], 0
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children)
    return nodes


def test_children_walk_visits_every_node():
    rng = random.Random(31)
    texts = ["a", "(S (NP the cat) (VP sat))", "(A (B (C x)) y)", "(X " * MAX_DEPTH + "a" + ")" * MAX_DEPTH]
    texts += [format_tree(random_tree(rng, ["w"] * rng.randint(1, 12))) for _ in range(200)]
    for text in texts:
        t = parse_tree_read(text)
        assert _walk_children(t) == text.count("(") + len(t.leaf_nodes) == len(t.labels)
