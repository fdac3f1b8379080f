"""Bracketed constituency trees with token spans.

Trees come in the usual parenthesised notation, one tree per line in
tree files: ``(label child child ...)`` where a child is either another
bracketed node or a bare leaf token.  Every node carries the half-open
token span it covers, with leaves numbered left to right.

A parsed tree is a set of per-node lists, not one object per node.
Nodes are numbered in the order they close, so every node comes after
its descendants and the root is last; a node's descendants are exactly
the nodes from its first descendant up to itself.  For node k:
``starts[k]``/``ends[k]`` is its span, ``parents[k]`` its parent (-1 at
the root), ``firsts[k]`` its first descendant (k itself for a leaf) and
``labels[k]`` its label; ``leaf_nodes[i]`` is the node of leaf i.
``TreeNode`` views over these lists are built only when asked for.

Reading a tree costs time linear in its text: str methods split it into
tokens and one pass over them builds the lists.
"""
from __future__ import annotations

import re

from .errors import TreeParseError

# Nesting is capped by the tree-file input contract (see the README).  Nothing
# in the package recurses over a tree; the cap keeps the recursive oracle
# parser in the tests, and any recursive reader of the same files, well
# inside Python's default recursion limit of 1000.
MAX_DEPTH = 500


class TreeNode:
    """Read-only view of node ``index`` of a parsed tree."""

    __slots__ = ("tree", "index")

    def __init__(self, tree: "Tree", index: int) -> None:
        self.tree = tree
        self.index = index

    @property
    def label(self) -> str:
        return self.tree.labels[self.index]

    @property
    def span(self) -> tuple[int, int]:
        return self.tree.starts[self.index], self.tree.ends[self.index]

    @property
    def children(self) -> tuple["TreeNode", ...]:
        # the last child closes just before its parent, and each earlier
        # child just before the first descendant of the next one
        tree, k = self.tree, self.index
        first = tree.firsts[k]
        kids = []
        c = k - 1
        while c >= first:
            kids.append(TreeNode(tree, c))
            c = tree.firsts[c] - 1
        return tuple(reversed(kids))

    def leaf_count(self) -> int:
        return self.tree.ends[self.index] - self.tree.starts[self.index]


class Tree(TreeNode):
    """A parsed tree: the per-node lists, read as its root node."""

    __slots__ = ("starts", "ends", "parents", "firsts", "labels", "leaf_nodes")

    def __init__(self, starts, ends, parents, firsts, labels, leaf_nodes) -> None:
        self.starts: list[int] = starts
        self.ends: list[int] = ends
        self.parents: list[int] = parents
        self.firsts: list[int] = firsts
        self.labels: list[str] = labels
        self.leaf_nodes: list[int] = leaf_nodes

    # a tree is its own root view, with no reference cycle to itself
    @property
    def tree(self) -> "Tree":
        return self

    @property
    def index(self) -> int:
        return len(self.labels) - 1


# a bracket, or a run of anything but whitespace and brackets
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _lex(text: str) -> list[tuple[str, int]]:
    """Tokens with their character offsets; only error reports need them."""
    return [(m.group(), m.start()) for m in _TOKEN.finditer(text)]


def _tokens(text: str) -> list[str]:
    """_lex's tokens without their offsets, found with str methods:
    padding each bracket with spaces and splitting on whitespace gives the
    same list, since str.split and the \\s of _TOKEN split on the same
    characters, those of str.isspace."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_tree_read(text: str) -> Tree:
    """Parse one bracketed tree; raises TreeParseError with a character
    offset on unbalanced brackets, missing labels, nesting deeper than
    MAX_DEPTH, or trailing content.  Only an error report lexes the
    text again, with _lex, for the offset."""
    toks = _tokens(text)

    def fail(message: str, at: int | None = None) -> TreeParseError:
        # at is a token index; None stands for the end of the text
        return TreeParseError(message, len(text) if at is None else _lex(text)[at][1])

    if not toks:
        raise TreeParseError("empty input", 0)
    starts: list[int] = []
    ends: list[int] = []
    parents: list[int] = []
    firsts: list[int] = []
    labels: list[str] = []
    leaf_nodes: list[int] = []
    # one frame per open node: label, label token index, first leaf, first node
    stack: list[tuple[str, int, int, int]] = []
    leaf = 0
    walk = enumerate(toks)
    for i, tok in walk:
        if tok == "(":
            if len(stack) >= MAX_DEPTH:
                raise fail(f"nesting deeper than {MAX_DEPTH} levels", i)
            i, label = next(walk, (None, None))
            if label is None:
                raise fail("unbalanced brackets: expected a node label")
            if label == "(" or label == ")":
                raise fail("missing node label", i)
            stack.append((label, i, leaf, len(labels)))
            continue
        k = len(labels)
        if tok == ")":
            if not stack:
                raise fail("unexpected ')'", i)
            label, at, first_leaf, first = stack.pop()
            if first == k:
                raise fail(f"node {label!r} has no children", at)
            c = k - 1
            while c >= first:  # children, last to first
                parents[c] = k
                c = firsts[c] - 1
            starts.append(first_leaf)
            firsts.append(first)
        else:  # bare leaf
            label = tok
            starts.append(leaf)
            firsts.append(k)
            leaf_nodes.append(k)
            leaf += 1
        ends.append(leaf)
        parents.append(-1)
        labels.append(label)
        if not stack:
            break
    else:
        raise fail("unbalanced brackets: expected ')'")
    if i + 1 != len(toks):
        raise fail("trailing content after tree", i + 1)
    return Tree(starts, ends, parents, firsts, labels, leaf_nodes)
