"""Bracketed constituency trees with token spans.

Trees come in the usual parenthesised notation, one tree per line in
tree files: ``(label child child ...)`` where a child is either another
bracketed node or a bare leaf token.  Every node carries the half-open
token span it covers, with leaves numbered left to right.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import TreeParseError

# Parsing and the tree walks recurse once per level, so deeper nesting is
# rejected well inside Python's default recursion limit of 1000.
MAX_DEPTH = 500


@dataclass(frozen=True)
class ParseTree:
    label: str
    children: tuple["ParseTree", ...]
    span: tuple[int, int]

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list["ParseTree"]:
        if self.is_leaf:
            return [self]
        out: list[ParseTree] = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def leaf_count(self) -> int:
        return self.span[1] - self.span[0]

    def leaf_paths(self) -> list[list["ParseTree"]]:
        """Per leaf index, the node chain from the leaf up to the root."""
        paths: list[list[ParseTree]] = []

        def walk(node: ParseTree, stack: list[ParseTree]) -> None:
            stack.append(node)
            if node.is_leaf:
                paths.append(list(reversed(stack)))
            else:
                for c in node.children:
                    walk(c, stack)
            stack.pop()

        walk(self, [])
        return paths


def _lex(text: str):
    toks: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            toks.append((ch, i))
            i += 1
        else:
            start = i
            while i < len(text) and not text[i].isspace() and text[i] not in "()":
                i += 1
            toks.append((text[start:i], start))
    return toks


def parse_tree_read(text: str) -> ParseTree:
    """Parse one bracketed tree; raises TreeParseError with a character
    offset on unbalanced brackets, missing labels, nesting deeper than
    MAX_DEPTH, or trailing content."""
    toks = _lex(text)
    if not toks:
        raise TreeParseError("empty input", 0)
    tree, nxt, _ = _parse_node(toks, 0, 0, len(text), 0)
    if nxt != len(toks):
        raise TreeParseError("trailing content after tree", toks[nxt][1])
    return tree


def _parse_node(toks, i: int, leaf_start: int, end_pos: int, depth: int):
    tok, pos = toks[i]
    if tok == ")":
        raise TreeParseError("unexpected ')'", pos)
    if tok != "(":
        # bare leaf
        return ParseTree(tok, (), (leaf_start, leaf_start + 1)), i + 1, leaf_start + 1
    if depth >= MAX_DEPTH:
        raise TreeParseError(f"nesting deeper than {MAX_DEPTH} levels", pos)
    i += 1
    if i >= len(toks):
        raise TreeParseError("unbalanced brackets: expected a node label", end_pos)
    label, label_pos = toks[i]
    if label in ("(", ")"):
        raise TreeParseError("missing node label", label_pos)
    i += 1
    children: list[ParseTree] = []
    leaf_next = leaf_start
    while True:
        if i >= len(toks):
            raise TreeParseError("unbalanced brackets: expected ')'", end_pos)
        if toks[i][0] == ")":
            i += 1
            break
        child, i, leaf_next = _parse_node(toks, i, leaf_next, end_pos, depth + 1)
        children.append(child)
    if not children:
        raise TreeParseError(f"node {label!r} has no children", label_pos)
    return ParseTree(label, tuple(children), (leaf_start, leaf_next)), i, leaf_next
