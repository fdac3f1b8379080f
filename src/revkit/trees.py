"""Bracketed constituency trees with token spans.

Trees come in the usual parenthesised notation, one tree per line in
tree files: ``(label child child ...)`` where a child is either another
bracketed node or a bare leaf token.  Every node carries the half-open
token span it covers, with leaves numbered left to right.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import TreeParseError

# The tree walks recurse once per level, so parsing rejects deeper nesting,
# well inside Python's default recursion limit of 1000.
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


# a bracket, or a run of anything but whitespace and brackets
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _lex(text: str) -> list[tuple[str, int]]:
    """Tokens with their character offsets; only error reports need them."""
    return [(m.group(), m.start()) for m in _TOKEN.finditer(text)]


def parse_tree_read(text: str) -> ParseTree:
    """Parse one bracketed tree; raises TreeParseError with a character
    offset on unbalanced brackets, missing labels, nesting deeper than
    MAX_DEPTH, or trailing content."""
    toks = _TOKEN.findall(text)
    n = len(toks)

    def fail(message: str, at: int | None = None) -> TreeParseError:
        # at is a token index; None stands for the end of the text
        return TreeParseError(message, len(text) if at is None else _lex(text)[at][1])

    if not toks:
        raise TreeParseError("empty input", 0)
    # one frame per open node: label, label token index, first leaf, children
    stack: list[tuple[str, int, int, list[ParseTree]]] = []
    i = leaf = 0
    tree: ParseTree | None = None
    while tree is None:
        if i == n:
            raise fail("unbalanced brackets: expected ')'")
        tok = toks[i]
        if tok == "(":
            if len(stack) >= MAX_DEPTH:
                raise fail(f"nesting deeper than {MAX_DEPTH} levels", i)
            if i + 1 == n:
                raise fail("unbalanced brackets: expected a node label")
            if toks[i + 1] in ("(", ")"):
                raise fail("missing node label", i + 1)
            stack.append((toks[i + 1], i + 1, leaf, []))
            i += 2
            continue
        if tok == ")":
            if not stack:
                raise fail("unexpected ')'", i)
            label, at, first, children = stack.pop()
            if not children:
                raise fail(f"node {label!r} has no children", at)
            node = ParseTree(label, tuple(children), (first, leaf))
        else:
            node = ParseTree(tok, (), (leaf, leaf + 1))  # bare leaf
            leaf += 1
        i += 1
        if stack:
            stack[-1][3].append(node)
        else:
            tree = node
    if i != n:
        raise fail("trailing content after tree", i)
    return tree
