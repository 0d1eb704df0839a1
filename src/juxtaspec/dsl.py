"""Text and JSON formats for specifications.

Text DSL, one equation per line, ``#`` starts a comment::

    spec   ::= line+
    line   ::= NAME "=" expr
    expr   ::= term ("+" term)*
    term   ::= factor+
    factor ::= "E" | "Z" | "ZL" | "ZR" | "ZLR" | NAME
             | "Seq" "(" expr ")" | "(" expr ")"
    NAME   ::= letter (letter | digit | "." | "_")*

Juxtaposition of factors is the Cartesian product.  The names E, Z, ZL, ZR,
ZLR and Seq are reserved; SZ is the reserved sequence-of-atoms class and is
injected automatically when referenced.

The JSON form is a tree of nodes with a ``kind`` field:
``{"kind": "zero"}``, ``{"kind": "atom", "name": "Z"}``,
``{"kind": "ref", "name": "C"}``, ``{"kind": "sum", "terms": [...]}``,
``{"kind": "product", "factors": [...]}``, ``{"kind": "seq", "arg": ...}``;
a specification document is ``{"root": NAME, "equations": [{"lhs": NAME,
"rhs": node}, ...]}``.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .expr import (
    ATOM_KINDS,
    AtomRef,
    ClassRef,
    Expr,
    Product,
    Seq,
    SpecError,
    Sum,
    ZERO,
    ZeroExpr,
    fold,
    make_product,
    make_seq,
    make_sum,
)
from .spec import NAME, Equation, Specification, _close


class ParseError(SpecError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# One token after optional blanks: a comment, punctuation, a NAME, or any
# other character, which is an error.  The last never matches a blank, so a
# line may end in blanks.
_TOKEN = re.compile(rf"[ \t]*(?:(#)|([+=()])|({NAME.pattern})|([^ \t]))")


def _tokenize_line(text: str, lineno: int):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, col = match.lastindex, match.start(match.lastindex) + 1
        if kind == 1:
            break
        if kind == 4:
            raise ParseError(f"unexpected character {match[4]!r}", lineno, col)
        tokens.append((match[2], match[2], col) if kind == 2 else ("NAME", match[3], col))
    return tokens


class _LineParser:
    """Parses one line.  ``table`` and ``memo`` are shared by every line of one
    :func:`parse_spec` call: the parser builds through the canonical
    constructors, hash-consing into ``table``, and ``memo`` maps source text
    (a name, or a parenthesized group from ``(`` to its matching ``)``) to
    the node it parsed to, so each distinct group is parsed once."""

    def __init__(self, tokens, lineno, text, table, memo):
        self.tokens = tokens
        self.lineno = lineno
        self.text = text
        self.table = table
        self.memo = memo
        self.pos = 0
        self.closing = {}  # index of a "(" token -> index of its matching ")"
        opened = []
        for i, tok in enumerate(tokens):
            if tok[0] == "(":
                opened.append(i)
            elif tok[0] == ")" and opened:
                self.closing[opened.pop()] = i

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("EOL", "", (self.tokens[-1][2] + len(self.tokens[-1][1])) if self.tokens else 1)

    def take(self, kind: Optional[str] = None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of line'!r}", self.lineno, tok[2])
        self.pos += 1
        return tok

    def parse_equation(self) -> Equation:
        name_tok = self.take("NAME")
        if name_tok[1] in ATOM_KINDS or name_tok[1] == "Seq":
            raise ParseError(f"{name_tok[1]!r} is reserved", self.lineno, name_tok[2])
        self.take("=")
        rhs = self.parse_expr()
        trailing = self.peek()
        if trailing[0] != "EOL":
            raise ParseError(f"unexpected {trailing[1]!r}", self.lineno, trailing[2])
        return Equation(name_tok[1], rhs)

    def parse_expr(self) -> Expr:
        parts = [self.parse_term()]
        while self.peek()[0] == "+":
            self.take("+")
            parts.append(self.parse_term())
        return make_sum(parts, self.table)

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek()[0] in ("NAME", "("):
            factors.append(self.parse_factor())
        return make_product(factors, self.table)

    def parse_group(self) -> Expr:
        # "(" expr ")": a group already parsed elsewhere is skipped.  Only
        # successful parses are stored, so errors are found and reported
        # exactly where a full parse finds them.
        end = self.closing.get(self.pos)
        key = None if end is None else self.text[self.tokens[self.pos][2] - 1 : self.tokens[end][2]]
        node = self.memo.get(key)
        if node is not None:
            self.pos = end + 1
            return node
        self.take("(")
        node = self.parse_expr()
        self.take(")")
        if key is not None:
            self.memo[key] = node
        return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok[0] == "(":
            return self.parse_group()
        if tok[0] != "NAME":
            raise ParseError(f"expected a factor, found {tok[1] or 'end of line'!r}", self.lineno, tok[2])
        self.take()
        name = tok[1]
        if name == "Seq":
            return make_seq(self.parse_group(), self.table)
        node = self.memo.get(name)
        if node is None:
            node = AtomRef(name) if name in ATOM_KINDS else ClassRef(name)
            node = self.memo[name] = self.table.setdefault(node, node)
        return node


def parse_spec(text: str) -> Specification:
    """Parse DSL text into a validated, canonical specification.

    The root is the first equation's symbol.
    """
    equations, table, memo = [], {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        try:
            equations.append(_LineParser(tokens, lineno, raw, table, memo).parse_equation())
        except RecursionError:
            raise ParseError("expression nested too deeply", lineno, 1) from None
    if not equations:
        raise SpecError("empty input: no equations found")
    return _close(equations, equations[0].lhs, table)


def _interleave(separator: str, parts: list) -> tuple:
    out = [separator] * (2 * len(parts) - 1)
    out[::2] = parts
    return tuple(out)


def _render_node(node, kids):
    # a rope: nested tuples of strings, shared like the nodes, flattened once
    if isinstance(node, ZeroExpr):
        raise SpecError("the empty class has no DSL form")
    if isinstance(node, AtomRef):
        return node.atom
    if isinstance(node, ClassRef):
        return node.name
    if isinstance(node, Seq):
        return ("Seq(", kids[0], ")")
    if isinstance(node, Sum):
        return _interleave(" + ", kids)
    if isinstance(node, Product):
        return _interleave(" ", [
            ("(", kid, ")") if isinstance(f, Sum) else kid for f, kid in zip(node.factors, kids)
        ])
    raise SpecError(f"not an expression: {node!r}")


def _flatten(rope) -> str:
    out, stack = [], [rope]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(out)


def render_expr(expr: Expr) -> str:
    return _flatten(fold([expr], _render_node)[0])


def render_spec(spec: Specification) -> str:
    """DSL text for a specification; parse_spec inverts it exactly."""
    ropes = fold([eq.rhs for eq in spec.equations], _render_node)
    return "".join(f"{eq.lhs} = {_flatten(rope)}\n" for eq, rope in zip(spec.equations, ropes))


def _json_node(node, kids) -> dict:
    if isinstance(node, ZeroExpr):
        return {"kind": "zero"}
    if isinstance(node, AtomRef):
        return {"kind": "atom", "name": node.atom}
    if isinstance(node, ClassRef):
        return {"kind": "ref", "name": node.name}
    if isinstance(node, Sum):
        return {"kind": "sum", "terms": kids}
    if isinstance(node, Product):
        return {"kind": "product", "factors": kids}
    if isinstance(node, Seq):
        return {"kind": "seq", "arg": kids[0]}
    raise SpecError(f"not an expression: {node!r}")


def expr_from_node(node: dict, table=None) -> Expr:
    """Read a JSON node through the canonical constructors, hash-consing into
    ``table`` (a fresh one by default); one table passed to several calls
    makes equal subexpressions of all their results one object."""
    table = {} if table is None else table
    if not isinstance(node, dict) or "kind" not in node:
        raise SpecError(f"malformed expression node: {node!r}")
    kind = node["kind"]
    if kind == "zero":
        return ZERO
    if kind == "sum":
        return make_sum([expr_from_node(t, table) for t in node["terms"]], table)
    if kind == "product":
        return make_product([expr_from_node(f, table) for f in node["factors"]], table)
    if kind == "seq":
        return make_seq(expr_from_node(node["arg"], table), table)
    if kind == "atom":
        leaf = AtomRef(node["name"])
    elif kind == "ref":
        name = node["name"]
        if not isinstance(name, str) or not name:
            raise SpecError(f"malformed ref node: {node!r}")
        leaf = ClassRef(name)
    else:
        raise SpecError(f"unknown node kind {kind!r}")
    return table.setdefault(leaf, leaf)


def spec_to_dict(spec: Specification) -> dict:
    # equal subexpressions share one (read-only) dict
    nodes = fold([eq.rhs for eq in spec.equations], _json_node)
    return {
        "root": spec.root,
        "equations": [{"lhs": eq.lhs, "rhs": node} for eq, node in zip(spec.equations, nodes)],
    }


def spec_from_dict(doc: dict) -> Specification:
    try:
        table = {}
        equations = [Equation(e["lhs"], expr_from_node(e["rhs"], table)) for e in doc["equations"]]
        root = doc["root"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed specification document: {exc}") from None
    except RecursionError:
        raise SpecError("specification document nested too deeply") from None
    if not isinstance(root, str):
        raise SpecError(f"root symbol {root!r} has no equation")
    return _close(equations, root, table)


def spec_to_json(spec: Specification, indent: Optional[int] = 2) -> str:
    return json.dumps(spec_to_dict(spec), indent=indent)


def spec_from_json(text: str) -> Specification:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SpecError("invalid JSON: nested too deeply") from None
    return spec_from_dict(doc)
