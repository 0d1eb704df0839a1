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
)
from .spec import NAME, Equation, Specification, make_spec


class ParseError(SpecError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokenize_line(text: str, lineno: int):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch in "+=()":
            tokens.append((ch, ch, col))
            i += 1
        else:
            name = NAME.match(text, i)
            if name is None:
                raise ParseError(f"unexpected character {ch!r}", lineno, col)
            tokens.append(("NAME", name.group(), col))
            i = name.end()
    return tokens


class _LineParser:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

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
        if len(parts) == 1:
            return parts[0]
        return Sum(tuple(parts))

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek()[0] in ("NAME", "("):
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok[0] == "(":
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            return inner
        if tok[0] != "NAME":
            raise ParseError(f"expected a factor, found {tok[1] or 'end of line'!r}", self.lineno, tok[2])
        self.take()
        name = tok[1]
        if name == "Seq":
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            return Seq(inner)
        if name in ATOM_KINDS:
            return AtomRef(name)
        return ClassRef(name)


def parse_spec(text: str) -> Specification:
    """Parse DSL text into a validated, canonical specification.

    The root is the first equation's symbol.
    """
    equations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        try:
            equations.append(_LineParser(tokens, lineno).parse_equation())
        except RecursionError:
            raise ParseError("expression nested too deeply", lineno, 1) from None
    if not equations:
        raise SpecError("empty input: no equations found")
    return make_spec(equations, root=equations[0].lhs)


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


def expr_to_node(expr: Expr) -> dict:
    return fold([expr], _json_node)[0]


def expr_from_node(node: dict) -> Expr:
    if not isinstance(node, dict) or "kind" not in node:
        raise SpecError(f"malformed expression node: {node!r}")
    kind = node["kind"]
    if kind == "zero":
        return ZERO
    if kind == "atom":
        return AtomRef(node["name"])
    if kind == "ref":
        name = node["name"]
        if not isinstance(name, str) or not name:
            raise SpecError(f"malformed ref node: {node!r}")
        return ClassRef(name)
    if kind == "sum":
        return Sum(tuple(expr_from_node(t) for t in node["terms"]))
    if kind == "product":
        return Product(tuple(expr_from_node(f) for f in node["factors"]))
    if kind == "seq":
        return Seq(expr_from_node(node["arg"]))
    raise SpecError(f"unknown node kind {kind!r}")


def spec_to_dict(spec: Specification) -> dict:
    # equal subexpressions share one (read-only) dict
    nodes = fold([eq.rhs for eq in spec.equations], _json_node)
    return {
        "root": spec.root,
        "equations": [{"lhs": eq.lhs, "rhs": node} for eq, node in zip(spec.equations, nodes)],
    }


def spec_from_dict(doc: dict) -> Specification:
    try:
        equations = [Equation(e["lhs"], expr_from_node(e["rhs"])) for e in doc["equations"]]
        root = doc["root"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed specification document: {exc}") from None
    except RecursionError:
        raise SpecError("specification document nested too deeply") from None
    return make_spec(equations, root=root)


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
