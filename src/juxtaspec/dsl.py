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

The JSON form is made of nodes with a ``kind`` field:
``{"kind": "zero"}``, ``{"kind": "atom", "name": "Z"}``,
``{"kind": "ref", "name": "C"}``, ``{"kind": "sum", "terms": [...]}``,
``{"kind": "product", "factors": [...]}``, ``{"kind": "seq", "arg": ...}``.
A specification document is ``{"root": NAME, "nodes": [node, ...],
"equations": [{"lhs": NAME, "rhs": node}, ...]}``.  Wherever a node may
stand, an integer k stands for ``nodes[k]``, an entry before it: the writer
lists each distinct node once, after its children.  Without ``nodes``, a
document nests its nodes as a tree.
"""

from __future__ import annotations

import re

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
    Table,
    ZeroExpr,
    evaluate,
    fold,
    make_product,
    make_seq,
    make_sum,
    postorder,
)
from .spec import NAME, RESERVED_NAMES, Specification, TrackingError, _close


class ParseError(SpecError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message, self.line, self.column = message, line, column

    def __reduce__(self):
        return ParseError, (self.message, self.line, self.column)


# One token of a line cut at its comment: punctuation, a NAME, or any other
# non-blank character, which is an error.  The parser reads a line's tokens
# with it, and an error's column is read from the same matches.
_WORD = re.compile(rf"[+=()]|{NAME.pattern}|[^ \t]")
# The characters a NAME may start with.
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_TERM_END = frozenset(("+", ")", "=", ""))  # "" stands for the end of the line


class _Refused(Exception):
    """A syntax error at the line's token ``index``; :func:`parse_spec` reads
    its column."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _found(token: str) -> str:
    return repr(token or "end of line")


class _Line:
    """Parses the tokens of one line by recursive descent.  ``table`` and
    ``memo`` are shared by every line of one :func:`parse_spec` call: the
    parser builds through the canonical constructors, hash-consing into
    ``table``, and ``memo`` maps a name, or the tokens of a parenthesized
    group from ``(`` to its matching ``)``, to the position it parsed to,
    so each distinct group is parsed once."""

    def __init__(self, tokens: list, table: Table, memo: dict):
        self.tokens = tokens + [""]
        self.table = table
        self.memo = memo
        self.pos = 0
        self.closing = {}  # index of a "(" token -> index of its matching ")"
        if "(" in tokens:
            opened = []
            for i, tok in enumerate(tokens):
                if tok == "(":
                    opened.append(i)
                elif tok == ")" and opened:
                    self.closing[opened.pop()] = i

    def equation(self) -> tuple:
        """The line's symbol and the position of its right-hand side."""
        name, equals = self.tokens[:2]
        if name[0] not in _LETTERS:
            raise _Refused(f"expected NAME, found {_found(name)}", 0)
        if name in RESERVED_NAMES:
            raise _Refused(f"{name!r} is reserved", 0)
        if equals != "=":
            raise _Refused(f"expected =, found {_found(equals)}", 1)
        self.pos = 2
        rhs = self.expr()
        trailing = self.tokens[self.pos]
        if trailing:
            raise _Refused(f"unexpected {trailing!r}", self.pos)
        return name, rhs

    def expr(self) -> int:
        parts = [self.term()]
        while self.tokens[self.pos] == "+":
            self.pos += 1
            parts.append(self.term())
        return make_sum(parts, self.table)

    def term(self) -> int:
        factors = [self.factor()]
        while self.tokens[self.pos] not in _TERM_END:
            factors.append(self.factor())
        return make_product(factors, self.table)

    def factor(self) -> int:
        tok = self.tokens[self.pos]
        if tok == "(":
            return self.group()
        if not tok or tok[0] not in _LETTERS:
            raise _Refused(f"expected a factor, found {_found(tok)}", self.pos)
        self.pos += 1
        if tok == "Seq":
            return make_seq(self.group(), self.table)
        at = self.memo.get(tok)
        if at is None:
            at = self.memo[tok] = self.table.leaf(AtomRef(tok) if tok in ATOM_KINDS else ClassRef(tok))
        return at

    def group(self) -> int:
        # "(" expr ")": a group already parsed elsewhere is skipped.  Only
        # successful parses are stored, so errors are found and reported
        # exactly where a full parse finds them.
        tokens, start = self.tokens, self.pos
        end = self.closing.get(start)
        key = None if end is None else tuple(tokens[start : end + 1])
        at = self.memo.get(key)
        if at is not None:
            self.pos = end + 1
            return at
        if tokens[start] != "(":
            raise _Refused(f"expected (, found {_found(tokens[start])}", start)
        self.pos += 1
        at = self.expr()
        if tokens[self.pos] != ")":
            raise _Refused(f"expected ), found {_found(tokens[self.pos])}", self.pos)
        self.pos += 1
        if key is not None:
            self.memo[key] = at
        return at


def _column(text: str, lineno: int, index: int) -> int:
    """The column of token ``index`` of a line (one past its last token for
    the end of the line); a token that is neither punctuation nor a NAME,
    a character the grammar has no place for, is refused first, wherever
    it is on the line before its comment."""
    columns, end = [], 1
    for match in _WORD.finditer(text.partition("#")[0]):
        word, col = match[0], match.start() + 1
        if word[0] not in _LETTERS and word not in "+=()":
            raise ParseError(f"unexpected character {word!r}", lineno, col)
        columns.append(col)
        end = match.end() + 1
    columns.append(end)
    return columns[index]


def parse_spec(text: str) -> Specification:
    """Parse DSL text into a validated, canonical specification.

    The root is the first equation's symbol.
    """
    equations, table, memo, lines = [], Table(), {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _WORD.findall(raw.partition("#")[0])
        if not tokens:
            continue
        try:
            eq = _Line(tokens, table, memo).equation()
        except _Refused as exc:
            raise ParseError(str(exc), lineno, _column(raw, lineno, exc.index)) from None
        except RecursionError:
            _column(raw, lineno, 0)  # a bad character is refused first
            raise ParseError("expression nested too deeply", lineno, 1) from None
        equations.append(eq)
        lines.setdefault(eq[0], lineno)
    if not equations:
        raise SpecError("empty input: no equations found")
    try:
        return _close(equations, equations[0][0], table)
    except TrackingError as exc:
        raise TrackingError(exc.problem, exc.symbol, exc.term, lines.get(exc.symbol)) from None


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
    steps, at = spec._plan
    ropes = evaluate(steps, _render_node)
    return "".join(f"{lhs} = {_flatten(ropes[i])}\n" for lhs, i in at.items())


def _json_node(node, kids) -> dict:
    if isinstance(node, AtomRef):
        return {"kind": "atom", "name": node.atom}
    if isinstance(node, ClassRef):
        return {"kind": "ref", "name": node.name}
    if isinstance(node, Sum):
        return {"kind": "sum", "terms": kids}
    if isinstance(node, Product):
        return {"kind": "product", "factors": kids}
    return {"kind": "seq", "arg": kids[0]}


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _object(value, what: str) -> dict:
    """``value``, which stands for ``what`` in a document, as a JSON object."""
    if not isinstance(value, dict):
        raise SpecError(f"malformed {what}: expected an object, found {_json_type(value)}")
    return value


def _field(obj: dict, name: str, what: str, array: bool = False):
    """Field ``name`` of the JSON object ``obj``, the ``what`` of a
    document; with ``array``, a JSON array, refused unread otherwise."""
    if name not in obj:
        raise SpecError(f"malformed {what}: missing field {name!r}")
    value = obj[name]
    if array and not isinstance(value, list):
        found = _json_type(value)
        raise SpecError(f"malformed {what}: field {name!r} must be an array, found {found}")
    return value


def expr_from_node(node, table: Table, nodes=()) -> int:
    """Read a JSON node through the canonical constructors, hash-consing into
    ``table``, to its position there; one table passed to several calls
    makes equal subexpressions of all their results one object.  An integer
    k, wherever a node may stand, is the position ``nodes[k]`` already
    read."""
    if type(node) is int:  # a bool is not an index
        if not 0 <= node < len(nodes):
            raise SpecError(f"node index {node} names no node read before it")
        return nodes[node]
    if not isinstance(node, dict) or "kind" not in node:
        raise SpecError(f"malformed expression node: {node!r}")
    kind = node["kind"]
    if kind == "zero":
        return table.leaf(ZERO)
    if kind == "sum":
        terms = _field(node, "terms", "sum node", array=True)
        return make_sum([expr_from_node(t, table, nodes) for t in terms], table)
    if kind == "product":
        factors = _field(node, "factors", "product node", array=True)
        return make_product([expr_from_node(f, table, nodes) for f in factors], table)
    if kind == "seq":
        return make_seq(expr_from_node(_field(node, "arg", "seq node"), table, nodes), table)
    if kind == "atom":
        leaf = AtomRef(_field(node, "name", "atom node"))
    elif kind == "ref":
        name = _field(node, "name", "ref node")
        if not isinstance(name, str) or not name:
            raise SpecError(f"malformed ref node: {node!r}")
        leaf = ClassRef(name)
    else:
        raise SpecError(f"unknown node kind {kind!r}")
    return table.leaf(leaf)


def spec_to_dict(spec: Specification) -> dict:
    """The JSON document of a specification: each distinct node once in
    ``nodes``, children first in the order a walk of the equations meets
    them, so equal specifications give equal documents."""
    steps, at = spec._plan
    order, _ = postorder([kids for _, kids in steps], at.values())
    index = {step: i for i, step in enumerate(order)}
    return {
        "root": spec.root,
        "nodes": [_json_node(steps[s][0], [index[k] for k in steps[s][1]]) for s in order],
        "equations": [{"lhs": lhs, "rhs": index[i]} for lhs, i in at.items()],
    }


def spec_from_dict(doc: dict) -> Specification:
    what = "specification document"
    table, nodes, equations = Table(), [], []
    try:
        doc = _object(doc, what)
        for node in _field(doc, "nodes", what, array=True) if "nodes" in doc else ():
            nodes.append(expr_from_node(node, table, nodes))
        for i, eq in enumerate(_field(doc, "equations", what, array=True), 1):
            part = f"equation {i}"
            eq = _object(eq, part)
            lhs = _field(eq, "lhs", part)
            equations.append((lhs, expr_from_node(_field(eq, "rhs", part), table, nodes)))
    except RecursionError:
        raise SpecError("specification document nested too deeply") from None
    root = _field(doc, "root", what)
    if not isinstance(root, str):
        raise SpecError(f"root symbol {root!r} has no equation")
    return _close(equations, root, table)


# json is imported by its reader and writer only: a process that never reads
# or writes JSON does not load it.


def spec_to_json(spec: Specification) -> str:
    """Compact JSON of :func:`spec_to_dict`, on one line; its size follows
    the specification's plan, however deep the nesting."""
    import json

    return json.dumps(spec_to_dict(spec))


def spec_from_json(text: str) -> Specification:
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SpecError("invalid JSON: nested too deeply") from None
    return spec_from_dict(doc)
