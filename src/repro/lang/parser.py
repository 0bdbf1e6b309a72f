"""A textual litmus-test format and its parser.

Programs in the paper are a few lines per thread; a textual format makes
test corpora and external tooling practical (herd7 has ``.litmus``, we
have this).  Example::

    C11 SB (store buffering)
    { x = 0; y = 0; r1 = 0; r2 = 0 }
    P1: x := 1; r1 := y
    P2: y := 1; r2 := x
    exists (r1 = 0 /\\ r2 = 0)

Syntax:

* **header** — ``C11 <name> (optional description)``
* **init block** — ``{ var = value; ... }``
* **threads** — ``P<tid>:`` followed by ``;``-separated statements:

  =====================  =========================================
  ``x := E``             relaxed store
  ``x :=R E``            releasing store
  ``x.swap(n)``          release-acquire RMW (the paper's ``swap``)
  ``r := x.swap(n)``     exchange keeping the old value in ``r``
  ``x.faa(k)``           fetch-and-add (write value = read value + k)
  ``r := x.faa(k)``      fetch-and-add keeping the fetch in ``r``
  ``skip``               no-op
  ``if (B) { .. } else { .. }``  conditional (``else`` optional)
  ``while (B) { .. }``   loop (empty body = busy wait)
  ``<n>: stmt``          program-location label
  =====================  =========================================

* **expressions** — values, ``x`` (relaxed load), ``x^A`` (acquiring
  load), ``!E``, ``E op E`` with ``== != < <= > >= + - * && ||``.
* **outcome** (optional) — ``exists (cond)`` or ``forbidden (cond)``
  over final variable values, with the same expression operators.

:func:`parse_litmus` returns a :class:`ParsedLitmus`;
:func:`parse_command` parses a bare statement sequence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang.actions import Value, Var
from repro.lang.program import Program
from repro.lang.syntax import (
    Assign,
    BinOp,
    Com,
    Exp,
    Faa,
    If,
    Labeled,
    Lit,
    Load,
    Not,
    Seq,
    Skip,
    Swap,
    While,
)


class ParseError(ValueError):
    """Raised on malformed litmus text, with position information."""

    def __init__(self, message: str, token: Optional["Token"] = None) -> None:
        where = f" at line {token.line}: {token.text!r}" if token else ""
        super().__init__(message + where)


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<newline>\n)
  | (?P<num>-?\d+)
  | (?P<assignR>:=R\b)
  | (?P<assign>:=)
  | (?P<op>==|!=|<=|>=|&&|\|\||/\\|\\/|[-+*<>!;:{}()=^.,])
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> List[Token]:
    """Split litmus text into tokens (comments and whitespace dropped)."""
    tokens: List[Token] = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at line {line}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            tokens.append(Token("newline", "\n", line - 1))
        elif kind in ("ws", "comment"):
            continue
        else:
            tokens.append(Token(kind, m.group(), line))
    return tokens


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

_BINOP_NAMES = {
    "==": "eq",
    "=": "eq",  # litmus outcome conditions traditionally write r1 = 0
    "!=": "ne",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
    "+": "add",
    "-": "sub",
    "*": "mul",
    "&&": "and",
    "||": "or",
    "/\\": "and",
    "\\/": "or",
}

#: binding strengths, loosest first (no precedence subtleties needed for
#: litmus-scale expressions; parenthesise when in doubt)
_PRECEDENCE: List[Tuple[str, ...]] = [
    ("||", "\\/"),
    ("&&", "/\\"),
    ("==", "=", "!=", "<", "<=", ">", ">="),
    ("+", "-"),
    ("*",),
]


class _Cursor:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = [t for t in tokens]
        self.i = 0

    def peek(self, skip_newlines: bool = False) -> Optional[Token]:
        j = self.i
        while j < len(self.tokens):
            t = self.tokens[j]
            if skip_newlines and t.kind == "newline":
                j += 1
                continue
            return t
        return None

    def next(self, skip_newlines: bool = False) -> Token:
        while self.i < len(self.tokens):
            t = self.tokens[self.i]
            self.i += 1
            if skip_newlines and t.kind == "newline":
                continue
            return t
        raise ParseError("unexpected end of input")

    def expect(self, text: str, skip_newlines: bool = True) -> Token:
        t = self.next(skip_newlines=skip_newlines)
        if t.text != text:
            raise ParseError(f"expected {text!r}", t)
        return t

    def accept(self, text: str, skip_newlines: bool = True) -> bool:
        t = self.peek(skip_newlines=skip_newlines)
        if t is not None and t.text == text:
            self.next(skip_newlines=skip_newlines)
            return True
        return False

    def at_end(self) -> bool:
        return self.peek(skip_newlines=True) is None


def _parse_exp(cur: _Cursor, level: int = 0) -> Exp:
    if level >= len(_PRECEDENCE):
        return _parse_atom(cur)
    left = _parse_exp(cur, level + 1)
    while True:
        t = cur.peek()
        if t is not None and t.text in _PRECEDENCE[level]:
            cur.next()
            right = _parse_exp(cur, level + 1)
            left = BinOp(_BINOP_NAMES[t.text], left, right)
        else:
            return left


def _parse_atom(cur: _Cursor) -> Exp:
    t = cur.next()
    if t.text == "(":
        e = _parse_exp(cur)
        cur.expect(")")
        return e
    if t.text == "!":
        return Not(_parse_atom(cur))
    if t.kind == "num":
        return Lit(int(t.text))
    if t.kind == "word":
        if t.text in ("true", "false"):
            return Lit(1 if t.text == "true" else 0)
        acquire = False
        nxt = cur.peek(skip_newlines=False)
        if nxt is not None and nxt.text == "^":
            cur.next(skip_newlines=False)
            ann = cur.next(skip_newlines=False)
            if ann.text != "A":
                raise ParseError("only the ^A load annotation exists", ann)
            acquire = True
        return Load(t.text, acquire=acquire)
    raise ParseError("expected an expression", t)


def _parse_block(cur: _Cursor) -> Com:
    cur.expect("{")
    if cur.accept("}"):
        return Skip()
    body = _parse_statements(cur, stop={"}"})
    cur.expect("}")
    return body


def _parse_statement(cur: _Cursor) -> Com:
    t = cur.peek(skip_newlines=True)
    if t is None:
        raise ParseError("expected a statement")

    # label: "<n>: stmt"
    if t.kind == "num" and int(t.text) >= 0:
        save = cur.i
        num = cur.next(skip_newlines=True)
        if cur.accept(":", skip_newlines=False):
            return Labeled(int(num.text), _parse_statement(cur))
        cur.i = save

    t = cur.next(skip_newlines=True)
    if t.text == "{":
        # statement grouping: binds a multi-statement body to one label
        if cur.accept("}"):
            return Skip()
        body = _parse_statements(cur, stop={"}"})
        cur.expect("}")
        return body
    if t.text == "skip":
        return Skip()
    if t.text == "if":
        cur.expect("(")
        guard = _parse_exp(cur)
        cur.expect(")")
        then_branch = _parse_block(cur)
        else_branch: Com = Skip()
        if cur.accept("else"):
            else_branch = _parse_block(cur)
        return If(guard, then_branch, else_branch)
    if t.text == "while":
        cur.expect("(")
        guard = _parse_exp(cur)
        cur.expect(")")
        body = _parse_block(cur)
        return While(guard, body)
    if t.kind == "word":
        nxt = cur.peek(skip_newlines=False)
        if nxt is not None and nxt.text == ".":
            cur.next(skip_newlines=False)
            return _parse_rmw_call(cur, t.text, reg=None)
        op = cur.next()
        if op.kind == "assignR":
            return Assign(t.text, _parse_exp(cur), release=True)
        if op.kind == "assign":
            # value-returning RMW:  r := x.swap(n)  /  r := x.faa(k)
            save = cur.i
            rhs = cur.peek(skip_newlines=True)
            if rhs is not None and rhs.kind == "word":
                word = cur.next(skip_newlines=True)
                if cur.accept(".", skip_newlines=False):
                    return _parse_rmw_call(cur, word.text, reg=t.text)
                cur.i = save
            return Assign(t.text, _parse_exp(cur), release=False)
        raise ParseError("expected ':=', ':=R' or '.swap(..)'", op)
    raise ParseError("expected a statement", t)


def _parse_rmw_call(cur: _Cursor, target: str, reg: Optional[str]) -> Com:
    """Parse ``swap(n)`` / ``faa(k)`` after ``<target>.`` was consumed."""
    op = cur.next(skip_newlines=False)
    if op.text not in ("swap", "faa"):
        raise ParseError("expected 'swap(..)' or 'faa(..)' after '.'", op)
    cur.expect("(")
    val = cur.next()
    if val.kind != "num":
        raise ParseError(f"{op.text} takes a value literal", val)
    cur.expect(")")
    if op.text == "swap":
        return Swap(target, int(val.text), reg)
    return Faa(target, int(val.text), reg)


def _parse_statements(cur: _Cursor, stop: set) -> Com:
    parts: List[Com] = [_parse_statement(cur)]
    while True:
        t = cur.peek(skip_newlines=True)
        if t is None or t.text in stop:
            break
        if t.kind == "newline":
            cur.next()
            continue
        if cur.accept(";"):
            t2 = cur.peek(skip_newlines=True)
            if t2 is None or t2.text in stop:
                break
            parts.append(_parse_statement(cur))
            continue
        break
    com = parts[-1]
    for p in reversed(parts[:-1]):
        com = Seq(p, com)
    return com


def parse_command(text: str) -> Com:
    """Parse a bare ``;``-separated statement sequence."""
    cur = _Cursor(tokenize(text))
    com = _parse_statements(cur, stop=set())
    if not cur.at_end():
        raise ParseError("trailing input", cur.peek(skip_newlines=True))
    return com


def parse_expression(text: str) -> Exp:
    """Parse a bare expression."""
    cur = _Cursor(tokenize(text))
    e = _parse_exp(cur)
    if not cur.at_end():
        raise ParseError("trailing input", cur.peek(skip_newlines=True))
    return e


# ----------------------------------------------------------------------
# Whole litmus files
# ----------------------------------------------------------------------


@dataclass
class ParsedLitmus:
    """A parsed litmus file."""

    name: str
    description: str
    program: Program
    init: Dict[Var, Value]
    #: "exists" (outcome expected reachable) / "forbidden" / None
    outcome_mode: Optional[str] = None
    outcome_exp: Optional[Exp] = None

    def outcome(self, values: Dict[Var, Value]) -> bool:
        """Evaluate the outcome condition on final variable values."""
        if self.outcome_exp is None:
            raise ValueError("litmus test has no outcome condition")
        return bool(_eval_condition(self.outcome_exp, values))


def _eval_condition(e: Exp, values: Dict[Var, Value]) -> Value:
    from repro.lang.syntax import BINOPS

    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Load):
        return values[e.var]
    if isinstance(e, Not):
        return 0 if _eval_condition(e.operand, values) else 1
    if isinstance(e, BinOp):
        return BINOPS[e.op](
            _eval_condition(e.left, values), _eval_condition(e.right, values)
        )
    raise TypeError(f"not an expression: {e!r}")


_THREAD_RE = re.compile(r"^P(\d+)$")


def parse_litmus(text: str) -> ParsedLitmus:
    """Parse a complete litmus file (header, init, threads, outcome)."""
    cur = _Cursor(tokenize(text))

    cur.expect("C11")
    name_tok = cur.next(skip_newlines=False)
    if name_tok.kind not in ("word", "num"):
        raise ParseError("expected a test name", name_tok)
    name = name_tok.text
    description = ""
    if cur.accept("(", skip_newlines=False):
        words = []
        while True:
            t = cur.next()
            if t.text == ")":
                break
            words.append(t.text)
        description = " ".join(words)

    # init block
    init: Dict[Var, Value] = {}
    cur.expect("{")
    while not cur.accept("}"):
        var_tok = cur.next()
        if var_tok.kind != "word":
            raise ParseError("expected a variable in the init block", var_tok)
        cur.expect("=")
        val_tok = cur.next()
        if val_tok.kind != "num":
            raise ParseError("expected a value in the init block", val_tok)
        init[var_tok.text] = int(val_tok.text)
        cur.accept(";")

    # threads
    threads: Dict[int, Com] = {}
    while True:
        t = cur.peek(skip_newlines=True)
        if t is None or t.text in ("exists", "forbidden"):
            break
        head = cur.next(skip_newlines=True)
        m = _THREAD_RE.match(head.text)
        if not m:
            raise ParseError("expected a thread header 'P<tid>:'", head)
        tid = int(m.group(1))
        if tid in threads:
            raise ParseError(f"duplicate thread P{tid}", head)
        cur.expect(":", skip_newlines=False)
        threads[tid] = _parse_statements(
            cur, stop={"exists", "forbidden"} | {f"P{i}" for i in range(100)}
        )
    if not threads:
        raise ParseError("litmus file declares no threads")

    # outcome
    outcome_mode: Optional[str] = None
    outcome_exp: Optional[Exp] = None
    t = cur.peek(skip_newlines=True)
    if t is not None:
        mode = cur.next(skip_newlines=True)
        outcome_mode = mode.text
        cur.expect("(")
        outcome_exp = _parse_exp(cur)
        cur.expect(")")
    if not cur.at_end():
        raise ParseError("trailing input", cur.peek(skip_newlines=True))

    return ParsedLitmus(
        name=name,
        description=description,
        program=Program.of(threads),
        init=init,
        outcome_mode=outcome_mode,
        outcome_exp=outcome_exp,
    )


def run_parsed_litmus(parsed: ParsedLitmus, model=None, plan=None):
    """Convenience: decide the parsed test's outcome reachability.

    ``plan`` (a :class:`~repro.engine.plan.SearchPlan`; default: the
    plain unbounded search) is the whole search — ``repro run``'s
    bound, strategy, reduction, shards (DESIGN.md §15) and checkpoint
    surface (DESIGN.md §16) land here.
    """
    from repro.engine.plan import SearchPlan
    from repro.interp.explore import explore
    from repro.interp.ra_model import RAMemoryModel
    from repro.litmus.registry import final_values

    model = model if model is not None else RAMemoryModel()
    plan = plan if plan is not None else SearchPlan()
    result = explore(parsed.program, parsed.init, model, **plan.options())
    # Files without an exists/forbidden clause (e.g. fuzz-corpus
    # reproducers) are pure explorations: nothing to be reachable.
    reachable = parsed.outcome_exp is not None and any(
        parsed.outcome(final_values(c)) for c in result.terminal
    )
    return reachable, result
