"""Tests for the litmus text format parser."""

import pytest

from repro.engine.plan import SearchPlan
from repro.interp.sc import SCMemoryModel
from repro.lang.builder import acq, and_, assign, eq, if_, label, seq, skip, swap, var, while_
from repro.lang.parser import (
    ParseError,
    parse_command,
    parse_expression,
    parse_litmus,
    run_parsed_litmus,
    tokenize,
)
from repro.lang.syntax import Assign, BinOp, Labeled, Lit, Load, Not, Seq, Skip, Swap, While

# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------


def test_tokenize_basic():
    kinds = [t.kind for t in tokenize("x := 1; y :=R 2")]
    assert kinds == ["word", "assign", "num", "op", "word", "assignR", "num"]


def test_tokenize_tracks_lines():
    tokens = tokenize("x := 1\ny := 2")
    assert tokens[-1].line == 2


def test_tokenize_comments_dropped():
    tokens = tokenize("x := 1 // trailing\n# whole line\ny := 2")
    texts = [t.text for t in tokens if t.kind != "newline"]
    assert texts == ["x", ":=", "1", "y", ":=", "2"]


def test_tokenize_rejects_garbage():
    with pytest.raises(ParseError):
        tokenize("x := $")


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


def test_parse_literal_and_negatives():
    assert parse_expression("42") == Lit(42)
    assert parse_expression("-3") == Lit(-3)
    assert parse_expression("true") == Lit(1)
    assert parse_expression("false") == Lit(0)


def test_parse_loads():
    assert parse_expression("x") == Load("x", acquire=False)
    assert parse_expression("x^A") == Load("x", acquire=True)


def test_parse_unary_not():
    assert parse_expression("!f") == Not(Load("f"))


def test_parse_binops_and_precedence():
    e = parse_expression("x == 1 && y == 2")
    assert e == and_(eq(var("x"), 1), eq(var("y"), 2))
    # || binds looser than &&
    e2 = parse_expression("a || b && c")
    assert e2.op == "or"


def test_parse_arithmetic_precedence():
    e = parse_expression("1 + 2 * 3")
    assert e == BinOp("add", Lit(1), BinOp("mul", Lit(2), Lit(3)))


def test_parse_parentheses():
    e = parse_expression("(1 + 2) * 3")
    assert e == BinOp("mul", BinOp("add", Lit(1), Lit(2)), Lit(3))


def test_parse_latex_style_conjunction():
    e = parse_expression("x = 0 /\\ y = 1")
    assert e.op == "and"


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_expression("1 + 2 extra")


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


def test_parse_assign_variants():
    assert parse_command("x := 5") == assign("x", 5)
    assert parse_command("x :=R 5") == assign("x", 5, release=True)
    assert parse_command("r := y^A") == assign("r", acq("y"))


def test_parse_swap():
    assert parse_command("turn.swap(2)") == swap("turn", 2)


def test_parse_skip_and_seq():
    assert parse_command("skip") == Skip()
    c = parse_command("x := 1; y := 2; skip")
    assert c == seq(assign("x", 1), assign("y", 2), skip())


def test_parse_if_with_and_without_else():
    c = parse_command("if (x == 1) { y := 2 } else { y := 3 }")
    assert c == if_(eq(var("x"), 1), assign("y", 2), assign("y", 3))
    c2 = parse_command("if (x == 1) { y := 2 }")
    assert c2.else_branch == Skip()


def test_parse_while_and_busy_wait():
    c = parse_command("while (f != 1) { skip }")
    assert isinstance(c, While)
    c2 = parse_command("while (!f^A) { }")
    assert c2 == while_(Not(acq("f")), skip())


def test_parse_labels():
    c = parse_command("2: x := 1; 3: t.swap(1)")
    assert c == seq(label(2, assign("x", 1)), label(3, swap("t", 1)))


def test_parse_nested_blocks():
    c = parse_command("while (x == 0) { if (y == 1) { z := 1 } ; w := 2 }")
    assert isinstance(c, While)
    assert isinstance(c.body, Seq)


def test_parse_rejects_bad_statement():
    with pytest.raises(ParseError):
        parse_command("x + 1")
    with pytest.raises(ParseError):
        parse_command("x.swap(y)")  # swap takes a literal


# ----------------------------------------------------------------------
# Whole files
# ----------------------------------------------------------------------

SB_TEXT = """
C11 SB (store buffering)
{ x = 0; y = 0; r1 = 0; r2 = 0 }
P1: x := 1; r1 := y
P2: y := 1; r2 := x
exists (r1 = 0 /\\ r2 = 0)
"""


def test_parse_litmus_sb():
    parsed = parse_litmus(SB_TEXT)
    assert parsed.name == "SB"
    assert parsed.description == "store buffering"
    assert parsed.init == {"x": 0, "y": 0, "r1": 0, "r2": 0}
    assert parsed.program.tids == (1, 2)
    assert parsed.outcome_mode == "exists"
    assert parsed.outcome({"r1": 0, "r2": 0})
    assert not parsed.outcome({"r1": 1, "r2": 0})


def test_parsed_sb_runs_correctly():
    parsed = parse_litmus(SB_TEXT)
    ra_reachable, _ = run_parsed_litmus(parsed)
    sc_reachable, _ = run_parsed_litmus(parsed, model=SCMemoryModel())
    assert ra_reachable and not sc_reachable


def test_parse_litmus_multiline_threads():
    text = """
    C11 MP
    { d = 0; f = 0; r = 0 }
    P1: d := 5;
        f :=R 1
    P2: while (!f^A) { };
        r := d
    forbidden (r != 5 /\\ f = 1)
    """
    parsed = parse_litmus(text)
    assert parsed.outcome_mode == "forbidden"
    reachable, _ = run_parsed_litmus(parsed, plan=SearchPlan(max_events=9))
    assert not reachable


def test_parse_litmus_with_swap_and_labels():
    text = """
    C11 peterson_head
    { flag1 = 0; turn = 1 }
    P1: 2: flag1 := 1; 3: turn.swap(2)
    """
    parsed = parse_litmus(text)
    com = parsed.program.command(1)
    assert isinstance(com, Seq)
    assert isinstance(com.first, Labeled) and com.first.pc == 2


def test_parse_litmus_errors():
    with pytest.raises(ParseError):
        parse_litmus("RISCV SB\n{ x = 0 }\nP1: x := 1")
    with pytest.raises(ParseError):
        parse_litmus("C11 t\n{ x = 0 }\n")  # no threads
    with pytest.raises(ParseError):
        parse_litmus("C11 t\n{ x = 0 }\nP1: x := 1\nP1: x := 2")  # dup tid
    with pytest.raises(ParseError):
        parse_litmus("C11 t\n{ x = zero }\nP1: x := 1")  # bad init


def test_roundtrip_against_builder_equivalence():
    """Parsed and hand-built programs explore to identical state spaces."""
    from repro.interp.explore import explore
    from repro.interp.ra_model import RAMemoryModel
    from repro.lang.program import Program

    parsed = parse_litmus(SB_TEXT)
    built = Program.parallel(
        seq(assign("x", 1), assign("r1", var("y"))),
        seq(assign("y", 1), assign("r2", var("x"))),
    )
    init = {"x": 0, "y": 0, "r1": 0, "r2": 0}
    a = explore(parsed.program, init, RAMemoryModel())
    b = explore(built, init, RAMemoryModel())
    assert a.configs == b.configs
    assert len(a.terminal) == len(b.terminal)
