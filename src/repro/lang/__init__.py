"""The transaction languages L and L++ (Sections 2.3 and 2.4).

``L`` is the paper's loop-free imperative core: reads, writes,
temporary assignments, conditionals and prints (Figure 5).  ``L++``
adds bounded arrays/relations and bounded iteration as syntactic sugar
that desugars into plain ``L`` (Appendix A), plus the compressed
*parameterized access* form of Section 5.1.

Public entry points:

- :func:`repro.lang.parser.parse_program` / ``parse_transaction`` --
  text to AST.
- :func:`repro.lang.interp.evaluate` -- ``Eval(T, D)`` per
  Definition 2.1.
- :func:`repro.lang.lpp.desugar_transaction` -- L++ to L lowering.
"""

from repro.lang.ast import (
    ABin,
    AConst,
    ANeg,
    AParam,
    ARead,
    ATemp,
    ArrayRef,
    Assign,
    BAnd,
    BCmp,
    BConst,
    BNot,
    BOr,
    Com,
    ForEach,
    GroundRef,
    If,
    ObjRef,
    Print,
    Program,
    Seq,
    Skip,
    Transaction,
    Write,
)
from repro.lang.interp import EvalResult, evaluate
from repro.lang.lexer import LexError, tokenize
from repro.lang.parser import ParseError, parse_program, parse_transaction
from repro.lang.pretty import pretty_transaction

__all__ = [
    "ABin",
    "AConst",
    "ANeg",
    "AParam",
    "ARead",
    "ATemp",
    "ArrayRef",
    "Assign",
    "BAnd",
    "BCmp",
    "BConst",
    "BNot",
    "BOr",
    "Com",
    "EvalResult",
    "ForEach",
    "GroundRef",
    "If",
    "LexError",
    "ObjRef",
    "ParseError",
    "Print",
    "Program",
    "Seq",
    "Skip",
    "Transaction",
    "Write",
    "evaluate",
    "parse_program",
    "parse_transaction",
    "pretty_transaction",
    "tokenize",
]
