"""Pretty-printer producing parseable L/L++ source text.

Round-trip property: for any AST ``t``,
``parse_transaction(pretty_transaction(t)) == t`` up to the parser's
sugar (boolean writes desugar to conditionals before printing, so the
property is tested on parser output, which is already desugared).
"""

from __future__ import annotations

from repro.lang.ast import Transaction


def pretty_transaction(tx: Transaction) -> str:
    """Render a transaction declaration as source text."""
    return tx.pretty()


