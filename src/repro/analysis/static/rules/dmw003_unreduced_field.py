"""DMW003 — field arithmetic without a ``% p`` reduction.

Soundness invariant (paper eq. (3)–(7)): shares, polynomial coefficients,
Lagrange weights, and commitment values are elements of ``Z_q``/``Z_p``.
Python integers never overflow, so an un-reduced ``a * b`` produces a
*numerically* plausible value that is simply outside the field — degree
resolution and commitment verification then fail on honest data, which the
protocol misreads as agent misbehavior.  Every ``+``/``-``/``*`` whose
operands are field elements must be reduced in the enclosing expression.

The rule fires on a binary ``+``/``-``/``*`` where an operand's name marks
it as a field element (contains ``share``, ``coeff``, ``commitment``,
``lagrange``, ``residue``, or ``_mod_p``/``_mod_q``) and no enclosing
expression applies ``%`` or routes through the metered ``mod_*`` helpers.

Sanctioned idioms::

    value = (share_a + share_b) % q
    value = mod_mul(share_a, share_b, p, counter)

Index/length arithmetic is excluded by construction: only Name/Attribute/
Subscript operands are inspected, and ``*_count``/``*_index``/``num_*``
names are ignored.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..base import FileContext, Rule, Violation

#: Substrings that mark a name as denoting a field element.
FIELD_TOKENS = ("share", "coeff", "commitment", "lagrange", "residue",
                "_mod_p", "_mod_q")

#: Name patterns that are *not* field elements even when a token matches
#: (counters, indices, sizes riding along in the same identifiers).
EXEMPT_SUFFIXES = ("_count", "_counts", "_index", "_indices", "_len",
                   "_size", "_bits", "_rank")
EXEMPT_PREFIXES = ("num_", "n_", "count_")

#: Calls that perform their own reduction.
REDUCING_CALLS: Set[str] = {
    "mod_add", "mod_sub", "mod_mul", "mod_div", "mod_exp", "mod_inv",
    "multi_exp", "batch_mod_inv", "interpolate_at_zero",
}

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult)


def _operand_field_name(node: ast.AST) -> Optional[str]:
    """Field-element name of an operand, or None if it is not one."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    lowered = name.lower()
    if any(lowered.endswith(s) for s in EXEMPT_SUFFIXES):
        return None
    if any(lowered.startswith(p) for p in EXEMPT_PREFIXES):
        return None
    if any(token in lowered for token in FIELD_TOKENS):
        return name
    return None


class UnreducedFieldArithmeticRule(Rule):
    rule_id = "DMW003"
    description = "field arithmetic without % p reduction in the expression"
    invariant = ("all arithmetic on shares/coefficients/commitments must "
                 "stay in Z_p/Z_q (eq. (3)-(7)); un-reduced values make "
                 "honest data fail verification")
    include_parts = ("crypto", "core")

    def check(self, context: FileContext) -> Iterator[Violation]:
        reduced = self._reduced_nodes(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, _ARITH_OPS):
                continue
            if id(node) in reduced:
                continue
            name = (_operand_field_name(node.left)
                    or _operand_field_name(node.right))
            if name is None:
                continue
            op_symbol = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}[
                type(node.op)]
            yield self.violation(
                context, node,
                "`%s` involved in `%s` without a %% reduction in the "
                "enclosing expression; reduce mod p/q or use the mod_* "
                "helpers" % (name, op_symbol))

    @staticmethod
    def _reduced_nodes(tree: ast.Module) -> Set[int]:
        """ids of nodes that sit under a ``%`` or a reducing call."""
        reduced: Set[int] = set()

        def mark(node: ast.AST) -> None:
            for child in ast.walk(node):
                reduced.add(id(child))

        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                # Everything under `expr % modulus` is considered reduced
                # (the left side is what gets reduced; the right side is
                # the modulus expression itself).
                mark(node.left)
                mark(node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op,
                                                               ast.Mod):
                mark(node.value)
                mark(node.target)
            elif isinstance(node, ast.Call):
                func = node.func
                func_name = None
                if isinstance(func, ast.Name):
                    func_name = func.id
                elif isinstance(func, ast.Attribute):
                    func_name = func.attr
                if func_name in REDUCING_CALLS:
                    for arg in node.args:
                        mark(arg)
        return reduced
