"""DMW005 — mutation of a network ``Message`` after it was sent.

Delivery invariant (DESIGN.md / ``repro.network``): the simulated network
delivers by reference within a process, so mutating a message object after
``send()``/``broadcast()`` retroactively rewrites what the recipient — and
the transcript — saw.  That breaks the bulletin-board equivocation checks
(every agent must observe the *same* published value) and makes replay
diverge from the live run.  :class:`repro.network.message.Message` is an
immutable ``NamedTuple``, stamped with its round when it is queued,
precisely to prevent this; the rule guards the remaining hole (mutable
payloads) and any future mutable message type.

The rule tracks, per function, names passed to a ``send``-like method and
flags later attribute/subscript assignment or mutating method calls on
them.  Sanctioned idiom: build the final payload first and send last; a
restamped message is a copy (``Message.with_round``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..base import FileContext, Rule, Violation

SEND_METHODS = {"send", "broadcast", "transmit", "enqueue"}
MUTATING_METHODS = {"update", "append", "add", "clear", "pop", "extend",
                    "setdefault", "insert", "remove"}


def _attribute_chain_base(node: ast.AST) -> Tuple[Optional[str], bool]:
    """(base name, chain passed through an attribute/subscript) of a target."""
    through_attribute = False
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            through_attribute = True
            current = current.value
        elif isinstance(current, ast.Subscript):
            through_attribute = True
            current = current.value
        else:
            break
    if isinstance(current, ast.Name):
        return current.id, through_attribute
    return None, through_attribute


class PostSendMutationRule(Rule):
    rule_id = "DMW005"
    description = "mutation of a Message object after send/broadcast"
    invariant = ("the network delivers by reference: post-send mutation "
                 "rewrites what recipients and the transcript observed, "
                 "breaking equivocation checks and replay")
    include_parts = ("core", "network")

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(context, node)

    def _check_function(self, context: FileContext,
                        function: ast.AST) -> Iterator[Violation]:
        sent_at: Dict[str, int] = {}
        mutations: List[Tuple[int, str, ast.AST]] = []
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                self._note_send(node, sent_at)
                mutated = self._mutating_call_target(node)
                if mutated is not None:
                    mutations.append((node.lineno, mutated, node))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    base, through = _attribute_chain_base(target)
                    if base is not None and through:
                        mutations.append((node.lineno, base, node))
        for lineno, name, node in sorted(mutations, key=lambda m: m[0]):
            if name in sent_at and lineno > sent_at[name]:
                yield self.violation(
                    context, node,
                    "`%s` mutated on line %d after being sent on line %d; "
                    "messages must be immutable once transmitted" %
                    (name, lineno, sent_at[name]))

    @staticmethod
    def _note_send(call: ast.Call, sent_at: Dict[str, int]) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in SEND_METHODS):
            return
        for argument in call.args:
            if isinstance(argument, ast.Name):
                sent_at.setdefault(argument.id, call.lineno)
            elif isinstance(argument, (ast.List, ast.Tuple)):
                for element in argument.elts:
                    if isinstance(element, ast.Name):
                        sent_at.setdefault(element.id, call.lineno)

    @staticmethod
    def _mutating_call_target(call: ast.Call) -> Optional[str]:
        """Name mutated by ``name.attr.update(...)``-style calls, if any."""
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS):
            return None
        # Require at least one attribute hop below the method so that
        # plain `some_list.append(x)` is not treated as message mutation.
        base, through = _attribute_chain_base(func.value)
        if base is not None and through:
            return base
        return None
