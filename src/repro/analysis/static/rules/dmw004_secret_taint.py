"""DMW004 — secret-tagged values reaching transcript/log/serialization sinks.

Privacy invariant (paper Theorem 13 / analysis in ``repro.analysis.privacy``):
below the collusion threshold ``c``, losing bids must remain
information-theoretically hidden.  The cryptography guarantees this on the
wire — but a single ``print(bid)``, a log record, or a JSON dump of an
agent's private state leaks the value out-of-band and voids the theorem.
The only sanctioned reveals are the outcome of resolution: the minimum bid
``y*``, the winner's identity, and the second price ``y**`` — and those
must go through the explicit :func:`repro.crypto.secret.declassify` gate so
every reveal is auditable.

The rule runs two passes sharing one vocabulary
(:mod:`repro.analysis.static.dataflow`):

* the **intra-function pass** taints parameters and variables whose
  names mark them as secret (``bid``/``bids`` segments, ``secret``,
  ``true_value``/``valuation``), propagates taint through assignments,
  and flags any tainted name appearing in a sink call — ``print``,
  logger methods, ``json.dump(s)``, ``transcript.append/record`` —
  unless wrapped in ``declassify(...)``;
* the **interprocedural pass** flags the leaks the intra pass provably
  cannot see: a secret handed to a helper (possibly in another module)
  whose innocently-named parameter flows — through any number of
  further calls, returns, and attribute stores — into a sink.  Taint
  summaries come from the worklist dataflow over the project call
  graph; ``declassify()`` remains the only sanctioner at every hop.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Set

from ..base import FileContext, ProjectRule, Violation, assigned_names
from ..dataflow import (
    LOGGER_BASES,
    LOGGER_METHODS,
    PUBLIC_EXCEPTIONS,
    SECRET_SEGMENTS,
    SECRET_SUBSTRINGS,
    TRANSCRIPT_METHODS,
    declassified_ids,
    find_interprocedural_leaks,
    is_declassify_call,
    is_secret_name,
    sink_description,
)

__all__ = [
    "LOGGER_BASES",
    "LOGGER_METHODS",
    "PUBLIC_EXCEPTIONS",
    "SECRET_SEGMENTS",
    "SECRET_SUBSTRINGS",
    "SecretTaintRule",
    "TRANSCRIPT_METHODS",
    "is_secret_name",
]

# Backwards-compatible aliases (the helpers moved to ``dataflow`` so the
# whole-program pass shares them).
_is_declassify_call = is_declassify_call
_declassified_ids = declassified_ids
_sink_description = sink_description


class SecretTaintRule(ProjectRule):
    rule_id = "DMW004"
    description = "secret value reaches a transcript/log/serialization sink"
    invariant = ("losing bids stay hidden below the collusion threshold c "
                 "(Theorem 13); the only sanctioned reveals (y*, winner, "
                 "y**) must pass through declassify(...)")
    include_parts = ("crypto", "core", "network")

    # -- intra-function pass ----------------------------------------------
    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(context, node)

    def _check_function(self, context: FileContext,
                        function: ast.AST) -> Iterator[Violation]:
        tainted = self._tainted_names(function)
        if not tainted:
            return
        laundered = declassified_ids(function)
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            sink = sink_description(node)
            if not sink:
                continue
            leaking = self._tainted_in_args(node, tainted, laundered)
            for name in leaking:
                yield self.violation(
                    context, node,
                    "secret-tagged `%s` reaches %s outside a declassify() "
                    "gate" % (name, sink))

    @staticmethod
    def _tainted_names(function: ast.AST) -> Set[str]:
        """Seed taint from parameter names, then propagate once through
        assignments in source order."""
        tainted: Set[str] = set()
        args = function.args  # type: ignore[attr-defined]
        all_args = (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else []))
        for arg in all_args:
            if is_secret_name(arg.arg):
                tainted.add(arg.arg)
        statements = sorted(
            (n for n in ast.walk(function)
             if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))),
            key=lambda n: n.lineno)
        for statement in statements:
            value = statement.value
            if value is None:
                continue
            targets: List[str] = []
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    targets.extend(assigned_names(target))
            else:
                targets.extend(assigned_names(statement.target))
            # Direct secret names taint their targets; so does any RHS
            # mentioning an already-tainted name (unless declassified).
            rhs_names = {n.id for n in ast.walk(value)
                         if isinstance(n, ast.Name)}
            rhs_tainted = any(is_secret_name(n) or n in tainted
                              for n in rhs_names)
            if rhs_tainted and not is_declassify_call(value):
                tainted.update(targets)
            for name in targets:
                if is_secret_name(name):
                    tainted.add(name)
        return tainted

    @staticmethod
    def _tainted_in_args(call: ast.Call, tainted: Set[str],
                         laundered: Set[int]) -> List[str]:
        leaking: Dict[str, None] = {}
        argument_nodes = list(call.args) + [kw.value for kw in call.keywords]
        for argument in argument_nodes:
            for node in ast.walk(argument):
                if id(node) in laundered:
                    continue
                if isinstance(node, ast.Name):
                    if node.id in tainted or is_secret_name(node.id):
                        leaking[node.id] = None
                elif isinstance(node, ast.Attribute):
                    if is_secret_name(node.attr):
                        leaking[node.attr] = None
        return list(leaking)

    # -- interprocedural pass ---------------------------------------------
    def check_project(self, project: Any) -> Iterator[Violation]:
        graph = project.callgraph
        summaries = project.taint_summaries
        scoped = []
        for function in project.project.iter_functions():
            context = project.context_for(function.path)
            if context is not None and self.applies_to(context):
                scoped.append(function)
        for leak in find_interprocedural_leaks(project.project, graph,
                                               summaries, scoped):
            context = project.context_for(leak.function.path)
            if context is None:
                continue
            via = " -> ".join(leak.chain)
            yield self.violation(
                context, leak.node,
                "secret-tagged `%s` reaches %s through call chain %s "
                "without a declassify() gate (interprocedural)"
                % (leak.name, leak.sink, via))
