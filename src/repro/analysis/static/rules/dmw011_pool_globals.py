"""DMW011 — module globals mutated on the process-pool worker task path.

The pool driver's determinism contract (``repro.parallel``) is that a
shard is a pure function of ``(PoolSpec, task)``: workers are recycled
across tasks, so any module-level state a task writes leaks into the
*next* task scheduled on the same worker — and which tasks share a
worker depends on timing, so the contamination is irreproducible by
construction.  Results must flow back through the picklable
:class:`~repro.parallel.ShardResult`; per-process setup belongs in the
pool *initializer*, which runs once before any task and is the one
sanctioned writer of worker-process globals.  (``repro.parallel``
installs ``_SPEC`` and the arithmetic-backend selection from the task
path instead, value-guarded on the spec each unit of work carries, with
an audited inline suppression at each write.)

Statically: the rule finds the pool entry points — functions passed as
``initializer=`` to ``ProcessPoolExecutor(...)`` and functions submitted
with ``pool.submit(f, ...)`` — takes the call-graph closure of the
*task* entries, and flags, inside any function of that closure:

* rebinding a module global (``global X`` + assignment);
* mutating a module-level mutable container (``X.append/update/...``,
  ``X[k] = v``), whether accessed by local name or as ``module.X``.

Functions reachable only from an initializer are exempt (the sanctioned
install point); parent-side code (never submitted to the pool) is out of
closure and untouched.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, List, Optional, Set, Tuple

from ..base import ProjectRule, Violation
from ..callgraph import FunctionInfo, ModuleInfo, Project

#: Method names that mutate a list/dict/set in place.
MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
}

#: Constructors whose module-level result is a mutable container.
_CONTAINER_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict",
                    "Counter", "deque"}

_CONTAINER_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                       ast.DictComp, ast.SetComp)


def _module_globals(module: ModuleInfo) -> Tuple[Set[str], Set[str]]:
    """(all module-level names, the mutable-container subset)."""
    names: Set[str] = set()
    containers: Set[str] = set()
    for node in module.tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            names.add(target.id)
            if value is None:
                continue
            if isinstance(value, _CONTAINER_LITERALS):
                containers.add(target.id)
            elif (isinstance(value, ast.Call)
                  and isinstance(value.func, ast.Name)
                  and value.func.id in _CONTAINER_CALLS):
                containers.add(target.id)
    return names, containers


def _resolve_function_ref(project: Project, module: ModuleInfo,
                          node: ast.AST) -> Optional[FunctionInfo]:
    """Resolve a bare function reference (not a call) like ``_init_worker``."""
    if isinstance(node, ast.Name):
        if node.id in module.functions:
            return module.functions[node.id]
        if node.id in module.imports:
            return project._resolve_dotted(module.imports[node.id])
    if isinstance(node, ast.Attribute):
        parts: List[str] = []
        current: ast.AST = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
            dotted = ".".join(reversed(parts))
            head = dotted.split(".")[0]
            if head in module.imports:
                dotted = module.imports[head] + dotted[len(head):]
            return project._resolve_dotted(dotted)
    return None


def _pool_entries(project: Project) -> Tuple[Set[str], Set[str]]:
    """(initializer entry qualnames, task entry qualnames)."""
    initializers: Set[str] = set()
    tasks: Set[str] = set()
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name in ("ProcessPoolExecutor", "Pool"):
                for keyword in node.keywords:
                    if keyword.arg == "initializer":
                        target = _resolve_function_ref(project, module,
                                                       keyword.value)
                        if target is not None:
                            initializers.add(target.qualname)
            elif name in ("submit", "apply_async") and node.args:
                target = _resolve_function_ref(project, module, node.args[0])
                if target is not None:
                    tasks.add(target.qualname)
            elif name == "map" and isinstance(func, ast.Attribute) \
                    and node.args:
                # ``pool.map(f, items)`` — only when the receiver is
                # plausibly an executor, to keep builtin map() out.
                receiver = func.value
                receiver_name = (receiver.id if isinstance(receiver, ast.Name)
                                 else receiver.attr
                                 if isinstance(receiver, ast.Attribute)
                                 else "")
                if any(token in receiver_name.lower()
                       for token in ("pool", "executor")):
                    target = _resolve_function_ref(project, module,
                                                   node.args[0])
                    if target is not None:
                        tasks.add(target.qualname)
    return initializers, tasks


class PoolSharedStateRule(ProjectRule):
    rule_id = "DMW011"
    description = ("module global mutated on the process-pool worker "
                   "task path")
    invariant = ("a pool shard is a pure function of (PoolSpec, task): "
                 "workers are recycled, so module state written by one "
                 "task leaks into whichever task lands on the same "
                 "worker next — results must return via ShardResult, "
                 "per-process setup via the pool initializer")
    include_parts = ("parallel.py", "parallel", "crypto", "core", "network")

    def _function_writes(self, function: FunctionInfo, module: ModuleInfo,
                         project: Project
                         ) -> Iterator[Tuple[ast.AST, str, str]]:
        """Yield (node, global name, verb) for shared-state writes."""
        _names, containers = _module_globals(module)
        declared_global: Set[str] = set()
        for node in ast.walk(function.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(function.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and target.id in declared_global):
                        yield node, target.id, "rebinds"
                    elif (isinstance(target, ast.Subscript)
                          and isinstance(target.value, ast.Name)
                          and target.value.id in containers
                          and target.value.id not in
                          self._local_shadows(function)):
                        yield node, target.value.id, "writes into"
                    elif (isinstance(target, ast.Attribute)
                          and isinstance(target.value, ast.Name)
                          and target.value.id in module.imports):
                        owner = project.modules.get(
                            module.imports[target.value.id])
                        if owner is not None:
                            owner_names, _ = _module_globals(owner)
                            if target.attr in owner_names:
                                yield (node, "%s.%s" % (target.value.id,
                                                        target.attr),
                                       "rebinds")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATOR_METHODS:
                receiver = node.func.value
                if (isinstance(receiver, ast.Name)
                        and receiver.id in containers
                        and receiver.id not in
                        self._local_shadows(function)):
                    yield node, receiver.id, "mutates"
                elif (isinstance(receiver, ast.Attribute)
                      and isinstance(receiver.value, ast.Name)
                      and receiver.value.id in module.imports):
                    owner = project.modules.get(
                        module.imports[receiver.value.id])
                    if owner is not None:
                        _, owner_containers = _module_globals(owner)
                        if receiver.attr in owner_containers:
                            yield (node, "%s.%s" % (receiver.value.id,
                                                    receiver.attr),
                                   "mutates")

    @staticmethod
    def _local_shadows(function: FunctionInfo) -> Set[str]:
        """Names rebound locally (parameters or plain assignments),
        which therefore do not refer to the module global."""
        shadows: Set[str] = set(function.param_names)
        globals_declared: Set[str] = set()
        for node in ast.walk(function.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        shadows.add(target.id)
            elif isinstance(node, (ast.For,)):
                if isinstance(node.target, ast.Name):
                    shadows.add(node.target.id)
        return shadows - globals_declared

    def check_project(self, project: Any) -> Iterator[Violation]:
        graph = project.callgraph
        initializers, task_entries = _pool_entries(project.project)
        if not task_entries:
            return
        task_closure = graph.reachable(task_entries)
        init_closure = graph.reachable(initializers)
        sanctioned = init_closure - task_closure
        for qualname in sorted(task_closure):
            if qualname in sanctioned or qualname in initializers:
                continue
            function = project.project.functions.get(qualname)
            if function is None:
                continue
            context = project.context_for(function.path)
            if context is None or not self.applies_to(context):
                continue
            module = project.project.modules.get(function.module)
            if module is None:
                continue
            entry_label = ", ".join(sorted(
                entry for entry in task_entries)[:2])
            for node, name, verb in self._function_writes(
                    function, module, project.project):
                yield self.violation(
                    context, node,
                    "`%s` %s module global `%s` and is reachable from "
                    "pool worker entry `%s` — shard state must flow "
                    "through ShardResult, per-process setup through the "
                    "pool initializer" % (function.qualname, verb, name,
                                          entry_label))
