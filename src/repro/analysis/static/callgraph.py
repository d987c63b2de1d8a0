"""Module resolution and call graph for whole-program dmwlint rules.

The per-file rules see one AST at a time; the whole-program rules
(async-safety DMW010, pool-shared-state DMW011) need to know *who calls
whom* across module boundaries.  This module builds that picture from
nothing but the parsed ASTs the engine already holds:

* :func:`module_name_for_path` maps a file path to its dotted module
  name (``src/repro/core/machine.py`` -> ``repro.core.machine``);
* :class:`Project` indexes every module's functions, classes, and
  imports, and resolves dotted names through ``from x import y`` chains
  — including re-exports through package ``__init__`` files;
* :class:`CallGraph` records one edge per *resolved* call site, with
  method calls resolved through ``self``, explicit ``ClassName.method``
  references, parameter annotations, and local ``x = ClassName(...)``
  construction, walking base classes for inherited methods.

Resolution is deliberately conservative: a call that cannot be resolved
contributes no edge (rules must not invent reachability), and cycles in
the import or call structure are handled by plain breadth-first
reachability.  Everything here is pure and side-effect free so the
engine can build one :class:`Project` per run and share it between
rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .base import dotted_name

#: Maximum ``from x import y`` hops followed through package re-exports.
_REEXPORT_DEPTH = 10


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str          #: ``repro.core.machine:AgentMachine.send_bidding``
    module: str            #: dotted module name
    name: str              #: bare function name
    class_name: Optional[str]
    node: ast.AST          #: FunctionDef or AsyncFunctionDef
    path: str              #: source file the definition lives in
    is_async: bool

    @property
    def param_names(self) -> List[str]:
        args = self.node.args  # type: ignore[attr-defined]
        ordered = list(args.posonlyargs) + list(args.args)
        names = [arg.arg for arg in ordered]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        names.extend(arg.arg for arg in args.kwonlyargs)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One class definition: its methods and raw base-class names."""

    name: str
    module: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    bases: Tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """Everything the resolver needs to know about one module."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool = False
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: local alias -> dotted target (``from a.b import c as d`` =>
    #: ``d -> a.b.c``; ``import a.b as c`` => ``c -> a.b``;
    #: ``import a.b`` => ``a -> a``).
    imports: Dict[str, str] = field(default_factory=dict)


def module_name_for_path(path: str) -> str:
    """Derive a dotted module name from a file path.

    The segment after a ``src`` component anchors the package root
    (``src/repro/core/machine.py`` -> ``repro.core.machine``); without
    one, the full path relative to the filesystem root is used so names
    stay unique.  ``__init__.py`` maps to its package name.
    """
    normalized = path.replace("\\", "/")
    parts = [p for p in normalized.split("/") if p and p != "."]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<root>"


def _resolve_relative(module: ModuleInfo, level: int,
                      target: Optional[str]) -> str:
    """Absolute dotted name for a ``from ...x import y`` statement."""
    base = module.name.split(".")
    if not module.is_package:
        base = base[:-1]
    hops = level - 1
    if hops:
        base = base[:-hops] if hops < len(base) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _collect_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.imports[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds the root name ``a``.
                    root = alias.name.split(".")[0]
                    module.imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module, node.level, node.module)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = (
                    "%s.%s" % (base, alias.name) if base else alias.name)


def _collect_definitions(module: ModuleInfo) -> None:
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname="%s:%s" % (module.name, node.name),
                module=module.name, name=node.name, class_name=None,
                node=node, path=module.path,
                is_async=isinstance(node, ast.AsyncFunctionDef))
            module.functions[node.name] = info
        elif isinstance(node, ast.ClassDef):
            bases = tuple(b for b in map(dotted_name, node.bases)
                          if b is not None)
            cls = ClassInfo(name=node.name, module=module.name, node=node,
                            bases=bases)
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    info = FunctionInfo(
                        qualname="%s:%s.%s" % (module.name, node.name,
                                               child.name),
                        module=module.name, name=child.name,
                        class_name=node.name, node=child, path=module.path,
                        is_async=isinstance(child, ast.AsyncFunctionDef))
                    cls.methods[child.name] = info
                    module.functions["%s.%s" % (node.name, child.name)] = info
            module.classes[node.name] = cls


class Project:
    """An indexed set of modules with cross-module name resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}

    @classmethod
    def from_sources(cls, sources: Iterable[Tuple[str, ast.Module]]
                     ) -> "Project":
        """Build a project from ``(path, tree)`` pairs."""
        project = cls()
        for path, tree in sources:
            name = module_name_for_path(path)
            is_package = path.replace("\\", "/").endswith("__init__.py")
            module = ModuleInfo(name=name, path=path, tree=tree,
                                is_package=is_package)
            _collect_imports(module)
            _collect_definitions(module)
            project.modules[name] = module
            for info in module.functions.values():
                project.functions[info.qualname] = info
        return project

    def iter_functions(self) -> Iterator[FunctionInfo]:
        seen: Set[str] = set()
        for module in self.modules.values():
            for info in module.functions.values():
                if info.qualname not in seen:
                    seen.add(info.qualname)
                    yield info

    # -- name resolution ---------------------------------------------------
    def _lookup_in_module(self, module_name: str, remainder: str,
                          depth: int) -> Optional[FunctionInfo]:
        module = self.modules.get(module_name)
        if module is None:
            return None
        if remainder in module.functions:
            return module.functions[remainder]
        head = remainder.split(".")[0]
        rest = remainder[len(head) + 1:]
        if head in module.classes and rest:
            return self.resolve_method(module.classes[head], rest)
        # Re-export chain: the name is imported into this module from
        # elsewhere (the package-``__init__`` idiom).
        if head in module.imports and depth < _REEXPORT_DEPTH:
            target = module.imports[head]
            if rest:
                target = "%s.%s" % (target, rest)
            return self._resolve_dotted(target, depth + 1)
        return None

    def _resolve_dotted(self, dotted: str,
                        depth: int = 0) -> Optional[FunctionInfo]:
        """Resolve an absolute dotted name to a function, if it is one."""
        parts = dotted.split(".")
        # Longest module-name prefix wins.
        for split in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:split])
            remainder = ".".join(parts[split:])
            found = self._lookup_in_module(module_name, remainder, depth)
            if found is not None:
                return found
        return None

    def resolve_class(self, module: ModuleInfo,
                      name: str) -> Optional[ClassInfo]:
        """Resolve a (possibly imported) class name seen in ``module``."""
        head = name.split(".")[0]
        if name in module.classes:
            return module.classes[name]
        if head in module.imports:
            dotted = module.imports[head] + name[len(head):]
            parts = dotted.split(".")
            for split in range(len(parts) - 1, 0, -1):
                target = self.modules.get(".".join(parts[:split]))
                if target is None:
                    continue
                remainder = ".".join(parts[split:])
                if remainder in target.classes:
                    return target.classes[remainder]
                rhead = remainder.split(".")[0]
                if rhead in target.imports:
                    chained = target.imports[rhead] + remainder[len(rhead):]
                    if chained != dotted:
                        fake = ModuleInfo(name=target.name, path=target.path,
                                          tree=target.tree,
                                          imports=target.imports)
                        return self.resolve_class(fake, remainder)
        return None

    def resolve_method(self, cls: ClassInfo, method: str,
                       _seen: Optional[Set[str]] = None
                       ) -> Optional[FunctionInfo]:
        """Find ``method`` on ``cls`` or, by name, on its base classes."""
        if method in cls.methods:
            return cls.methods[method]
        seen = _seen if _seen is not None else set()
        key = "%s:%s" % (cls.module, cls.name)
        if key in seen:
            return None
        seen.add(key)
        module = self.modules.get(cls.module)
        if module is None:
            return None
        for base_name in cls.bases:
            base = self.resolve_class(module, base_name)
            if base is not None:
                found = self.resolve_method(base, method, seen)
                if found is not None:
                    return found
        return None

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call,
                     local_types: Dict[str, ClassInfo]
                     ) -> Optional[FunctionInfo]:
        """Resolve one call site to a project function, or ``None``."""
        module = self.modules.get(caller.module)
        if module is None:
            return None
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in module.functions:
                found = module.functions[name]
                # Prefer a plain function over a same-named method key.
                if found.class_name is None:
                    return found
            if name in module.classes:
                return self.resolve_method(module.classes[name], "__init__")
            if name in module.imports:
                target = self._resolve_dotted(module.imports[name])
                if target is not None:
                    return target
                cls = self.resolve_class(module, name)
                if cls is not None:
                    return self.resolve_method(cls, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            method = func.attr
            if isinstance(base, ast.Name):
                if base.id == "self" and caller.class_name is not None:
                    owner = module.classes.get(caller.class_name)
                    if owner is not None:
                        return self.resolve_method(owner, method)
                    return None
                if base.id in local_types:
                    return self.resolve_method(local_types[base.id], method)
                if base.id in module.classes:
                    return self.resolve_method(module.classes[base.id],
                                               method)
                cls = self.resolve_class(module, base.id)
                if cls is not None:
                    return self.resolve_method(cls, method)
            dotted = dotted_name(func)
            if dotted is not None:
                head = dotted.split(".")[0]
                if head in module.imports:
                    absolute = module.imports[head] + dotted[len(head):]
                    return self._resolve_dotted(absolute)
            return None
        return None

    def infer_local_types(self, caller: FunctionInfo
                          ) -> Dict[str, ClassInfo]:
        """Map local names to project classes, where statically obvious.

        Two sources: parameter annotations (``machine: AgentMachine``)
        and single-assignment construction (``protocol = DMWProtocol(...)``).
        """
        module = self.modules.get(caller.module)
        if module is None:
            return {}
        types: Dict[str, ClassInfo] = {}
        args = caller.node.args  # type: ignore[attr-defined]
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            if arg.annotation is not None:
                annotation = dotted_name(arg.annotation)
                if annotation is not None:
                    cls = self.resolve_class(module, annotation)
                    if cls is not None:
                        types[arg.arg] = cls
        for node in ast.walk(caller.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            ctor = dotted_name(node.value.func)
            if ctor is None:
                continue
            cls = self.resolve_class(module, ctor)
            if cls is not None:
                types[target.id] = cls
        return types


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: caller -> callee at ``node``."""

    caller: str
    callee: str
    node: ast.Call


class CallGraph:
    """Resolved call edges over a :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.edges: Dict[str, List[CallEdge]] = {}
        self._build()

    def _build(self) -> None:
        for caller in self.project.iter_functions():
            local_types = self.project.infer_local_types(caller)
            sites: List[CallEdge] = []
            for node in ast.walk(caller.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self.project.resolve_call(caller, node, local_types)
                if callee is None or callee.qualname == caller.qualname:
                    continue
                sites.append(CallEdge(caller=caller.qualname,
                                      callee=callee.qualname, node=node))
            self.edges[caller.qualname] = sites

    def callees(self, qualname: str) -> List[CallEdge]:
        return self.edges.get(qualname, [])

    def reachable(self, seeds: Iterable[str]) -> Set[str]:
        """Every function reachable from ``seeds`` (cycle-safe BFS)."""
        seen: Set[str] = set()
        frontier = [s for s in seeds if s in self.edges or
                    s in self.project.functions]
        seen.update(frontier)
        while frontier:
            current = frontier.pop()
            for edge in self.callees(current):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    frontier.append(edge.callee)
        return seen
