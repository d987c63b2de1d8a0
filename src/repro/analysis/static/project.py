"""Whole-program context shared by project-scoped dmwlint rules.

The engine parses every file once into :class:`FileContext` objects;
:class:`ProjectContext` bundles them and lazily derives the expensive
whole-program structures — the :class:`~.callgraph.Project` index and
the :class:`~.callgraph.CallGraph` — so several project rules share one
computation per run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .base import FileContext
from .callgraph import CallGraph, Project


class ProjectContext:
    """Everything a project rule can see: all files, parsed once."""

    def __init__(self, contexts: List[FileContext]) -> None:
        self.contexts = list(contexts)
        self.by_path: Dict[str, FileContext] = {
            context.path: context for context in self.contexts}
        self._project: Optional[Project] = None
        self._graph: Optional[CallGraph] = None

    @property
    def project(self) -> Project:
        if self._project is None:
            self._project = Project.from_sources(
                (context.path, context.tree) for context in self.contexts)
        return self._project

    @property
    def callgraph(self) -> CallGraph:
        if self._graph is None:
            self._graph = CallGraph(self.project)
        return self._graph

    def context_for(self, path: str) -> Optional[FileContext]:
        return self.by_path.get(path)
