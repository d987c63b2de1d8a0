"""Unit tests for the whole-program module resolver and call graph.

Covers the resolution features the project rules lean on: dotted module
naming, ``from x import y`` chains including package ``__init__``
re-exports, method resolution through ``self``/annotations/construction
and base classes, call cycles, and BFS reachability.
"""

import ast

import pytest

from repro.analysis.static.callgraph import (
    CallGraph,
    Project,
    module_name_for_path,
)


def _project(files):
    return Project.from_sources(
        (path, ast.parse(source, filename=path))
        for path, source in files.items())


def _edges(graph):
    return {(edge.caller, edge.callee)
            for edges in graph.edges.values() for edge in edges}


class TestModuleNames:
    def test_src_anchored(self):
        assert (module_name_for_path("src/repro/core/machine.py")
                == "repro.core.machine")

    def test_absolute_path_with_src(self):
        assert (module_name_for_path("/home/u/repo/src/repro/parallel.py")
                == "repro.parallel")

    def test_package_init(self):
        assert (module_name_for_path("src/repro/crypto/__init__.py")
                == "repro.crypto")

    def test_no_src_component_keeps_path(self):
        name = module_name_for_path("tools/helper.py")
        assert name == "tools.helper"


class TestResolution:
    def test_cross_module_function_call(self):
        project = _project({
            "src/pkg/a.py": "from pkg.b import helper\n"
                            "def caller():\n    helper()\n",
            "src/pkg/b.py": "def helper():\n    pass\n",
        })
        graph = CallGraph(project)
        assert ("pkg.a:caller", "pkg.b:helper") in _edges(graph)

    def test_reexport_through_package_init(self):
        project = _project({
            "src/pkg/__init__.py": "from pkg.impl import helper\n",
            "src/pkg/impl.py": "def helper():\n    pass\n",
            "src/app.py": "from pkg import helper\n"
                          "def caller():\n    helper()\n",
        })
        graph = CallGraph(project)
        assert ("app:caller", "pkg.impl:helper") in _edges(graph)

    def test_relative_import(self):
        project = _project({
            "src/pkg/a.py": "from .b import helper\n"
                            "def caller():\n    helper()\n",
            "src/pkg/b.py": "def helper():\n    pass\n",
        })
        graph = CallGraph(project)
        assert ("pkg.a:caller", "pkg.b:helper") in _edges(graph)

    def test_self_method_resolution(self):
        project = _project({
            "src/m.py": ("class Widget:\n"
                         "    def run(self):\n"
                         "        self.step()\n"
                         "    def step(self):\n"
                         "        pass\n"),
        })
        graph = CallGraph(project)
        assert ("m:Widget.run", "m:Widget.step") in _edges(graph)

    def test_inherited_method_through_base_class(self):
        project = _project({
            "src/base.py": ("class Base:\n"
                            "    def shared(self):\n"
                            "        pass\n"),
            "src/sub.py": ("from base import Base\n"
                           "class Sub(Base):\n"
                           "    def run(self):\n"
                           "        self.shared()\n"),
        })
        graph = CallGraph(project)
        assert ("sub:Sub.run", "base:Base.shared") in _edges(graph)

    def test_annotation_typed_parameter(self):
        project = _project({
            "src/m.py": ("class Machine:\n"
                         "    def fire(self):\n"
                         "        pass\n"
                         "def drive(machine: Machine):\n"
                         "    machine.fire()\n"),
        })
        graph = CallGraph(project)
        assert ("m:drive", "m:Machine.fire") in _edges(graph)

    def test_local_construction_type_inference(self):
        project = _project({
            "src/m.py": ("class Machine:\n"
                         "    def fire(self):\n"
                         "        pass\n"
                         "def drive():\n"
                         "    machine = Machine()\n"
                         "    machine.fire()\n"),
        })
        graph = CallGraph(project)
        assert ("m:drive", "m:Machine.fire") in _edges(graph)

    def test_unresolvable_call_contributes_no_edge(self):
        project = _project({
            "src/m.py": "def caller(thing):\n    thing.unknowable()\n",
        })
        graph = CallGraph(project)
        assert graph.callees("m:caller") == []


class TestReachability:
    def test_cycle_terminates_and_is_fully_reachable(self):
        project = _project({
            "src/m.py": ("def a():\n    b()\n"
                         "def b():\n    c()\n"
                         "def c():\n    a()\n"),
        })
        graph = CallGraph(project)
        reached = graph.reachable(["m:a"])
        assert reached == {"m:a", "m:b", "m:c"}

    def test_reachable_excludes_disconnected(self):
        project = _project({
            "src/m.py": ("def a():\n    b()\n"
                         "def b():\n    pass\n"
                         "def island():\n    pass\n"),
        })
        graph = CallGraph(project)
        assert "m:island" not in graph.reachable(["m:a"])


class TestMixedScenarios:
    @pytest.mark.parametrize("alias", ["import pkg.b as helper_mod",
                                       "from pkg import b as helper_mod"])
    def test_module_alias_attribute_call(self, alias):
        project = _project({
            "src/pkg/__init__.py": "",
            "src/pkg/a.py": ("%s\n"
                             "def caller():\n"
                             "    helper_mod.helper()\n" % alias),
            "src/pkg/b.py": "def helper():\n    pass\n",
        })
        graph = CallGraph(project)
        assert ("pkg.a:caller", "pkg.b:helper") in _edges(graph)

    def test_self_recursion_is_not_an_edge(self):
        project = _project({
            "src/m.py": "def loop(n):\n    loop(n - 1)\n",
        })
        graph = CallGraph(project)
        assert graph.callees("m:loop") == []
