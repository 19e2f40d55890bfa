"""Unit tests for the whole-program analysis engine.

Covers the layers under the interprocedural rules — the project symbol
table, the approximate call graph, pickle-taint propagation.
"""

from __future__ import annotations

from repro.analysis.callgraph import Project
from repro.analysis.rules import ModuleContext
from repro.analysis.symbols import ProjectSymbols


def _project(*sources: tuple[str, str]) -> Project:
    contexts = [
        ModuleContext.parse(f"<{key}>", key, source) for key, source in sources
    ]
    return Project.build(contexts)


class TestSymbols:
    def test_attribute_types_from_three_sources(self):
        project = _project((
            "m.py",
            "class Engine:\n"
            "    pass\n"
            "class Owner:\n"
            "    def __init__(self, oracle: 'Oracle') -> None:\n"
            "        self.engine = Engine()\n"
            "        self.oracle = oracle\n"
            "        self.hits: int = 0\n",
        ))
        owner = project.symbols.modules["m.py"].classes["Owner"]
        assert owner.attr_types["engine"] == "Engine"  # constructor call
        assert owner.attr_types["oracle"] == "Oracle"  # parameter echo
        assert owner.attr_types["hits"] == "int"  # annotation

    def test_unpicklable_factories_recorded(self):
        project = _project((
            "m.py",
            "import threading\n"
            "class Guarded:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "        self.data = []\n",
        ))
        cls = project.symbols.modules["m.py"].classes["Guarded"]
        assert cls.unpicklable_attrs == {"_lock": "Lock"}

    def test_pickle_taint_propagates_and_carries_witness(self):
        project = _project((
            "m.py",
            "import threading\n"
            "class Inner:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "class Outer:\n"
            "    def __init__(self) -> None:\n"
            "        self.inner = Inner()\n",
        ))
        taint = project.symbols.pickle_taint()
        assert "Inner" in taint and "Outer" in taint
        assert taint["Outer"] == [
            "Outer.inner: Inner",
            "Inner._lock = Lock()",
        ]

    def test_custom_pickle_cuts_taint(self):
        project = _project((
            "m.py",
            "import threading\n"
            "class Shedding:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "    def __getstate__(self):\n"
            "        return {}\n"
            "class Outer:\n"
            "    def __init__(self) -> None:\n"
            "        self.inner = Shedding()\n",
        ))
        assert project.symbols.pickle_taint() == {}

    def test_holds_contract_parsed(self):
        project = _project((
            "m.py",
            "class C:\n"
            "    def helper(self):  # ksp: holds[self._lock]\n"
            "        pass\n",
        ))
        method = project.symbols.modules["m.py"].classes["C"].methods["helper"]
        assert method.holds == ("self._lock",)

    def test_lookup_class_requires_uniqueness(self):
        symbols = ProjectSymbols.build([
            ModuleContext.parse("<a>", "a.py", "class Dup:\n    pass\n"),
            ModuleContext.parse("<b>", "b.py", "class Dup:\n    pass\n"),
        ])
        assert symbols.lookup_class("Dup") is None


class TestCallGraph:
    SOURCE = (
        "class Worker:\n"
        "    def step(self):\n"
        "        pass\n"
        "class Boss:\n"
        "    def __init__(self) -> None:\n"
        "        self.worker = Worker()\n"
        "    def run(self):\n"
        "        self.delegate()\n"
        "    def delegate(self):\n"
        "        self.worker.step()\n"
    )

    def test_self_and_typed_receiver_resolution(self):
        project = _project(("m.py", self.SOURCE))
        callees = {
            site.callee for site in project.callgraph.callees("m.py::Boss.run")
        }
        assert callees == {"m.py::Boss.delegate"}
        callees = {
            site.callee
            for site in project.callgraph.callees("m.py::Boss.delegate")
        }
        assert callees == {"m.py::Worker.step"}

    def test_reachable_returns_witness_chain(self):
        project = _project(("m.py", self.SOURCE))
        reachable = project.callgraph.reachable("m.py::Boss.run")
        assert set(reachable) == {"m.py::Boss.delegate", "m.py::Worker.step"}
        chain = reachable["m.py::Worker.step"]
        assert [site.callee for site in chain] == [
            "m.py::Boss.delegate",
            "m.py::Worker.step",
        ]

    def test_cross_module_plain_name_via_import(self):
        project = _project(
            ("pkg/util.py", "def helper():\n    pass\n"),
            (
                "pkg/main.py",
                "from repro.pkg.util import helper\n"
                "def entry():\n"
                "    helper()\n",
            ),
        )
        callees = {
            site.callee
            for site in project.callgraph.callees("pkg/main.py::entry")
        }
        assert callees == {"pkg/util.py::helper"}
