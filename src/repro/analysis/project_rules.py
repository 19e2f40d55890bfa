"""The interprocedural KSP rules: invariants that span module boundaries.

========  ============================================================
KSP008    static lock-order-cycle detection over the may-acquire graph
KSP009    IPC payloads must be *transitively* picklable
KSP011    every HTTP route and pipe kind reaches a span or an event
========  ============================================================

All three run in :meth:`~repro.analysis.rules.Rule.project_check` over
the whole-program :class:`~repro.analysis.callgraph.Project` (symbol
table + approximate call graph) that :func:`repro.analysis.linter.
lint_sources` builds once per invocation.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.callgraph import Project, _local_types
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    IPC_PREFIX,
    IPC_SEND_METHODS,
    Rule,
    dotted_name,
    is_lock_expr,
    lock_target,
)
from repro.analysis.symbols import (
    UNPICKLABLE_FACTORIES,
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbols,
)

#: Method leaves that acquire a lock imperatively (held, conservatively,
#: until the end of the enclosing function — the project idiom pairs
#: them with ``try/finally`` release).
_ACQUIRE_LEAVES = frozenset({"acquire", "acquire_read", "acquire_write"})


def _finding(path: str, line: int, code: str, message: str) -> Finding:
    return Finding(path=path, line=line, col=0, code=code, message=message)


# ----------------------------------------------------------------------
# KSP008 — static lock-order cycles
# ----------------------------------------------------------------------
class _LockRegion:
    """A lexical range of one function during which one lock is held."""

    __slots__ = ("lock_id", "start", "end", "hold_line")

    def __init__(self, lock_id: str, start: int, end: int, hold_line: int):
        self.lock_id = lock_id
        self.start = start
        self.end = end
        self.hold_line = hold_line


class LockOrderCycleRule(Rule):
    """Lift ``lockdebug``'s runtime lock-order check to the call graph.

    Builds the *may-acquire* graph: an edge ``A -> B`` means some code
    path acquires lock ``B`` (a ``with`` block, an ``acquire_*`` call,
    or transitively through any function reachable in the call graph)
    while already holding ``A`` (a ``with`` site or a ``# ksp:
    holds[...]`` contract).  A cycle in that graph is a lock-order
    inversion two threads can interleave into a deadlock; the finding
    prints one acquisition path per edge of the cycle.  Lock identity is
    ``ClassName.attr`` — the same identity the runtime detector uses —
    so re-acquiring the *same* (reentrant) lock never forms an edge.
    """

    code = "KSP008"
    title = "lock-order cycle across the call graph"

    def project_check(self, project: object) -> Iterator[Finding]:
        assert isinstance(project, Project)
        graph = _MayAcquireGraph(project)
        for cycle_edges in graph.cycles():
            first = cycle_edges[0]
            order = " -> ".join(edge.src for edge in cycle_edges)
            order += f" -> {cycle_edges[0].src}"
            paths = "; ".join(
                f"[{edge.src} -> {edge.dst}] {edge.describe()}"
                for edge in cycle_edges
            )
            yield _finding(
                first.path,
                first.hold_line,
                self.code,
                f"lock-order cycle {order}: two threads taking these "
                f"locks in opposite orders can deadlock — {paths}",
            )


class _Edge:
    __slots__ = ("src", "dst", "path", "hold_line", "hops")

    def __init__(
        self, src: str, dst: str, path: str, hold_line: int, hops: list[str]
    ):
        self.src = src
        self.dst = dst
        self.path = path
        self.hold_line = hold_line
        self.hops = hops

    def describe(self) -> str:
        return " -> ".join(self.hops)


class _MayAcquireGraph:
    def __init__(self, project: Project) -> None:
        self.project = project
        self.symbols = project.symbols
        self.callgraph = project.callgraph
        #: qualname -> [(lock_id, line)] locks the function itself takes
        self.direct: dict[str, list[tuple[str, int]]] = {}
        #: qualname -> [_LockRegion] ranges during which a lock is held
        self.regions: dict[str, list[_LockRegion]] = {}
        self._transitive_cache: dict[str, dict[str, list[str]]] = {}
        for fn in self.symbols.iter_functions():
            self._scan_function(fn)
        #: (src, dst) -> _Edge, first witness wins
        self.edges: dict[tuple[str, str], _Edge] = {}
        for fn in self.symbols.iter_functions():
            self._collect_edges(fn)

    # -- per-function lock facts ---------------------------------------
    def _scan_function(self, fn: FunctionSymbol) -> None:
        regions: list[_LockRegion] = []
        direct: list[tuple[str, int]] = []
        end = fn.node.end_lineno or fn.node.lineno
        for contract in fn.holds:
            lock_id = self._contract_identity(contract, fn)
            if lock_id:
                regions.append(
                    _LockRegion(lock_id, fn.node.lineno, end, fn.node.lineno)
                )
        for node in fn.nodes:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if not is_lock_expr(item.context_expr):
                        continue
                    lock_id = self._lock_identity(item.context_expr, fn)
                    if lock_id is None:
                        continue
                    node_end = node.end_lineno or node.lineno
                    regions.append(
                        _LockRegion(lock_id, node.lineno, node_end, node.lineno)
                    )
                    direct.append((lock_id, node.lineno))
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _ACQUIRE_LEAVES and is_lock_expr(
                    node.func.value
                ):
                    lock_id = self._lock_identity(node.func.value, fn)
                    if lock_id is None:
                        continue
                    regions.append(
                        _LockRegion(lock_id, node.lineno, end, node.lineno)
                    )
                    direct.append((lock_id, node.lineno))
        if regions:
            self.regions[fn.qualname] = regions
        if direct:
            self.direct[fn.qualname] = direct

    def _lock_identity(self, expr: ast.expr, fn: FunctionSymbol) -> str | None:
        node = lock_target(expr)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            owner = fn.class_name or fn.key
            return f"{owner}.{node.attr}"
        if isinstance(node, ast.Name):
            return f"{fn.key}::{node.id}"
        return None

    def _contract_identity(self, contract: str, fn: FunctionSymbol) -> str | None:
        if contract.startswith("self."):
            owner = fn.class_name or fn.key
            return f"{owner}.{contract[len('self.'):]}"
        return f"{fn.key}::{contract}" if contract else None

    # -- transitive acquisitions ---------------------------------------
    def _transitive(self, qualname: str) -> dict[str, list[str]]:
        """lock_id -> hop descriptions for every lock reachable code takes."""
        cached = self._transitive_cache.get(qualname)
        if cached is not None:
            return cached
        result: dict[str, list[str]] = {}
        for lock_id, line in self.direct.get(qualname, []):
            result.setdefault(lock_id, [f"{qualname}:{line}"])
        for callee, chain in self.callgraph.reachable(qualname).items():
            for lock_id, line in self.direct.get(callee, []):
                if lock_id in result:
                    continue
                hops = [
                    f"{site.callee} (line {site.line})" for site in chain
                ]
                result[lock_id] = [*hops, f"acquires at {callee}:{line}"]
        self._transitive_cache[qualname] = result
        return result

    # -- edges ----------------------------------------------------------
    def _collect_edges(self, fn: FunctionSymbol) -> None:
        regions = self.regions.get(fn.qualname)
        if not regions:
            return
        path = self.symbols.modules[fn.key].path
        for region in regions:
            # Nested direct acquisitions inside the held range.
            for lock_id, line in self.direct.get(fn.qualname, []):
                if region.start < line <= region.end and lock_id != region.lock_id:
                    self._add_edge(
                        region, lock_id, path, fn,
                        [f"{fn.qualname}:{line}"],
                    )
            # Acquisitions reachable through calls made while holding.
            for site in self.callgraph.callees(fn.qualname):
                if not (region.start <= site.line <= region.end):
                    continue
                for lock_id, hops in self._transitive(site.callee).items():
                    if lock_id == region.lock_id:
                        continue
                    self._add_edge(
                        region, lock_id, path, fn,
                        [f"call {site.callee} ({fn.key}:{site.line})", *hops],
                    )

    def _add_edge(
        self,
        region: _LockRegion,
        lock_id: str,
        path: str,
        fn: FunctionSymbol,
        hops: list[str],
    ) -> None:
        key = (region.lock_id, lock_id)
        if key in self.edges:
            return
        self.edges[key] = _Edge(
            src=region.lock_id,
            dst=lock_id,
            path=path,
            hold_line=region.hold_line,
            hops=[f"held in {fn.qualname} since line {region.hold_line}", *hops],
        )

    # -- cycle detection -------------------------------------------------
    def cycles(self) -> list[list[_Edge]]:
        """One witness cycle (as its edge list) per strongly-connected
        component of the may-acquire graph that contains a cycle."""
        adjacency: dict[str, list[str]] = {}
        for src, dst in self.edges:
            adjacency.setdefault(src, []).append(dst)
            adjacency.setdefault(dst, [])
        components = _tarjan_sccs(adjacency)
        witnesses: list[list[_Edge]] = []
        for component in components:
            if len(component) < 2:
                continue
            in_scc = set(component)
            start = min(in_scc)
            cycle_nodes = self._cycle_through(start, in_scc, adjacency)
            if not cycle_nodes:
                continue
            edges = [
                self.edges[(cycle_nodes[i], cycle_nodes[(i + 1) % len(cycle_nodes)])]
                for i in range(len(cycle_nodes))
            ]
            witnesses.append(edges)
        return sorted(witnesses, key=lambda edges: (edges[0].path, edges[0].hold_line))

    @staticmethod
    def _cycle_through(
        start: str, in_scc: set[str], adjacency: dict[str, list[str]]
    ) -> list[str]:
        # BFS within the SCC from start back to start.
        queue: list[list[str]] = [[start]]
        while queue:
            nodes = queue.pop(0)
            for succ in sorted(adjacency.get(nodes[-1], [])):
                if succ == start and len(nodes) >= 2:
                    return nodes
                if succ in in_scc and succ not in nodes:
                    queue.append(nodes + [succ])
        # Two-node cycles: start -> x -> start.
        for succ in sorted(adjacency.get(start, [])):
            if succ in in_scc and start in adjacency.get(succ, []):
                return [start, succ]
        return []


def _tarjan_sccs(adjacency: dict[str, list[str]]) -> list[list[str]]:
    """Iterative Tarjan: strongly-connected components of ``adjacency``."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0
    for root in sorted(adjacency):
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = adjacency.get(node, [])
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                work[-1] = (node, child_index)
                if child not in index_of:
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


# ----------------------------------------------------------------------
# KSP009 — transitively unpicklable IPC payloads
# ----------------------------------------------------------------------
class IpcPayloadReachabilityRule(Rule):
    """Everything reaching a pipe must bottom out in picklable types.

    KSP006 catches lambdas and closures *lexically* at the send site;
    this rule follows the object graph: an argument whose
    statically-known type (parameter annotations, local constructor
    assignments, ``self.attr`` types) transitively holds a lock, thread,
    socket, or thread-local — with no ``__getstate__``/``__reduce__``
    on the path to shed it — will not survive a spawn-mode restart,
    even though fork-mode COW makes it appear to work today.
    """

    code = "KSP009"
    title = "IPC payload reaches an unpicklable type"

    #: Class names the ``multiprocessing`` machinery itself moves across
    #: a ``Process(...)`` boundary (pipe ends handed to a child are
    #: reduced by the spawn plumbing, not pickled by our payload code).
    PROCESS_SAFE_TYPES = frozenset({"Connection", "PipeConnection"})

    def project_check(self, project: object) -> Iterator[Finding]:
        assert isinstance(project, Project)
        taint = project.symbols.pickle_taint()
        for module in project.symbols.modules.values():
            if not module.key.startswith(IPC_PREFIX):
                continue
            yield from self._check_module(project, module, taint)

    def _check_module(
        self,
        project: Project,
        module: ModuleSymbols,
        taint: dict[str, list[str]],
    ) -> Iterator[Finding]:
        functions = list(module.functions.values())
        for cls in module.classes.values():
            functions.extend(cls.methods.values())
        for fn in functions:
            owner = (
                module.classes.get(fn.class_name) if fn.class_name else None
            )
            local_types = _local_types(fn, owner)
            for node in fn.nodes:
                if not isinstance(node, ast.Call):
                    continue
                callee = dotted_name(node.func).rsplit(".", 1)[-1]
                if callee not in IPC_SEND_METHODS:
                    continue
                arguments = list(node.args) + [
                    kw.value for kw in node.keywords
                ]
                for argument in arguments:
                    yield from self._check_value(
                        module, node, callee, argument, owner, local_types, taint
                    )

    def _check_value(
        self,
        module: ModuleSymbols,
        send: ast.Call,
        callee: str,
        value: ast.expr,
        owner: ClassSymbol | None,
        local_types: dict[str, str],
        taint: dict[str, list[str]],
    ) -> Iterator[Finding]:
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for element in value.elts:
                yield from self._check_value(
                    module, send, callee, element, owner, local_types, taint
                )
            return
        if isinstance(value, ast.Dict):
            for element in value.values:
                yield from self._check_value(
                    module, send, callee, element, owner, local_types, taint
                )
            return
        type_name: str | None = None
        detail = ""
        if isinstance(value, ast.Call):
            leaf = dotted_name(value.func).rsplit(".", 1)[-1]
            if leaf in UNPICKLABLE_FACTORIES:
                yield _finding(
                    module.path,
                    value.lineno,
                    self.code,
                    f"{leaf}() constructed directly inside a {callee!r} "
                    "payload can never pickle across the IPC boundary",
                )
                return
            if leaf and leaf[:1].isupper():
                type_name = leaf
        elif isinstance(value, ast.Name):
            type_name = local_types.get(value.id)
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and owner is not None
        ):
            if value.attr in owner.unpicklable_attrs:
                factory = owner.unpicklable_attrs[value.attr]
                yield _finding(
                    module.path,
                    value.lineno,
                    self.code,
                    f"'self.{value.attr}' ({factory}()) in a {callee!r} "
                    "payload: locks/threads cannot cross the IPC boundary",
                )
                return
            type_name = owner.attr_types.get(value.attr)
            detail = f"self.{value.attr}: "
        if type_name is None or type_name in self.PROCESS_SAFE_TYPES:
            return
        chain = taint.get(type_name)
        if chain:
            witness = " -> ".join(chain)
            yield _finding(
                module.path,
                value.lineno,
                self.code,
                f"{callee!r} payload value {detail}{type_name} transitively "
                f"reaches an unpicklable type ({witness}); it will fail on "
                "the first spawn-mode restart — shed the offender in "
                "__getstate__ or send plain data",
            )


# ----------------------------------------------------------------------
# KSP011 — every externally-driven branch is observable
# ----------------------------------------------------------------------
#: Dispatcher module -> the variable its branches compare: HTTP routes
#: in the request router, pipe message kinds in the worker loop.
DISPATCHERS = {"serve/http.py": "endpoint", "serve/ipc.py": "kind"}

#: Call leaves that open a trace span (``TRACER.trace``, ``span``).
_SPAN_LEAVES = frozenset({"trace", "trace_span", "span"})


def _emits(nodes: Iterable[ast.AST]) -> bool:
    """Whether ``nodes`` open a trace span or emit an event."""
    for call in nodes:
        if isinstance(call, ast.Call):
            dotted = dotted_name(call.func)
            leaf = dotted.rsplit(".", 1)[-1]
            if leaf in _SPAN_LEAVES or (leaf == "emit" and "EVENTS" in dotted):
                return True
    return False


def _compares(test: ast.expr, variable: str) -> bool:
    """Whether ``test`` compares ``variable`` with ``==`` or ``in``."""
    return any(
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == variable
        and any(isinstance(op, (ast.Eq, ast.In)) for op in node.ops)
        for node in ast.walk(test)
    )


class ObservabilityCoverageRule(Rule):
    """Every HTTP route and pipe message kind reaches a span or an event.

    Each ``endpoint ==`` branch of the HTTP router and ``kind ==``
    branch of the worker loop must open a trace span or emit a
    flight-recorder event (``EVENTS.emit``) — in the branch itself, or
    in any function the branch reaches through the call graph.  A
    deliberate exemption (a liveness probe, an observability drain that
    would recurse) is a ``# ksp: ignore[KSP011]`` on the comparison.
    """

    code = "KSP011"
    title = "HTTP route or pipe kind reaches no span or event"

    def project_check(self, project: object) -> Iterator[Finding]:
        assert isinstance(project, Project)
        emitters = {
            fn.qualname
            for fn in project.symbols.iter_functions()
            if _emits(fn.nodes)
        }
        for key, variable in DISPATCHERS.items():
            module = project.symbols.modules.get(key)
            if module is None:
                continue
            owners = {
                id(fn.node): fn
                for fn in project.symbols.iter_functions()
                if fn.key == key
            }
            for branch in module.ctx.nodes:
                if not (
                    isinstance(branch, ast.If) and _compares(branch.test, variable)
                ):
                    continue
                if any(_emits(ast.walk(stmt)) for stmt in branch.body):
                    continue
                owner = next(
                    (
                        owners[id(node)]
                        for node in module.ctx.ancestors(branch)
                        if id(node) in owners
                    ),
                    None,
                )
                if owner is None or not self._reaches(
                    project, owner, branch, emitters
                ):
                    yield _finding(
                        module.path,
                        branch.test.lineno,
                        self.code,
                        f"this {variable!r} branch reaches no trace span and "
                        "no EVENTS.emit: the surface is invisible to traces "
                        "and the event log (instrument it, or mark a "
                        "deliberate exemption '# ksp: ignore[KSP011]')",
                    )

    @staticmethod
    def _reaches(
        project: Project,
        owner: FunctionSymbol,
        branch: ast.If,
        emitters: set[str],
    ) -> bool:
        start = branch.body[0].lineno
        end = branch.body[-1].end_lineno or start
        callgraph = project.callgraph
        return any(
            site.callee in emitters
            or not emitters.isdisjoint(callgraph.reachable(site.callee))
            for site in callgraph.callees(owner.qualname)
            if start <= site.line <= end
        )


#: The interprocedural half of the catalogue, in order.
PROJECT_RULES: tuple[Rule, ...] = (
    LockOrderCycleRule(),
    IpcPayloadReachabilityRule(),
    ObservabilityCoverageRule(),
)
