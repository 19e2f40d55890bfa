"""The project symbol table: one parse of ``src/repro``, shared facts.

Generation two of the analysis subsystem is *whole-program*: the
interprocedural rules (KSP008–KSP011) reason about invariants that span
module boundaries — lock acquisition order across call chains, type
reachability into IPC payloads, protocol conformance, observability
coverage.  All of them start from the same pre-computed facts:

* every **class** with its base names, methods, and the *types of its
  attributes* as far as they can be read off ``__init__`` assignments
  and annotations (``self._lock = threading.Lock()`` records both the
  attribute and the fact that its value cannot pickle);
* every **function and method** with its parameters, its ``# ksp:
  holds[...]`` lock contracts, and its AST node for the call-graph
  builder;
* per-module **import aliases** so a call to ``trace_span(...)``
  resolves to ``repro.obs.trace.span``.

Everything here is a *static approximation*: Python's dynamism means
the table records what the source says lexically, which is exactly the
level the KSP rules are specified at.  Stdlib-only (``ast``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.rules import HOLDS_MARKER, ModuleContext, dotted_name

#: Call leaves whose result can never cross a pickle boundary: locks,
#: condition variables, threads, pools, sockets, thread-local storage.
#: ``make_lock`` is the project's own lock factory.
UNPICKLABLE_FACTORIES = frozenset({
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "local",
    "Thread",
    "Timer",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "socket",
    "make_lock",
})


def _holds_contracts(line_text: str) -> tuple[str, ...]:
    """Lock expressions named in a ``# ksp: holds[self._lock]`` comment."""
    marker = line_text.find(HOLDS_MARKER)
    if marker < 0:
        return ()
    open_bracket = line_text.find("[", marker)
    close_bracket = line_text.find("]", open_bracket + 1)
    if open_bracket < 0 or close_bracket < 0:
        return ()
    inner = line_text[open_bracket + 1:close_bracket]
    return tuple(
        token.strip() for token in inner.split(",") if token.strip()
    )


@dataclass
class FunctionSymbol:
    """One function or method, with the facts the project rules need."""

    name: str
    qualname: str  # "serve/cluster.py::ClusterCoordinator.apply"
    key: str  # owning module key
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]  # positional parameter names, in order
    defaults: int  # how many of the trailing params have defaults
    holds: tuple[str, ...]  # raw lock expressions from the contract

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassSymbol:
    """One class: bases, methods, and statically-readable attribute types."""

    name: str
    key: str
    node: ast.ClassDef
    bases: tuple[str, ...]  # dotted base-class names, best effort
    methods: dict[str, FunctionSymbol] = field(default_factory=dict)
    #: attribute -> type name (leaf), from ``self.x = T(...)`` in
    #: ``__init__``, ``self.x: T`` annotations, or class-level ``x: T``.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attribute -> factory leaf, for attributes assigned a value that
    #: can never pickle (``self._lock = threading.Lock()``).
    unpicklable_attrs: dict[str, str] = field(default_factory=dict)
    #: The class manages its own pickling; reachability stops here.
    custom_pickle: bool = False

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ModuleSymbols:
    """One parsed module's contribution to the project table."""

    ctx: ModuleContext
    classes: dict[str, ClassSymbol] = field(default_factory=dict)
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    #: local alias -> dotted source ("trace_span" -> "repro.obs.trace.span")
    imports: dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return self.ctx.key

    @property
    def path(self) -> str:
        return self.ctx.path


def _annotation_leaf(annotation: ast.AST | None) -> str | None:
    """The class-name leaf of an annotation, unwrapping Optional/quotes."""
    if annotation is None:
        return None
    node: ast.AST = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    # "X | None" and "Optional[X]" both unwrap to X.
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_leaf(node.left)
        if left and left != "None":
            return left
        return _annotation_leaf(node.right)
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value).rsplit(".", 1)[-1]
        if base == "Optional":
            return _annotation_leaf(node.slice)
        return base or None
    name = dotted_name(node).rsplit(".", 1)[-1]
    return name or None


class ProjectSymbols:
    """Symbol table over every module handed to one lint invocation."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleSymbols] = {}
        self.classes_by_name: dict[str, list[ClassSymbol]] = {}
        self.methods_by_name: dict[str, list[FunctionSymbol]] = {}
        self.functions_by_name: dict[str, list[FunctionSymbol]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, contexts: Iterable[ModuleContext]) -> "ProjectSymbols":
        table = cls()
        for ctx in contexts:
            table._add_module(ctx)
        return table

    def _add_module(self, ctx: ModuleContext) -> None:
        module = ModuleSymbols(ctx=ctx)
        # Later files with a colliding key (possible only among test
        # fixtures claiming the same scope) extend rather than replace.
        self.modules.setdefault(ctx.key, module)
        module = self.modules[ctx.key]
        self._collect_imports(ctx, module)
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                self._collect_class(ctx, module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbol = self._function_symbol(ctx, node, class_name=None)
                module.functions[symbol.name] = symbol
                self.functions_by_name.setdefault(symbol.name, []).append(symbol)

    @staticmethod
    def _collect_imports(ctx: ModuleContext, module: ModuleSymbols) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module.imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    module.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def _collect_class(
        self, ctx: ModuleContext, module: ModuleSymbols, node: ast.ClassDef
    ) -> None:
        symbol = ClassSymbol(
            name=node.name,
            key=ctx.key,
            node=node,
            bases=tuple(
                name for name in (dotted_name(base) for base in node.bases)
                if name
            ),
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._function_symbol(ctx, stmt, class_name=node.name)
                symbol.methods[method.name] = method
                self.methods_by_name.setdefault(method.name, []).append(method)
                if stmt.name in ("__getstate__", "__reduce__", "__reduce_ex__"):
                    symbol.custom_pickle = True
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                leaf = _annotation_leaf(stmt.annotation)
                if leaf:
                    symbol.attr_types[stmt.target.id] = leaf
        self._collect_attribute_types(symbol)
        module.classes[node.name] = symbol
        self.classes_by_name.setdefault(node.name, []).append(symbol)

    def _function_symbol(
        self,
        ctx: ModuleContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> FunctionSymbol:
        params = tuple(
            arg.arg for arg in list(node.args.posonlyargs) + list(node.args.args)
        )
        scope = f"{class_name}.{node.name}" if class_name else node.name
        return FunctionSymbol(
            name=node.name,
            qualname=f"{ctx.key}::{scope}",
            key=ctx.key,
            class_name=class_name,
            node=node,
            params=params,
            defaults=len(node.args.defaults),
            holds=_holds_contracts(ctx.line_text(node.lineno)),
        )

    def _collect_attribute_types(self, symbol: ClassSymbol) -> None:
        """Read ``self.x = ...`` type facts out of every method body.

        Three sources, in increasing priority: a constructor call whose
        callee is a known class (``self.x = Engine(...)``), an explicit
        annotation (``self.x: Engine = ...``), and a parameter echo
        (``self.x = kspin`` where ``kspin: KSpin`` is annotated).
        Unpicklable factory calls are recorded separately.
        """
        for method in symbol.methods.values():
            param_types: dict[str, str] = {}
            args = method.node.args
            for arg in list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs
            ):
                leaf = _annotation_leaf(arg.annotation)
                if leaf:
                    param_types[arg.arg] = leaf
            for node in ast.walk(method.node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.AST | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, annotation = node.target, node.value, node.annotation
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                attr = target.attr
                leaf = _annotation_leaf(annotation)
                if leaf:
                    symbol.attr_types[attr] = leaf
                if isinstance(value, ast.Call):
                    callee = dotted_name(value.func).rsplit(".", 1)[-1]
                    if callee in UNPICKLABLE_FACTORIES:
                        symbol.unpicklable_attrs[attr] = callee
                    elif callee and callee[0].isupper() and attr not in symbol.attr_types:
                        symbol.attr_types[attr] = callee
                elif (
                    isinstance(value, ast.Name)
                    and value.id in param_types
                    and attr not in symbol.attr_types
                ):
                    symbol.attr_types[attr] = param_types[value.id]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def iter_functions(self) -> Iterator[FunctionSymbol]:
        for module in self.modules.values():
            yield from module.functions.values()
            for cls in module.classes.values():
                yield from cls.methods.values()

    def lookup_class(self, name: str) -> ClassSymbol | None:
        """The class by bare name, when the project defines exactly one."""
        candidates = self.classes_by_name.get(name) or []
        return candidates[0] if len(candidates) == 1 else None

    # ------------------------------------------------------------------
    # Pickle-reachability (KSP009's type closure)
    # ------------------------------------------------------------------
    def pickle_taint(self) -> dict[str, list[str]]:
        """Class name -> witness chain to an unpicklable attribute.

        A class is *tainted* when its object graph, followed through
        statically-known attribute types, reaches a lock/thread/socket
        value — unless a class on the path defines ``__getstate__`` /
        ``__reduce__`` (it promises to drop the offender before
        pickling, like ``BuildProgress`` does).  The chain is the
        human-readable evidence: ``["KSpin.index", "Index._lock=Lock"]``.
        """
        taint: dict[str, list[str]] = {}
        for classes in self.classes_by_name.values():
            for symbol in classes:
                if symbol.custom_pickle:
                    continue
                for attr, factory in symbol.unpicklable_attrs.items():
                    taint.setdefault(
                        symbol.name, [f"{symbol.name}.{attr} = {factory}()"]
                    )
        # Propagate through attribute types to a fixpoint.
        changed = True
        while changed:
            changed = False
            for classes in self.classes_by_name.values():
                for symbol in classes:
                    if symbol.name in taint or symbol.custom_pickle:
                        continue
                    for attr, type_name in symbol.attr_types.items():
                        if type_name in taint and type_name != symbol.name:
                            taint[symbol.name] = [
                                f"{symbol.name}.{attr}: {type_name}",
                                *taint[type_name],
                            ]
                            changed = True
                            break
        return taint
