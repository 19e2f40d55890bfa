"""Approximate project call graph over the :mod:`symbols` table.

The graph maps every function/method to the project functions it *may*
call, resolved by decreasing confidence:

1. ``self.method(...)`` — the enclosing class (methods win over
   inherited names; a base class defined in the project is consulted
   when the subclass lacks the method);
2. ``name(...)`` — a function defined at module level in the same
   module, or imported from another project module;
3. ``self.attr.method(...)`` / ``var.method(...)`` — the receiver's
   statically-known type (``__init__`` assignments, parameter and local
   annotations), falling back to the global method-name index when the
   name is unambiguous (defined by at most ``_AMBIGUITY_CAP`` classes).

Unresolvable calls are dropped: a missed edge can only hide a lock-order
cycle (KSP008) or make a branch look unobserved (KSP011, answered by an
explicit ``# ksp: ignore[KSP011]``), never crash the linter.
Calls routed through the graph remember their source line so lock-cycle
findings can print the full acquisition path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.rules import ModuleContext, dotted_name
from repro.analysis.symbols import (
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbols,
    ProjectSymbols,
    _annotation_leaf,
)

#: A method name defined by more than this many project classes is too
#: ambiguous to resolve through the name index alone.
_AMBIGUITY_CAP = 2


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: caller -> callee at a source line."""

    caller: str  # caller qualname
    callee: str  # callee qualname
    line: int  # line of the call expression in the caller's module


class CallGraph:
    """Qualname -> outgoing :class:`CallSite` edges."""

    def __init__(self, symbols: ProjectSymbols) -> None:
        self.symbols = symbols
        self.edges: dict[str, list[CallSite]] = {}
        self.functions: dict[str, FunctionSymbol] = {
            fn.qualname: fn for fn in symbols.iter_functions()
        }
        for fn in self.functions.values():
            self.edges[fn.qualname] = list(self._resolve_calls(fn))

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve_calls(self, fn: FunctionSymbol) -> Iterator[CallSite]:
        module = self.symbols.modules[fn.key]
        owner = module.classes.get(fn.class_name) if fn.class_name else None
        local_types = _local_types(fn, owner)
        seen: set[tuple[str, int]] = set()
        for node in fn.nodes:
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_callee(node.func, fn, module, owner, local_types)
            if callee is None:
                continue
            edge_key = (callee.qualname, node.lineno)
            if edge_key in seen:
                continue
            seen.add(edge_key)
            yield CallSite(caller=fn.qualname, callee=callee.qualname, line=node.lineno)

    def _resolve_callee(
        self,
        func: ast.expr,
        fn: FunctionSymbol,
        module: ModuleSymbols,
        owner: ClassSymbol | None,
        local_types: dict[str, str],
    ) -> FunctionSymbol | None:
        if isinstance(func, ast.Name):
            return self._resolve_plain_name(func.id, module)
        if not isinstance(func, ast.Attribute):
            return None
        method = func.attr
        receiver = func.value
        # self.method(...)
        if isinstance(receiver, ast.Name) and receiver.id == "self" and owner:
            resolved = self._method_on(owner, method)
            if resolved is not None:
                return resolved
        # <typed receiver>.method(...)
        type_name = self._receiver_type(receiver, owner, local_types)
        if type_name:
            cls = self.symbols.lookup_class(type_name)
            if cls is not None:
                resolved = self._method_on(cls, method)
                if resolved is not None:
                    return resolved
        # Fall back to the global method-name index when unambiguous.
        candidates = self.symbols.methods_by_name.get(method) or []
        owners = {c.qualname.rsplit(".", 1)[0] for c in candidates}
        if candidates and len(owners) <= _AMBIGUITY_CAP:
            return candidates[0] if len(owners) == 1 else None
        return None

    def _resolve_plain_name(
        self, name: str, module: ModuleSymbols
    ) -> FunctionSymbol | None:
        if name in module.functions:
            return module.functions[name]
        imported = module.imports.get(name)
        if imported and imported.startswith("repro."):
            target = imported.rsplit(".", 1)[-1]
            for fns in (self.symbols.functions_by_name.get(target) or [])[:1]:
                return fns
        return None

    def _receiver_type(
        self,
        receiver: ast.expr,
        owner: ClassSymbol | None,
        local_types: dict[str, str],
    ) -> str | None:
        if isinstance(receiver, ast.Name):
            return local_types.get(receiver.id)
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and owner is not None
        ):
            return owner.attr_types.get(receiver.attr)
        return None

    def _method_on(self, cls: ClassSymbol, method: str) -> FunctionSymbol | None:
        """Look ``method`` up on ``cls``, then on project-defined bases."""
        visited: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.name in visited:
                continue
            visited.add(current.name)
            if method in current.methods:
                return current.methods[method]
            for base in current.bases:
                base_cls = self.symbols.lookup_class(base.rsplit(".", 1)[-1])
                if base_cls is not None:
                    queue.append(base_cls)
        return None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def callees(self, qualname: str) -> list[CallSite]:
        return self.edges.get(qualname, [])

    def reachable(self, qualname: str) -> dict[str, list[CallSite]]:
        """Every function reachable from ``qualname`` with one witness path.

        Returns callee qualname -> the chain of :class:`CallSite` edges
        of the first (BFS, therefore shortest) path that reaches it.
        """
        paths: dict[str, list[CallSite]] = {}
        queue: list[tuple[str, list[CallSite]]] = [(qualname, [])]
        while queue:
            current, path = queue.pop(0)
            for site in self.callees(current):
                if site.callee in paths or site.callee == qualname:
                    continue
                chain = path + [site]
                paths[site.callee] = chain
                queue.append((site.callee, chain))
        return paths


@dataclass
class Project:
    """One whole-program lint unit: symbol table + call graph."""

    symbols: ProjectSymbols
    callgraph: CallGraph

    @classmethod
    def build(cls, contexts: list[ModuleContext]) -> "Project":
        symbols = ProjectSymbols.build(contexts)
        return cls(symbols=symbols, callgraph=CallGraph(symbols))


def _local_types(
    fn: FunctionSymbol, owner: ClassSymbol | None
) -> dict[str, str]:
    """Parameter/local-variable name -> class-name leaf, best effort."""
    types: dict[str, str] = {}
    args = fn.node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        leaf = _annotation_leaf(arg.annotation)
        if leaf:
            types[arg.arg] = leaf
    for node in fn.nodes:
        target: ast.expr | None = None
        leaf = None
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            target, leaf = node.target, _annotation_leaf(node.annotation)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            target = node.targets[0]
            if isinstance(node.value, ast.Call):
                callee = dotted_name(node.value.func).rsplit(".", 1)[-1]
                if callee and callee[0].isupper():
                    leaf = callee
        if isinstance(target, ast.Name) and leaf:
            types.setdefault(target.id, leaf)
    return types
