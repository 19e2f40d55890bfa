"""The per-module KSP rules: project invariants as AST checks.

Each rule encodes one invariant the serving stack's correctness
arguments rely on (see ``docs/static-analysis.md`` for the prose
catalogue and the live mutation that proves each rule):

========  ============================================================
KSP002    shared state is written only under its lock
KSP003    no blocking calls while holding a lock
KSP004    no wall-clock/RNG nondeterminism in fingerprint-reproducible
          code paths (NVD build, distance oracles, CSR kernels)
KSP005    no swallowed ``except Exception`` in the supervision/IPC tier
KSP006    no lambdas or closures in payloads crossing the IPC boundary
KSP007    no ``*_many``/``*_batch`` body looping over a per-item shim
========  ============================================================

Rules are pure functions of a parsed module (:class:`ModuleContext`);
the driver in :mod:`repro.analysis.linter` handles file discovery,
``# ksp: ignore[...]`` suppression and exit codes.  Stdlib-only.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.findings import Finding

#: Comment contract marking a helper as "caller holds the lock":
#: ``def _unindex(self, key):  # ksp: holds[self._lock]``
HOLDS_MARKER = "ksp: holds"

#: The class attribute declaring shared state:
#: ``_guarded_by = {"_lock": ("hits", "misses")}`` (lock -> attributes).
GUARDED_BY = "_guarded_by"


def holds_contracts(line_text: str) -> tuple[str, ...]:
    """Lock expressions named in a ``# ksp: holds[self._lock]`` comment."""
    marker = line_text.find(HOLDS_MARKER)
    if marker < 0:
        return ()
    open_bracket = line_text.find("[", marker)
    close_bracket = line_text.find("]", open_bracket + 1)
    if open_bracket < 0 or close_bracket < 0:
        return ()
    inner = line_text[open_bracket + 1:close_bracket]
    return tuple(token.strip() for token in inner.split(",") if token.strip())


# ----------------------------------------------------------------------
# Shared per-module analysis context
# ----------------------------------------------------------------------
@dataclass
class ModuleContext:
    """One parsed source file plus the pre-computed facts rules share."""

    path: str
    key: str
    tree: ast.Module
    lines: list[str]
    parents: dict[int, ast.AST] = field(default_factory=dict)
    #: Every node of the tree, walked once (rules iterate this list).
    nodes: list[ast.AST] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, key: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, key=key, tree=tree, lines=source.splitlines())
        for parent in ast.walk(tree):
            ctx.nodes.append(parent)
            for child in ast.iter_child_nodes(parent):
                ctx.parents[id(child)] = parent
        return ctx

    # -- navigation ----------------------------------------------------
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(id(node))
        while current is not None:
            yield current
            current = self.parents.get(id(current))

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    # -- lock facts ----------------------------------------------------
    def held_locks(self, node: ast.AST) -> set[str]:
        """The lock expressions lexically held at ``node``.

        A lock is held inside a ``with`` statement over a lock
        expression (``self.lock.write()`` holds ``"self.lock"``) and in
        the body of a function whose ``def`` line carries a ``# ksp:
        holds[...]`` contract (a helper documented as "caller holds the
        lock").
        """
        held: set[str] = set()
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                held.update(
                    dotted_name(lock_target(item.context_expr))
                    for item in ancestor.items
                    if is_lock_expr(item.context_expr)
                )
            elif isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                held.update(holds_contracts(self.line_text(ancestor.lineno)))
        return held

    def lock_withs(self) -> Iterator[ast.With | ast.AsyncWith]:
        for node in self.nodes:
            if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                is_lock_expr(item.context_expr) for item in node.items
            ):
                yield node


# ----------------------------------------------------------------------
# Expression helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """Flatten ``a.b.c`` / ``a.b.c(...)`` to ``"a.b.c"`` (best effort)."""
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def is_lock_expr(node: ast.AST) -> bool:
    """Heuristic: is this ``with`` context expression a lock?

    Matches lock-named attributes (``self._lock``, ``self._update_lock``,
    ``self._mutex``) and readers-writer acquisitions
    (``lock.read()`` / ``lock.write()`` / ``read_locked(...)``).
    """
    name = dotted_name(node).lower()
    if not name:
        return False
    leaf = name.rsplit(".", 1)[-1]
    if "lock" in name or "mutex" in name:
        return True
    if isinstance(node, ast.Call) and leaf in ("read", "write"):
        base = dotted_name(node.func).lower()
        return "lock" in base or "rw" in base
    return leaf in ("read_locked", "write_locked")


def lock_target(expr: ast.expr) -> ast.expr:
    """The lock object a lock expression acquires (``x.read()`` -> ``x``)."""
    if isinstance(expr, ast.Call):
        leaf = dotted_name(expr.func).rsplit(".", 1)[-1]
        if leaf in ("read", "write") and isinstance(expr.func, ast.Attribute):
            return expr.func.value
        if leaf in ("read_locked", "write_locked") and expr.args:
            return expr.args[0]
    return expr


def _finding(
    ctx: ModuleContext, node: ast.AST, code: str, message: str
) -> Finding:
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


# ----------------------------------------------------------------------
# Rule protocol
# ----------------------------------------------------------------------
class Rule:
    """Base class: one code, one invariant, one check pass.

    A rule participates at one (or both) of two granularities:
    ``check`` sees a single parsed module and runs once per file;
    ``project_check`` sees the whole-program :class:`~repro.analysis.
    callgraph.Project` (symbol table + call graph) and runs once per
    lint invocation — the interprocedural rules KSP008, KSP009 and
    KSP011 live there.  Either hook may be left as the empty default.
    """

    code: str = "KSP000"
    title: str = ""

    def applies(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def project_check(self, project: object) -> Iterator[Finding]:
        return iter(())


# ----------------------------------------------------------------------
# KSP002 — shared-state writes outside their lock
# ----------------------------------------------------------------------
#: Method names that mutate a container in place: calling one of these
#: on an attribute counts as a write.
MUTATING_METHODS = frozenset({
    "append", "add", "clear", "discard", "extend", "insert", "merge",
    "move_to_end", "pop", "popitem", "remove", "setdefault", "update",
    "record",
})


def guarded_by(cls: ast.ClassDef) -> dict[str, str]:
    """Attribute -> lock attribute, from the class's ``_guarded_by``."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == GUARDED_BY for t in targets):
            declared = ast.literal_eval(value)
            return {
                str(attr): str(lock)
                for lock, attrs in dict(declared).items()
                for attr in attrs
            }
    return {}


#: Methods that run before the object is shared: exempt from KSP002.
_CONSTRUCTORS = frozenset({"__init__", "__setstate__"})


def _written_self_attribute(node: ast.AST) -> str | None:
    """The ``self.<attr>`` a statement or call writes, else None."""
    targets: list[ast.expr] = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATING_METHODS
    ):
        targets = [node.func.value]
    for target in targets:
        while isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
    return None


class UnlockedSharedWriteRule(Rule):
    """Shared attributes are written only under their lock.

    Two sources say which attributes are shared.  A class declares them
    beside its lock (``_guarded_by = {"_lock": ("hits", ...)}``, read
    at runtime by ``lockdebug.instrument``): every write must then hold
    *that* lock.  And the code itself says so: an attribute some method
    writes under a lock is shared, so a write elsewhere that holds no
    lock at all is a finding even when nobody declared it.
    ``__init__``/``__setstate__`` are exempt (the object is not yet
    shared), and a helper whose ``def`` line carries ``# ksp:
    holds[...]`` holds what it names.
    """

    code = "KSP002"
    title = "write to shared state outside its lock"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for cls in ctx.nodes:
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(ctx, cls)

    def _check_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        declared = guarded_by(cls)
        #: attribute -> [(write node, locks held there)]
        writes: dict[str, list[tuple[ast.AST, set[str]]]] = {}
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) or method.name in _CONSTRUCTORS:
                continue
            for node in ast.walk(method):
                attr = _written_self_attribute(node)
                if attr is not None:
                    writes.setdefault(attr, []).append(
                        (node, ctx.held_locks(node))
                    )
        for attr, sites in writes.items():
            lock = declared.get(attr)
            if lock is not None:
                for node, held in sites:
                    if f"self.{lock}" not in held:
                        yield _finding(
                            ctx, node, self.code,
                            f"write to 'self.{attr}' outside 'self.{lock}', "
                            f"the lock {cls.name}.{GUARDED_BY} declares for "
                            "it (take the lock, or mark the helper "
                            "'# ksp: holds[...]' if the caller holds it)",
                        )
            elif any(held for _, held in sites):
                for node, held in sites:
                    if not held:
                        yield _finding(
                            ctx, node, self.code,
                            f"'self.{attr}' is written under a lock elsewhere "
                            f"in {cls.name} but here under none: declare it "
                            f"in {GUARDED_BY} and take that lock",
                        )


# ----------------------------------------------------------------------
# KSP003 — blocking calls while holding a lock
# ----------------------------------------------------------------------
#: Dotted-name suffixes considered blocking.  ``Condition.wait`` is
#: deliberately absent: waiting on a condition *requires* holding its
#: lock.  ``str.join`` collides with ``Thread.join``, so joins are
#: excluded too — the lock-order runtime detector covers those.
BLOCKING_CALLS = frozenset({
    "time.sleep", "sleep", "recv", "recv_bytes", "poll", "select.select",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
})


class BlockingUnderLockRule(Rule):
    """A blocking call under a lock turns slowness into a stall for all.

    Flags :data:`BLOCKING_CALLS` (sleeps, pipe ``recv``/``poll``,
    subprocess spawns, ``select``) lexically inside a ``with <lock>``
    block.
    """

    code = "KSP003"
    title = "blocking call while holding a lock"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for with_node in ctx.lock_withs():
            for node in ast.walk(with_node):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                leaf = name.rsplit(".", 1)[-1]
                if name in BLOCKING_CALLS or leaf in BLOCKING_CALLS:
                    yield _finding(
                        ctx,
                        node,
                        self.code,
                        f"blocking call {name or leaf!r} while holding a "
                        "lock stalls every other thread waiting on it",
                    )


# ----------------------------------------------------------------------
# KSP004 — nondeterminism in reproducible code paths
# ----------------------------------------------------------------------
#: Module-key prefixes whose built artefacts must be bit-reproducible
#: (the NVD build, the distance oracles, and the CSR search kernels:
#: ``structural_fingerprint`` equality across parallel builds and worker
#: rehydration depends on them being pure functions of their inputs).
REPRODUCIBLE_PREFIXES = ("nvd/", "distance/", "kernels/")

#: Dotted names whose call introduces wall-clock or RNG nondeterminism.
NONDETERMINISTIC_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "uuid.uuid1", "uuid.uuid4", "os.urandom",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbelow",
})

#: Functions of the global (process-wide, unseeded-by-default) RNGs.
NONDETERMINISTIC_PREFIXES = ("random.", "np.random.", "numpy.random.")


class NondeterminismRule(Rule):
    """NVD build and distance-oracle code must be fingerprint-pure.

    Wall-clock reads and global-RNG draws in these modules make
    ``structural_fingerprint`` comparisons (parallel build vs serial,
    rehydrated worker vs parent) meaningless.  Seeded
    ``random.Random(seed)`` instances are fine.
    """

    code = "KSP004"
    title = "nondeterminism in a fingerprint-reproducible code path"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.key.startswith(REPRODUCIBLE_PREFIXES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            prefix = next(
                (p for p in NONDETERMINISTIC_PREFIXES if name.startswith(p)), ""
            )
            # random.Random(seed) is the *seeded* escape hatch.
            seeded = prefix and name[len(prefix):][:1].isupper()
            if name in NONDETERMINISTIC_CALLS or (prefix and not seeded):
                yield _finding(
                    ctx,
                    node,
                    self.code,
                    f"{name}() in a reproducible code path breaks fingerprint "
                    "equality (thread seeds/timestamps in as parameters "
                    "instead)",
                )


# ----------------------------------------------------------------------
# KSP005 — swallowed exceptions in the supervision/IPC tier
# ----------------------------------------------------------------------
#: Module keys of the supervision/IPC tier: a swallowed exception here
#: turns a worker death or pipe desync into an unexplained hang.
IPC_TIER = frozenset({
    "serve/supervisor.py",
    "serve/ipc.py",
    "serve/cluster.py",
})


class SwallowedExceptionRule(Rule):
    """Supervision and IPC code must account for every exception.

    Flags ``except Exception/BaseException`` handlers whose whole body
    is ``pass`` / ``...`` / ``continue`` — a silently-eaten worker death
    is an unexplained hang later.  (Bare ``except:`` is ruff's E722.)
    """

    code = "KSP005"
    title = "swallowed exception in the supervision/IPC tier"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.key in IPC_TIER

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = dotted_name(node.type).rsplit(".", 1)[-1]
            if caught in ("Exception", "BaseException") and self._swallows(
                node.body
            ):
                yield _finding(
                    ctx,
                    node,
                    self.code,
                    f"'except {caught}' swallowing the error silently: "
                    "record it (counter + message) so supervision "
                    "failures are observable",
                )

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in body
        )


# ----------------------------------------------------------------------
# KSP006 — closures over the IPC boundary
# ----------------------------------------------------------------------
#: Module-key prefix where IPC send calls live.
IPC_PREFIX = "serve/"

#: Method names that put a payload on a pipe (or hand one to a child
#: process): lambdas and closures in their arguments fail to pickle
#: (fork hides this until the first spawn-mode restart).
IPC_SEND_METHODS = frozenset({"send", "send_bytes", "request", "Process"})


class ClosureOverIpcRule(Rule):
    """Payloads crossing a pipe must pickle: no lambdas, no closures.

    Under the fork start method an unpicklable payload works by
    accident until the first spawn-mode restart replays it.  Flags
    lambdas (and references to locally-defined functions) in the
    arguments of pipe sends / worker requests / ``Process(...)``
    constructions within the serving tier.
    """

    code = "KSP006"
    title = "lambda or closure in an IPC payload"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.key.startswith(IPC_PREFIX)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func).rsplit(".", 1)[-1]
            if callee not in IPC_SEND_METHODS:
                continue
            local_defs = self._local_function_names(ctx, node)
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Lambda):
                        what = "lambda"
                    elif isinstance(sub, ast.Name) and sub.id in local_defs:
                        what = f"closure {sub.id!r}"
                    else:
                        continue
                    yield _finding(
                        ctx,
                        sub,
                        self.code,
                        f"{what} in a {callee!r} payload cannot pickle "
                        "across the IPC boundary (send data, or a "
                        "module-level function)",
                    )

    @staticmethod
    def _local_function_names(ctx: ModuleContext, node: ast.AST) -> set[str]:
        func = ctx.enclosing_function(node)
        if func is None:
            return set()
        return {
            stmt.name
            for stmt in ast.walk(func)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt is not func
        }


# ----------------------------------------------------------------------
# KSP007 — batch entry points looping over per-item shims
# ----------------------------------------------------------------------
#: Function-name suffixes declaring a *batch* entry point: callers pay
#: for one round trip and expect amortised execution.
BATCH_SUFFIXES = ("_many", "_batch")

#: The public per-item surface those batch bodies must not loop over.
PER_ITEM_SHIMS = frozenset({"execute", "distance", "knn", "lower_bound"})


class BatchShimLoopRule(Rule):
    """``*_many``/``*_batch`` bodies must not loop over per-item shims.

    A batch entry point that calls the public per-item surface
    (:data:`PER_ITEM_SHIMS`) once per loop iteration silently
    re-serialises the batch — per-item lock acquisitions, cache probes,
    and IPC round trips — while its name promises amortised execution.
    The sanctioned sequential fallback lives in one explicitly-named
    helper (``execute_many_sequential``, deliberately outside the
    ``*_many`` suffix) or carries a ``# ksp: ignore[KSP007]`` on the
    looping line.

    Only the *per-iteration* region is inspected: a per-item call in a
    ``for`` statement's iterable (evaluated once) or a comprehension's
    first iterable is not a violation.
    """

    code = "KSP007"
    title = "per-item shim call looped inside a batch entry point"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in ctx.nodes:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not func.name.endswith(BATCH_SUFFIXES):
                continue
            reported: set[int] = set()
            for node in self._per_iteration_nodes(func):
                if (
                    id(node) in reported
                    or not isinstance(node, ast.Call)
                    or not isinstance(node.func, ast.Attribute)
                    or node.func.attr not in PER_ITEM_SHIMS
                ):
                    continue
                reported.add(id(node))
                yield _finding(
                    ctx,
                    node,
                    self.code,
                    f"batch entry point {func.name!r} loops over per-item "
                    f"shim {node.func.attr!r}: this re-serialises the batch "
                    "one query at a time — use the batch API (or delegate "
                    "to execute_many_sequential, the named sequential "
                    "fallback)",
                )

    @staticmethod
    def _per_iteration_nodes(func: ast.AST) -> Iterator[ast.AST]:
        """Every node evaluated once *per loop iteration* inside ``func``."""
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                for stmt in list(node.body) + list(node.orelse):
                    yield from ast.walk(stmt)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                if isinstance(node, ast.DictComp):
                    yield from ast.walk(node.key)
                    yield from ast.walk(node.value)
                else:
                    yield from ast.walk(node.elt)
                for comp in node.generators:
                    for condition in comp.ifs:
                        yield from ast.walk(condition)


#: The per-module half of the catalogue, in order.  The interprocedural
#: rules (KSP008, KSP009, KSP011) live in
#: :mod:`repro.analysis.project_rules`; the combined registry is
#: :data:`repro.analysis.linter.ALL_RULES`.
MODULE_RULES: tuple[Rule, ...] = (
    UnlockedSharedWriteRule(),
    BlockingUnderLockRule(),
    NondeterminismRule(),
    SwallowedExceptionRule(),
    ClosureOverIpcRule(),
    BatchShimLoopRule(),
)
