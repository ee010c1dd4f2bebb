"""Project-wide analysis: import graph, call graph, cross-file facts.

The per-file rules (FDL001–FDL009) go blind the moment an invariant
becomes a *cross-module* property: a wall-clock read wrapped in a
helper one import away, a blocking sqlite call three sync frames below
a coroutine, an attribute guarded in one method and read bare in
another, a metric renamed in the exporter but not in the docs.  This
module builds the shared substrate those interprocedural rules
(FDL010–FDL013) run on:

* :func:`build_module_summary` walks one parsed file **once** and
  extracts every fact the project rules need — defined functions and
  classes, an approximate call graph fragment, direct clock / random /
  blocking calls, ``self.*`` reads and writes with their lock state,
  rendered metric names, emitted / handled trace-span kinds, CLI
  subcommand surfaces, and the pragma table.  Summaries are plain
  JSON-able dicts, so the incremental cache can persist them keyed by
  file content hash and a warm run never re-parses an unchanged file.
* :class:`ProjectContext` links the summaries of every linted file:
  it resolves dotted call targets through the import graph, ``self.``
  method calls through class definitions and their (project-resolved)
  bases, and ``self.attr.m()`` calls through ``__init__`` attribute
  types, then answers the reachability questions the rules ask
  (transitive clock/seed taint, transitive blocking, lock-held-only
  methods).

Soundness caveats — the call graph is **approximate by design**:

* Resolution is purely static and name-based.  Dynamic dispatch
  through callbacks the extractor does not recognise (scheduler event
  queues, ``getattr``, dict-of-functions tables) produces *missing*
  edges, so the interprocedural rules can under-report; they never
  guess.
* Callables passed as call arguments (``partial(f)``,
  ``loop.call_later(d, self._tick)``) become ``ref`` edges — the
  registering function is treated as a caller.  Arguments handed to a
  recognised executor-offload surface (``run_in_executor``,
  ``asyncio.to_thread``, ``Executor.submit``, ``threading.Thread``)
  and calls inside ``lambda`` bodies become ``offload`` edges: still
  *executed* (so clock/seed taint follows them) but **not on the event
  loop** (so blocking reachability ignores them).
* A nested ``def`` gets a ``def`` edge from its enclosing function:
  taint propagates (the body will run *somewhere*), blocking
  reachability does not unless the name is also passed to an on-loop
  registration site.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig, path_matches
from repro.lint.context import FileContext, dotted_name
from repro.lint.rules.async_blocking import (
    BLOCKING_CALLS,
    BLOCKING_METHODS,
    WRITE_METHODS,
)
from repro.lint.rules.clock_discipline import FORBIDDEN_CALLS
from repro.lint.rules.lock_discipline import MUTATOR_METHODS
from repro.lint.rules.seeded_randomness import ALLOWED_TERMINALS

#: Bump when the summary layout changes — invalidates cached summaries.
SUMMARY_VERSION = 1

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"

#: Call-target receivers whose callable arguments run *off* the event
#: loop (threads / executors): taint follows, blocking-reach does not.
_OFFLOAD_CALL_TAILS = (
    "run_in_executor",
    "to_thread",
    "submit",
    "Thread",
    "Timer",
)

_METRIC_TOKEN = re.compile(r"\bfd_[a-z0-9_]+\b")


def module_name_for(path: str) -> str:
    """Dotted module name derived from the package layout on disk.

    Walks up while ``__init__.py`` exists, so ``src/repro/obs/trace.py``
    becomes ``repro.obs.trace`` regardless of the invocation prefix; a
    free-standing file (fixture corpora) is just its stem.
    """
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    parent = os.path.dirname(path)
    while os.path.isfile(os.path.join(parent, "__init__.py")):
        parts.append(os.path.basename(parent))
        parent = os.path.dirname(parent)
    if parts[0] == "__init__":
        parts = parts[1:] or parts
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """Facts about one function (or method, or the module body)."""

    qualname: str
    line: int
    is_async: bool = False
    class_name: str = ""
    #: Direct wall-clock / randomness / blocking calls:
    #: ``[line, name-or-reason, suppressed]`` — ``suppressed`` is True
    #: when a justified per-file pragma covers the call site.
    clock: List[List[Any]] = field(default_factory=list)
    random: List[List[Any]] = field(default_factory=list)
    blocking: List[List[Any]] = field(default_factory=list)
    #: Outgoing edges: ``[line, kind, spec…, via, awaited]`` where kind
    #: is ``abs`` (dotted name), ``self`` (method), ``selfattr``
    #: (attr, method) or ``typed`` (class dotted, method).
    calls: List[List[Any]] = field(default_factory=list)
    #: ``self.X`` loads / stores: ``[attr, line, in_lock]``.
    reads: List[List[Any]] = field(default_factory=list)
    writes: List[List[Any]] = field(default_factory=list)


@dataclass
class ClassInfo:
    """Facts about one class definition."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: ``self.attr`` → resolved dotted class name (from ``__init__``).
    attr_types: Dict[str, str] = field(default_factory=dict)
    uses_lock: bool = False


@dataclass
class ModuleSummary:
    """Everything the project rules need to know about one file."""

    path: str
    rel_path: str
    modname: str
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Non-docstring ``fd_*`` string tokens: ``[line, name]``.
    metric_literals: List[List[Any]] = field(default_factory=list)
    #: Trace-span kinds passed literally to ``.emit``/``.emit_batch``/``._emit``.
    emit_kinds: List[List[Any]] = field(default_factory=list)
    #: Span kinds this file *handles* (compared against a ``*kind*``
    #: name, or member of a ``*KINDS*`` set literal).
    kind_handles: List[str] = field(default_factory=list)
    #: ``subcommand → {"line": int, "flags": [...]}`` plus the main
    #: parser's flags under the "" key.
    cli_subcommands: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Serialized pragma table: ``line → [rules, justification, own_line]``.
    pragmas: Dict[int, List[Any]] = field(default_factory=dict)
    #: Block-header coverage: ``line → [header lines]``.
    headers: Dict[int, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization (the cache stores summaries as JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SUMMARY_VERSION,
            "path": self.path,
            "rel_path": self.rel_path,
            "modname": self.modname,
            "functions": {
                q: {
                    "line": f.line,
                    "is_async": f.is_async,
                    "class_name": f.class_name,
                    "clock": f.clock,
                    "random": f.random,
                    "blocking": f.blocking,
                    "calls": f.calls,
                    "reads": f.reads,
                    "writes": f.writes,
                }
                for q, f in self.functions.items()
            },
            "classes": {
                n: {
                    "line": c.line,
                    "bases": c.bases,
                    "methods": c.methods,
                    "attr_types": c.attr_types,
                    "uses_lock": c.uses_lock,
                }
                for n, c in self.classes.items()
            },
            "metric_literals": self.metric_literals,
            "emit_kinds": self.emit_kinds,
            "kind_handles": self.kind_handles,
            "cli_subcommands": self.cli_subcommands,
            "pragmas": {str(k): v for k, v in self.pragmas.items()},
            "headers": {str(k): v for k, v in self.headers.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> Optional["ModuleSummary"]:
        if data.get("version") != SUMMARY_VERSION:
            return None
        summary = cls(
            path=data["path"],
            rel_path=data["rel_path"],
            modname=data["modname"],
            metric_literals=data["metric_literals"],
            emit_kinds=data["emit_kinds"],
            kind_handles=data["kind_handles"],
            cli_subcommands=data["cli_subcommands"],
            pragmas={int(k): v for k, v in data["pragmas"].items()},
            headers={int(k): v for k, v in data["headers"].items()},
        )
        for q, f in data["functions"].items():
            summary.functions[q] = FunctionInfo(
                qualname=q,
                line=f["line"],
                is_async=f["is_async"],
                class_name=f["class_name"],
                clock=f["clock"],
                random=f["random"],
                blocking=f["blocking"],
                calls=f["calls"],
                reads=f["reads"],
                writes=f["writes"],
            )
        for n, c in data["classes"].items():
            summary.classes[n] = ClassInfo(
                name=n,
                line=c["line"],
                bases=c["bases"],
                methods=c["methods"],
                attr_types=c["attr_types"],
                uses_lock=c["uses_lock"],
            )
        return summary

    # ------------------------------------------------------------------
    # Pragma lookup (mirrors FileContext.pragma_for, but serialized)
    # ------------------------------------------------------------------
    def pragma_for(self, line: int, rule: str, code: str) -> Optional[Tuple[int, List[Any]]]:
        """``(pragma_line, [rules, justification, own_line])`` or None."""
        candidates = [line]
        candidates.extend(sorted(self.headers.get(line, ()), reverse=True))
        for candidate in candidates:
            entry = self.pragmas.get(candidate)
            if entry is not None and _covers(entry[0], rule, code):
                return candidate, entry
            above = self.pragmas.get(candidate - 1)
            if above is not None and above[2] and _covers(above[0], rule, code):
                return candidate - 1, above
        return None


def _covers(rules: Sequence[str], rule: str, code: str) -> bool:
    return any(r in ("all", rule, code) for r in rules)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
class _SummaryBuilder:
    """One-pass extractor from a :class:`FileContext` to a summary."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.summary = ModuleSummary(
            path=ctx.path,
            rel_path=ctx.rel_path,
            modname=module_name_for(ctx.path),
        )
        for line, pragma in ctx.pragmas.items():
            self.summary.pragmas[line] = [
                list(pragma.rules), pragma.justification, pragma.own_line,
            ]
        for line, headers in ctx._headers().items():
            self.summary.headers[line] = sorted(headers)
        self._docstrings: Set[ast.AST] = set()
        self._collect_docstrings(ctx.tree)

    # -- helpers -------------------------------------------------------
    def _collect_docstrings(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ) and node.body:
                first = node.body[0]
                if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant
                ) and isinstance(first.value.value, str):
                    self._docstrings.add(first.value)

    def _suppressed(self, line: int, rule: str, code: str) -> bool:
        pragma = self.ctx.pragma_for(line, rule, code)
        return pragma is not None and pragma.justified

    def _function_for(self, node: ast.AST) -> Tuple[str, str]:
        """(qualname, class name) of the function owning ``node``."""
        func = self.ctx.enclosing_function(node)
        while isinstance(func, ast.Lambda):
            func = self.ctx.enclosing_function(func)
        if func is None:
            return f"{self.summary.modname}.{MODULE_BODY}", ""
        return self._qualname(func)

    def _qualname(self, func: ast.AST) -> Tuple[str, str]:
        parts = [func.name]
        class_name = ""
        for ancestor in self.ctx.ancestors(func):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parts.append(ancestor.name)
            elif isinstance(ancestor, ast.ClassDef):
                if not class_name:
                    class_name = ancestor.name
                parts.append(ancestor.name)
        parts.append(self.summary.modname)
        return ".".join(reversed(parts)), class_name

    def _info(self, node: ast.AST) -> FunctionInfo:
        qualname, class_name = self._function_for(node)
        return self._info_for(qualname, class_name)

    def _info_for(self, qualname: str, class_name: str = "") -> FunctionInfo:
        info = self.summary.functions.get(qualname)
        if info is None:
            info = FunctionInfo(qualname=qualname, line=1, class_name=class_name)
            self.summary.functions[qualname] = info
        return info

    def _in_lambda(self, node: ast.AST) -> bool:
        return isinstance(self.ctx.enclosing_function(node), ast.Lambda)

    def _in_lock(self, node: ast.AST) -> bool:
        for ancestor in self.ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(ancestor, ast.With) and any(
                _is_lock_item(item) for item in ancestor.items
            ):
                return True
        return False

    # -- main pass -----------------------------------------------------
    def build(self) -> ModuleSummary:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(node)
            elif isinstance(node, ast.ClassDef):
                self._register_class(node)
            elif isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, ast.Attribute):
                self._visit_attribute(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._visit_assignment(node)
            elif isinstance(node, ast.Compare):
                self._visit_compare(node)
            elif isinstance(node, ast.Constant):
                self._visit_constant(node)
        self._link_nested_defs()
        return self.summary

    def _register_function(self, node: ast.AST) -> None:
        qualname, class_name = self._qualname(node)
        info = self._info_for(qualname, class_name)
        info.line = node.lineno
        info.is_async = isinstance(node, ast.AsyncFunctionDef)

    def _register_class(self, node: ast.ClassDef) -> None:
        if self.ctx.enclosing_function(node) is not None:
            return  # local classes are out of scope
        parent_cls = self.ctx.enclosing_class(node)
        name = f"{parent_cls.name}.{node.name}" if parent_cls else node.name
        info = ClassInfo(name=name, line=node.lineno)
        for base in node.bases:
            resolved = self.ctx.resolve(base)
            if resolved is not None:
                info.bases.append(resolved)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.append(item.name)
                if item.name == "__init__":
                    self._collect_attr_types(item, info)
        self.summary.classes[name] = info

    def _collect_attr_types(self, init: ast.AST, info: ClassInfo) -> None:
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            resolved = self.ctx.resolve(node.value.func)
            if resolved is None:
                continue
            for target in node.targets:
                name = dotted_name(target)
                if name is not None and name.startswith("self.") and name.count(".") == 1:
                    info.attr_types[name.split(".", 1)[1]] = resolved

    def _link_nested_defs(self) -> None:
        """``def`` edges from each function to the defs nested in it."""
        for node in ast.walk(self.ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            parent = self.ctx.parent(node)
            enclosing = self.ctx.enclosing_function(node)
            if enclosing is None or isinstance(parent, ast.ClassDef):
                continue
            qualname, _ = self._qualname(node)
            outer_q, outer_cls = self._qualname(enclosing)
            self._info_for(outer_q, outer_cls).calls.append(
                [node.lineno, "abs", qualname, "def", False]
            )

    # -- call edges and primitives -------------------------------------
    def _visit_call(self, node: ast.Call) -> None:
        info = self._info(node)
        line = node.lineno
        awaited = isinstance(self.ctx.parent(node), ast.Await)
        in_lambda = self._in_lambda(node)
        in_lock = self._in_lock(node)
        name = self.ctx.resolve_call(node)

        # Primitive facts --------------------------------------------------
        if name in FORBIDDEN_CALLS:
            info.clock.append(
                [line, name,
                 self._suppressed(line, "clock-discipline", "FDL001")]
            )
        if name is not None and self._is_ambient_random(name):
            info.random.append(
                [line, name,
                 self._suppressed(line, "seeded-randomness", "FDL002")]
            )
        reason = None if name is None else self._blocking_reason(name)
        if reason is not None and not awaited:
            suppressed = in_lambda or self._suppressed(
                line, "async-blocking", "FDL003"
            ) or self._suppressed(line, "async-blocking-reach", "FDL011")
            info.blocking.append([line, reason, suppressed])

        # Lock-mutator calls count as attribute writes ---------------------
        mutated = _mutated_attr_of_call(node)
        if mutated is not None:
            info.writes.append([mutated, line, in_lock])

        # Call edges -------------------------------------------------------
        via = "offload" if in_lambda else "direct"
        spec = self._target_spec(node.func)
        if spec is not None:
            info.calls.append([line, *spec, via, awaited])

        # Callable arguments (partial / callback registration) -------------
        arg_via = "offload" if in_lambda else self._argument_via(name)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            arg_spec = self._callable_arg_spec(arg)
            if arg_spec is not None:
                info.calls.append([line, *arg_spec, arg_via, False])

        # Span-kind emission ----------------------------------------------
        self._visit_emit(node)

        # CLI surface -------------------------------------------------------
        self._visit_cli_call(node)

    def _is_ambient_random(self, name: str) -> bool:
        if name.startswith("numpy.random."):
            return name.rsplit(".", 1)[1] not in ALLOWED_TERMINALS
        return name == "random" or name.startswith("random.")

    def _blocking_reason(self, name: str) -> Optional[str]:
        if name in BLOCKING_CALLS or name.startswith("subprocess."):
            return f"{name}()"
        if "." not in name:
            return None
        receiver, _, method = name.rpartition(".")
        if receiver in ("self", "cls"):
            return None  # delegation is an edge, not a primitive
        if method in BLOCKING_METHODS:
            return f".{method}() (on {receiver})"
        if method in WRITE_METHODS:
            base = receiver.rsplit(".", 1)[-1]
            if base not in self.ctx.config.asyncio_safe_receivers:
                return f".{method}() (on {receiver})"
        return None

    def _target_spec(self, func: ast.expr) -> Optional[List[Any]]:
        name = dotted_name(func)
        if name is None:
            return None
        parts = name.split(".")
        if parts[0] == "self" and len(parts) == 2:
            return ["self", parts[1]]
        if parts[0] == "self" and len(parts) == 3:
            return ["selfattr", parts[1], parts[2]]
        resolved = self.ctx.resolve(func)
        return None if resolved is None else ["abs", resolved]

    def _argument_via(self, call_name: Optional[str]) -> str:
        if call_name is None:
            return "ref"
        tail = call_name.rsplit(".", 1)[-1]
        return "offload" if tail in _OFFLOAD_CALL_TAILS else "ref"

    def _callable_arg_spec(self, arg: ast.expr) -> Optional[List[Any]]:
        """A ``ref`` spec when ``arg`` names a plausible project callable."""
        if isinstance(arg, ast.Name):
            resolved = self.ctx.resolve(arg)
            if resolved is None or "." not in resolved:
                # A bare local name: only worth an edge if it looks like
                # a function reference (heuristic: not self-evident data).
                return ["abs", arg.id] if _plausible_callback(arg.id) else None
            return ["abs", resolved]
        if isinstance(arg, ast.Attribute):
            name = dotted_name(arg)
            if name is None:
                return None
            parts = name.split(".")
            if parts[0] == "self" and len(parts) == 2:
                return ["self", parts[1]]
            if parts[0] == "self" and len(parts) == 3:
                return ["selfattr", parts[1], parts[2]]
        return None

    # -- attribute reads / writes --------------------------------------
    def _visit_attribute(self, node: ast.Attribute) -> None:
        # Every Load of ``self.X`` is a read — including the chain root
        # of ``self.a.b`` and the receiver of ``self.a.get(...)``; the
        # race rule only cares about attrs that are *written under lock*
        # somewhere, so method-name "reads" can never produce findings.
        if not isinstance(node.value, ast.Name) or node.value.id != "self":
            return
        if not isinstance(node.ctx, ast.Load):
            return
        if "lock" in node.attr.lower():
            return
        info = self._info(node)
        if not info.class_name:
            return
        info.reads.append([node.attr, node.lineno, self._in_lock(node)])

    def _visit_assignment(self, node: ast.AST) -> None:
        attr = _mutated_attr_of_assign(node)
        if attr is None:
            return
        info = self._info(node)
        if not info.class_name:
            return
        info.writes.append([attr, node.lineno, self._in_lock(node)])

    # -- contract facts -------------------------------------------------
    def _visit_constant(self, node: ast.Constant) -> None:
        if not isinstance(node.value, str) or node in self._docstrings:
            return
        for token in _METRIC_TOKEN.findall(node.value):
            self.summary.metric_literals.append([node.lineno, token])

    def _visit_compare(self, node: ast.Compare) -> None:
        left = dotted_name(node.left)
        if left is None or "kind" not in left.rsplit(".", 1)[-1].lower():
            return
        for comparator in node.comparators:
            for value in _string_constants(comparator):
                self.summary.kind_handles.append(value)

    def _visit_emit(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        kind_arg: Optional[ast.expr] = None
        if node.func.attr in ("emit", "emit_batch") and len(node.args) >= 2:
            kind_arg = node.args[1]
        elif node.func.attr == "_emit" and len(node.args) >= 1:
            kind_arg = node.args[0]
        for kw in node.keywords:
            if kw.arg == "kind":
                kind_arg = kw.value
        if (
            isinstance(kind_arg, ast.Constant)
            and isinstance(kind_arg.value, str)
            and kind_arg.value
        ):
            self.summary.emit_kinds.append([node.lineno, kind_arg.value])

    def _visit_cli_call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr == "add_parser" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                parent = self.ctx.parent(node)
                var = None
                if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
                    var = dotted_name(parent.targets[0])
                entry = self.summary.cli_subcommands.setdefault(
                    first.value, {"line": node.lineno, "flags": [], "var": var}
                )
                entry["var"] = var
        elif node.func.attr == "add_argument":
            receiver = dotted_name(node.func.value)
            flags = [
                arg.value
                for arg in node.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("-")
            ]
            if not flags:
                return
            for entry in self.summary.cli_subcommands.values():
                if entry.get("var") is not None and entry["var"] == receiver:
                    entry["flags"].extend(flags)
                    return
            top = self.summary.cli_subcommands.setdefault(
                "", {"line": node.lineno, "flags": [], "var": None}
            )
            top["flags"].extend(flags)

    # -- set-literal kind tables ---------------------------------------
    def collect_kind_tables(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = dotted_name(node.targets[0])
            if target is None or "kind" not in target.rsplit(".", 1)[-1].lower():
                continue
            for value in _string_constants(node.value):
                self.summary.kind_handles.append(value)


def _plausible_callback(name: str) -> bool:
    """Heuristic filter for bare-name callback arguments."""
    lowered = name.lower()
    return (
        lowered.startswith(("on_", "cb", "callback", "handle", "_"))
        or lowered.endswith(("_cb", "_callback", "_handler", "_hook", "_tick"))
    )


def _string_constants(node: ast.expr) -> Iterator[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            yield from _string_constants(element)
    elif isinstance(node, ast.Call) and node.args:
        name = dotted_name(node.func)
        if name in ("frozenset", "set", "tuple", "list"):
            yield from _string_constants(node.args[0])


def _is_lock_item(item: ast.withitem) -> bool:
    return _is_lock_item_expr(item.context_expr)


def _is_lock_item_expr(expr: ast.expr) -> bool:
    name = dotted_name(expr)
    return (
        name is not None
        and name.startswith("self.")
        and "lock" in name.rsplit(".", 1)[1].lower()
    )


def _mutated_attr_of_call(node: ast.Call) -> Optional[str]:
    name = dotted_name(node.func)
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) == 3 and parts[0] == "self" and parts[2] in MUTATOR_METHODS:
        return parts[1]
    return None


def _mutated_attr_of_assign(node: ast.AST) -> Optional[str]:
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    for target in targets:
        if isinstance(target, ast.Subscript):
            target = target.value
        name = dotted_name(target)
        if name is not None:
            parts = name.split(".")
            if len(parts) == 2 and parts[0] == "self":
                return parts[1]
    return None


def build_module_summary(ctx: FileContext) -> ModuleSummary:
    """Extract the project-rule facts for one parsed file."""
    builder = _SummaryBuilder(ctx)
    summary = builder.build()
    builder.collect_kind_tables()
    return summary


# ----------------------------------------------------------------------
# Linking: the project context
# ----------------------------------------------------------------------
@dataclass
class CallSite:
    """One resolved edge in the project call graph."""

    caller: str
    callee: str
    path: str
    line: int
    via: str
    awaited: bool


class ProjectContext:
    """The linked, project-wide view the interprocedural rules query."""

    def __init__(
        self,
        summaries: Sequence[ModuleSummary],
        config: LintConfig,
        root: Optional[str] = None,
    ) -> None:
        self.summaries = list(summaries)
        self.config = config
        self.root = root
        self.by_path: Dict[str, ModuleSummary] = {
            s.path: s for s in self.summaries
        }
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in self.summaries:
            self.modules.setdefault(summary.modname, summary)
        #: every function qualname → (summary, FunctionInfo)
        self.functions: Dict[str, Tuple[ModuleSummary, FunctionInfo]] = {}
        for summary in self.summaries:
            for qualname, info in summary.functions.items():
                self.functions[qualname] = (summary, info)
        #: class dotted name (modname + class) → (summary, ClassInfo)
        self.classes: Dict[str, Tuple[ModuleSummary, ClassInfo]] = {}
        for summary in self.summaries:
            for name, cls in summary.classes.items():
                self.classes[f"{summary.modname}.{name}"] = (summary, cls)
        self._edges: Optional[List[CallSite]] = None
        self._callers: Optional[Dict[str, List[CallSite]]] = None
        self._callees: Optional[Dict[str, List[CallSite]]] = None

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """Project function qualname for an alias-expanded dotted name."""
        if dotted in self.functions:
            return dotted
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            summary = self.modules.get(module)
            if summary is None:
                continue
            remainder = parts[split:]
            candidate = f"{module}.{'.'.join(remainder)}"
            if candidate in summary.functions:
                return candidate
            # A class reference: constructor edge.
            cls_name = ".".join(remainder)
            if cls_name in summary.classes:
                return self.resolve_method(summary, cls_name, "__init__")
            if len(remainder) >= 2:
                cls_name = ".".join(remainder[:-1])
                if cls_name in summary.classes:
                    return self.resolve_method(
                        summary, cls_name, remainder[-1]
                    )
        return None

    def resolve_method(
        self,
        summary: ModuleSummary,
        class_name: str,
        method: str,
        _depth: int = 0,
    ) -> Optional[str]:
        """Resolve ``class_name.method`` through project base classes."""
        if _depth > 8:
            return None
        cls = summary.classes.get(class_name)
        if cls is None:
            return None
        if method in cls.methods:
            return f"{summary.modname}.{class_name}.{method}"
        for base in cls.bases:
            resolved_base = self._resolve_class(base)
            if resolved_base is None:
                continue
            base_summary, base_cls = resolved_base
            found = self.resolve_method(
                base_summary, base_cls.name, method, _depth + 1
            )
            if found is not None:
                return found
        return None

    def _resolve_class(
        self, dotted: str
    ) -> Optional[Tuple[ModuleSummary, ClassInfo]]:
        if dotted in self.classes:
            return self.classes[dotted]
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            summary = self.modules.get(module)
            if summary is None:
                continue
            cls_name = ".".join(parts[split:])
            if cls_name in summary.classes:
                return summary, summary.classes[cls_name]
        return None

    def _resolve_spec(
        self, summary: ModuleSummary, info: FunctionInfo, spec: List[Any]
    ) -> Optional[str]:
        kind = spec[0]
        if kind == "abs":
            dotted = spec[1]
            if "." not in dotted:
                nested = f"{info.qualname}.{dotted}"
                if nested in summary.functions:
                    return nested
                local = f"{summary.modname}.{dotted}"
                if local in summary.functions:
                    return local
                if dotted in summary.classes:
                    return self.resolve_method(summary, dotted, "__init__")
                return None
            resolved = self.resolve_dotted(dotted)
            if resolved is not None:
                return resolved
            # ``mod.Cls(...)`` through an import alias of the class.
            cls = self._resolve_class(dotted)
            if cls is not None:
                return self.resolve_method(cls[0], cls[1].name, "__init__")
            return None
        if kind == "self" and info.class_name:
            return self.resolve_method(summary, info.class_name, spec[1])
        if kind == "selfattr" and info.class_name:
            cls = summary.classes.get(info.class_name)
            if cls is None:
                return None
            attr_type = cls.attr_types.get(spec[1])
            if attr_type is None:
                return None
            resolved_cls = self._resolve_class(attr_type)
            if resolved_cls is None:
                return None
            return self.resolve_method(
                resolved_cls[0], resolved_cls[1].name, spec[2]
            )
        if kind == "typed":
            resolved_cls = self._resolve_class(spec[1])
            if resolved_cls is None:
                return None
            return self.resolve_method(
                resolved_cls[0], resolved_cls[1].name, spec[2]
            )
        return None

    # ------------------------------------------------------------------
    # Graph
    # ------------------------------------------------------------------
    @property
    def edges(self) -> List[CallSite]:
        if self._edges is None:
            edges: List[CallSite] = []
            for summary in self.summaries:
                for qualname, info in summary.functions.items():
                    for call in info.calls:
                        line, spec, via, awaited = (
                            call[0], call[1:-2], call[-2], call[-1],
                        )
                        callee = self._resolve_spec(summary, info, list(spec))
                        if callee is None or callee == qualname:
                            continue
                        edges.append(
                            CallSite(
                                caller=qualname,
                                callee=callee,
                                path=summary.path,
                                line=line,
                                via=via,
                                awaited=awaited,
                            )
                        )
            self._edges = edges
        return self._edges

    @property
    def callers_of(self) -> Dict[str, List[CallSite]]:
        if self._callers is None:
            table: Dict[str, List[CallSite]] = {}
            for edge in self.edges:
                table.setdefault(edge.callee, []).append(edge)
            self._callers = table
        return self._callers

    @property
    def callees_of(self) -> Dict[str, List[CallSite]]:
        if self._callees is None:
            table: Dict[str, List[CallSite]] = {}
            for edge in self.edges:
                table.setdefault(edge.caller, []).append(edge)
            self._callees = table
        return self._callees

    # ------------------------------------------------------------------
    # Reachability queries
    # ------------------------------------------------------------------
    def taint_table(
        self,
        clock_whitelist: Sequence[str],
        random_whitelist: Sequence[str],
    ) -> Dict[str, Tuple[str, str]]:
        """``qualname → (primitive description, next hop)`` for every
        function that transitively reaches a wall-clock or ambient-random
        call outside the respective whitelisted files.

        Pragma-suppressed primitives still taint: FDL001/FDL002 pragmas
        accept a *direct* call in context, not laundering the value into
        deterministic code.  The next hop lets a rule print the chain.
        """
        table: Dict[str, Tuple[str, str]] = {}
        pending: List[str] = []
        for summary in self.summaries:
            clock_ok = path_matches(summary.rel_path, tuple(clock_whitelist))
            random_ok = path_matches(
                summary.rel_path, tuple(random_whitelist)
            )
            if clock_ok and random_ok:
                continue
            for qualname, info in summary.functions.items():
                primitive = None
                if not clock_ok:
                    for line, name, _suppressed in info.clock:
                        primitive = f"{name}() at {summary.rel_path}:{line}"
                        break
                if primitive is None and not random_ok:
                    for line, name, _suppressed in info.random:
                        primitive = f"{name}() at {summary.rel_path}:{line}"
                        break
                if primitive is not None:
                    table[qualname] = (primitive, "")
                    pending.append(qualname)
        while pending:
            current = pending.pop()
            primitive, _ = table[current]
            for edge in self.callers_of.get(current, ()):
                if edge.caller not in table:
                    table[edge.caller] = (primitive, current)
                    pending.append(edge.caller)
        return table

    def blocking_table(self) -> Dict[str, Tuple[str, str]]:
        """``qualname → (blocking description, next hop)`` for every
        *sync* function that transitively performs unsuppressed blocking
        I/O through on-loop (non-offload, non-awaited) call chains.
        """
        table: Dict[str, Tuple[str, str]] = {}
        pending: List[str] = []
        for summary in self.summaries:
            for qualname, info in summary.functions.items():
                if info.is_async:
                    continue
                for line, reason, suppressed in info.blocking:
                    if suppressed:
                        continue
                    table[qualname] = (
                        f"{reason} at {summary.rel_path}:{line}", "",
                    )
                    pending.append(qualname)
                    break
        while pending:
            current = pending.pop()
            primitive, _ = table[current]
            for edge in self.callers_of.get(current, ()):
                if edge.via == "offload" or edge.awaited:
                    continue
                caller_info = self.functions.get(edge.caller)
                if caller_info is None or caller_info[1].is_async:
                    continue  # coroutines are roots, not links
                if edge.caller not in table:
                    table[edge.caller] = (primitive, current)
                    pending.append(edge.caller)
        return table

    def chain(
        self, start: str, table: Dict[str, Tuple[str, str]], limit: int = 6
    ) -> List[str]:
        """The call chain recorded in a reachability table."""
        chain = [start]
        current = start
        while len(chain) < limit:
            entry = table.get(current)
            if entry is None or not entry[1]:
                break
            current = entry[1]
            chain.append(current)
        return chain

    def lock_held_only_methods(self, summary: ModuleSummary) -> Set[str]:
        """Methods (per class) whose every in-project call edge is made
        while holding the class lock — their bodies count as guarded.

        Returns qualnames.  Conservative: requires at least one incoming
        edge, an underscore-prefixed name, and every incoming edge either
        lexically inside a ``with self.*lock*`` block or from another
        lock-held-only method of the same class.
        """
        in_lock_edges: Dict[str, List[Tuple[str, bool]]] = {}
        for qualname, info in summary.functions.items():
            if not info.class_name:
                continue
            for call in info.calls:
                line, spec, _via, _awaited = (
                    call[0], call[1:-2], call[-2], call[-1],
                )
                if spec[0] != "self":
                    continue
                callee = self.resolve_method(
                    summary, info.class_name, spec[1]
                )
                if callee is None:
                    continue
                locked = self._call_site_in_lock(summary, info, line)
                in_lock_edges.setdefault(callee, []).append(
                    (qualname, locked)
                )
        held: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for callee, edges in in_lock_edges.items():
                if callee in held:
                    continue
                short = callee.rsplit(".", 1)[-1]
                if not short.startswith("_") or short.startswith("__"):
                    continue
                if edges and all(
                    locked or caller in held for caller, locked in edges
                ):
                    held.add(callee)
                    changed = True
        return held

    @staticmethod
    def _call_site_in_lock(
        summary: ModuleSummary, info: FunctionInfo, line: int
    ) -> bool:
        """Whether any write/read record at this line was lock-guarded.

        Lock state was recorded per read/write, not per call; a call on a
        line whose sibling facts are guarded is treated as guarded.  When
        no sibling fact exists, fall back to unguarded (conservative for
        the race rule: more reads count as bare).
        """
        for attr, rec_line, in_lock in info.writes + info.reads:
            if rec_line == line:
                return bool(in_lock)
        return False


__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "MODULE_BODY",
    "ModuleSummary",
    "ProjectContext",
    "SUMMARY_VERSION",
    "build_module_summary",
    "module_name_for",
]
