"""Project-wide analysis: import graph, call graph, cross-file facts.

Per-file rules go blind the moment an invariant becomes a
*cross-module* property: a wall-clock read wrapped in a helper one
import away, a blocking sqlite call three sync frames below a
coroutine, a metric renamed in the exporter but not in the docs.  This
module builds the shared substrate the project rules (FDL010, FDL011,
FDL013) run on:

* :class:`SummaryBuilder` fills one file's :class:`ModuleSummary`
  from the visitors it registers on that file's single traversal
  (:meth:`~repro.lint.context.FileContext.walk`, shared with the
  per-file rules): defined functions and classes, an approximate call
  graph fragment, direct clock / random / blocking calls, rendered
  metric names, emitted / handled trace-span kinds, CLI subcommand
  surfaces, and the pragma and block tables that
  :meth:`ModuleSummary.pragma_for` reads for every finding.  Summaries
  are plain dataclasses, stored by the incremental cache as
  :func:`dataclasses.asdict` JSON keyed by file content hash, so a warm
  run never re-parses an unchanged file.
* :class:`ProjectContext` links the summaries of every linted file:
  it resolves dotted call targets through the import graph, ``self.``
  method calls through class definitions and their (project-resolved)
  bases, and ``self.attr.m()`` calls through ``__init__`` attribute
  types, then answers the reachability questions the rules ask
  (transitive clock/seed taint, transitive blocking).

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
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.config import LintConfig, path_matches
from repro.lint.context import FUNCTIONS, FileContext, dotted_name
from repro.lint.pragmas import Pragma

#: Fully-qualified callables that read or burn wall-clock time.
FORBIDDEN_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.thread_time",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "asyncio.sleep",
    }
)

#: Terminal attributes allowed under numpy.random: deterministic
#: machinery that still requires explicit entropy at the call site.
ALLOWED_TERMINALS = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM",
     "Philox", "MT19937", "SFC64"}
)

#: Fully-qualified blocking callables.
BLOCKING_CALLS = frozenset(
    {
        "open",
        "time.sleep",
        "os.remove",
        "os.replace",
        "os.rename",
        "os.fsync",
        "os.system",
        "shutil.copy",
        "shutil.move",
        "socket.create_connection",
    }
)

#: Method names that block regardless of receiver.
BLOCKING_METHODS = frozenset(
    {
        "execute",
        "executemany",
        "executescript",
        "commit",
        "flush",
        "fsync",
        "recv",
        "recvfrom",
        "recv_into",
        "accept",
        "sendall",
        "makefile",
        "getaddrinfo",
    }
)

#: Method names that block unless the receiver is an asyncio stream.
WRITE_METHODS = frozenset({"write", "writelines"})

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
    #: Direct wall-clock / randomness calls: ``[line, name]``.
    clock: List[List[Any]] = field(default_factory=list)
    random: List[List[Any]] = field(default_factory=list)
    #: Direct blocking calls, neither awaited nor inside a ``lambda``:
    #: ``[line, reason]``.
    blocking: List[List[Any]] = field(default_factory=list)
    #: Outgoing edges: ``[line, kind, spec…, via, awaited]`` where kind
    #: is ``abs`` (dotted name), ``self`` (method), ``selfattr``
    #: (attr, method) or ``typed`` (class dotted, method).
    calls: List[List[Any]] = field(default_factory=list)


@dataclass
class ClassInfo:
    """Facts about one class definition."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: ``self.attr`` → resolved dotted class name (from ``__init__``).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the project rules and the suppression pass need to
    know about one file."""

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
    #: The file's pragmas, keyed by their own line.
    pragmas: Dict[int, Pragma] = field(default_factory=dict)
    #: ``[first, last]`` lines of every def/class/with block: a pragma
    #: on a block's header line covers the whole span.
    blocks: List[List[int]] = field(default_factory=list)

    def pragma_for(self, line: int, rule: str, code: str) -> Optional[Pragma]:
        """The pragma suppressing ``rule`` at ``line``, if any.

        Checks the line itself, an own-line pragma directly above, and
        the header lines of every enclosing def/class/with block.
        """
        if not self.pragmas:
            return None
        headers = {first for first, last in self.blocks if first <= line <= last}
        for candidate in [line, *sorted(headers, reverse=True)]:
            pragma = self.pragmas.get(candidate)
            if pragma is not None and pragma.covers(rule, code):
                return pragma
            above = self.pragmas.get(candidate - 1)
            if above is not None and above.own_line and above.covers(rule, code):
                return above
        return None


def load_summary(data: Dict[str, Any]) -> ModuleSummary:
    """A summary from its :func:`dataclasses.asdict` form read back
    from JSON (whose object keys are strings)."""
    fields = dict(data)
    fields["functions"] = {
        q: FunctionInfo(**f) for q, f in data["functions"].items()
    }
    fields["classes"] = {n: ClassInfo(**c) for n, c in data["classes"].items()}
    fields["pragmas"] = {
        int(line): Pragma(**{**p, "rules": tuple(p["rules"])})
        for line, p in data["pragmas"].items()
    }
    return ModuleSummary(**fields)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
class SummaryBuilder:
    """Visitors that fill one file's summary during its traversal.

    The traversal is depth first, but a visitor only reads the stack
    there; it defers its change to the summary, and :meth:`finish`
    applies the changes in breadth-first order — least nested first,
    so the primitive a chain finding names is the one least buried in
    loops and branches of its function.  Depth-first order is source
    order within each depth, so a stable sort by depth turns one order
    into the other.
    """

    def __init__(self, ctx: FileContext, pragmas: Dict[int, Pragma]) -> None:
        self.ctx = ctx
        modname = module_name_for(ctx.path)
        self.summary = ModuleSummary(
            path=ctx.path, rel_path=ctx.rel_path, modname=modname,
            pragmas=pragmas,
        )
        self._module_body = (f"{modname}.{MODULE_BODY}", "")
        #: def node → (qualname, class name), filled as each def is met.
        self._scopes: Dict[ast.AST, Tuple[str, str]] = {}
        #: (phase, depth, change, arguments) awaiting :meth:`finish`.
        self._changes: List[Tuple[int, int, Callable[..., None], tuple]] = []

    def visitors(self) -> Dict[type, List[Callable[[ast.AST], None]]]:
        """Fresh ``node type → visitors`` table for :meth:`FileContext.walk`."""
        return {
            ast.FunctionDef: [self._visit_function],
            ast.AsyncFunctionDef: [self._visit_function],
            ast.ClassDef: [self._visit_class],
            ast.With: [self._visit_block],
            ast.Call: [self._visit_call],
            ast.Compare: [self._visit_compare],
            ast.Constant: [self._visit_constant],
            ast.Assign: [self._visit_assign],
        }

    def _defer(self, change: Callable[..., None], *args: Any, phase: int = 0) -> None:
        self._changes.append((phase, len(self.ctx.stack), change, args))

    def finish(self) -> ModuleSummary:
        """The summary, changes applied breadth first (class docstring);
        a function's ``def`` edges follow its call edges."""
        for _, _, change, args in sorted(self._changes, key=lambda c: c[:2]):
            change(*args)
        return self.summary

    # -- scopes ----------------------------------------------------------
    def _function_for(self) -> Tuple[str, str]:
        """(qualname, class name) of the function owning the current
        node; lambdas belong to the def around them."""
        for ancestor in reversed(self.ctx.stack):
            if isinstance(ancestor, FUNCTIONS):
                return self._scopes[ancestor]
        return self._module_body

    def _info_for(self, qualname: str, class_name: str = "") -> FunctionInfo:
        info = self.summary.functions.get(qualname)
        if info is None:
            info = FunctionInfo(qualname=qualname, line=1, class_name=class_name)
            self.summary.functions[qualname] = info
        return info

    def _visit_block(self, node: ast.AST) -> None:
        self.summary.blocks.append([node.lineno, node.end_lineno or node.lineno])

    def _visit_function(self, node: ast.AST) -> None:
        self._visit_block(node)
        parts = [self.summary.modname]
        class_name = ""
        for ancestor in self.ctx.stack:
            if isinstance(ancestor, (*FUNCTIONS, ast.ClassDef)):
                parts.append(ancestor.name)
                if isinstance(ancestor, ast.ClassDef):
                    class_name = ancestor.name
        parts.append(node.name)
        qualname = ".".join(parts)
        outer = self._function_for()
        self._scopes[node] = (qualname, class_name)
        self._defer(self._define, node, qualname, class_name)
        # A nested def gets a ``def`` edge from its enclosing function.
        if outer is not self._module_body and not isinstance(
            self.ctx.parent, ast.ClassDef
        ):
            self._defer(
                self._add_call, outer,
                [node.lineno, "abs", qualname, "def", False], phase=1,
            )

    def _define(self, node: ast.AST, qualname: str, class_name: str) -> None:
        info = self._info_for(qualname, class_name)
        info.line = node.lineno
        info.is_async = isinstance(node, ast.AsyncFunctionDef)

    def _add_call(self, owner: Tuple[str, str], edge: List[Any]) -> None:
        self._info_for(*owner).calls.append(edge)

    def _visit_class(self, node: ast.ClassDef) -> None:
        self._visit_block(node)
        if self.ctx.enclosing_function() is not None:
            return  # local classes are out of scope
        parent_cls = self.ctx.enclosing_class()
        name = f"{parent_cls.name}.{node.name}" if parent_cls else node.name
        info = ClassInfo(name=name, line=node.lineno)
        for base in node.bases:
            resolved = self.ctx.resolve(base)
            if resolved is not None:
                info.bases.append(resolved)
        for item in node.body:
            if isinstance(item, FUNCTIONS):
                info.methods.append(item.name)
                if item.name == "__init__":
                    self._collect_attr_types(item, info)
        self._defer(self.summary.classes.__setitem__, name, info)

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

    # -- call edges and primitives -------------------------------------
    def _visit_call(self, node: ast.Call) -> None:
        self._defer(
            self._add_call_facts,
            node,
            self._function_for(),
            isinstance(self.ctx.parent, ast.Await),
            isinstance(self.ctx.enclosing_function(), ast.Lambda),
            self.ctx.parent,
        )

    def _add_call_facts(
        self,
        node: ast.Call,
        owner: Tuple[str, str],
        awaited: bool,
        in_lambda: bool,
        parent: ast.AST,
    ) -> None:
        info = self._info_for(*owner)
        line = node.lineno
        name = self.ctx.resolve_call(node)

        # Primitive facts --------------------------------------------------
        if name in FORBIDDEN_CALLS:
            info.clock.append([line, name])
        if name is not None and self._is_ambient_random(name):
            info.random.append([line, name])
        reason = None if name is None else self._blocking_reason(name)
        if reason is not None and not awaited and not in_lambda:
            info.blocking.append([line, reason])

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
        self._visit_cli_call(node, parent)

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

    # -- contract facts -------------------------------------------------
    def _visit_constant(self, node: ast.Constant) -> None:
        if not isinstance(node.value, str) or self._is_docstring():
            return
        for token in _METRIC_TOKEN.findall(node.value):
            self._defer(self.summary.metric_literals.append, [node.lineno, token])

    def _is_docstring(self) -> bool:
        """Whether the constant being visited is a docstring."""
        stack = self.ctx.stack
        return (
            len(stack) >= 2
            and isinstance(stack[-1], ast.Expr)
            and isinstance(stack[-2], (ast.Module, ast.ClassDef, *FUNCTIONS))
            and stack[-2].body[0] is stack[-1]
        )

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

    def _visit_cli_call(self, node: ast.Call, parent: ast.AST) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr == "add_parser" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                var = None
                if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
                    var = dotted_name(parent.targets[0])
                # A reused parser variable now names this subcommand only.
                for entry in self.summary.cli_subcommands.values():
                    if var is not None and entry["var"] == var:
                        entry["var"] = None
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

    def _visit_assign(self, node: ast.Assign) -> None:
        """``*kind*`` set-literal tables name the kinds a file handles."""
        if len(node.targets) != 1:
            return
        target = dotted_name(node.targets[0])
        if target is None or "kind" not in target.rsplit(".", 1)[-1].lower():
            return
        self.summary.kind_handles.extend(_string_constants(node.value))


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
    ) -> None:
        self.summaries = list(summaries)
        self.config = config
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

        Pragma-suppressed primitives still taint: a pragma accepts a
        *direct* call in context, not laundering the value into
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
                    for line, name in info.clock:
                        primitive = f"{name}() at {summary.rel_path}:{line}"
                        break
                if primitive is None and not random_ok:
                    for line, name in info.random:
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

        A blocking call under a justified FDL011 pragma is an accepted
        choke point: it does not propagate.
        """
        table: Dict[str, Tuple[str, str]] = {}
        pending: List[str] = []
        for summary in self.summaries:
            for qualname, info in summary.functions.items():
                if info.is_async:
                    continue
                for line, reason in info.blocking:
                    pragma = summary.pragma_for(
                        line, "async-blocking-reach", "FDL011"
                    )
                    if pragma is not None and pragma.justified:
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


__all__ = [
    "ALLOWED_TERMINALS",
    "BLOCKING_CALLS",
    "BLOCKING_METHODS",
    "CallSite",
    "ClassInfo",
    "FORBIDDEN_CALLS",
    "FunctionInfo",
    "MODULE_BODY",
    "ModuleSummary",
    "ProjectContext",
    "SummaryBuilder",
    "WRITE_METHODS",
    "load_summary",
    "module_name_for",
]
