"""Pass 2: the determinism AST linter.

PR 1 made byte-identical determinism a load-bearing invariant: a pooled
sweep must equal a serial one, and the result cache is content-addressed
on the canonical point spec.  Anything that injects ambient state —
wall clocks, global RNGs, environment variables, unordered set
iteration — silently breaks both.  This pass walks the Python ``ast``
of the source tree and reports:

========  ============================================================
DT201     wall-clock calls (``time.time``, ``datetime.now``, …);
          the monotonic ``time.perf_counter`` stays allowed because
          runtimes are reported as explicitly volatile measurements
DT202     any call through the stdlib global ``random`` module
DT203     seedless ``np.random.default_rng()`` and the legacy global
          NumPy RNG (``np.random.seed`` / ``rand`` / …), plus
          ``os.urandom`` / ``uuid.uuid4`` / ``secrets.*``
DT204     ``os.environ`` / ``os.getenv`` outside the CLI boundary
          (:data:`ENV_ALLOWED_FILES`)
DT205     iterating a syntactic ``set`` expression (set literal,
          set comprehension, ``set(...)`` / ``frozenset(...)`` call);
          error inside fingerprint-feeding modules (``sweep/``),
          warning elsewhere
DT206     mutable default arguments
DT207     ``None`` default on a parameter annotated with a
          non-Optional type
DL401     an import inside the ``repro`` package that points up (or
          sideways across) the layer table :data:`LAYERS`, at module
          top or inside a function; a package ``__init__`` counts at
          the layer of its lowest member, because importing any member
          runs it
========  ============================================================

Suppression: append ``# daos-lint: disable=DT204`` (comma-separated
codes, or a bare ``disable`` for all) to the offending line.  It is the
only exception mechanism; the meta tests hold ``src/repro`` at zero
findings.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..diagnostics import Diagnostic, Severity, make_diagnostic
from ..errors import ConfigError
from .dataflow import FINGERPRINT_PARTS, dataflow_source

__all__ = ["ENV_ALLOWED_FILES", "lint_source", "lint_file", "lint_paths"]

#: Basenames allowed to read the environment (DT204): the CLI boundary.
ENV_ALLOWED_FILES: Tuple[str, ...] = ("cli.py", "conftest.py")


#: Resolved dotted call targets that read a wall clock.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: Legacy global NumPy RNG entry points (module-level state).
_NUMPY_GLOBAL_RNG = {
    "numpy.random." + name
    for name in (
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "bytes",
    )
}

#: Other ambient entropy sources, reported as DT203.
_AMBIENT_RNG_CALLS = {"os.urandom", "uuid.uuid4"}

_MUTABLE_DEFAULT_CALLS = {"list", "dict", "set", "frozenset"}

#: The package's layers, lowest first (DESIGN.md §3).  Each row holds
#: peer entries; an entry is a module or a package with everything under
#: it.  A module of the ``repro`` package may import its own entry or an
#: entry of a lower row, nothing else (DL401), so the packages form a
#: DAG by construction.  ``repro/__init__`` exports lazily (PEP 562, no
#: import statement), the one sanctioned way to reach up.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("repro.errors",),
    ("repro.units", "repro.clock", "repro.version", "repro.diagnostics"),
    ("repro.trace",),
    ("repro.faults", "repro.tuning"),
    ("repro.sim",),
    ("repro.sanitize",),
    ("repro.monitor",),
    ("repro.schemes",),
    ("repro.modules", "repro.workloads"),
    ("repro.recovery",),
    ("repro.runner",),
    ("repro.analysis", "repro.perf"),
    ("repro.sweep",),
    ("repro.fleet",),
    ("repro.lint",),
    ("repro.cli",),
)

_SUPPRESS_RE = re.compile(
    r"#\s*daos-lint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+))?", re.IGNORECASE
)


def _suppressed_codes(line_text: str) -> Optional[frozenset]:
    """Codes suppressed on this source line; empty frozenset means all,
    None means no suppression comment."""
    match = _SUPPRESS_RE.search(line_text)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return frozenset()
    return frozenset(code.strip().upper() for code in codes.split(",") if code.strip())


class _ImportTable:
    """Maps local names to the dotted paths they were imported as."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            # `import numpy.random` binds `numpy`; `import numpy as np`
            # binds `np` -> numpy.
            target = alias.name if alias.asname else alias.name.partition(".")[0]
            self.aliases[local] = target

    def add_import_from(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return  # relative imports never reach the banned stdlib names
        for alias in node.names:
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path of a Name/Attribute chain through the aliases,
        or None when the root is not an imported name."""
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        root = self.aliases.get(cursor.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


def _layer_of(name: str) -> Optional[Tuple[int, str]]:
    """``(row, entry)`` of the :data:`LAYERS` entry a dotted module name
    falls under; a package that only contains entries (the root) takes
    its lowest one.  None when the table does not cover ``name``."""
    under = []
    for row, entries in enumerate(LAYERS):
        for entry in entries:
            if name == entry or name.startswith(entry + "."):
                return row, entry
            if entry.startswith(name + "."):
                under.append((row, entry))
    return min(under) if under else None


def _layer_name(row: int) -> str:
    return ", ".join(entry.rpartition(".")[2] for entry in LAYERS[row])


def _module_of(filename: str) -> Optional[Tuple[str, bool]]:
    """``(dotted name, is_package)`` of a file under a ``repro``
    directory, or None for files outside the package."""
    parts = Path(filename).parts
    if "repro" not in parts or not parts[-1].endswith(".py"):
        return None
    names = list(parts[len(parts) - 1 - parts[::-1].index("repro"):-1])
    stem = parts[-1][: -len(".py")]
    if stem != "__init__":
        names.append(stem)
    return ".".join(names), stem == "__init__"


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _annotation_requires_value(annotation: Optional[ast.AST]) -> bool:
    """True when the annotation names a concrete (non-Optional) type, so
    a ``None`` default contradicts it (DT207).

    Deliberately conservative: anything that *could* admit None —
    ``Optional[...]``, ``Union[...]``, ``X | None``, ``Any``,
    ``object``, string annotations — passes.
    """
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant):
        return False  # string annotations: don't try to parse them
    if isinstance(annotation, ast.BinOp):
        return False  # X | Y unions may include None
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        name = head.attr if isinstance(head, ast.Attribute) else (
            head.id if isinstance(head, ast.Name) else None
        )
        return name not in ("Optional", "Union", "Any")
    if isinstance(annotation, ast.Name):
        return annotation.id not in ("Any", "object", "None")
    if isinstance(annotation, ast.Attribute):
        return annotation.attr not in ("Any",)
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.imports = _ImportTable()
        self.diagnostics: List[Diagnostic] = []
        path = Path(filename)
        self.env_allowed = path.name in ENV_ALLOWED_FILES
        self.in_fingerprint_module = any(part in FINGERPRINT_PARTS for part in path.parts)
        self.module = _module_of(filename)

    # -- helpers -------------------------------------------------------
    def emit(self, code: str, message: str, node: ast.AST,
             severity: Optional[Severity] = None) -> None:
        diag = make_diagnostic(
            code,
            message,
            file=self.filename,
            line=getattr(node, "lineno", None),
            column=(getattr(node, "col_offset", None) or 0) + 1
            if getattr(node, "lineno", None) is not None
            else None,
            source="ast",
        )
        if severity is not None and severity is not diag.severity:
            diag = Diagnostic(
                code=diag.code,
                severity=severity,
                message=diag.message,
                file=diag.file,
                line=diag.line,
                column=diag.column,
                source=diag.source,
            )
        self.diagnostics.append(diag)

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        self.imports.add_import(node)
        for alias in node.names:
            self._check_layer(alias.name, None, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.add_import_from(node)
        if self.module is not None:
            source = node.module or ""
            if node.level:
                name, is_package = self.module
                base = name.split(".")[: len(name.split(".")) - (0 if is_package else 1)]
                base = base[: len(base) - node.level + 1]
                source = ".".join(base + ([node.module] if node.module else []))
            # One finding per statement: the first name that reaches up.
            any(self._check_layer(f"{source}.{alias.name}", source, node) for alias in node.names)
        self.generic_visit(node)

    def _check_layer(self, target: str, parent: Optional[str], node: ast.AST) -> bool:
        """DL401 for one imported name, ``target`` (a module, or an
        attribute of ``parent``); returns whether it was reported."""
        if self.module is None or not (target == "repro" or target.startswith("repro.")):
            return False
        name = self.module[0]
        here = _layer_of(name)
        there = _layer_of(target) or (_layer_of(parent) if parent else None)
        if here is None or there is None:
            missing = name if here is None else target
            self.emit("DL401", f"{missing} is not in the layer table (astlint.LAYERS)", node)
            return True
        if there[1] == here[1] or there[0] < here[0]:
            return False
        shown = parent if parent and _layer_of(parent) == there else target
        if there[0] == here[0]:
            where = f"sideways to its peer {there[1].rpartition('.')[2]}"
        else:
            where = f"up to layer {_layer_name(there[0])}"
        self.emit(
            "DL401",
            f"{name} (layer {_layer_name(here[0])}) imports {shown} {where}; "
            f"imports must point down astlint.LAYERS",
            node,
        )
        return True

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.imports.resolve(node.func)
        if resolved is not None:
            self._check_call(resolved, node)
        self.generic_visit(node)

    def _check_call(self, resolved: str, node: ast.Call) -> None:
        if resolved in _WALL_CLOCK_CALLS:
            self.emit(
                "DT201",
                f"call to wall-clock source {resolved}(); derive virtual time "
                f"from the simulation clock, or use time.perf_counter for "
                f"explicitly volatile measurements",
                node,
            )
            return
        if resolved == "random" or resolved.startswith("random."):
            self.emit(
                "DT202",
                f"call through the global random module ({resolved}); use an "
                f"explicitly seeded np.random.Generator instead",
                node,
            )
            return
        if resolved == "numpy.random.default_rng":
            if not node.args and not any(
                kw.arg in (None, "seed") for kw in node.keywords
            ):
                self.emit(
                    "DT203",
                    "np.random.default_rng() without a seed draws entropy "
                    "from the OS; pass an explicit seed",
                    node,
                )
            return
        if resolved in _NUMPY_GLOBAL_RNG:
            self.emit(
                "DT203",
                f"{resolved}() uses NumPy's global RNG state; construct a "
                f"seeded np.random.default_rng(seed) instead",
                node,
            )
            return
        if resolved in _AMBIENT_RNG_CALLS or resolved.startswith("secrets."):
            self.emit(
                "DT203",
                f"{resolved}() is an ambient entropy source; all randomness "
                f"must come from an explicit seed",
                node,
            )
            return
        if resolved == "os.getenv":
            self._emit_env(node, "os.getenv")

    # -- environment reads ---------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        resolved = self.imports.resolve(node)
        if resolved == "os.environ":
            self._emit_env(node, "os.environ")
        self.generic_visit(node)

    def _emit_env(self, node: ast.AST, what: str) -> None:
        if self.env_allowed:
            return
        self.emit(
            "DT204",
            f"{what} read outside the CLI boundary; environment-dependent "
            f"behaviour belongs in cli.py (or conftest.py for tests) so "
            f"library results stay a pure function of their parameters",
            node,
        )

    # -- unordered iteration -------------------------------------------
    def _check_iteration(self, iter_node: ast.AST) -> None:
        if not _is_set_expression(iter_node):
            return
        severity = Severity.ERROR if self.in_fingerprint_module else Severity.WARNING
        where = (
            "this module feeds sweep fingerprints — iteration order changes "
            "cache keys and sweep byte-identity"
            if self.in_fingerprint_module
            else "set iteration order is not deterministic across processes"
        )
        self.emit(
            "DT205",
            f"iteration over a bare set; wrap it in sorted(...) ({where})",
            iter_node,
            severity=severity,
        )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- function signatures -------------------------------------------
    def _check_function(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        defaults: List[Tuple[ast.arg, Optional[ast.AST]]] = []
        pos_defaults = list(args.defaults)
        for arg, default in zip(
            positional[len(positional) - len(pos_defaults):], pos_defaults
        ):
            defaults.append((arg, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaults.append((arg, default))
        for arg, default in defaults:
            if default is None:
                continue
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_DEFAULT_CALLS
                and not default.args
                and not default.keywords
            ):
                self.emit(
                    "DT206",
                    f"mutable default for parameter {arg.arg!r} is shared "
                    f"across calls; default to None and construct inside the "
                    f"function",
                    default,
                )
            elif (
                isinstance(default, ast.Constant)
                and default.value is None
                and _annotation_requires_value(arg.annotation)
            ):
                annotation = ast.unparse(arg.annotation)
                self.emit(
                    "DT207",
                    f"parameter {arg.arg!r} is annotated {annotation} but "
                    f"defaults to None; annotate it Optional[{annotation}]",
                    default,
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _apply_suppressions(
    diagnostics: List[Diagnostic], source_lines: Sequence[str]
) -> List[Diagnostic]:
    kept = []
    for diag in diagnostics:
        if diag.line is not None and 1 <= diag.line <= len(source_lines):
            codes = _suppressed_codes(source_lines[diag.line - 1])
            if codes is not None and (not codes or diag.code in codes):
                continue
        kept.append(diag)
    return kept


def lint_source(source: str, filename: str) -> List[Diagnostic]:
    """Lint one module's source text — both the determinism (DT2xx) and
    the dataflow (DF3xx) pass; suppression comments applied to the
    combined findings."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        # A file that does not parse cannot be vouched for; report it
        # instead of crashing the lint run.
        return [
            make_diagnostic(
                "DT200",
                f"file does not parse: {exc.msg}",
                file=filename,
                line=exc.lineno,
                source="ast",
            )
        ]
    visitor = _Visitor(filename)
    visitor.visit(tree)
    diagnostics = list(visitor.diagnostics)
    # Pass 3 shares the tree walk conceptually but keeps its own visitor
    # (module: repro.lint.dataflow); findings merge into one report.
    diagnostics.extend(dataflow_source(source, filename))
    return _apply_suppressions(diagnostics, source.splitlines())


def lint_file(
    path: Union[str, Path], *, display_path: Optional[str] = None
) -> List[Diagnostic]:
    """Lint one Python file, reporting it as ``display_path`` (default:
    ``path``); a file that is not UTF-8 is a DT200 finding."""
    path = Path(path)
    filename = display_path if display_path is not None else str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return [
            make_diagnostic(
                "DT200", f"file does not parse: not UTF-8 ({exc.reason})",
                file=filename, source="ast",
            )
        ]
    return lint_source(source, filename)


def lint_paths(
    paths: Iterable[Union[str, Path]], *, relative_to: Optional[Path] = None
) -> List[Diagnostic]:
    """Lint files and directory trees (``**/*.py``), in sorted order.

    ``relative_to`` shortens diagnostic paths to be location-independent.
    A path that does not exist raises :class:`~repro.errors.ConfigError`
    before any file is linted.
    """
    files: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.exists():
            files.append(entry)
        else:
            raise ConfigError(f"cannot lint {entry}: no such file or directory")
    out: List[Diagnostic] = []
    for file_path in files:
        display = str(file_path)
        if relative_to is not None:
            try:
                display = file_path.resolve().relative_to(
                    relative_to.resolve()
                ).as_posix()
            except ValueError:
                display = str(file_path)
        out.extend(lint_file(file_path, display_path=display))
    return out
