"""Pass 3: the vectorized-state dataflow linter (DF3xx).

PRs 5 and 6 rewrote the monitor and kernel hot paths as struct-of-arrays
engines (:mod:`repro.monitor.region`, :mod:`repro.sim.pagetable`)
whose correctness rests on conventions that nothing previously checked:
generation-counter cache invalidation, write-through slice views, O(1)
shadow counters, and strict unit discipline.  This pass walks the same
Python ``ast`` as the determinism linter and flags violations of that
discipline:

========  ============================================================
DF301     a class whose ``__slots__`` declares a ``generation``
          counter rebinds a public column (``self.col = ...``) in a
          method that never bumps ``self.generation`` — downstream
          view caches keyed off the generation go stale silently
DF302     a public instance attribute is assigned an ndarray *slice*
          (``self.x = arr[a:b]`` or ``arr[some_sl]``) outside
          ``__init__`` / ``__post_init__`` — storing a view
          across method boundaries is the stale-façade hazard: the
          base array may be rebound while the stored view keeps
          writing to orphaned storage
DF303     an in-place operation whose target and operand subscript
          the *same* base array with *different* slices
          (``col[1:] += col[:-1]``, ``np.add(col[s1], x,
          out=col[s2])``) — NumPy evaluates element-wise in place, so
          overlapping slices read partially-updated input
DF310     arithmetic or comparison directly between two bare names
          whose suffixes declare *different* units
          (``*_bytes`` / ``*_us`` / ``*_pages`` / ``*_frames`` /
          ``nr_*``) with no conversion in between — unit confusion
          that type checkers cannot see
DF320     a function rebinds a module global (``global x`` plus an
          assignment) — per-process state that silently diverges
          across spawn-pool workers; error inside fingerprint-feeding
          modules (``sweep/``), warning elsewhere
DF330     a ``bare except:`` / ``except Exception:`` /
          ``except BaseException:`` handler swallows the exception —
          no re-raise, no logging call, and the bound exception (if
          any) never read — the failure mode that turns a crashed
          recovery path into silent data loss
========  ============================================================

Suppression is shared with the determinism pass: append
``# daos-lint: disable=DF301`` to the offending line.

The checks are deliberately conservative — they fire on the syntactic
shapes above, not on inferred types — so a clean tree stays achievable
without fighting the linter, at the cost of not catching unit confusion
laundered through intermediate locals.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..diagnostics import Diagnostic, Severity, make_diagnostic

__all__ = ["BIND_METHODS", "FINGERPRINT_PARTS", "dataflow_source"]

#: Methods allowed to store slice views on ``self`` (DF302).
BIND_METHODS: Tuple[str, ...] = ("__init__", "__post_init__")

#: A path containing one of these parts feeds sweep fingerprints: DT205
#: and DF320 escalate from warning to error there.
FINGERPRINT_PARTS: Tuple[str, ...] = ("sweep",)


#: Name-suffix → unit class for DF310.  ``nr_`` is a prefix class.
_UNIT_SUFFIXES = {
    "_bytes": "bytes",
    "_us": "microseconds",
    "_pages": "pages",
    "_frames": "pages",
}


def _unit_class(name: str) -> Optional[str]:
    """The unit class a naming convention assigns to ``name``."""
    for suffix, cls in _UNIT_SUFFIXES.items():
        if name.endswith(suffix):
            return cls
    if name.startswith("nr_"):
        return "count"
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a bare Name/Attribute chain, or None for
    anything with computation in it (calls, subscripts, literals)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        cursor = node.value
        while isinstance(cursor, ast.Attribute):
            cursor = cursor.value
        if isinstance(cursor, ast.Name):
            return node.attr
    return None


def _dotted_base(node: ast.AST) -> Optional[str]:
    """Canonical dotted text of a Name/Attribute chain (``self.col``,
    ``flat.present``), or None when the chain roots in an expression."""
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


def _looks_like_slice(index: ast.AST) -> bool:
    """Is this subscript index syntactically a slice — a literal ``a:b``
    or a name following the ``*_sl`` / ``*_slice`` convention?"""
    if isinstance(index, ast.Slice):
        return True
    name = _terminal_name(index)
    if name is None:
        return False
    return name in ("sl", "slice") or name.endswith(("_sl", "_slice"))


def _slots_mention_generation(class_node: ast.ClassDef) -> bool:
    """Does the class declare ``__slots__`` containing ``"generation"``?

    ``__slots__`` expressions need not be literals (RegionArray builds
    its tuple from a column-name constant), so this scans every string
    constant inside the assigned expression.
    """
    for stmt in class_node.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                for node in ast.walk(value):
                    if isinstance(node, ast.Constant) and node.value == "generation":
                        return True
    return False


class _DataflowVisitor(ast.NodeVisitor):
    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.diagnostics: List[Diagnostic] = []
        self.in_fingerprint_module = any(
            part in FINGERPRINT_PARTS for part in Path(filename).parts
        )
        # Stack of (class_node, has_generation_slot).
        self._class_stack: List[Tuple[ast.ClassDef, bool]] = []
        # Stack of enclosing function names (for DF302 bind exemption).
        self._func_stack: List[str] = []

    # -- helpers -------------------------------------------------------
    def emit(self, code: str, message: str, node: ast.AST,
             severity: Optional[Severity] = None) -> None:
        diag = make_diagnostic(
            code,
            message,
            file=self.filename,
            line=getattr(node, "lineno", None),
            column=(getattr(node, "col_offset", 0) or 0) + 1,
            source="dataflow",
        )
        if severity is not None and severity is not diag.severity:
            diag = Diagnostic(
                code=diag.code, severity=severity, message=diag.message,
                file=diag.file, line=diag.line, column=diag.column,
                source=diag.source,
            )
        self.diagnostics.append(diag)

    # -- class / function context --------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append((node, _slots_mention_generation(node)))
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        self._check_df320(node)
        if (
            self._class_stack
            and self._class_stack[-1][1]
            and node.name != "__init__"
            and self._func_stack == []  # methods only, not nested closures
        ):
            self._check_df301(node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- DF301: rebinding a column without bumping the generation -------
    @staticmethod
    def _self_attr_target(target: ast.AST) -> Optional[str]:
        """``name`` when ``target`` is a plain ``self.name`` attribute
        (a rebinding, not a ``self.name[...]`` element store)."""
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    def _check_df301(self, func: ast.FunctionDef) -> None:
        rebinds: List[Tuple[str, ast.AST]] = []
        touches_generation = False
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    elts = target.elts if isinstance(target, ast.Tuple) else [target]
                    for elt in elts:
                        name = self._self_attr_target(elt)
                        if name == "generation":
                            touches_generation = True
                        elif name is not None and not name.startswith("_"):
                            rebinds.append((name, node))
            elif isinstance(node, ast.AugAssign):
                if self._self_attr_target(node.target) == "generation":
                    touches_generation = True
        if rebinds and not touches_generation:
            names = sorted({name for name, _ in rebinds})
            self.emit(
                "DF301",
                f"method {func.name!r} rebinds column(s) {', '.join(names)} of a "
                f"generation-counted class but never bumps self.generation; "
                f"caches keyed off the generation will serve stale views",
                rebinds[0][1],
            )

    # -- DF302: storing a slice view on self ----------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        in_bind = any(name in BIND_METHODS for name in self._func_stack)
        if not in_bind:
            for target in node.targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                for elt in elts:
                    name = self._self_attr_target(elt)
                    if name is None or name.startswith("_"):
                        continue
                    if (
                        isinstance(node.value, ast.Subscript)
                        and _looks_like_slice(node.value.slice)
                    ):
                        base = _dotted_base(node.value.value) or "an array"
                        self.emit(
                            "DF302",
                            f"self.{name} stores a slice view of {base} across "
                            f"method boundaries; rebinding the base array "
                            f"orphans the stored view (stale-façade hazard) — "
                            f"copy it, or register the store as a bind method",
                            node,
                        )
        self.generic_visit(node)

    # -- DF303: in-place ops on aliasing slices of one base --------------
    @staticmethod
    def _sliced_subscript(node: ast.AST) -> Optional[Tuple[str, str]]:
        """``(base, slice_repr)`` when ``node`` subscripts a dotted base
        with something slice-shaped."""
        if isinstance(node, ast.Subscript) and _looks_like_slice(node.slice):
            base = _dotted_base(node.value)
            if base is not None:
                return base, ast.dump(node.slice)
        return None

    def _aliasing_operand(
        self, target: ast.AST, value: ast.AST
    ) -> Optional[str]:
        """The base name when ``value`` contains a slice of the same base
        as ``target``, sliced differently."""
        tgt = self._sliced_subscript(target)
        if tgt is None:
            return None
        base, tgt_slice = tgt
        for sub in ast.walk(value):
            src = self._sliced_subscript(sub)
            if src is not None and src[0] == base and src[1] != tgt_slice:
                return base
        return None

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        base = self._aliasing_operand(node.target, node.value)
        if base is not None:
            self.emit(
                "DF303",
                f"in-place op reads and writes overlapping slices of {base}; "
                f"NumPy updates element-wise, so the read sees "
                f"partially-written data — stage through a copy",
                node,
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        out = next((kw.value for kw in node.keywords if kw.arg == "out"), None)
        if out is not None:
            for arg in node.args:
                base = self._aliasing_operand(out, arg)
                if base is not None:
                    self.emit(
                        "DF303",
                        f"out= targets a slice of {base} that aliases a "
                        f"differently-sliced input of the same array; stage "
                        f"through a copy",
                        node,
                    )
                    break
        self.generic_visit(node)

    # -- DF310: unit confusion through naming conventions ----------------
    def _check_units(self, left: ast.AST, right: ast.AST,
                     node: ast.AST, what: str) -> None:
        lname = _terminal_name(left)
        rname = _terminal_name(right)
        if lname is None or rname is None:
            return
        lcls, rcls = _unit_class(lname), _unit_class(rname)
        if lcls is None or rcls is None or lcls == rcls:
            return
        self.emit(
            "DF310",
            f"{what} mixes {lname!r} ({lcls}) with {rname!r} ({rcls}) "
            f"without an explicit conversion; convert through units.py "
            f"(or PAGE_SIZE) first",
            node,
        )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_units(node.left, node.right, node, "arithmetic")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for left, right in zip(operands, operands[1:]):
            self._check_units(left, right, node, "comparison")
        self.generic_visit(node)

    # -- DF330: broad except that swallows the exception ------------------
    @staticmethod
    def _broad_catch(handler: ast.ExceptHandler) -> Optional[str]:
        """What makes this handler catch-everything, or None."""
        if handler.type is None:
            return "a bare except:"
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for node in types:
            name = _terminal_name(node)
            if name in ("Exception", "BaseException"):
                return f"except {name}:"
        return None

    @staticmethod
    def _is_logging_call(call: ast.Call) -> bool:
        """A ``*log*.debug/info/warning/error/exception/critical/log``
        call — the structured escape hatch DF330 accepts."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr not in (
            "debug", "info", "warning", "error", "exception", "critical", "log"
        ):
            return False
        base = _dotted_base(func.value)
        return base is not None and "log" in base.lower()

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        caught = self._broad_catch(node)
        if caught is not None:
            swallows = True
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Raise):
                        swallows = False  # re-raises (or wraps)
                    elif isinstance(sub, ast.Call) and self._is_logging_call(sub):
                        swallows = False  # records the failure
                    elif (
                        node.name is not None
                        and isinstance(sub, ast.Name)
                        and sub.id == node.name
                    ):
                        swallows = False  # the exception value is consumed
            if swallows:
                self.emit(
                    "DF330",
                    f"{caught} swallows the exception — no re-raise, no "
                    f"logging, and the caught value is never read; a crashed "
                    f"recovery path becomes silent data loss — narrow the "
                    f"type, re-raise, or log what was caught",
                    node,
                )
        self.generic_visit(node)

    # -- DF320: module-global mutation (spawn-pool hazard) ----------------
    def _check_df320(self, func: ast.AST) -> None:
        declared: Dict[str, ast.Global] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                for name in node.names:
                    declared.setdefault(name, node)
        if not declared:
            return
        assigned = set()
        for node in ast.walk(func):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                for elt in elts:
                    if isinstance(elt, ast.Name):
                        assigned.add(elt.id)
        mutated = sorted(set(declared) & assigned)
        if not mutated:
            return
        severity = (
            Severity.ERROR if self.in_fingerprint_module else Severity.WARNING
        )
        where = (
            "this module feeds sweep fingerprints — per-process globals "
            "diverge across spawn-pool workers and break cache-key identity"
            if self.in_fingerprint_module
            else "per-process globals silently diverge across spawn-pool workers"
        )
        self.emit(
            "DF320",
            f"function mutates module global(s) {', '.join(mutated)} ({where}); "
            f"pass state explicitly or key it off the call's inputs",
            declared[mutated[0]],
            severity=severity,
        )


def dataflow_source(source: str, filename: str) -> List[Diagnostic]:
    """Run the DF3xx pass over one module's source text.

    Suppression comments are *not* applied here — the combined
    entry point (:func:`repro.lint.astlint.lint_source`) applies them
    once over both passes' findings.  A file that does not parse
    returns no DF findings (the determinism pass reports DT200).
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError:
        return []
    visitor = _DataflowVisitor(filename)
    visitor.visit(tree)
    return visitor.diagnostics
