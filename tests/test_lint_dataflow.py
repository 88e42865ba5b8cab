"""The vectorized-state dataflow linter (lint pass 3, DF3xx).

Each DF code gets positive and negative cases on synthetic modules; the
golden bad-code corpus under ``tests/fixtures/bad_dataflow/`` pins one
canonical faulty shape per code (stored as ``.txt`` so the lint gate
over ``tests/`` does not flag its own corpus); the meta-test at the
bottom pins ``src/repro`` to zero DF findings.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint import Severity, lint_paths, lint_source, render_text
from repro.lint.dataflow import dataflow_source

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "bad_dataflow"

#: code → (corpus file, expected severity outside fingerprint modules).
CORPUS = {
    "DF301": ("df301.txt", Severity.ERROR),
    "DF302": ("df302.txt", Severity.ERROR),
    "DF303": ("df303.txt", Severity.ERROR),
    "DF310": ("df310.txt", Severity.ERROR),
    "DF320": ("df320.txt", Severity.WARNING),
    "DF330": ("df330.txt", Severity.ERROR),
}


def lint(code, filename="mod.py"):
    return lint_source(textwrap.dedent(code), filename)


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


class TestDF301GenerationBump:
    BAD = """\
        class Columns:
            __slots__ = ("start", "generation")

            def __init__(self):
                self.start = ()
                self.generation = 0

            def rebuild(self, starts):
                self.start = starts
        """

    def test_rebind_without_bump_flagged(self):
        diags = lint(self.BAD)
        assert codes_of(diags) == ["DF301"]
        assert "rebuild" in diags[0].message and "generation" in diags[0].message

    def test_bump_clears_the_finding(self):
        good = self.BAD.replace(
            "self.start = starts",
            "self.start = starts\n                self.generation += 1",
        )
        assert good != self.BAD
        assert lint(good) == []

    def test_class_without_generation_slot_exempt(self):
        assert lint(self.BAD.replace('"generation"', '"end"')) == []

    def test_private_attribute_exempt(self):
        private = self.BAD.replace(
            "self.start = starts", "self._scratch = starts"
        )
        assert lint(private) == []

    def test_init_exempt(self):
        # __init__ necessarily binds every column with no prior readers.
        assert "DF301" not in codes_of(
            lint(self.BAD[: self.BAD.index("def rebuild")])
        )


class TestDF302StoredSliceViews:
    def test_stored_slice_flagged(self):
        diags = lint(
            """\
            class W:
                def focus(self, arr, lo, hi):
                    self.hot = arr[lo:hi]
            """
        )
        assert codes_of(diags) == ["DF302"]

    def test_slice_named_by_convention_flagged(self):
        diags = lint(
            """\
            class W:
                def focus(self, arr, row_sl):
                    self.hot = arr[row_sl]
            """
        )
        assert codes_of(diags) == ["DF302"]

    def test_copy_allowed(self):
        assert (
            lint(
                """\
                class W:
                    def focus(self, arr, lo, hi):
                        self.hot = arr[lo:hi].copy()
                """
            )
            == []
        )

    def test_bind_method_flagged(self):
        # No method is sanctioned to rebind columns to views any more.
        diags = lint(
            """\
            class W:
                def _bind(self, arr, lo, hi):
                    self.hot = arr[lo:hi]
            """
        )
        assert codes_of(diags) == ["DF302"]

    def test_scalar_index_allowed(self):
        assert (
            lint(
                """\
                class W:
                    def focus(self, arr, i):
                        self.hot = arr[i]
                """
            )
            == []
        )


class TestDF303AliasingInPlaceOps:
    def test_aug_assign_on_overlapping_slices_flagged(self):
        diags = lint("def f(col):\n    col[1:] += col[:-1]\n")
        assert codes_of(diags) == ["DF303"]

    def test_out_kwarg_aliasing_flagged(self):
        diags = lint(
            """\
            import numpy as np

            def f(col, a_sl, b_sl):
                np.add(col[a_sl], 1, out=col[b_sl])
            """
        )
        assert codes_of(diags) == ["DF303"]

    def test_distinct_bases_allowed(self):
        assert lint("def f(a, b):\n    a[1:] += b[:-1]\n") == []

    def test_identical_slices_allowed(self):
        # Same slice on both sides is elementwise-safe (x[sl] += x[sl]
        # reads and writes the same positions).
        assert lint("def f(col, sl):\n    col[sl] += col[sl]\n") == []


class TestDF310UnitConfusion:
    def test_mixed_unit_arithmetic_flagged(self):
        diags = lint("def f(start_us, span_bytes):\n    return start_us + span_bytes\n")
        assert codes_of(diags) == ["DF310"]
        assert "microseconds" in diags[0].message and "bytes" in diags[0].message

    def test_mixed_unit_comparison_flagged(self):
        diags = lint("def f(size_bytes, deadline_us):\n    return size_bytes < deadline_us\n")
        assert codes_of(diags) == ["DF310"]

    def test_same_unit_allowed(self):
        assert lint("def f(a_bytes, b_bytes):\n    return a_bytes + b_bytes\n") == []

    def test_pages_and_frames_share_a_class(self):
        assert lint("def f(n_pages, n_frames):\n    return n_pages - n_frames\n") == []

    def test_conversion_call_launders(self):
        # A call in between means someone converted; the pass is
        # deliberately syntactic and stands down.
        assert (
            lint("def f(start_us, span_bytes):\n    return start_us + to_us(span_bytes)\n")
            == []
        )


class TestDF320GlobalMutation:
    BAD = "_MEMO = None\n\ndef set_memo(v):\n    global _MEMO\n    _MEMO = v\n"

    def test_warning_in_ordinary_module(self):
        diags = lint(self.BAD, filename="analysis.py")
        assert [(d.code, d.severity) for d in diags] == [("DF320", Severity.WARNING)]

    def test_error_in_fingerprint_module(self):
        diags = lint(self.BAD, filename="sweep/cache.py")
        assert [(d.code, d.severity) for d in diags] == [("DF320", Severity.ERROR)]

    def test_global_read_without_assignment_allowed(self):
        assert lint("_MEMO = 1\n\ndef get():\n    global _MEMO\n    return _MEMO\n") == []


class TestDF330SwallowedExceptions:
    BAD = """\
        def f(path):
            try:
                return open(path).read()
            except Exception:
                return None
        """

    def test_swallowing_broad_except_flagged(self):
        diags = lint(self.BAD)
        assert codes_of(diags) == ["DF330"]
        assert diags[0].severity is Severity.ERROR

    def test_bare_except_flagged(self):
        diags = lint(self.BAD.replace("except Exception:", "except:"))
        assert codes_of(diags) == ["DF330"]
        assert "bare except" in diags[0].message

    def test_base_exception_flagged(self):
        diags = lint(
            self.BAD.replace("except Exception:", "except BaseException:")
        )
        assert codes_of(diags) == ["DF330"]

    def test_broad_member_of_tuple_flagged(self):
        diags = lint(
            self.BAD.replace("except Exception:", "except (OSError, Exception):")
        )
        assert codes_of(diags) == ["DF330"]

    def test_reraise_allowed(self):
        # The atomic-write idiom: clean up, then propagate.
        good = """\
            def f(path, tmp):
                try:
                    return open(path).read()
                except BaseException:
                    cleanup(tmp)
                    raise
            """
        assert lint(good) == []

    def test_wrapping_raise_allowed(self):
        good = """\
            def f(text):
                try:
                    return parse(text)
                except Exception as exc:
                    raise ValueError(f"bad input: {exc}") from exc
            """
        assert lint(good) == []

    def test_logging_call_allowed(self):
        good = """\
            def f(handler, event):
                try:
                    handler(event)
                except Exception:
                    _log.warning("handler failed; unsubscribing")
            """
        assert lint(good) == []

    def test_consumed_exception_allowed(self):
        # Recording the exception value is structured handling.
        good = """\
            def f(handler, event, broken):
                try:
                    handler(event)
                except Exception as exc:
                    broken.append((handler, exc))
            """
        assert lint(good) == []

    def test_bound_but_unread_still_flagged(self):
        diags = lint(
            self.BAD.replace("except Exception:", "except Exception as exc:")
        )
        assert codes_of(diags) == ["DF330"]

    def test_narrow_types_exempt(self):
        assert (
            lint(
                """\
                def f(conn, payload):
                    try:
                        conn.send(payload)
                    except (BrokenPipeError, EOFError):
                        pass
                """
            )
            == []
        )


class TestSuppressionAndExemption:
    def test_same_line_disable(self):
        assert lint("def f(col):\n    col[1:] += col[:-1]  # daos-lint: disable=DF303\n") == []

    def test_wrong_code_does_not_suppress(self):
        diags = lint("def f(col):\n    col[1:] += col[:-1]  # daos-lint: disable=DF301\n")
        assert codes_of(diags) == ["DF303"]

    def test_unparsable_source_returns_no_df_findings(self):
        assert dataflow_source("def broken(:\n", "mod.py") == []


class TestGoldenCorpus:
    @pytest.mark.parametrize("code", sorted(CORPUS))
    def test_fixture_caught_with_expected_severity(self, code):
        """Every corpus file trips exactly its own DF code."""
        filename, severity = CORPUS[code]
        source = (FIXTURES / filename).read_text(encoding="utf-8")
        diags = lint_source(source, f"fixture_{code.lower()}.py")
        assert codes_of(diags) == [code], render_text(diags)
        assert diags[0].severity is severity

    def test_corpus_covers_every_df_code(self):
        """A DF code added to the registry must gain a corpus file."""
        from repro.diagnostics import CODES

        registered = {c for c in CODES if c.startswith("DF")}
        assert registered == set(CORPUS)

    def test_corpus_stays_out_of_the_lint_walk(self):
        # The fixtures must never gain a .py suffix: the CI lint gate
        # rglobs tests/**/*.py and would flag its own corpus.
        # (The directory also holds the probe-generation policy's corpus.)
        assert {p.suffix for p in FIXTURES.iterdir()} == {".txt"}


class TestMetaSourceTreeClean:
    def test_repro_package_has_no_df_findings(self):
        """The shipped tree satisfies its own dataflow linter — the
        acceptance bar for turning DF3xx on as an error class."""
        pkg = Path(repro.__file__).resolve().parent
        diags = [
            d
            for d in lint_paths([pkg], relative_to=pkg.parent)
            if d.code.startswith("DF")
        ]
        assert diags == [], render_text(diags)
