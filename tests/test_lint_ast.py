"""The determinism AST linter (lint pass 2).

Each DT code gets positive and negative cases on synthetic modules; the
meta-test at the bottom pins the actual ``src/repro`` tree to zero
findings, so any new nondeterminism sneaks in only past a failing test.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import repro
from repro.lint import Severity, lint_paths, lint_source, render_json, render_text


def lint(code, filename="mod.py"):
    return lint_source(textwrap.dedent(code), filename)


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


class TestWallClock:
    def test_time_time_flagged(self):
        diags = lint("import time\nstamp = time.time()\n")
        assert codes_of(diags) == ["DT201"]
        assert diags[0].line == 2

    def test_from_import_alias_resolved(self):
        assert codes_of(lint("from time import time as now\nx = now()\n")) == ["DT201"]

    def test_datetime_now_flagged(self):
        assert codes_of(lint("import datetime\nd = datetime.datetime.now()\n")) == [
            "DT201"
        ]

    def test_perf_counter_allowed(self):
        # Monotonic timers are fine: they feed only volatile wall-clock
        # fields, never fingerprinted results.
        assert lint("import time\nt0 = time.perf_counter()\n") == []


class TestGlobalRandom:
    def test_random_module_flagged(self):
        assert codes_of(lint("import random\nx = random.random()\n")) == ["DT202"]

    def test_numpy_global_seed_flagged(self):
        assert codes_of(lint("import numpy as np\nnp.random.seed(0)\n")) == ["DT203"]

    def test_seedless_default_rng_flagged(self):
        assert codes_of(
            lint("import numpy as np\nrng = np.random.default_rng()\n")
        ) == ["DT203"]

    def test_seeded_default_rng_allowed(self):
        assert lint("import numpy as np\nrng = np.random.default_rng(7)\n") == []
        assert lint("import numpy as np\nrng = np.random.default_rng(seed=7)\n") == []

    def test_from_import_default_rng(self):
        assert codes_of(
            lint("from numpy.random import default_rng\nrng = default_rng()\n")
        ) == ["DT203"]

    def test_os_urandom_flagged(self):
        assert codes_of(lint("import os\nblob = os.urandom(16)\n")) == ["DT203"]


class TestEnvReads:
    def test_environ_read_in_library_flagged(self):
        diags = lint("import os\ntag = os.environ.get('X')\n", filename="runner.py")
        assert codes_of(diags) == ["DT204"]

    def test_getenv_flagged(self):
        assert codes_of(lint("import os\ntag = os.getenv('X')\n")) == ["DT204"]

    def test_allowed_at_cli_boundary(self):
        src = "import os\ntag = os.environ.get('X')\n"
        assert lint(src, filename="cli.py") == []
        assert lint(src, filename="pkg/conftest.py") == []


class TestSetIteration:
    def test_warning_in_ordinary_module(self):
        diags = lint("for x in {1, 2, 3}:\n    print(x)\n", filename="analysis.py")
        assert [(d.code, d.severity) for d in diags] == [("DT205", Severity.WARNING)]

    def test_error_in_fingerprint_module(self):
        diags = lint(
            "for x in {1, 2, 3}:\n    print(x)\n", filename="sweep/cache.py"
        )
        assert [(d.code, d.severity) for d in diags] == [("DT205", Severity.ERROR)]

    def test_sorted_set_allowed(self):
        assert lint("for x in sorted({1, 2, 3}):\n    pass\n") == []

    def test_set_comprehension_source_flagged(self):
        assert codes_of(lint("ys = [x for x in {1, 2}]\n")) == ["DT205"]


class TestFunctionDefaults:
    def test_mutable_default_flagged(self):
        assert codes_of(lint("def f(xs=[]):\n    return xs\n")) == ["DT206"]
        assert codes_of(lint("def f(m=dict()):\n    return m\n")) == ["DT206"]

    def test_none_default_non_optional_annotation(self):
        diags = lint("def f(n: int = None):\n    return n\n")
        assert [(d.code, d.severity) for d in diags] == [("DT207", Severity.WARNING)]

    def test_optional_annotations_allowed(self):
        assert (
            lint(
                """\
                from typing import Optional

                def f(n: Optional[int] = None, m: "int | None" = None):
                    return n, m
                """
            )
            == []
        )


class TestSuppressionAndParse:
    def test_same_line_disable(self):
        src = "import time\nstamp = time.time()  # daos-lint: disable=DT201\n"
        assert lint(src) == []

    def test_bare_disable_suppresses_all(self):
        src = "import time\nstamp = time.time()  # daos-lint: disable\n"
        assert lint(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = "import time\nstamp = time.time()  # daos-lint: disable=DT204\n"
        assert codes_of(lint(src)) == ["DT201"]

    def test_syntax_error_is_dt200(self):
        diags = lint("def broken(:\n")
        assert codes_of(diags) == ["DT200"]
        assert diags[0].severity is Severity.ERROR


class TestReporters:
    def test_json_roundtrip(self):
        diags = lint("import time\nstamp = time.time()\n", filename="a/b.py")
        document = json.loads(render_json(diags))
        assert document["format"] == "daos-lint-v1"
        assert document["summary"] == {"error": 1, "warning": 0, "info": 0}
        assert document["diagnostics"] == [d.to_dict() for d in diags]

    def test_text_render_mentions_code_and_location(self):
        diags = lint("import time\nstamp = time.time()\n", filename="a/b.py")
        text = render_text(diags)
        assert "a/b.py:2" in text and "DT201" in text and "error" in text


class TestMetaSourceTreeClean:
    def test_repro_package_has_no_findings(self):
        """The shipped tree must satisfy its own determinism linter —
        including warnings, so inline suppressions stay the only exception."""
        pkg = Path(repro.__file__).resolve().parent
        diags = lint_paths([pkg], relative_to=pkg.parent)
        assert diags == [], render_text(diags)
