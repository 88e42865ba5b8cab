"""Host-time spans around the calls into each layer.

The benchmark owns the instrumentation: nothing under ``src/`` knows it
is being timed.  A :class:`SpanRecorder` wraps a layer's public callable
on its *class* (so bound methods handed to the event queue at ``start()``
are already wrapped, and checkpoint pickling, which stores bound methods
by name, is unaffected).  A span is ``(name, start_ns, end_ns, parent)``;
spans stay in memory until the run ends.

**Self time** of a span is its duration minus the durations of its
direct children: the time spent in that layer and in nothing the
benchmark wraps below it.  The wrapper's own cost lands in the parent's
self time, which is why the traced repetition is never used for an
end-to-end number; ``bench.trace_overhead`` reports what it cost.
"""

from array import array
from contextlib import contextmanager
from time import perf_counter_ns


class SpanRecorder:
    """In-memory span log for one single-threaded child process."""

    def __init__(self):
        self.names = []  # span-name table; spans store an index into it
        self._name_ids = {}
        self.name_id = array("H")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self._stack = []

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end_ns.append(0)
        self._stack.append(index)
        self.start_ns.append(perf_counter_ns())
        return index

    def _close(self, index):
        self.end_ns[index] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a call the benchmark makes itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn):
        """``fn`` with a span around every call."""
        opener, closer = self._open, self._close

        def traced(*args, **kwargs):
            index = opener(name)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(index)

        return traced

    def patch(self, owner, attr, name):
        """Wrap ``owner.attr`` in place (``owner`` is a class or module)."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def totals(self):
        """``{name: (self_seconds, calls)}`` over every closed span."""
        n = len(self.name_id)
        self_ns = [self.end_ns[i] - self.start_ns[i] for i in range(n)]
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                self_ns[parent] -= self.end_ns[i] - self.start_ns[i]
        sums = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            sums[nid] += self_ns[i]
            calls[nid] += 1
        return {
            name: (sums[nid] / 1e9, calls[nid]) for nid, name in enumerate(self.names)
        }

    def covered_ns(self, since_ns):
        """Nanoseconds covered by root spans opened at or after ``since_ns``
        (equal to the summed self time of every span beneath them)."""
        return sum(
            self.end_ns[i] - self.start_ns[i]
            for i in range(len(self.parent))
            if self.parent[i] < 0 and self.start_ns[i] >= since_ns
        )

    def write_tsv(self, path):
        """One line per span: ``name  start_ns  end_ns  parent_line`` (parent
        is the 0-based index of the enclosing span's line, -1 at the root)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.name_id)):
                out.write(
                    f"{self.names[self.name_id[i]]}\t{self.start_ns[i]}\t"
                    f"{self.end_ns[i]}\t{self.parent[i]}\n"
                )


class NullRecorder:
    """The recorder of an untraced repetition: wraps nothing.

    ``span`` is only ever entered around the handful of calls the
    benchmark makes itself (never inside a loop of the program), so the
    untraced path pays a few no-op context managers per run.
    """

    @contextmanager
    def span(self, name):
        yield

    def patch(self, owner, attr, name):
        pass
