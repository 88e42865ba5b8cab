"""One repetition of one workload, in a process of its own.

``run.py`` starts this file afresh for every repetition, because that is
what a ``daos`` user pays: interpreter start, ``import repro``, building
the run, then the run.  Repeating a run inside one process measures the
allocator handing back warm pages instead (the same kernel run took
4.5 s, 3.4 s, then 2.3 s that way).

The single argument is a JSON object (see ``run.py: launch``); the last
line printed is a JSON object with the repetition's readings.
"""

from time import perf_counter_ns

# The child's first line: ``setup_s`` runs from here to ``rep.begin()``.
T0_NS = perf_counter_ns()

import json
import resource
import sys
from pathlib import Path


def main(argv) -> int:
    args = json.loads(argv[1])
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parents[1] / "src")]

    from spans import NullRecorder, SpanRecorder
    from workloads import WORKLOADS, Repetition, install_layer_spans

    rec = SpanRecorder() if args["traced"] else NullRecorder()
    with rec.span("runner.import"):
        import repro.cli  # noqa: F401  (what the `daos` entry point imports)
    install_layer_spans(rec)

    rep = Repetition(args, rec, T0_NS)
    outcome = WORKLOADS[args["workload"]](rep)

    from repro.sweep.cache import code_version_tag

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    reading = {
        "end_to_end": {
            "setup_s": rep.setup_s,
            "wall_s": rep.wall_s,
            "cpu_s": rep.cpu_s,
            "sim_us_per_host_us": outcome.sim_us / (rep.wall_s * 1e6),
            # ru_maxrss is in KiB on Linux; a sweep's workers count too.
            "peak_rss_mib": max(own, kids) / 1024,
        },
        "digest": outcome.digest,
        "code_version_tag": code_version_tag(),
        "counts": outcome.counts,
        "attempted": 1 + outcome.attempted,
        "failures": outcome.failures,
    }
    if args["traced"]:
        reading["spans"] = rec.totals()
        # Spans that closed before the timed section (import, build) are
        # not part of the wall they would be compared with.
        reading["unattributed_share"] = 1.0 - rec.covered_ns(rep.t_begin) / 1e9 / rep.wall_s
        if args["spans_out"]:
            rec.write_tsv(args["spans_out"])
    print(json.dumps(reading))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
