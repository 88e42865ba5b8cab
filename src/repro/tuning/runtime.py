"""The auto-tuner: orchestrating sampling, fitting and peak selection.

The runtime takes (§3.5 "Inputs"): the base scheme to tune, the workload
to run, a time limit, and optionally custom metrics / a custom score
function.  Here the workload execution is abstracted behind an
``evaluate`` callable so the tuner itself is pure control logic —
:func:`repro.runner.experiment.autotune_scheme` wires it to real
simulated runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import FaultError, TuningError
from ..trace.bus import TraceBus
from ..trace.events import RetryAttempted, TuneStep
from .fit import TrendEstimate, estimate_trend, find_peaks
from .sampler import SamplePlan
from .score import ScoreFunction, default_score_function

__all__ = ["AutoTuner", "TuningResult"]

#: Attempts per probe before a ``probe_failure`` fault ends the session.
PROBE_ATTEMPTS = 3
#: Simulated back-off before the first retry; it doubles per retry.
PROBE_BACKOFF_US = 100_000


@dataclass
class TuningResult:
    """Everything a tuning session produced (enough to redraw Figure 5)."""

    best_param: float
    best_score: float
    global_samples: List[Tuple[float, float]]  # (param, score), phase 1
    local_samples: List[Tuple[float, float]]  # (param, score), phase 2
    trend: TrendEstimate
    peaks: List[Tuple[float, float]]

    @property
    def samples(self) -> List[Tuple[float, float]]:
        return sorted(self.global_samples + self.local_samples)


class AutoTuner:
    """Tunes one scalar aggressiveness parameter.

    Parameters
    ----------
    evaluate:
        ``evaluate(param) -> (runtime_us, rss_bytes)`` — run the workload
        with the scheme configured at ``param`` and measure.
    baseline:
        ``(orig_runtime_us, orig_rss_bytes)`` of the unmodified system.
    lo, hi:
        The aggressiveness range to search (for the paper's reclamation
        scheme: ``min_age`` from 0 to 60 seconds; note aggressiveness
        *decreases* as ``min_age`` grows).
    score_function:
        Defaults to the paper's Listing 2.
    """

    def __init__(
        self,
        evaluate: Callable[[float], Tuple[float, float]],
        baseline: Tuple[float, float],
        lo: float,
        hi: float,
        *,
        score_function: Optional[ScoreFunction] = None,
        seed: int = 0,
        trace: Optional[TraceBus] = None,
        faults=None,
    ):
        if hi <= lo:
            raise TuningError(f"empty parameter range [{lo}, {hi}]")
        self.evaluate = evaluate
        self.orig_runtime, self.orig_rss = baseline
        if self.orig_runtime <= 0 or self.orig_rss <= 0:
            raise TuningError("baseline runtime and RSS must be positive")
        self.lo = float(lo)
        self.hi = float(hi)
        self.score_function = (
            score_function if score_function is not None else default_score_function()
        )
        self.rng = np.random.default_rng(seed)
        #: Optional trace bus; every sample emits a :class:`TuneStep`.
        self.trace = trace
        #: Optional :class:`repro.faults.FaultInjector`; probes are
        #: retried with exponential backoff when ``probe_failure`` fires.
        self.faults = faults
        # The tuner has no event queue: cumulative virtual time spent
        # tuning (sample runtimes + retry backoffs) is tracked here and
        # mirrored to an owned trace clock.  Fault windows key off it.
        self._sim_now = 0

    # ------------------------------------------------------------------
    def _advance(self, us: int) -> None:
        self._sim_now += int(us)
        tr = self.trace
        if tr is not None and tr.owns_clock:
            tr.advance_to(tr.now + int(us))

    def _probe(self, param: float) -> Tuple[float, float]:
        """One probe attempt: an injected failure raises before the
        evaluation runs (a lost/corrupt measurement)."""
        if self.faults is not None and self.faults.probe_fails(self._sim_now):
            raise FaultError(f"injected probe failure at param={param:g}")
        return self.evaluate(param)

    def _score_at(self, param: float, phase: str = "global") -> float:
        attempt = 0
        backoff = PROBE_BACKOFF_US
        while True:
            try:
                runtime, rss = self._probe(param)
                break
            except FaultError as exc:
                attempt += 1
                if attempt >= PROBE_ATTEMPTS:
                    raise TuningError(
                        f"probe at param={param:g} failed {attempt} time(s), "
                        f"giving up: {exc}"
                    ) from exc
                # Back off in *simulated* time — the retry schedule is
                # deterministic and replays with the plan.
                self._advance(backoff)
                tr = self.trace
                if tr is not None:
                    tr.emit(
                        RetryAttempted(
                            time_us=tr.now,
                            subsystem="tuner",
                            attempt=attempt,
                            backoff_us=int(backoff),
                            reason=str(exc),
                        )
                    )
                backoff *= 2
        score = self.score_function(runtime, rss, self.orig_runtime, self.orig_rss)
        self._advance(int(runtime))
        tr = self.trace
        if tr is not None:
            tr.emit(
                TuneStep(
                    time_us=tr.now,
                    phase=phase,
                    param=float(param),
                    score=float(score),
                    runtime_us=float(runtime),
                    rss_bytes=float(rss),
                )
            )
        return score

    def tune(self, nr_samples: int) -> TuningResult:
        """One tuning session with an explicit sample budget."""
        self.score_function.reset()
        plan = SamplePlan(lo=self.lo, hi=self.hi, nr_samples=nr_samples, rng=self.rng)

        global_samples = [(p, self._score_at(p)) for p in plan.global_points()]
        best_so_far = max(global_samples, key=lambda pair: pair[1])[0]
        local_samples = [
            (p, self._score_at(p, "local")) for p in plan.local_points(best_so_far)
        ]

        samples = global_samples + local_samples
        xs = [p for p, _ in samples]
        ys = [s for _, s in samples]
        trend = estimate_trend(xs, ys, self.lo, self.hi)
        peaks = find_peaks(trend)
        best_param, _fitted_score = peaks[0]
        # Validation run: a low-degree fit can hallucinate a peak at a
        # range edge (especially against the SLA cliff).  Measure the
        # fitted optimum once and fall back to the best *measured*
        # sample if it does better.
        best_score = self._score_at(best_param, "validate")
        sampled_best_param, sampled_best_score = max(samples, key=lambda p: p[1])
        if sampled_best_score > best_score:
            best_param, best_score = sampled_best_param, sampled_best_score
        return TuningResult(
            best_param=best_param,
            best_score=best_score,
            global_samples=global_samples,
            local_samples=local_samples,
            trend=trend,
            peaks=peaks,
        )
