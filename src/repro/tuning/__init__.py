"""The Auto-tuning Runtime — paper §3.3–3.5.

Tuning a scheme's thresholds by hand "could be difficult and
time-consuming even for experts" (§3.3); the runtime automates it:

1. redefine the problem as choosing the *aggressiveness* of the scheme's
   action (for the paper's reclamation scheme: the ``min_age`` below
   which memory is left alone);
2. collapse performance and memory efficiency into one *score* through a
   user-defined function with an SLA clamp (Listing 2);
3. spend the user's time budget on samples — 60% spread over the whole
   aggressiveness range, 40% concentrated near the best point seen;
4. fit a polynomial of degree ``nr_samples / 3`` to the noisy samples
   and pick the highest peak of the fitted curve by its gradient.
"""

from .fit import TrendEstimate, estimate_trend, find_peaks
from .runtime import AutoTuner, TuningResult
from .sampler import SamplePlan
from .score import ScoreFunction, default_score_function

__all__ = [
    "AutoTuner",
    "SamplePlan",
    "ScoreFunction",
    "TrendEstimate",
    "TuningResult",
    "default_score_function",
    "estimate_trend",
    "find_peaks",
]
