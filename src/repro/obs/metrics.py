"""Exact sample-rank quantiles: the one definition every percentile uses.

Run-time counts live in the span tree (:mod:`repro.obs.trace`) and the
:class:`~repro.sim.meter.TrafficMeter`; this module only ranks samples.
"""

import math


def quantile_rank(q, count):
    """The 1-based nearest-rank index of quantile ``q`` in ``count`` samples.

    ``rank = max(1, ceil(q * count))``, clamped to ``count`` — the single
    definition every exact-sample quantile in the codebase derives from,
    so ``ServingResult.percentile`` and the telemetry and SLO summaries
    can never disagree on which sample a quantile names.
    """
    if count < 1:
        raise ValueError("quantile of an empty sample set")
    return min(count, max(1, math.ceil(q * count)))


def quantile_exact(samples, q):
    """Nearest-rank quantile over raw samples; ``q`` in [0, 1].

    ``samples`` must already be sorted ascending.  Returns the sample at
    :func:`quantile_rank` — an actual observed value, never interpolated
    (q=0.99 of 60 latencies is the 60th-smallest latency, not a blend).
    Returns None for an empty sequence.
    """
    if not samples:
        return None
    return samples[quantile_rank(q, len(samples)) - 1]
