"""Confidence intervals for Monte-Carlo estimates.

Every mean reported in EXPERIMENTS.md carries a Student-t confidence interval
so that "the measured growth is linear" is a statement about interval
containment rather than about two floating point numbers being close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.stats.estimators import mean, standard_error

__all__ = ["ConfidenceInterval", "confidence_interval", "relative_half_width"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a mean."""

    estimate: float
    lower: float
    upper: float
    confidence: float
    count: int

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4g} [{self.lower:.4g}, {self.upper:.4g}] "
            f"@{self.confidence:.0%} (n={self.count})"
        )


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    For singleton samples the interval degenerates to the point estimate.
    """
    if not samples:
        raise ValueError("cannot build a confidence interval from an empty sample")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    estimate = mean(samples)
    if len(samples) == 1:
        return ConfidenceInterval(
            estimate=estimate,
            lower=estimate,
            upper=estimate,
            confidence=confidence,
            count=1,
        )
    # ``stdtrit(df, q)`` is the quantile ``scipy.stats.t.ppf(q, df)`` returns,
    # bit for bit, without importing all of scipy.stats (~1 s against ~0.3 s).
    from scipy.special import stdtrit  # late: keeps scipy off the start-up path

    sem = standard_error(samples)
    t_value = float(stdtrit(len(samples) - 1, 0.5 + confidence / 2.0))
    half = t_value * sem
    return ConfidenceInterval(
        estimate=estimate,
        lower=estimate - half,
        upper=estimate + half,
        confidence=confidence,
        count=len(samples),
    )


def relative_half_width(samples: Sequence[float], confidence: float = 0.95) -> float:
    """Half-width of the confidence interval relative to the estimate.

    Used as a stopping criterion for adaptive trial counts ("keep sampling
    until the mean is known to within 5%").  Returns ``inf`` when the estimate
    is zero.
    """
    interval = confidence_interval(samples, confidence)
    if interval.estimate == 0:
        return float("inf")
    return interval.half_width / abs(interval.estimate)
