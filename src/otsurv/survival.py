"""Discrete-time survival math and evaluation statistics.

Hazards live on T discrete bins; survival is the running product of
(1 - hazard).  Evaluation covers the censored concordance index, the
Kaplan-Meier product-limit estimator, and the two-group log-rank test with
an analytic chi-square(1) tail.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bags import SurvivalRecord, check_values, label_arrays, write_csv, write_json
from .errors import DataError, MetricUndefinedError, ParameterError

# Probability floor inside logs; keeps the loss finite at saturated hazards.
PROB_EPS = 1e-7


@dataclass(frozen=True)
class KMCurve:
    event_times: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    survival: np.ndarray


@dataclass(frozen=True)
class LogrankResult:
    statistic: float
    p_value: float
    group_sizes: tuple[int, int]


def survival_from_hazard(hazards) -> np.ndarray:
    """S[..., t] = prod_{z<=t} (1 - h[..., z]), along the last (bin) axis.

    Hazards must lie in [0, 1]; boundary values are nudged inside by the
    probability floor so the curve stays in (0, 1].  A (B, T) stack of
    per-batch hazards gives one curve per row.
    """
    h = np.asarray(hazards, dtype=np.float64)
    if h.size == 0:
        raise DataError("hazards must not be empty")
    check_values(h, "hazards", DataError, least=0, most=1)
    return np.cumprod(1.0 - np.clip(h, PROB_EPS, 1.0 - PROB_EPS), axis=-1)


def c_index(risks, records: list[SurvivalRecord]) -> float:
    """Concordance over comparable pairs (i uncensored, t_i < t_j).

    A pair is concordant when the earlier event carries the higher risk;
    tied risks earn half credit.  Pairs tied in time are not comparable.
    """
    risks = np.asarray(risks, dtype=np.float64).ravel()
    check_values(risks, "risks", DataError)
    if risks.size != len(records):
        raise DataError(f"{risks.size} risks vs {len(records)} records")
    times, events = label_arrays(records)
    concordant = 0.0
    comparable = 0
    for i in np.flatnonzero(events):
        later = times > times[i]
        comparable += int(later.sum())
        concordant += np.sum(risks[i] > risks[later])
        concordant += 0.5 * np.sum(risks[i] == risks[later])
    if comparable == 0:
        raise MetricUndefinedError("no comparable pairs: c-index undefined")
    return float(concordant / comparable)


def _risk_table(times: np.ndarray, events: np.ndarray, at: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Numbers at risk (time >= t) and of events (time == t) at each time t of ``at``."""
    at_risk = times.size - np.searchsorted(np.sort(times), at, side="left")
    event_times = np.sort(times[events])
    deaths = (np.searchsorted(event_times, at, side="right")
              - np.searchsorted(event_times, at, side="left"))
    return at_risk, deaths


def km_estimate(records: list[SurvivalRecord]) -> KMCurve:
    """Product-limit estimator; deaths precede censorings at equal times."""
    if not records:
        raise DataError("cannot estimate a survival curve from no records")
    times, events = label_arrays(records)
    event_times = np.unique(times[events])
    at_risk, deaths = _risk_table(times, events, event_times)
    return KMCurve(event_times, at_risk, deaths, np.cumprod(1.0 - deaths / at_risk))


def chi2_sf_1df(x: float) -> float:
    """Upper tail of chi-square with 1 dof: Q(x) = erfc(sqrt(x/2)).

    This is the regularized upper incomplete gamma Q(1/2, x/2) in closed
    form; the test suite cross-checks it against an independent
    series/continued-fraction evaluation.
    """
    if x < 0:
        raise ParameterError(f"chi-square statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


def _running_sum(terms: np.ndarray) -> float:
    """0.0 plus each term in turn, as a loop adds them (``np.sum`` adds pairwise)."""
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def logrank(records_a: list[SurvivalRecord], records_b: list[SurvivalRecord]
            ) -> LogrankResult:
    """Two-group log-rank test with chi-square(1) p-value."""
    if not records_a or not records_b:
        raise DataError("both groups must be nonempty")
    (ta, ea), (tb, eb) = label_arrays(records_a), label_arrays(records_b)
    event_times = np.unique(np.concatenate([ta[ea], tb[eb]]))
    na, da = _risk_table(ta, ea, event_times)
    nb, db = _risk_table(tb, eb, event_times)
    n, d = na + nb, da + db
    # Every pooled event time has d >= 1, so n >= 1; where n = 1, n - d = 0
    # and the variance term is 0 whatever its divisor.
    observed_minus_expected = _running_sum(da - d * na / n)
    variance = _running_sum(d * (na / n) * (nb / n) * (n - d) / np.maximum(n - 1, 1))
    if variance <= 0:
        return LogrankResult(0.0, 1.0, (len(records_a), len(records_b)))
    stat = observed_minus_expected**2 / variance
    return LogrankResult(float(stat), chi2_sf_1df(stat),
                         (len(records_a), len(records_b)))


def median_split(risks) -> tuple[np.ndarray, np.ndarray]:
    """Indices of (low-risk, high-risk) groups split at the median.

    Ties at the median go to the low-risk group.  If that leaves one group
    empty (all risks equal), falls back to a stable sort-order split.
    """
    risks = np.asarray(risks, dtype=np.float64).ravel()
    check_values(risks, "risks", DataError)
    if risks.size < 2:
        raise DataError("need at least 2 cases to split")
    med = float(np.median(risks))
    low = np.flatnonzero(risks <= med)
    high = np.flatnonzero(risks > med)
    if low.size == 0 or high.size == 0:
        warnings.warn("degenerate median split (all risks tied at the median); "
                      "falling back to a sort-order split", stacklevel=2)
        order = np.argsort(risks, kind="stable")
        half = risks.size - risks.size // 2
        return np.sort(order[:half]), np.sort(order[half:])
    return low, high


def write_km_outputs(curves: dict[str, KMCurve], result: LogrankResult,
                     out_prefix) -> list[Path]:
    """CSV step data per group plus a JSON log-rank summary."""
    prefix = Path(out_prefix)
    paths = []
    for name, curve in curves.items():
        paths.append(write_csv(
            prefix.with_name(f"{prefix.name}_km_{name}.csv"),
            [("time", "at_risk", "events", "survival"),
             *zip(curve.event_times, curve.at_risk, curve.events, curve.survival)]))
    paths.append(write_json(prefix.with_name(f"{prefix.name}_logrank.json"),
                            asdict(result)))
    return paths
