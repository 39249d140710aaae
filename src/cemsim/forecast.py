"""Context-aware load forecasting.

Predicts electrical load from context records (announced compute jobs and
similar events) using least squares (ridge when the design is
rank-deficient) over four feature families:

* ``none``      - intercept plus an hour-of-day encoding; ignores context.
* ``numeric``   - adds summed numeric payload fields (with presence flags).
* ``effort``    - adds the summed effort score of the active records.
* ``combined``  - numeric and effort together.

Effort is a scalar proxy for how heavy a described job is.  The default
estimator is a documented keyword table so results stay deterministic and
offline; :func:`estimate_effort_remote` can delegate to any ``http`` or
``https`` endpoint speaking the simple ``{"text": ...} -> {"effort": ...}``
schema instead.  It posts with the standard library's
:mod:`urllib.request`, imported inside the function, so the package's only
runtime dependency is numpy.

:func:`evaluate_families` queries the context once per sample time and
builds one feature row per sample, which every family it evaluates
shares; each family's fit and RMSE stay bit for bit those of training
and scoring it alone.

A feature row is a list, built by :func:`build_features` alone.  numpy
serves only fitting and scoring, and is imported inside the functions
that fit or score, not at module level: the CLI imports this module for
every command, and a PV-first or replay run never calls them, so it
does not pay numpy's import.  For the same reason :class:`Predictor` is
a :class:`~cemsim.core.StepRecord`, like every cemsim record, so
importing this module loads no :mod:`dataclasses`.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .core import ContextIndex, ContextRecord, SimulationError, StepRecord, _require
from .models.synthetic import hour_of_day

if TYPE_CHECKING:
    import numpy as np

FAMILIES = ("none", "numeric", "effort", "combined")

#: Numeric payload fields the ``numeric`` family looks for, in order.
NUMERIC_FIELD_CATALOG = ("cores", "files")

# score contribution per occurrence, matched case-insensitively
_KEYWORD_WEIGHTS = (
    ("cpu-intensive", 2.0),
    ("gpu", 3.0),
    ("multi-core", 1.0),
    ("compile", 1.0),
    ("build", 1.0),
)

_DURATION_RE = re.compile(r"\b(\d+(?:\.\d+)?)h\b")


def estimate_effort_heuristic(text: str) -> float:
    """Keyword-table effort score for a job description.

    Base 1.0, plus 2.0 per "cpu-intensive", 3.0 per "gpu", 1.0 per
    "multi-core", 1.0 per "compile"/"build" occurrence; if a duration
    token like "48h" appears, the score is scaled by hours/24.  Empty or
    keyword-free text scores the base 1.0.
    """
    if not text:
        return 1.0
    lowered = text.lower()
    score = 1.0
    for keyword, weight in _KEYWORD_WEIGHTS:
        score += weight * lowered.count(keyword)
    match = _DURATION_RE.search(lowered)
    if match is not None:
        score *= float(match.group(1)) / 24.0
    return score


class RemoteEstimatorError(SimulationError):
    """The HTTP effort estimator failed (network, status, or payload)."""


#: The longest ``timeout_s`` the remote estimator takes, one day, in
#: seconds: well below what a socket accepts, so no timeout fails inside
#: the connection, after the socket is open.
MAX_TIMEOUT_S = 86400.0


def estimate_effort_remote(text: str, url: str, timeout_s: float) -> float:
    """Ask an HTTP endpoint to score a job description.

    POSTs ``{"text": ...}`` as JSON with :mod:`urllib.request` and
    expects ``{"effort": x}`` with a finite x >= 0 back.  Only ``http``
    and ``https`` URLs are sent: any other scheme (``file``, ``ftp``,
    none) is refused before anything is opened, and so is a redirect to
    one.  ``timeout_s`` bounds the connect and each read; one not in
    (0, :data:`MAX_TIMEOUT_S`] is a ``ValueError``, raised before anything
    is opened.  It is the remote estimator block's
    ``timeout_s``, required: its default is written once, in
    ``scenario.BLOCK_TABLES``.  Any transport, status or schema problem
    raises :class:`RemoteEstimatorError`; there is no silent fallback.
    """
    import http.client
    import json
    from urllib.parse import urlsplit
    from urllib.request import HTTPRedirectHandler, Request, build_opener

    def require_http(target: str) -> None:
        if urlsplit(target).scheme not in ("http", "https"):
            raise ValueError(f"{target!r} is not an http or https URL")

    class HTTPOnlyRedirects(HTTPRedirectHandler):
        """Follows a redirect only to an http or https URL (urllib's own
        handler also follows one to ftp)."""

        def redirect_request(self, req, fp, code, msg, headers, newurl):
            require_http(newurl)
            return super().redirect_request(req, fp, code, msg, headers, newurl)

    _require(0 < timeout_s <= MAX_TIMEOUT_S, f"timeout_s must be in (0, {MAX_TIMEOUT_S}], got {timeout_s!r}")
    # urllib's URLError and HTTPError (a status >= 400) are OSErrors, and a
    # malformed or non-http(s) URL raises ValueError
    try:
        require_http(url)
        request = Request(
            url,
            data=json.dumps({"text": text}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with build_opener(HTTPOnlyRedirects).open(request, timeout=timeout_s) as response:
            body = response.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise RemoteEstimatorError(f"effort estimator request to {url!r} failed: {exc}") from exc
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise RemoteEstimatorError(f"effort estimator at {url!r} returned non-JSON body") from exc
    if not isinstance(payload, Mapping) or "effort" not in payload:
        raise RemoteEstimatorError(f"effort estimator response missing 'effort' key: {payload!r}")
    effort = payload["effort"]
    # NaN and infinities fail the bound, and so does an integer too large
    # for a float (math.isfinite raises OverflowError on one)
    if not isinstance(effort, (int, float)) or isinstance(effort, bool) or not abs(effort) <= sys.float_info.max:
        raise RemoteEstimatorError(f"effort estimator returned non-numeric effort: {effort!r}")
    if effort < 0:
        raise RemoteEstimatorError(f"effort estimator returned negative effort: {effort!r}")
    return float(effort)


EffortEstimator = Callable[[str], float]


def feature_names(mode: str) -> tuple[str, ...]:
    """Documented feature ordering for a family."""
    _require(mode in FAMILIES, f"unknown feature family {mode!r}")
    names = ["intercept", "hour_sin", "hour_cos"]
    if mode in ("numeric", "combined"):
        for field in NUMERIC_FIELD_CATALOG:
            names.append(f"{field}_sum")
            names.append(f"{field}_present")
    if mode in ("effort", "combined"):
        names.append("effort")
    return tuple(names)


def build_features(
    records: Iterable[ContextRecord],
    mode: str,
    t_ns: int,
    effort_fn: EffortEstimator = estimate_effort_heuristic,
) -> list[float]:
    """Feature row describing time ``t_ns`` given known context records,
    in :func:`feature_names` order.

    Records not active at ``t_ns`` (begins_at <= t < ends_at) contribute
    nothing; callers pass the output of ``context_query`` at the knowledge
    time, so future-recorded records never leak in.  Non-numeric payload
    values under a cataloged field are ignored.
    """
    _require(mode in FAMILIES, f"unknown feature family {mode!r}")
    hour = hour_of_day(t_ns)
    angle = 2.0 * math.pi * hour / 24.0
    features = [1.0, math.sin(angle), math.cos(angle)]
    if mode == "none":
        return features
    active = [r for r in records if r.begins_at_ns <= t_ns < r.ends_at_ns]
    if mode in ("numeric", "combined"):
        for field in NUMERIC_FIELD_CATALOG:
            total = 0.0
            present = 0.0
            for record in active:
                value = record.payload.get(field)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    total += float(value)
                    present = 1.0
            features.append(total)
            features.append(present)
    if mode in ("effort", "combined"):
        features.append(sum((effort_fn(record.text()) for record in active), 0.0))
    return features


def fit_least_squares(design: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Least-squares coefficients for ``design @ beta ~ observed``.

    Requires at least as many samples as features.  A rank-deficient
    design (a payload field that never occurs, say) falls back to ridge
    regression with a trace-scaled penalty (1e-8).
    """
    import numpy as np

    design = np.asarray(design, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    _require(design.ndim == 2, "design matrix must be 2-D")
    _require(observed.ndim == 1, "observations must be 1-D")
    samples, width = design.shape
    _require(samples == observed.shape[0], "design and observations disagree on sample count")
    _require(samples >= width, f"need >= {width} samples, got {samples}")
    rank = np.linalg.matrix_rank(design)
    if rank < width:
        gram = design.T @ design
        penalty = 1e-8 * (np.trace(gram) / width)
        if penalty <= 0.0:
            penalty = 1e-12
        return np.linalg.solve(gram + penalty * np.eye(width), design.T @ observed)
    coefficients, _, _, _ = np.linalg.lstsq(design, observed, rcond=None)
    return coefficients


def rmse(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Root-mean-square error in the observations' unit (here Watts)."""
    import numpy as np

    predicted = np.asarray(predicted, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    _require(predicted.shape == observed.shape, "predicted and observed lengths differ")
    _require(predicted.size >= 1, "rmse needs at least one sample")
    return float(np.sqrt(np.mean((predicted - observed) ** 2)))


class Predictor(StepRecord, namedtuple("Predictor", "mode coefficients")):
    """A fitted load model for one feature family."""

    __slots__ = ()

    def __new__(cls, mode: str, coefficients: tuple[float, ...]) -> Predictor:
        coefficients = tuple(float(c) for c in coefficients)
        expected = len(feature_names(mode))
        _require(
            len(coefficients) == expected,
            f"{mode!r} predictor needs {expected} coefficients, got {len(coefficients)}",
        )
        return tuple.__new__(cls, (mode, coefficients))

    def predict_features(self, features: Sequence[float]) -> float:
        import numpy as np

        return float(np.dot(np.asarray(features, dtype=np.float64), self.coefficients))

    def predict(
        self,
        records: Iterable[ContextRecord],
        t_ns: int,
        effort_fn: EffortEstimator = estimate_effort_heuristic,
    ) -> float:
        return self.predict_features(build_features(records, self.mode, t_ns, effort_fn))


def train_predictor(
    records: Sequence[ContextRecord],
    times_ns: Sequence[int],
    observed_w: Sequence[float],
    mode: str,
    effort_fn: EffortEstimator = estimate_effort_heuristic,
) -> Predictor:
    """Fit one family on (time, load) samples.

    Features at each sample time use only records already recorded by
    then, matching what a live forecaster could have known.
    """
    import numpy as np

    from .core import context_query

    _require(len(times_ns) == len(observed_w), "times and observations disagree on length")
    index = ContextIndex(records)
    design = np.array([build_features(context_query(index, t), mode, t, effort_fn) for t in times_ns])
    coefficients = fit_least_squares(design, np.asarray(observed_w, dtype=np.float64))
    return Predictor(mode=mode, coefficients=tuple(coefficients))


def evaluate_families(
    records: Sequence[ContextRecord],
    times_ns: Sequence[int],
    observed_w: Sequence[float],
    train_fraction: float,
    families: Sequence[str] = FAMILIES,
    effort_fn: EffortEstimator = estimate_effort_heuristic,
) -> dict[str, float]:
    """Train each family on the leading time window, report test RMSE.

    The split is by sample order (time-ordered input expected), so the
    test window is strictly after the training window.  ``train_fraction``
    is the forecast block's, required: its default is written once, in
    ``scenario.DOCUMENT_TABLE``.

    Each sample time is queried once and described by one feature row of
    the narrowest family whose features cover every requested family's
    (``combined`` when both ``numeric`` and ``effort`` features are
    wanted); each family then takes its own columns of those rows.  Its
    design is built with ``np.array`` from the rows' values, and each
    prediction input is a fresh array, so every family's fit and RMSE are
    bit for bit those of training and scoring it alone.  A design sliced
    from one array of the wider rows is not: it moved 133 of 480 RMSEs
    (32 seeds, 5 resamples, 3 narrower families) in their last digits.
    """
    _require(len(times_ns) == len(observed_w), "times and observations disagree on length")
    _require(0.0 < train_fraction < 1.0, "train_fraction must be in (0, 1)")
    for family in families:
        _require(family in FAMILIES, f"unknown feature family {family!r}")
    count = len(times_ns)
    split = int(count * train_fraction)
    width = max(len(feature_names(f)) for f in families)
    _require(split >= width, f"training window too small: {split} samples for {width} features")
    _require(split < count, "test window is empty")

    import numpy as np

    from .core import context_query

    wanted = {name for family in families for name in feature_names(family)}
    widest = next(family for family in FAMILIES if wanted <= set(feature_names(family)))
    names = feature_names(widest)
    index = ContextIndex(records)
    rows = [build_features(context_query(index, t), widest, t, effort_fn) for t in times_ns]
    observed = np.asarray(observed_w[:split], dtype=np.float64)
    report: dict[str, float] = {}
    for family in families:
        columns = itemgetter(*map(names.index, feature_names(family)))
        design = np.array([columns(row) for row in rows[:split]])
        predictor = Predictor(mode=family, coefficients=tuple(fit_least_squares(design, observed)))
        predicted = [predictor.predict_features(columns(row)) for row in rows[split:]]
        report[family] = rmse(predicted, list(observed_w[split:]))
    return report
