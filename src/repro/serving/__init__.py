"""Streaming turbulence-statistics service.

Write path: :class:`StreamingStatistics` accumulates single-pass
statistics inside the step loop and publishes into a versioned
:class:`StatsStore`.  Read path: :class:`StatisticsService` answers
law-of-wall / variance / spectrum queries at arbitrary ``y+`` with an
LRU response cache.  Operator documentation lives in
``docs/statistics_service.md``; serving benchmarks in
``docs/benchmarks.md``.
"""

from repro.serving.accumulators import (
    REDUCTION_RTOL,
    SIDECAR_NAME,
    STATS_FORMAT_VERSION,
    StreamingStatistics,
)
from repro.serving.query import QUERY_FIELDS, StatisticsService
from repro.serving.store import (
    RESULT_ARRAYS,
    RESULT_FIELDS,
    STORE_FORMAT_VERSION,
    StatsStore,
)
from repro.serving.synthetic import populate_store, synthetic_result

__all__ = [
    "StreamingStatistics",
    "StatsStore",
    "StatisticsService",
    "RESULT_FIELDS",
    "RESULT_ARRAYS",
    "QUERY_FIELDS",
    "STATS_FORMAT_VERSION",
    "STORE_FORMAT_VERSION",
    "REDUCTION_RTOL",
    "SIDECAR_NAME",
    "synthetic_result",
    "populate_store",
]
