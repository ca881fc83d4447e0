"""Post-run analysis tools: traffic matrices, span timelines, lock and
metrics reports, and the simulated-time explainers behind ``repro
explain`` (per-node attribution, collapsed stacks for flamegraphs)."""
from repro.tools.analysis import (episode_stats, lock_report, message_matrix,
                                  metrics_report, render_matrix,
                                  render_timeline)
from repro.tools.attribution import (ATTRIBUTION_KINDS,
                                     ATTRIBUTION_TOLERANCE,
                                     AttributionReport, attribute_result,
                                     attribute_spans, exclusive_stacks)
from repro.tools.flame import spans_collapsed, write_collapsed

__all__ = ["message_matrix", "render_matrix", "render_timeline",
           "lock_report", "episode_stats", "metrics_report",
           "ATTRIBUTION_KINDS", "ATTRIBUTION_TOLERANCE", "AttributionReport",
           "attribute_result", "attribute_spans", "exclusive_stacks",
           "spans_collapsed", "write_collapsed"]
