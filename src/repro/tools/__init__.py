"""Post-run analysis tools: traffic matrices, span timelines, lock reports."""
from repro.tools.analysis import (episode_stats, lock_report, message_matrix,
                                  metrics_report, render_matrix,
                                  render_timeline)

__all__ = ["message_matrix", "render_matrix", "render_timeline",
           "lock_report", "episode_stats", "metrics_report"]
