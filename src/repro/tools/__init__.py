"""Post-run analysis tools: traffic matrices, span timelines, lock reports."""
from repro.tools.analysis import (lock_report, message_matrix,
                                  render_matrix, render_timeline)

__all__ = ["message_matrix", "render_matrix", "render_timeline",
           "lock_report"]
