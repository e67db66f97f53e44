"""Ray Data execution-context defaults for this engine.

Never calls ``ray.init`` / ``ray.shutdown`` (driver contract,
__ray_entry__.py) — only tunes the already-running session's DataContext.
"""

from __future__ import annotations

import logging


def configure(quiet: bool = True) -> None:
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.execution_options.preserve_order = False  # no global order anywhere
    if quiet:
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        for name in ("ray.data", "ray", "ray.data._internal"):
            logging.getLogger(name).setLevel(logging.WARNING)
