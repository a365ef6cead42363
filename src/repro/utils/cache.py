"""Where the package keeps what it builds or caches on disk."""

from __future__ import annotations

import os
from pathlib import Path


def default_cache_dir() -> Path:
    """Directory for on-disk caches: ``REPRO_CACHE_DIR``, else ``.repro_cache/`` at the repository root."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".repro_cache"
