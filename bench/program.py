"""Locate the todamass sources in the checkout the benchmark runs from."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load() -> None:
    """Put the checkout's `src` first on the import path, or exit 2.

    The benchmark never falls back to an installed todamass: without the
    sources next to it there is nothing to measure.
    """
    if not (SRC / "todamass" / "__init__.py").is_file():
        sys.stderr.write("bench: no todamass sources under %s\n" % SRC)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
