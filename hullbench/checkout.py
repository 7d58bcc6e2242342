"""Import rankhull from the src/ tree of the checkout this benchmark sits in.

The benchmark must measure the code next to it, never an installed copy, so
the import fails when the checkout has no ``src/rankhull``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import rankhull  # noqa: E402

if Path(rankhull.__file__).resolve().parent != SRC / "rankhull":
    raise ImportError(f"rankhull was imported from {rankhull.__file__}, not {SRC}")
