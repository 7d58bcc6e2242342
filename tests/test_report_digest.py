"""Every report field but `step_ns` stays the same: `tools/report_digest.py`'s digest, pinned.

The script is loaded by path, so its record builder is the one both the
test and a command-line run use. A change that means to change a report
re-pins the value, and says which fields moved and why.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"


def test_the_reports_of_the_fixed_inputs_are_unchanged():
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.digest() == (
        1842, "40ab1f996df1681af1843092de118837ccb1e1b9a4fe2e0a9019e5ef643dfb63",
    )
