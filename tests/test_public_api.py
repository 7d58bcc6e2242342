import re
from pathlib import Path

import rankhull

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in rankhull.__all__ if not hasattr(rankhull, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(rankhull.__all__)) == len(rankhull.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from rankhull import *", namespace)
    assert set(rankhull.__all__) <= set(namespace)


def test_the_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    library = library.split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", library, re.DOTALL)
    exec(compile(example, f"{README}:Library", "exec"), {})
