"""Every Python file parses as Python 3.10, the oldest version the README
promises."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_310():
    paths = sorted(p for folder in ("src", "tests", "perfbench", "demos") for p in (ROOT / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path.relative_to(ROOT)), feature_version=(3, 10))
