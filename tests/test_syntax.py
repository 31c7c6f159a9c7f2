import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_python_floor(path):
    # pyproject.toml declares requires-python >= 3.10: every source file must
    # parse under the 3.10 grammar, whichever interpreter runs the suite
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
