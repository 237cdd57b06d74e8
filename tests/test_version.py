import re
from pathlib import Path

import bell_lab

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # tomllib is absent on Python 3.10, which pyproject.toml still supports.
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    version = re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
    assert bell_lab.__version__ == version
