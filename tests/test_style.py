from __future__ import annotations

from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "minpair").glob("*.py"))


def test_source_lines_fit_in_100_columns():
    assert SOURCES
    long = [
        f"{path.name}:{i}"
        for path in SOURCES
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []
