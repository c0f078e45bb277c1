"""Source layout: no line of the package is longer than 88 columns."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spdgeom"
MAX_COLUMNS = 88


def test_no_source_line_is_longer_than_88_columns():
    long_lines = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []
