"""The committed ceiling on the library's size (``tests/src_size.py``)."""

from unittest.mock import patch

import src_size


def test_size_check_fails_one_line_above_its_ceiling(capsys):
    rows = src_size.sizes(src_size.ROOT)
    lines, nodes = sum(r[1] for r in rows), sum(r[2] for r in rows)
    assert src_size.main(["--check"]) == 0
    assert capsys.readouterr().err == ""
    with patch.object(src_size, "CEILING", (lines - 1, nodes)):
        assert src_size.main(["--check"]) == 1
    assert capsys.readouterr().err == (
        f"lines: {lines:,} is 1 above the ceiling of {lines - 1:,}\n")
