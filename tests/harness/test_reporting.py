"""Report formatting."""

import pytest

from repro.harness import banner, format_series, format_table
from repro.harness.reporting import _BANNER_WIDTH


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.5], ["b", 22.125]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in lines[3]
        assert "22.125" in lines[4]

    def test_float_formatting(self):
        text = format_table(["x"], [[1.23456]], float_format="{:.1f}")
        assert "1.2" in text
        assert "1.23" not in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestFormatSeries:
    def test_columns_per_series(self):
        text = format_series(
            "wp", [0.1, 0.2], {"Shared": [1.0, 2.0], "1:7": [3.0, 4.0]}
        )
        assert "Shared" in text and "1:7" in text
        assert "0.1" in text

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], {"s": [1.0]})


class TestBanner:
    def test_centred(self):
        text = banner("Fig 2")
        assert "Fig 2" in text
        assert len(text) == _BANNER_WIDTH
        left, right = text.split(" Fig 2 ")
        assert set(left) == set(right) == {"="}
        assert abs(len(left) - len(right)) <= 1
