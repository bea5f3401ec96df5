"""Byte-level persistence contracts: CSV, JSON, hashes and SVG plots."""

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from epigraph_lab import ValidationError, reporting
from epigraph_lab.reporting import (
    SCHEMA_VERSION,
    atomic_write_text,
    config_hash,
    format_float,
    read_json,
    svg_line_plot,
    write_csv,
    write_json,
)


class TestFormatFloat:
    def test_floats_use_17_significant_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(-2.5) == "-2.5"

    def test_bools_and_ints(self):
        assert format_float(True) == "1"
        assert format_float(False) == "0"
        assert format_float(3) == "3"
        assert format_float(np.int64(-7)) == "-7"

    def test_roundtrip_is_lossless(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-1e6, 1e6, 50):
            assert float(format_float(float(x))) == float(x)
        assert float(format_float(math.pi)) == math.pi


class TestCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [[1, 0.5, True], ["x", 0.1, False]])
        data = path.read_bytes()
        assert data == (b"a,b,c\r\n"
                        b"1,0.5,1\r\n"
                        b"x,0.10000000000000001,0\r\n")

    def test_rewrite_is_byte_identical(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[k, math.sin(k)] for k in range(20)]
        write_csv(path, ["k", "v"], rows)
        first = path.read_bytes()
        write_csv(path, ["k", "v"], rows)
        assert path.read_bytes() == first

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [[1.0]])
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
        assert leftovers == []
        assert sorted(os.listdir(tmp_path)) == ["t.csv"]


class TestJson:
    def test_schema_field_and_sorted_keys(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"beta": 2, "alpha": 1})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"beta"')
        loaded = read_json(path)
        assert loaded["schema"] == SCHEMA_VERSION
        assert loaded["alpha"] == 1

    def test_numpy_and_nonfinite_values(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"arr": np.array([1.0, 2.0]),
                          "n": np.int64(4),
                          "x": np.float64(0.25),
                          "bad": float("nan"),
                          "worse": float("inf"),
                          "np_bad": np.float64("nan"),
                          "np_worse": np.float32("-inf")})
        assert "NaN" not in path.read_text()
        assert "Infinity" not in path.read_text()
        loaded = read_json(path)
        assert loaded["arr"] == [1.0, 2.0]
        assert loaded["n"] == 4
        assert loaded["x"] == 0.25
        assert loaded["bad"] == "nan"
        assert loaded["worse"] == "inf"
        assert (loaded["np_bad"], loaded["np_worse"]) == ("nan", "-inf")

    def test_a_leaked_nonfinite_value_raises(self, tmp_path, monkeypatch):
        # a value the converter misses must fail loudly, not write bare NaN
        monkeypatch.setattr(reporting, "_jsonable", lambda obj: obj)
        with pytest.raises(ValueError):
            write_json(tmp_path / "r.json", {"x": float("nan")})
        assert not (tmp_path / "r.json").exists()

    def test_rewrite_is_byte_identical(self, tmp_path):
        path = tmp_path / "r.json"
        payload = {"values": list(np.linspace(0.0, 1.0, 7)), "name": "scan"}
        write_json(path, payload)
        first = path.read_bytes()
        write_json(path, payload)
        assert path.read_bytes() == first

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            read_json(tmp_path / "absent.json")
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ValidationError):
            read_json(empty)


class TestConfigHash:
    def test_key_order_invariance(self):
        a = {"x": 1, "y": [1, 2], "z": {"p": 0.5, "q": "s"}}
        b = {"z": {"q": "s", "p": 0.5}, "y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 64

    def test_value_sensitivity(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})
        assert config_hash({"x": 1}) != config_hash({"y": 1})


class TestSvg:
    def test_plot_is_wellformed_xml_with_polylines(self, tmp_path):
        path = tmp_path / "p.svg"
        xs = np.linspace(0.0, 2.0, 21)
        svg_line_plot(path, [("one", xs, np.sin(xs)), ("two", xs, xs**2)],
                      title="demo", xlabel="x", ylabel="y",
                      markers=[("cut", 1.25)])
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        polys = root.findall(".//s:polyline", ns)
        assert len(polys) == 2
        texts = [t.text for t in root.findall(".//s:text", ns)]
        assert "demo" in texts
        assert "cut" in texts

    def test_rewrite_is_byte_identical(self, tmp_path):
        path = tmp_path / "p.svg"
        xs = [0.0, 1.0, 2.0]
        svg_line_plot(path, [("s", xs, [0.0, 1.0, 0.5])])
        first = path.read_bytes()
        svg_line_plot(path, [("s", xs, [0.0, 1.0, 0.5])])
        assert path.read_bytes() == first


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "a.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"


def test_artifacts_get_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        write_csv(tmp_path / "t.csv", ["a"], [[1.0]])
        write_json(tmp_path / "r.json", {"a": 1})
        svg_line_plot(tmp_path / "p.svg", [("s", [0.0, 1.0], [0.0, 1.0])])
    finally:
        os.umask(old)
    for name in ("t.csv", "r.json", "p.svg"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644
