"""Byte-level persistence contracts: CSV, JSON, hashes and SVG plots."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def reference_csv(header, rows) -> bytes:
    """The per-cell writer ``write_csv`` replaced: csv.writer over
    ``format_float``, kept as the byte reference."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([c if isinstance(c, str) else format_float(c)
                         for c in row])
    return out.getvalue().encode("utf-8")


# no NUL: csv.writer raised on it before Python 3.11 and writes it since
_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\t;\'') + ["é", "λ"]),
                max_size=6) | \
    st.text(st.characters(exclude_characters="\x00"), max_size=4)
_CELLS = st.one_of(
    st.floats(),                       # NaN, +-inf, -0.0 and subnormals
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     2.2250738585072009e-308, 0.1, 1e16, -1e-300]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-2**70, 2**70),        # beyond int64 in both directions
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    _TEXT,
)
_PROPERTY = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCsvMatchesReference:
    @_PROPERTY
    @given(st.lists(_TEXT, max_size=4),
           st.lists(st.lists(_CELLS, max_size=5), max_size=12))
    @example([""], [[""], ["", 1.0], [], ["a", ""], [""]])
    @example(["a,b", 'q"'], [])
    @example(["x"], [["\r"], ["\n"], ['"'], [","], [" "], [-0.0]])
    @example(["\ud800"], [])
    def test_mixed_ragged_tables(self, tmp_path, header, rows):
        path = tmp_path / "t.csv"
        try:
            expected = reference_csv(header, rows)
        except UnicodeEncodeError:
            # a lone surrogate has no UTF-8 bytes: a typed error, no file
            path.unlink(missing_ok=True)
            with pytest.raises(ValidationError, match="UTF-8"):
                write_csv(path, header, rows)
            assert os.listdir(tmp_path) == []
            return
        write_csv(path, header, rows)
        assert path.read_bytes() == expected

    @_PROPERTY
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                    min_side=0, max_side=6)))
    def test_2d_array_as_rows(self, tmp_path, table):
        path = tmp_path / "t.csv"
        header = [f"c{i}" for i in range(table.shape[1])]
        write_csv(path, header, table)
        assert path.read_bytes() == reference_csv(header, table)

    def test_long_runs_and_type_switches(self, tmp_path):
        # longer than one % call's chunk, with type changes inside the runs
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((9000, 2))
        rows = [[*p, float(k)] for k, p in enumerate(pts)]
        rows[4100:4100] = [["gap", 1, True]]
        rows += [[k, np.int64(-k), k % 3 == 0] for k in range(5000)]
        rows += [["", 0.5], [""], ["tail"]]
        path = tmp_path / "t.csv"
        write_csv(path, ["x1", "x2", "u"], rows)
        assert path.read_bytes() == reference_csv(["x1", "x2", "u"], rows)

    def test_one_shot_row_iterators(self, tmp_path):
        rows = [[0.25, 1], ["a", 2]]
        path = tmp_path / "t.csv"
        write_csv(path, iter(["p", "q"]), (iter(r) for r in rows))
        assert path.read_bytes() == reference_csv(["p", "q"], rows)


def test_text_io_is_utf8_under_the_c_locale(tmp_path):
    """With an ASCII locale encoding, CSVs and configs are still UTF-8."""
    table = tmp_path / "table.csv"
    code = (
        "import sys\n"
        "from epigraph_lab.cli import main\n"
        "from epigraph_lab.reporting import write_csv\n"
        "table, good, bad = sys.argv[1:4]\n"
        "write_csv(table, ['\\u03bb', 'f(\\u03bb)'],"
        " [[-1.0, 1.0], [0.0, 1.0], [1.0, 1.0]])\n"
        "print('exit codes', main(['run', good]), main(['run', bad]),"
        " sys.getfilesystemencoding())\n"
    )
    cfg = {
        "experiment": "solve",
        "domain": {"kind": "strip", "a": 0.0, "b": 1.0, "dimension": 1},
        "nonlinearity": {"kind": "custom_table", "csv": str(table)},
        "grid": {"box": [[0.0, 1.0]], "h": 0.125},
    }
    cfg_path, bad_path = tmp_path / "config.json", tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**cfg, "output_dir": str(tmp_path / "out")}))
    # valid UTF-8; where the file system encoding is ASCII (Linux) it cannot
    # name the directory, and the run must stop there with exit 2, not at
    # the JSON
    bad_path.write_bytes(json.dumps(
        {**cfg, "output_dir": str(tmp_path / "outé")},
        ensure_ascii=False).encode("utf-8"))
    src = os.path.dirname(os.path.dirname(reporting.__file__))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(table), str(cfg_path), str(bad_path)],
        env=env, capture_output=True, text=True, encoding="utf-8",
        timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.stdout.rstrip().endswith(" ascii"):
        assert "exit codes 0 2 ascii" in proc.stdout
        assert "cannot create output_dir" in proc.stderr
    else:
        assert "exit codes 0 0 " in proc.stdout
    assert table.read_bytes().startswith("λ,f(λ)\r\n".encode())
    assert (tmp_path / "out" / "solution.csv").is_file()


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

    def test_markup_in_text_is_escaped(self, tmp_path):
        path = tmp_path / "p.svg"
        labels = ["u<v & w", "a>b", "A&B", "x<1", "y & z", "<t>"]
        svg_line_plot(path, [(labels[0], [0.0, 1.0], [0.0, 1.0])],
                      title=labels[2], xlabel=labels[3], ylabel=labels[4],
                      markers=[(labels[1], 0.5), (labels[5], 0.75)])
        texts = [t.text for t in ET.parse(path).getroot().iter(
            "{http://www.w3.org/2000/svg}text")]
        assert all(label in texts for label in labels)

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
