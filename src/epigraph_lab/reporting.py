"""Deterministic result persistence: CSV tables, JSON summaries, SVG plots.

CSV files follow RFC 4180 (CRLF line ends, '.' decimal separator) with floats
printed at 17 significant digits, carry no timestamps, and are written
atomically (temp file in the target directory, then rename), so a seeded
rerun reproduces them byte for byte. A table is formatted in one pass: each
run of rows sharing one tuple of cell types goes through a single
%-format built once for that tuple, and the bytes equal those of csv.writer
(QUOTE_MINIMAL) over ``format_float`` cells. Every file is read and written
as UTF-8 whatever the locale. JSON summaries carry a "schema": 1 field;
timestamps live only in the run record.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import tempfile

import numpy as np

from .errors import ValidationError

__all__ = [
    "SCHEMA_VERSION",
    "format_float",
    "write_csv",
    "write_json",
    "read_json",
    "config_hash",
    "svg_line_plot",
]

SCHEMA_VERSION = 1


def format_float(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str):
    """Write-then-rename so readers never observe a partial file. Text with
    no UTF-8 bytes (a lone surrogate) raises ValidationError and writes
    nothing."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            try:
                fh.write(text)
            except UnicodeEncodeError as exc:
                raise ValidationError(
                    f"text not encodable as UTF-8: {exc.reason}") from exc
        # mkstemp creates 0600; give the file what open() would: 0666 & ~umask
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# rows per % call: bounds the cells held alive while a long run is formatted
_ROWS_PER_FORMAT = 4096
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote(cell) -> str:
    """csv.writer's QUOTE_MINIMAL for one text field."""
    text = str(cell)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _row_format(types):
    """The %-format of a row with these cell types (what ``format_float``
    prints for numbers) and the positions of its text cells."""
    specs, text = [], []
    for i, t in enumerate(types):
        if issubclass(t, str):
            specs.append("%s")
            text.append(i)
        elif issubclass(t, (bool, np.bool_, int, np.integer)):
            specs.append("%d")
        else:
            specs.append("%.17g")
    return ",".join(specs) + "\r\n", text


def write_csv(path: str, header, rows):
    """Write ``header`` (cells as ``str``) and ``rows`` as one CSV table.

    Consecutive rows with the same cell types are formatted by one % call on
    their row format repeated; the text goes to ``atomic_write_text`` once."""
    formats = {}                       # cell types -> (row format, text cells)
    chunks, cells = [], []
    types, n = None, 0                 # the header row always starts a run
    for row in itertools.chain([[str(c) for c in header]], rows):
        row = tuple(row)
        row_types = tuple(map(type, row))
        if row_types != types or n == _ROWS_PER_FORMAT:
            if n:
                chunks.append((fmt * n) % tuple(cells))
                cells.clear()
                n = 0
            types = row_types
            if types not in formats:
                formats[types] = _row_format(types)
            fmt, text = formats[types]
        if text:
            row = list(row)
            for i in text:
                row[i] = _quote(row[i])
            if row == [""]:            # csv.writer's mark of a lone empty field
                row = ['""']
        cells.extend(row)
        n += 1
    chunks.append((fmt * n) % tuple(cells))
    atomic_write_text(path, "".join(chunks))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if math.isfinite(obj) else repr(obj)
    return obj


def write_json(path: str, payload: dict):
    body = dict(_jsonable(payload))
    body.setdefault("schema", SCHEMA_VERSION)
    atomic_write_text(path, json.dumps(body, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")


def read_json(path: str) -> dict:
    if not os.path.isfile(path) or os.path.getsize(path) == 0:
        raise ValidationError(f"missing or empty file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {path} as JSON: {exc}") from exc


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _escape(text) -> str:
    # xml.sax.saxutils.escape, without the urllib/http/ssl imports it pulls in
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(
        ">", "&gt;")


def svg_line_plot(path: str, series, title: str = "", xlabel: str = "",
                  ylabel: str = "", markers=None):
    """Self-contained 640x420 polyline plot; its text is XML-escaped.

    series: list of (name, xs, ys); markers: optional list of (label, x)
    vertical reference lines."""
    width, height, pad = 640, 420, 56.0
    xs_all = np.concatenate([np.asarray(xs, float) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, float) for _, _, ys in series])
    if markers:
        xs_all = np.concatenate([xs_all, [float(x) for _, x in markers]])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for i, (name, xs, ys) in enumerate(series):
        col = colors[i % len(colors)]
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                       for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{col}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{width - pad + 4:.0f}" y="{pad + 14 * (i + 1)}" '
                     f'font-size="11" fill="{col}" text-anchor="end">'
                     f'{_escape(name)}</text>')
    for label, x in markers or []:
        parts.append(f'<line x1="{sx(float(x)):.2f}" y1="{pad}" '
                     f'x2="{sx(float(x)):.2f}" y2="{height - pad}" '
                     f'stroke="#888" stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{sx(float(x)) + 3:.2f}" y="{pad + 12}" '
                     f'font-size="11" fill="#555">{_escape(label)}</text>')
    for val, x, y, anchor in [
        (x0, sx(x0), height - pad + 16, "middle"),
        (x1, sx(x1), height - pad + 16, "middle"),
        (y0, pad - 6, sy(y0) + 4, "end"),
        (y1, pad - 6, sy(y1) + 4, "end"),
    ]:
        parts.append(f'<text x="{x:.2f}" y="{y:.2f}" font-size="10" '
                     f'text-anchor="{anchor}">{val:.6g}</text>')
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="20" font-size="13" '
                     f'text-anchor="middle">{_escape(title)}</text>')
    if xlabel:
        parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="11" '
                     f'text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{height / 2:.0f}" font-size="11" '
                     f'text-anchor="middle" transform="rotate(-90 16 {height / 2:.0f})">'
                     f'{_escape(ylabel)}</text>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
