"""Plot-ready output emission: CSV always, simple SVG line plots optionally.

CSV cells are the shortest round-trip ``repr`` of each float, with a
locale-independent decimal point, so equal inputs produce byte-identical
files and a re-read reproduces the values exactly.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf"]
_CSV_SLICE_ROWS = 4096  # rows held as Python floats at a time


def _table(header, rows):
    """rows (lists or an ndarray) as a float array; ValueError if it is
    empty, ragged, or not as wide as the header."""
    table = np.asarray(rows, dtype=float)
    if table.size == 0:
        raise ValueError("refusing to write an empty table")
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError("row length does not match header")
    return table


@contextlib.contextmanager
def csv_table(path, header):
    """Open a CSV table under a fixed header; yields a function that
    appends rows (taken as ``write_csv`` takes them), so a table can be
    written block by block as its rows are made."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")

        def append(rows):
            table = _table(header, rows)
            for i in range(0, len(table), _CSV_SLICE_ROWS):
                fh.writelines(",".join(map(repr, row)) + "\n" for row in
                              table[i:i + _CSV_SLICE_ROWS].tolist())
        yield append


def write_csv(path, header, rows):
    """Write a table of numbers under a fixed header; no file is made if
    the table is rejected."""
    table = _table(header, rows)
    with csv_table(path, header) as append:
        append(table)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_svg(path, header, rows):
    """One polyline per y-column against the first column.

    Quick-look plot only: linear axes, per-column colors, min/max tick
    labels, no interactivity.
    """
    width, height, margin = 800, 500, 60
    x, *ys = _table(header, rows).T.tolist()
    xmin, xmax = min(x), max(x)
    finite = [v for col in ys for v in col if math.isfinite(v)]
    if not finite:
        raise ValueError("no finite values to plot")
    ymin, ymax = min(finite), max(finite)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def sx(v):
        return margin + (v - xmin) / (xmax - xmin) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - ymin) / (ymax - ymin) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 20}" font-size="12">'
        f'{xmin!r}</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" '
        f'font-size="12" text-anchor="end">{xmax!r}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" font-size="12" '
        f'text-anchor="end">{ymin!r}</text>',
        f'<text x="{margin - 6}" y="{margin}" font-size="12" '
        f'text-anchor="end">{ymax!r}</text>',
    ]
    for i, (label, col) in enumerate(zip(header[1:], ys)):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}"
                       for a, b in zip(x, col) if math.isfinite(b))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{width - margin + 4}" '
                     f'y="{margin + 16 * i}" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
