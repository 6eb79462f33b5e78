"""Report documents, sweep tables, and minimal SVG line charts.

A report document is valid by construction; :data:`REPORT_SCHEMA` publishes
its shape, which the tests and the benchmark check.  Floats are written with
shortest-roundtrip formatting and JSON keys are sorted, so identical runs
produce byte-identical files; timestamps are optional for that reason.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .pipeline import ExperimentReport

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["baseline", "selective"]},
        "alpha_threshold": {"type": ["number", "null"], "minimum": 0, "maximum": 1},
        "selected_count": {"type": "integer", "minimum": 0},
        "augmented_count": {"type": "integer", "minimum": 0},
        "train_size_final": {"type": "integer", "minimum": 1},
        "accuracy": {"type": "number", "minimum": 0, "maximum": 1},
        "loss": {"type": "number", "minimum": 0},
        "seed": {"type": "integer"},
        "best_epoch": {"type": "integer", "minimum": 1},
        "config": {"type": "object"},
        "tool_version": {"type": "string"},
        "timestamp": {"type": "string"},
    },
    "required": [
        "mode", "alpha_threshold", "selected_count", "augmented_count",
        "train_size_final", "accuracy", "loss", "seed", "best_epoch",
        "config", "tool_version",
    ],
    "additionalProperties": False,
}


def report_document(report: ExperimentReport, with_timestamp: bool = True) -> dict:
    """Flatten a report into the on-disk dictionary that :data:`REPORT_SCHEMA` describes."""
    doc = asdict(report)
    doc["tool_version"] = __version__
    if with_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


def write_json(path: str | Path, doc) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def report_csv(report: ExperimentReport) -> str:
    """One-row CSV rendering of a report's fields (config snapshot omitted)."""
    columns = [f.name for f in fields(report) if f.name != "config"]
    # A None cell is empty; str() of a float is its shortest round-trip repr.
    values = ["" if v is None else str(v) for v in (getattr(report, c) for c in columns)]
    return ",".join(columns) + "\n" + ",".join(values) + "\n"


def sweep_table_csv(reports: list[ExperimentReport]) -> str:
    """The sweep results with columns model,alpha,accuracy,loss.

    The baseline row comes first with an empty alpha cell; selective rows
    are numbered in sweep order.
    """
    lines = ["model,alpha,accuracy,loss"]
    model_no = 0
    for r in reports:
        if r.mode == "baseline":
            name, alpha = "baseline", ""
        else:
            model_no += 1
            name, alpha = f"model_{model_no}", repr(float(r.alpha_threshold))
        lines.append(f"{name},{alpha},{r.accuracy!r},{r.loss!r}")
    return "\n".join(lines) + "\n"


def curve_points(reports: list[ExperimentReport], metric: str) -> list[tuple[float, float]]:
    """(alpha, accuracy or loss) for the selective rows only, in sweep order."""
    return [(float(r.alpha_threshold), getattr(r, metric))
            for r in reports if r.mode == "selective"]


def curve_csv(reports: list[ExperimentReport], metric: str) -> str:
    """The :func:`curve_points` as an ``alpha,<metric>`` CSV."""
    lines = [f"alpha,{metric}"] + [f"{a!r},{v!r}" for a, v in curve_points(reports, metric)]
    return "\n".join(lines) + "\n"


def svg_line_chart(
    xs: list[float], ys: list[float], title: str, xlabel: str, ylabel: str
) -> str:
    """A static polyline chart with axes and tick labels; no dependencies."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length and non-empty")
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        px, py = sx(xv), sy(yv)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>'
    )
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" fill="#1f6fb2"/>')
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
