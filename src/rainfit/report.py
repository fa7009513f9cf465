"""The report files: every table and SVG that `benchmark` and `report`
write besides `fits.jsonl`.

`write_report_files` is the one writer.  It decides the file names, the
level label, which is `repr(p)` everywhere, and the formats.  The four
method-by-level tables (medians and classes, as CSV and as text) are four
renderings of one grid of rows (`_grid`).

CSV files keep natural log-ratio units; the rendered text table applies the
conventional x 10^-3 display scaling.  Boxplot SVGs are static, dependency
free, and use an asinh(8x) axis so that the near-zero region stays readable
next to heavy tails.  Whiskers follow the 1.5 IQR convention (documented
choice; see README).
"""

from __future__ import annotations

from pathlib import Path

from .evaluation import EvaluationSummary, asinh_axis_transform

__all__ = ["render_boxplot_svg", "write_report_files"]


def write_report_files(out_dir, summary: EvaluationSummary, *, svg: bool = False) -> None:
    """Write the five tables, and with `svg` one boxplot SVG per level.

    Every level label, in a table header, a row or an SVG file name, is
    `repr(p)`.  Every other `boxplot-*.svg` in out_dir is removed, so no
    SVG of an earlier run stands beside tables it does not match.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    best = _smallest_median_methods(summary)
    levels = len(summary.probabilities)
    files = {
        "medians.csv": _csv(_grid(summary, "failed_fits", lambda m, p, cell: repr(cell.median), "")),
        "classes.csv": _csv(_grid(summary, "failed_fits", lambda m, p, cell: cell.klass, "")),
        "boxplots.csv": _boxplot_csv(summary),
        "medians.txt": _text(
            "median D by quantile level (values x 10^-3; * = smallest magnitude)",
            _grid(summary, "failed", lambda m, p, cell: f"{cell.median * 1e3:.1f}"
                  + ("*" if best.get(p) == m else ""), "-"),
            [9] * levels + [8],
        ),
        "classes.txt": _text(
            "class by quantile level (U under / O over / N nominal)",
            [row[:-1] for row in _grid(summary, "", lambda m, p, cell: cell.klass, "-")],
            [7] * levels,
        ),
    }
    if svg:
        for p in summary.probabilities:
            files[f"boxplot-{p!r}.svg"] = render_boxplot_svg(summary, p)
    for name, text in files.items():
        with open(out_dir / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    for path in out_dir.glob("boxplot-*.svg"):
        if path.name not in files:
            path.unlink()


def _grid(summary: EvaluationSummary, failed_label: str, cell_text, blank: str) -> list[list[str]]:
    """The method-by-level grid as rows of strings, a header row first.

    A method's row holds its name, per level cell_text(method, p, cell)
    where the (method, p) cell has D values and `blank` where it has none,
    and its count of failed fits.
    """
    rows = [["method", *map(repr, summary.probabilities), failed_label]]
    for method in summary.methods:
        cells = [(p, summary.cells.get((method, p))) for p in summary.probabilities]
        texts = [blank if cell is None else cell_text(method, p, cell) for p, cell in cells]
        rows.append([method, *texts, str(summary.failures.get(method, 0))])
    return rows


def _smallest_median_methods(summary: EvaluationSummary) -> dict[float, str]:
    """Per level, the method whose median has the smallest magnitude (ties: first by name)."""
    best = {}
    for p in summary.probabilities:
        ranked = [(abs(summary.cells[(m, p)].median), m) for m in summary.methods
                  if (m, p) in summary.cells]
        if ranked:
            best[p] = min(ranked)[1]
    return best


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _text(title: str, rows: list[list[str]], widths: list[int]) -> str:
    """Aligned text: names left-justified, then each column right-justified to its width."""
    name_w = max(len(row[0]) for row in rows)
    lines = [title] + [
        row[0].ljust(name_w) + "".join(t.rjust(w) for t, w in zip(row[1:], widths, strict=True))
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _boxplot_csv(summary: EvaluationSummary) -> str:
    """Long-format five-number summaries plus 1.5 IQR whisker endpoints."""
    rows = [["method", "p", "n_sites", "min", "q1", "median", "q3", "max", "whisker_lo", "whisker_hi"]]
    for method in summary.methods:
        for p in summary.probabilities:
            cell = summary.cells.get((method, p))
            if cell is not None:
                stats = (cell.lo, cell.q1, cell.median, cell.q3, cell.hi, cell.whisker_lo, cell.whisker_hi)
                rows.append([method, repr(p), str(cell.n_sites), *map(repr, stats)])
    return _csv(rows)


def render_boxplot_svg(summary: EvaluationSummary, p: float) -> str:
    """Static SVG of per-method D^p boxplots on an asinh(8x) axis."""
    methods = [m for m in summary.methods if (m, p) in summary.cells]
    width, row_h, pad_l, pad_r, pad_t = 640, 30, 150, 20, 46
    height = pad_t + row_h * max(len(methods), 1) + 30
    limit = 0.05
    for m in methods:
        cell = summary.cells[(m, p)]
        limit = max(limit, abs(cell.lo), abs(cell.hi))
    t_max = asinh_axis_transform(limit * 1.05)

    def x_of(v: float) -> float:
        t = asinh_axis_transform(v)
        return pad_l + (t + t_max) / (2.0 * t_max) * (width - pad_l - pad_r)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<text x="{pad_l}" y="16" font-size="13">distribution of D at p = {p:g} '
        "(axis: asinh(8x))</text>",
    ]
    axis_y = pad_t + row_h * len(methods) + 8
    ticks = [v for v in (-5, -2, -1, -0.5, -0.2, -0.1, 0, 0.1, 0.2, 0.5, 1, 2, 5)
             if abs(v) <= limit * 1.05]
    for v in ticks:
        x = x_of(v)
        parts.append(
            f'<line x1="{x:.2f}" y1="{pad_t - 6}" x2="{x:.2f}" y2="{axis_y - 8}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 4}" text-anchor="middle">{v:g}</text>')
    zero_x = x_of(0.0)
    parts.append(
        f'<line x1="{zero_x:.2f}" y1="{pad_t - 6}" x2="{zero_x:.2f}" y2="{axis_y - 8}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="4,3"/>'
    )
    for i, m in enumerate(methods):
        cell = summary.cells[(m, p)]
        cy = pad_t + row_h * i + row_h / 2
        parts.append(
            f'<text x="{pad_l - 8}" y="{cy + 4:.2f}" text-anchor="end">{m}</text>'
        )
        parts.append(
            f'<line x1="{x_of(cell.whisker_lo):.2f}" y1="{cy:.2f}" '
            f'x2="{x_of(cell.whisker_hi):.2f}" y2="{cy:.2f}" stroke="#333333"/>'
        )
        for w in (cell.whisker_lo, cell.whisker_hi):
            x = x_of(w)
            parts.append(
                f'<line x1="{x:.2f}" y1="{cy - 5:.2f}" x2="{x:.2f}" y2="{cy + 5:.2f}" '
                'stroke="#333333"/>'
            )
        x1, x3 = x_of(cell.q1), x_of(cell.q3)
        parts.append(
            f'<rect x="{x1:.2f}" y="{cy - 8:.2f}" width="{max(x3 - x1, 0.5):.2f}" height="16" '
            'fill="#9ecae1" stroke="#333333"/>'
        )
        xm = x_of(cell.median)
        parts.append(
            f'<line x1="{xm:.2f}" y1="{cy - 8:.2f}" x2="{xm:.2f}" y2="{cy + 8:.2f}" '
            'stroke="#08519c" stroke-width="2"/>'
        )
        for v in (cell.lo, cell.hi):
            if v < cell.whisker_lo or v > cell.whisker_hi:
                parts.append(
                    f'<circle cx="{x_of(v):.2f}" cy="{cy:.2f}" r="2.5" fill="none" '
                    'stroke="#333333"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
