"""Table and figure emitters for evaluation summaries.

CSV files keep natural log-ratio units; the rendered text table applies the
conventional x 10^-3 display scaling.  Boxplot SVGs are static, dependency
free, and use an asinh(8x) axis so that the near-zero region stays readable
next to heavy tails.  Whiskers follow the 1.5 IQR convention (documented
choice; see README).
"""

from __future__ import annotations

from pathlib import Path

from .evaluation import EvaluationSummary, asinh_axis_transform

__all__ = [
    "render_boxplot_svg",
    "render_class_text",
    "render_median_text",
    "write_boxplot_csv",
    "write_class_csv",
    "write_median_csv",
    "write_text",
]


def _p_label(p: float) -> str:
    return repr(p)


def write_text(path: Path | str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_grid_csv(summary: EvaluationSummary, path: Path | str, cell_text) -> None:
    """Method-by-quantile grid plus a failure column.

    A (method, p) cell holds cell_text(cell) when it has D values, else "".
    """
    lines = ["method," + ",".join(_p_label(p) for p in summary.probabilities) + ",failed_fits"]
    for method in summary.methods:
        cells = [summary.cells.get((method, p)) for p in summary.probabilities]
        texts = ["" if cell is None else cell_text(cell) for cell in cells]
        lines.append(",".join([method] + texts + [str(summary.failures.get(method, 0))]))
    write_text(path, "\n".join(lines) + "\n")


def write_median_csv(summary: EvaluationSummary, path: Path | str) -> None:
    """Method-by-quantile medians of D, natural units, plus a failure column."""
    _write_grid_csv(summary, path, lambda cell: repr(cell.median))


def write_class_csv(summary: EvaluationSummary, path: Path | str) -> None:
    """Method-by-quantile U/O/N classes, plus a failure column."""
    _write_grid_csv(summary, path, lambda cell: cell.klass or "")


def write_boxplot_csv(summary: EvaluationSummary, path: Path | str) -> None:
    """Long-format five-number summaries plus 1.5 IQR whisker endpoints."""
    lines = ["method,p,n_sites,min,q1,median,q3,max,whisker_lo,whisker_hi"]
    for method in summary.methods:
        for p in summary.probabilities:
            cell = summary.cells.get((method, p))
            if cell is None:
                continue
            lines.append(
                ",".join(
                    [method, _p_label(p), str(cell.n_sites)]
                    + [
                        repr(v)
                        for v in (
                            cell.lo,
                            cell.q1,
                            cell.median,
                            cell.q3,
                            cell.hi,
                            cell.whisker_lo,
                            cell.whisker_hi,
                        )
                    ]
                )
            )
    write_text(path, "\n".join(lines) + "\n")


def render_median_text(summary: EvaluationSummary) -> str:
    """Aligned text table of medians, x 10^-3 display units.

    The smallest |median| in each column is marked with '*'.
    """
    name_w = max([len(m) for m in summary.methods] + [len("method")])
    col_w = 9
    header = "median D by quantile level (values x 10^-3; * = smallest magnitude)\n"
    lines = [
        "method".ljust(name_w)
        + "".join(_p_label(p).rjust(col_w) for p in summary.probabilities)
        + "  failed"
    ]
    best: dict[float, str] = {}
    for p in summary.probabilities:
        ranked = [
            (abs(summary.cells[(m, p)].median), m)
            for m in summary.methods
            if (m, p) in summary.cells
        ]
        if ranked:
            best[p] = min(ranked)[1]
    for method in summary.methods:
        row = method.ljust(name_w)
        for p in summary.probabilities:
            cell = summary.cells.get((method, p))
            if cell is None:
                row += "-".rjust(col_w)
                continue
            mark = "*" if best.get(p) == method else ""
            row += (f"{cell.median * 1e3:.1f}" + mark).rjust(col_w)
        row += str(summary.failures.get(method, 0)).rjust(8)
        lines.append(row)
    return header + "\n".join(lines) + "\n"


def render_class_text(summary: EvaluationSummary) -> str:
    """Aligned text table of U/O/N classes per method and quantile level."""
    name_w = max([len(m) for m in summary.methods] + [len("method")])
    col_w = 7
    header = "class by quantile level (U under / O over / N nominal)\n"
    lines = [
        "method".ljust(name_w)
        + "".join(_p_label(p).rjust(col_w) for p in summary.probabilities)
    ]
    for method in summary.methods:
        row = method.ljust(name_w)
        for p in summary.probabilities:
            cell = summary.cells.get((method, p))
            row += (cell.klass or "-" if cell is not None else "-").rjust(col_w)
        lines.append(row)
    return header + "\n".join(lines) + "\n"


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
