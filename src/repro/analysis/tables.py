"""Fixed-width and markdown table rendering for benchmark output.

Every benchmark regenerating one of the paper-shaped tables prints its
rows through :func:`format_table`, so the harness output reads like the
evaluation section of a systems paper and the docs can paste it
verbatim.
"""

from __future__ import annotations

from typing import Any, Sequence


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
    markdown: bool = False,
) -> str:
    """Render rows under headers; column widths adapt to content."""
    rendered = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    lines: list[str] = []
    if title:
        lines.append(title)
    if markdown:
        lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
        lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in rendered:
            lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    else:
        header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        lines.append(header_line)
        lines.append("-" * len(header_line))
        for row in rendered:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
