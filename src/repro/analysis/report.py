"""Plain-text tables, and the geometric mean the figures aggregate by."""

import math


def render_table(headers, rows, title=None):
    """A boxed, column-aligned ASCII table."""
    columns = [str(header) for header in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(column) for column in columns]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells):
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(columns))
    parts.append("-+-".join("-" * width for width in widths))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)


def geometric_mean(values):
    """Geometric mean of positive values (the paper's Fig. 8 aggregate)."""
    filtered = [value for value in values if value > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(value) for value in filtered) / len(filtered))
