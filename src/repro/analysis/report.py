"""Table and series rendering for experiment output.

The benchmark harness prints the same row/series structure for every
experiment: one row per (workload, configuration) with the paper's two
axes — memory saving and cycle overhead — plus supporting counters.
Everything here is pure formatting; no simulation logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

Number = Union[int, float]


def format_cell(value: object) -> str:
    """Format one table cell: floats to 3 significant decimals,
    percentages passed through as strings."""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


@dataclass
class Table:
    """A printable experiment table."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        """Attach a free-text note printed under the table."""
        self.notes.append(note)

    def render(self) -> str:
        """Render as an aligned ASCII table."""
        cells = [[format_cell(v) for v in row] for row in self.rows]
        widths = [
            max(
                len(self.columns[i]),
                max((len(row[i]) for row in cells), default=0),
            )
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(
            name.ljust(widths[i]) for i, name in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append(
                "  ".join(cell.ljust(widths[i])
                          for i, cell in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def column(self, name: str) -> List[object]:
        """Extract one column by name."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]


def percent(value: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{value * 100:.1f}%"


@dataclass
class Series:
    """An (x, y) series — a figure's line, printed as value pairs."""

    label: str
    x_name: str
    y_name: str
    points: List[tuple] = field(default_factory=list)

    def add(self, x: Number, y: Number) -> None:
        """Append one point."""
        self.points.append((x, y))

    def render(self) -> str:
        pairs = ", ".join(
            f"({format_cell(x)}, {format_cell(y)})" for x, y in self.points
        )
        return f"{self.label} [{self.x_name} -> {self.y_name}]: {pairs}"

    def ys(self) -> List[Number]:
        """All y values in x order."""
        return [y for _, y in self.points]

    def is_monotone_nonincreasing(self, tolerance: float = 0.0) -> bool:
        """True if y never increases by more than ``tolerance``."""
        ys = self.ys()
        return all(b <= a + tolerance for a, b in zip(ys, ys[1:]))

    def is_monotone_nondecreasing(self, tolerance: float = 0.0) -> bool:
        """True if y never decreases by more than ``tolerance``."""
        ys = self.ys()
        return all(b >= a - tolerance for a, b in zip(ys, ys[1:]))
