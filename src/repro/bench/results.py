"""Result tables: the common output format of every reproduced experiment.

Each experiment function in :mod:`repro.bench.experiments` returns one or
more :class:`ResultTable` objects whose rows mirror the series the paper
plots.  Tables render as aligned ASCII (for the benchmark console output and
EXPERIMENTS.md) and as CSV (for plotting elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..common.errors import ConfigurationError


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class ResultTable:
    """A titled table of experiment results."""

    title: str
    columns: Sequence[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""
    #: Fault counters summed over the systems the experiment built
    #: (:func:`repro.bench.runner.counting_faults`); empty when not tallied.
    counters: dict[str, int] = field(default_factory=dict)
    #: The largest Phase II lag (``phase_two_at - phase_one_at``, seconds)
    #: of any operation those systems committed; ``None`` when not tallied.
    phase_two_lag_s: Optional[float] = None

    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ConfigurationError(f"unknown columns {sorted(unknown)} in {self.title}")
        self.rows.append(values)

    def column(self, name: str) -> list:
        if name not in self.columns:
            raise ConfigurationError(f"no column {name!r} in {self.title}")
        return [row.get(name) for row in self.rows]

    def rows_where(self, **criteria: Any) -> list[dict]:
        """Rows matching every ``column=value`` criterion."""

        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format(self) -> str:
        header = list(self.columns)
        body = [[_format_cell(row.get(col, "")) for col in header] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = [",".join(str(col) for col in self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(row.get(col, "")) for col in self.columns))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.format()


def print_tables(tables: Iterable[ResultTable]) -> None:
    """Print tables separated by blank lines (used by benchmark modules)."""

    for table in tables:
        print()
        print(table.format())
