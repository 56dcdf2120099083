"""ASCII rendering of experiment results (no plotting dependencies)."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table.

    >>> print(ascii_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+------
    1 | 2.500
    """
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            " | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def percent_change(new: float, old: float) -> float:
    """Signed percent change from *old* to *new*; 0 when old is 0."""
    if old == 0:
        return 0.0
    return (new - old) / old * 100.0


def mean_spread(mean: float, plus_minus: float, digits: int = 1) -> str:
    """Render a replicated metric as ``mean +/- uncertainty``.

    ``plus_minus`` is printed as given — pass a standard deviation (or
    any half-width you mean literally); the mean is generally not the
    midrange, so deriving an interval from ``(hi - lo) / 2`` here would
    claim coverage it does not have.

    >>> mean_spread(531.02, 28.07)
    '531.0 +/- 28.1'
    """
    if plus_minus <= 0:
        return f"{mean:.{digits}f}"
    return f"{mean:.{digits}f} +/- {plus_minus:.{digits}f}"


def phase_table(phases, title: Optional[str] = None) -> str:
    """Render a scenario run's per-phase metric windows as a table.

    Accepts the ``phases`` tuple of a scenario
    :class:`~repro.experiments.runner.RunResult` (see
    :class:`~repro.sim.stats.PhaseStats`).
    """
    rows = [
        [
            p.index,
            p.pattern,
            f"[{p.start_cycle}, {p.end_cycle})",
            p.measured_cycles,
            p.packets_offered,
            p.packets_delivered,
            round(p.delivered_gbps, 1),
            round(p.mean_latency_cycles, 1),
            round(p.energy_per_message_pj, 0),
            p.faults_fired,
            p.rules_fired,
        ]
        for p in phases
    ]
    return ascii_table(
        ["phase", "pattern", "cycles", "measured", "offered pkts",
         "delivered pkts", "Gb/s", "latency cyc", "EPM pJ", "faults",
         "rules"],
        rows,
        title=title,
    )


def bar(value: float, max_value: float, width: int = 40, char: str = "#") -> str:
    """A proportional text bar (for example scripts)."""
    if max_value <= 0:
        return ""
    n = max(0, min(width, round(value / max_value * width)))
    return char * n
