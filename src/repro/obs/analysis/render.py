"""Text and markdown renderers for analysis reports and run diffs.

:func:`report_sections` turns an :class:`~.findings.AnalysisReport` dict
into one ordered list of ``(title, header, rows)`` tables of formatted
strings; the terminal text, the markdown file and the dashboard's table
view are that list in three notations, so a section added here reaches
all of them. Plain fixed-width text (no ANSI), deterministic line order
— suitable for CI logs and for eyeballing a sweep's diagnosis without
opening the HTML dashboard.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = [
    "report_sections",
    "render_report_text",
    "render_report_markdown",
    "render_headline_text",
    "render_diff_text",
]

#: One table of a report: title, column names, rows of formatted cells.
Section = Tuple[str, List[str], List[List[str]]]

#: Title prefixes of the sections ``repro sweep`` prints when it ends.
_HEADLINE = ("Speedup over Random", "Communication", "Recovery overhead")

#: Columns of a mean / min / max distribution over sweep cells.
_SPREAD = (
    "engine", "graph", "partitioner", "k", "mean", "minimum", "maximum",
)


def _quantity(name: str, value: object) -> str:
    """A report value formatted by its key and type: byte counts in MB,
    fractions in percent, lists and ``{name: number}`` tables inline."""
    if isinstance(value, dict):
        return ", ".join(f"{k}={_quantity(name, v)}" for k, v in value.items())
    if isinstance(value, list):
        return ", ".join(str(item) for item in value)
    if isinstance(value, bool):
        return "yes" if value else ""
    if "bytes" in name or name.startswith("memory"):
        return f"{value / 1e6:.2f} MB"
    if "fraction" in name:
        return f"{value:.1%}"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _named(table: Dict[str, Dict], key: str) -> List[Dict]:
    """``{name: row}`` as a list of rows carrying their name as ``key``."""
    return [{key: name, **row} for name, row in sorted(table.items())]


def report_sections(report: Dict[str, object]) -> List[Section]:
    """An :class:`~.findings.AnalysisReport` dict as ordered tables.

    A table's columns are report keys (spaces for underscores), its
    cells :func:`_quantity` of the value unless the section names a
    formatter. A section is present only when the report has data for it,
    except that missing baselines, telemetry and findings are stated in
    a row-less section.
    """
    source = report.get("source", {})
    summary = report.get("summary", {})
    attribution = report.get("attribution", {})
    coverage = summary.get("coverage", {})
    sections: List[Section] = []

    def add(title, rows, keys, empty=None, **formats) -> None:
        if rows:
            cells = [
                [
                    formats[key](row[key]) if key in formats
                    else _quantity(key, row.get(key, 0))
                    for key in keys
                ]
                for row in rows
            ]
            header = [key.replace("_", " ") for key in keys]
            sections.append((title, header, cells))
        elif empty:
            sections.append((empty, [], []))

    def add_quantities(title, table, empty=None) -> None:
        rows = [
            {"quantity": name.replace("_", " "), "value": _quantity(name, v)}
            for name, v in table.items()
            if v not in ({}, [])
        ]
        add(title, rows, ("quantity", "value"), empty)

    inputs = {**source, **coverage}
    add_quantities(
        "Inputs",
        {k: v for k, v in inputs.items() if k not in ("label", "engines")},
    )
    add(
        "Engines",
        _named(coverage.get("engines", {}), "engine"),
        ("engine", "num_records", "mean_epoch_seconds",
         "mean_network_bytes", "out_of_memory_runs"),
    )

    speedups = attribution.get("speedups", {})
    missing = speedups.get("cells_without_baseline", 0)
    skipped = f"{missing} records without a Random baseline skipped"
    add(
        "Speedup over Random" + (f" ({skipped})" if missing else ""),
        speedups.get("rows", []),
        _SPREAD,
        empty=f"Speedup over Random: {skipped}" if missing else None,
        mean="{:.2f}x".format,
        minimum="{:.2f}x".format,
        maximum="{:.2f}x".format,
    )

    faults = dict(attribution.get("faults") or {})
    overhead = faults.pop("recovery_overhead", [])
    add_quantities("Faults and recovery", faults)
    add(
        "Recovery overhead (fraction of makespan)",
        overhead,
        _SPREAD,
        mean="{:.2%}".format,
        minimum="{:.2%}".format,
        maximum="{:.2%}".format,
    )

    add(
        "Communication reduction (see docs/communication.md)",
        [
            {"engine": engine, **row}
            for engine, configs in sorted(
                attribution.get("comm_configs", {}).items()
            )
            for row in _named(configs, "comm_config")
        ],
        ("engine", "comm_config", "cells", "wire_bytes", "saved_fraction",
         "codec_seconds", "accuracy_proxy_error", "frontier_cells"),
        wire_bytes=lambda total: f"{total / 1e6:.1f} MB",
        accuracy_proxy_error="{:.4f}".format,
    )

    add_quantities(
        "Telemetry (from record obs_metrics)",
        attribution.get("telemetry") or {},
        empty="Telemetry: none - rerun the sweep with --obs-level metrics"
        if source.get("num_records") else None,
    )

    phase_mix = attribution.get("phase_mix", {})
    add(
        f"Critical path ({phase_mix.get('total_seconds', 0.0):.4g}s total "
        f"phase time, {phase_mix.get('recovery_fraction', 0.0):.1%} "
        "recovery)",
        phase_mix.get("phases", []),
        ("name", "total_seconds", "fraction", "recovery"),
    )
    for engine, table in sorted(
        attribution.get("per_partitioner", {}).items()
    ):
        add(
            f"{engine}: mean epoch seconds by partitioner",
            sorted(
                _named(table, "partitioner"),
                key=lambda row: row["mean_epoch_seconds"],
            ),
            ("partitioner", "mean_epoch_seconds", "cells", "phase_fractions"),
        )
    add(
        "Machines",
        attribution.get("machines", []),
        ("machine", "busy_seconds", "bytes_sent", "bytes_received",
         "lost_messages", "memory_peak_bytes"),
    )

    by_severity = summary.get("by_severity", {})
    findings = report.get("findings", [])
    add(
        f"Findings ({len(findings)}: "
        f"{by_severity.get('critical', 0)} critical, "
        f"{by_severity.get('warning', 0)} warning, "
        f"{by_severity.get('info', 0)} info)",
        findings,
        ("severity", "kind", "message"),
        empty="Findings: none - nothing anomalous detected",
    )
    return sections


def _render(report: Dict[str, object], markdown: bool, only=("",)) -> str:
    """The sections whose title starts with ``only``, as fixed-width
    terminal tables or as markdown."""
    label = report.get("source", {}).get("label", "?")
    lines = [f"# Analysis: {label}" if markdown else f"analysis: {label}", ""]
    for title, header, rows in report_sections(report):
        if not title.startswith(only):
            continue
        if markdown:
            lines += [f"## {title}", ""]
            if rows:
                lines.append("| " + " | ".join(header) + " |")
                lines.append("|" + "---|" * len(header))
            lines += ["| " + " | ".join(row) + " |" for row in rows]
        else:
            lines.append(title)
            widths = [max(map(len, column)) for column in zip(header, *rows)]
            for row in [header, *rows] if rows else []:
                cells = (c.ljust(w) for c, w in zip(row, widths))
                lines.append("  " + "  ".join(cells).rstrip())
        lines.append("")
    return "\n".join(lines)


def render_report_text(report: Dict[str, object]) -> str:
    """Render an :class:`~.findings.AnalysisReport` dict for the
    terminal."""
    return _render(report, markdown=False)


def render_report_markdown(report: Dict[str, object]) -> str:
    """Render an :class:`~.findings.AnalysisReport` dict as markdown
    (see ``docs/analysis.md``)."""
    return _render(report, markdown=True)


def render_headline_text(report: Dict[str, object]) -> str:
    """The tail ``repro sweep`` prints: only the speed-up, communication
    and recovery-overhead tables of the report."""
    return _render(report, markdown=False, only=_HEADLINE)


def render_diff_text(diff: Dict[str, object]) -> str:
    """Render a :class:`~.diff.RunDiff` dict for the terminal."""
    lines: List[str] = []
    lines.append(
        f"diff: {diff.get('label_a', 'a')} -> {diff.get('label_b', 'b')}"
    )
    if diff.get("clean"):
        lines.append("  clean — no regressions beyond tolerance")
        lines.append("")
        return "\n".join(lines)

    for title, key in (
        ("metrics only in b", "added_metrics"),
        ("metrics vanished", "removed_metrics"),
        ("cells only in b", "added_cells"),
        ("cells vanished", "removed_cells"),
    ):
        entries = diff.get(key, [])
        if entries:
            lines.append(f"  {title} ({len(entries)}):")
            for name in entries[:20]:
                lines.append(f"    {name}")
            if len(entries) > 20:
                lines.append(f"    ... and {len(entries) - 20} more")

    for title, key, label in (
        ("metric deltas beyond tolerance", "changed_metrics", "metric"),
        ("cell deltas beyond tolerance", "changed_cells", "cell"),
    ):
        changes = diff.get(key, [])
        if changes:
            lines.append(f"  {title} ({len(changes)}):")
            for change in changes[:20]:
                lines.append(
                    f"    {change[label]} {change['field']}: "
                    f"{change['a']:.6g} -> {change['b']:.6g} "
                    f"({change['rel_delta']:.2%})"
                )
            if len(changes) > 20:
                lines.append(f"    ... and {len(changes) - 20} more")

    phase_mix = diff.get("phase_mix", {})
    if phase_mix.get("shifted"):
        lines.append(
            f"  phase-mix shift: {phase_mix['l1_shift']:.2%} L1 "
            f"(threshold {phase_mix['threshold']:.2%})"
        )
        table = phase_mix.get("phases", {})
        moved = sorted(
            table.items(),
            key=lambda item: -abs(
                item[1]["b_fraction"] - item[1]["a_fraction"]
            ),
        )
        for phase, row in moved[:8]:
            lines.append(
                f"    {phase}: {row['a_fraction']:.1%} -> "
                f"{row['b_fraction']:.1%}"
            )
    lines.append("")
    return "\n".join(lines)
