"""Suite-level markdown report generation.

Renders all (or selected) experiments into one markdown document with a
run header — the machine-generated companion to EXPERIMENTS.md, used via
``repro-run --all --markdown out.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional


def build_markdown_report(
    results,
    experiment_ids: Optional[Iterable[str]] = None,
    title: str = "Instruction repetition — measured results",
    failures: Optional[Dict[str, object]] = None,
) -> str:
    """Render experiments over ``results`` as a markdown document.

    ``failures`` (workload -> FailureRecord) marks a partial run: the
    completed workloads render normally, and a ``## Failures`` table
    records what is missing and why.
    """
    # Imported here to keep repro.analysis free of a hard harness
    # dependency (harness imports analysis).
    from repro.harness.experiments import EXPERIMENT_ORDER, EXPERIMENTS

    ids = list(experiment_ids) if experiment_ids is not None else list(EXPERIMENT_ORDER)
    unknown = [exp_id for exp_id in ids if exp_id not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment(s): {', '.join(unknown)}")

    total_instructions = sum(r.run.analyzed_instructions for r in results.values())
    lines = [
        f"# {title}",
        "",
        f"Workloads: {', '.join(results)}  ",
        f"Instructions analyzed: {total_instructions:,}  ",
        "Generated by `repro-run` — see EXPERIMENTS.md for the paper comparison.",
        "",
    ]
    if failures:
        lines.append(
            f"**Partial run:** {len(failures)} workload(s) failed; "
            "their columns are absent below."
        )
        lines.append("")
        lines.append("## Failures")
        lines.append("")
        lines.append("| workload | kind | engine | attempts | message |")
        lines.append("| --- | --- | --- | --- | --- |")
        for name, record in failures.items():
            lines.append(
                f"| {name} | {record.kind} | {record.engine} "
                f"| {record.attempts} | {record.message} |"
            )
        lines.append("")
    for exp_id in ids:
        exp = EXPERIMENTS[exp_id]
        lines.append(f"## {exp.paper_ref} — {exp.title}")
        lines.append("")
        lines.append("```")
        lines.append(exp.render(results))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
