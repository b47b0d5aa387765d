#!/usr/bin/env python3
"""Render the EXPERIMENTS.md result tables from the sweep JSON files.

Usage:  python results/render_tables.py
Reads results/rows_full.json, rows_mux.json, rows_large.json (whichever
exist) and prints markdown tables with paper-vs-measured columns.
"""

import json
from pathlib import Path

RESULTS = Path(__file__).resolve().parent


def fmt(value, digits=0):
    if value is None:
        return "—"
    return f"{value:,.{digits}f}"


def pct(part, whole):
    if part is None or not whole:
        return "—"
    return f"{100.0 * part / whole:.1f}%"


def mmss(seconds):
    minutes, secs = divmod(int(round(seconds)), 60)
    return f"{minutes:02d}:{secs:02d}"


def render(path, title):
    if not path.exists():
        print(f"({path.name} missing — run the sweep first)\n")
        return
    rows = json.loads(path.read_text())
    print(f"### {title}\n")
    print(
        "| design | #seg | #mux | max cost | max damage | gens | "
        "cost @ dmg≤10% | (paper %→ours %) | dmg @ cost≤10% | "
        "(paper %→ours %) | greedy cost | time (paper) |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        p = r["paper"]
        paper_cost_pct = pct(p["min_cost"][0], p["max_cost"])
        ours_cost_pct = pct(r["min_cost"][0], r["max_cost"])
        paper_dmg_pct = pct(p["min_damage"][1], p["max_damage"])
        ours_dmg_pct = pct(r["min_damage"][1], r["max_damage"])
        print(
            f"| {r['design']} | {r['n_segments']:,} | {r['n_muxes']:,} "
            f"| {fmt(r['max_cost'])} | {fmt(r['max_damage'])} "
            f"| {r['generations']} "
            f"| {fmt(r['min_cost'][0])} | {paper_cost_pct}→{ours_cost_pct} "
            f"| {fmt(r['min_damage'][1])} | {paper_dmg_pct}→{ours_dmg_pct} "
            f"| {fmt(r['greedy'][0])} "
            f"| {mmss(r['runtime_seconds'])} ({p['runtime']}) |"
        )
    print()


def render_faultset(path, linear_path, title):
    """Fault-set objective rows side by side with the linear fronts.

    The linear reference is the same-budget `rows_linear01.json` sweep
    when present (fair comparison: identical generations and seed),
    falling back to the full-budget `rows_full.json` rows.
    Constraint percentages are relative to each objective's own maximum
    — the joint max damage is not the linear sum.
    """
    if not path.exists():
        print(f"({path.name} missing — run the sweep first)\n")
        return
    rows = json.loads(path.read_text())
    linear = {}
    if linear_path.exists():
        linear = {r["design"]: r for r in json.loads(linear_path.read_text())}
        fallback = False
    else:
        full = RESULTS / "rows_full.json"
        if full.exists():
            linear = {r["design"]: r for r in json.loads(full.read_text())}
        fallback = True
    print(f"### {title}\n")
    print(
        "| design | #seg | #mux | gens | max damage (joint) | "
        "cost @ dmg≤10% (linear→fault-set) | "
        "dmg≤10% of max (linear→fault-set) | "
        "dmg @ cost≤10% %max (linear→fault-set) | states swept | time |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        lin = linear.get(r["design"])
        lin_cost = fmt(lin["min_cost"][0]) if lin else "—"
        lin_cost_dmg = (
            pct(lin["min_cost"][1], lin["max_damage"]) if lin else "—"
        )
        lin_dmg_pct = (
            pct(lin["min_damage"][1], lin["max_damage"]) if lin else "—"
        )
        swept = r.get("ea_states_swept")
        print(
            f"| {r['design']} | {r['n_segments']:,} | {r['n_muxes']:,} "
            f"| {r['generations']} | {fmt(r['max_damage'])} "
            f"| {lin_cost}→{fmt(r['min_cost'][0])} "
            f"| {lin_cost_dmg}→{pct(r['min_cost'][1], r['max_damage'])} "
            f"| {lin_dmg_pct}→{pct(r['min_damage'][1], r['max_damage'])} "
            f"| {fmt(swept) if swept is not None else '—'} "
            f"| {mmss(r['runtime_seconds'])} |"
        )
    print()
    if fallback:
        print(
            "(linear reference: full-budget rows_full.json — "
            "run the linear ×0.1 sweep for a same-budget comparison)\n"
        )


if __name__ == "__main__":
    render(
        RESULTS / "rows_full.json",
        "Small/medium designs — faithful accounting, full generation "
        "budgets",
    )
    render(
        RESULTS / "rows_mux.json",
        "Small/medium designs — mux-only accounting "
        "(`--damage-sites mux --hardenable control`)",
    )
    render(
        RESULTS / "rows_large.json",
        "Large MBIST designs — faithful accounting, generation budgets "
        "scaled ×0.1",
    )
    render_faultset(
        RESULTS / "rows_faultset.json",
        RESULTS / "rows_linear01.json",
        "Fault-set objective vs same-budget linear fronts, 21 designs "
        "(`--objective fault-set`, budgets ×0.1)",
    )
