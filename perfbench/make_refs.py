"""Regenerate the stored reference outputs of ``table1-linear`` and
``campaign-mc``.

Run from the repository root after a change that is *meant* to alter
results (and say so in the change)::

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/make_refs.py

Each pool entry is computed in this process with the same calls the
benchmark times, through the same record functions it checks with.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402


def write(name: str, payload: dict) -> None:
    path = os.path.join(HERE, "refs", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def main() -> int:
    from repro.analysis.graph_analysis import GraphDamageAnalysis

    with tempfile.TemporaryDirectory() as work:
        rows = {}
        for seed in child.TABLE1["pool"]:
            row = child.table1_row(seed, os.path.join(work, f"t{seed}"))
            rows[str(seed)] = child.table1_record(row)
        write("table1-linear", {"config": child.TABLE1, "rows": rows})

        network, spec = child.campaign_inputs()
        analysis = GraphDamageAnalysis(network, spec, backend="bitset")
        campaigns = {}
        for seed in child.CAMPAIGN["pool"]:
            result = child.campaign_run(
                analysis, seed, os.path.join(work, f"c{seed}.ckpt")
            )
            campaigns[str(seed)] = child.campaign_record(result)
        write("campaign-mc", {"config": child.CAMPAIGN, "campaigns": campaigns})
    return 0


if __name__ == "__main__":
    sys.exit(main())
