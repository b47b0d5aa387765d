#!/usr/bin/env python3
"""Insert the rendered result tables into EXPERIMENTS.md.

Replaces everything between the TABLES:BEGIN / TABLES:END markers with the
output of render_tables.py.  Idempotent.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import render_tables  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
BEGIN = "<!-- TABLES:BEGIN -->"
END = "<!-- TABLES:END -->"


def main() -> int:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        render_tables.render(
            render_tables.RESULTS / "rows_full.json",
            "Small/medium designs — faithful accounting, full generation "
            "budgets",
        )
        render_tables.render(
            render_tables.RESULTS / "rows_mux.json",
            "Small/medium designs — mux-only accounting "
            "(`--damage-sites mux --hardenable control`)",
        )
        render_tables.render(
            render_tables.RESULTS / "rows_large.json",
            "Large MBIST designs — faithful accounting, generation "
            "budgets scaled ×0.1",
        )
        render_tables.render_faultset(
            render_tables.RESULTS / "rows_faultset.json",
            render_tables.RESULTS / "rows_linear01.json",
            "Fault-set objective vs same-budget linear fronts, 21 designs "
            "(`--objective fault-set`, budgets ×0.1)",
        )
    tables = buffer.getvalue().strip()

    text = EXPERIMENTS.read_text()
    begin = text.index(BEGIN) + len(BEGIN)
    end = text.index(END)
    text = text[:begin] + "\n\n" + tables + "\n\n" + text[end:]
    EXPERIMENTS.write_text(text)
    print(f"inserted {len(tables.splitlines())} table lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
