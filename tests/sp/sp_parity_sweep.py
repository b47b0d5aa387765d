"""SP parity sweep over the design registry.

For every registry design with fewer than 200k segments:

* the array-form tree of ``repro.sp.decompose`` must equal the object
  reducer in ``_reference_reduce`` (serial leaf order, mux branch tables,
  branch ranges, parent muxes);
* the O(N) DP's damage of every single fault must equal the lane-packed
  bitset kernel's (``==``).

Prints each design's decompose time, with the IR already compiled
(information only, no gate), and exits 1 on any mismatch.  Run from the
repository root:

    PYTHONPATH=src python tests/sp/sp_parity_sweep.py
"""

import sys
import time

import numpy as np

from _reference_reduce import (
    array_structure,
    reference_decompose,
    reference_structure,
)
from repro.analysis.batch import BatchFaultAnalysis
from repro.analysis.damage import FastDamageAnalysis
from repro.analysis.faults import iter_all_faults
from repro.bench import build_design, design_names
from repro.ir import intern
from repro.sp import decompose
from repro.spec import spec_for_network

MAX_SEGMENTS = 200_000


def main() -> int:
    failures = []
    for design in design_names():
        network = build_design(design)
        segments, _ = network.counts()
        if segments >= MAX_SEGMENTS:
            print(f"{design:<16} skipped ({segments:,} segments)")
            continue
        intern(network)  # time the decomposition, not the IR compile
        started = time.perf_counter()
        tree = decompose(network)
        elapsed = time.perf_counter() - started
        problems = []
        if array_structure(tree) != reference_structure(
            reference_decompose(network)
        ):
            problems.append("tree differs from the reference reducer")
        spec = spec_for_network(network, seed=0)
        faults = list(iter_all_faults(network))
        dp = FastDamageAnalysis(network, spec, tree=tree).damage_vector(
            faults
        )
        bitset = BatchFaultAnalysis(network, spec).damage_vector(faults)
        if not np.array_equal(dp, bitset):
            problems.append(
                f"{int(np.sum(dp != bitset))} of {len(faults)} single-fault "
                "damages differ from the bitset kernel"
            )
        print(
            f"{design:<16} {len(network):>9,} nodes  decompose "
            f"{elapsed * 1e3:8.1f} ms  {len(faults):>9,} faults  "
            + ("; ".join(problems) if problems else "ok"),
            flush=True,
        )
        if problems:
            failures.append(design)
    if failures:
        print(f"SP parity sweep FAILED on: {', '.join(failures)}")
        return 1
    print("SP parity sweep OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
