"""Golden pins for the seeded random streams of a Table-I row.

The paper's random specification (Sec. VI) and the SPEA-2 run behind
every Table-I row are reproducible from their seeds.  These values were
recorded before the linear-time spec draw and the column-wise selection
kernels went in; any drift in either stream (a reordered draw, a changed
float sum) fails here, not only in the benchmark's stored rows.
"""

import hashlib

import numpy as np
import pytest

from repro.bench import build_design
from repro.core import SelectiveHardening
from repro.spec import random_spec

SPEC_SHA256 = {
    0: "7dc29e77e737494ec81abbd1ba39a46cec02b8d94d5a1db4d5581c7806940d30",
    1: "bb41ab3d3c2e8063b9deecd39b56e368bff914f610ca6ced2d589a100267d286",
    2: "19604971804208d4546fd11a5b530f9c8b2770e4aea1be77c5547f7376c36318",
}

TREEFLAT_FRONT = [
    [0.0, 8171.0],
    [8.0, 7687.0],
    [16.0, 7675.0],
    [24.0, 7071.0],
    [29.0, 6974.0],
    [32.0, 6587.0],
    [40.0, 6585.0],
    [53.0, 6194.0],
    [72.0, 5914.0],
    [134.0, 5701.0],
    [185.0, 2368.0],
    [241.0, 567.0],
    [447.0, 473.0],
    [734.0, 123.0],
    [792.0, 94.0],
    [830.0, 0.0],
]
#: sha256 over the packed front genomes followed by the objective bytes,
#: by generation count; 12 generations run the archive truncation.
TREEFLAT_FRONT_SHA256 = {
    3: "3b83e78b00e7613cab6bd6fd4a81dfd3bad32767aedc3cc53168ae9e592ba5c7",
    12: "0b2071a904607d62168276fd8fb9510c0fcb831642450214750e014c8304f134",
}


@pytest.mark.parametrize("seed", sorted(SPEC_SHA256))
def test_random_spec_stream(seed):
    names = [f"instrument_{index:04d}" for index in range(1000)]
    text = random_spec(names, seed).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == SPEC_SHA256[seed]


@pytest.mark.parametrize("generations", sorted(TREEFLAT_FRONT_SHA256))
def test_spea2_front_stream(generations):
    result = SelectiveHardening(build_design("TreeFlat")).optimize(
        generations=generations, population_size=32, seed=0
    )
    genomes, objectives = result.front()
    if generations == 3:
        assert objectives.tolist() == TREEFLAT_FRONT
    digest = hashlib.sha256(
        np.packbits(genomes, axis=1).tobytes() + objectives.tobytes()
    ).hexdigest()
    assert digest == TREEFLAT_FRONT_SHA256[generations]
