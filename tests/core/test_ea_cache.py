"""The EA run cache: identical table1/optimize reruns must replay the
stored archive instead of re-evolving (the cache key folds the EA
parameters in, so a seed or budget change is never served stale)."""

import numpy as np
import pytest

from repro.bench.table1 import run_design
from repro.core.hardening import SelectiveHardening
from repro.ea.spea2 import SPEA2
from repro.spec import spec_for_network


def _harden(network, spec, cache_dir):
    return SelectiveHardening(
        network, spec=spec, seed=0, cache_dir=str(cache_dir)
    )


@pytest.fixture(scope="module")
def design():
    from repro.bench import build_design

    network = build_design("TreeFlat")
    return network, spec_for_network(network, seed=0)


def test_table1_rerun_hits_ea_cache(tmp_path):
    first = run_design(
        "TreeFlat",
        generations=2,
        population_size=16,
        cache_dir=str(tmp_path),
        with_greedy=False,
    )
    second = run_design(
        "TreeFlat",
        generations=2,
        population_size=16,
        cache_dir=str(tmp_path),
        with_greedy=False,
    )
    assert first.ea_cache == "miss"
    assert second.ea_cache == "hit"
    assert second.min_cost_cost == first.min_cost_cost
    assert second.min_cost_damage == first.min_cost_damage
    assert second.min_damage_cost == first.min_damage_cost
    assert second.min_damage_damage == first.min_damage_damage
    assert second.front_size == first.front_size


def test_cache_hit_replays_identical_front(tmp_path, design):
    network, spec = design
    synthesis = _harden(network, spec, tmp_path)
    first = synthesis.optimize(generations=2, population_size=16, seed=3)
    assert synthesis.last_ea_cache == "miss"

    replay = _harden(network, spec, tmp_path)
    second = replay.optimize(generations=2, population_size=16, seed=3)
    assert replay.last_ea_cache == "hit"
    assert np.array_equal(second.genomes, first.genomes)
    assert np.array_equal(second.objectives, first.objectives)


def test_cache_hit_skips_reevolution(tmp_path, design, monkeypatch):
    network, spec = design
    synthesis = _harden(network, spec, tmp_path)
    synthesis.optimize(generations=2, population_size=16, seed=0)

    def explode(self, *args, **kwargs):
        raise AssertionError("cache hit must not re-run the EA")

    monkeypatch.setattr(SPEA2, "run", explode)
    replay = _harden(network, spec, tmp_path)
    replay.optimize(generations=2, population_size=16, seed=0)
    assert replay.last_ea_cache == "hit"


@pytest.mark.parametrize(
    "changed",
    [
        {"seed": 1},
        {"population_size": 18},
        {"generations": 3},
        {"p_mutation": 0.05},
        {"algorithm": "nsga2"},
    ],
)
def test_changed_ea_parameters_miss(tmp_path, design, changed):
    network, spec = design
    base = dict(generations=2, population_size=16, seed=0)
    _harden(network, spec, tmp_path).optimize(**base)

    synthesis = _harden(network, spec, tmp_path)
    synthesis.optimize(**{**base, **changed})
    assert synthesis.last_ea_cache == "miss"


def test_early_stop_disables_cache(tmp_path, design):
    network, spec = design
    synthesis = _harden(network, spec, tmp_path)
    synthesis.optimize(
        generations=2,
        population_size=16,
        early_stop=lambda history: False,
    )
    assert synthesis.last_ea_cache == "disabled"


def test_no_cache_dir_disables_cache(design):
    network, spec = design
    synthesis = SelectiveHardening(network, spec=spec, seed=0)
    synthesis.optimize(generations=2, population_size=16)
    assert synthesis.last_ea_cache == "disabled"


def test_corrupt_cache_entry_degrades_to_miss(tmp_path, design):
    network, spec = design
    synthesis = _harden(network, spec, tmp_path)
    synthesis.optimize(generations=2, population_size=16, seed=0)
    for entry in tmp_path.glob("ea-*.json"):
        entry.write_text("{not json")

    replay = _harden(network, spec, tmp_path)
    result = replay.optimize(generations=2, population_size=16, seed=0)
    assert replay.last_ea_cache == "miss"
    assert len(result.objectives) > 0


def test_cache_entry_is_one_shot_json(tmp_path, design):
    """The run cache is written with one ``json.dumps`` (C encoder): the
    bytes are exactly ``json.dumps`` of the payload, which is also what
    the streaming ``json.dump`` writes, and the entry replays as a hit."""
    import io
    import json

    network, spec = design
    _harden(network, spec, tmp_path).optimize(
        generations=2, population_size=16, seed=0
    )
    (entry,) = tmp_path.glob("ea-*.json")
    text = entry.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload)
    streamed = io.StringIO()
    json.dump(payload, streamed)
    assert streamed.getvalue() == text

    replay = _harden(network, spec, tmp_path)
    replay.optimize(generations=2, population_size=16, seed=0)
    assert replay.last_ea_cache == "hit"
