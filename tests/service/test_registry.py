"""Network registry: uploads, fingerprint keying, dedupe, memoization."""

import threading

import pytest

from repro.bench import build_design
from repro.bench.designs import get_design
from repro.ir import intern
from repro.rsn import icl
from repro.rsn.ast import decl_from_dict, decl_to_dict, elaborate
from repro.service.registry import NetworkRegistry, RegistryError


@pytest.fixture
def registry():
    return NetworkRegistry()


@pytest.fixture
def tree_decl():
    return get_design("TreeFlat").generate()


def test_add_icl_keys_by_ir_fingerprint(registry, tree_decl):
    entry = registry.add_icl(icl.dumps(tree_decl))
    assert entry.fingerprint == intern(build_design("TreeFlat")).fingerprint
    assert entry.source == "icl"
    assert registry.get(entry.fingerprint) is entry
    assert entry.fingerprint in registry
    assert len(registry) == 1


def test_add_design_and_describe(registry):
    entry = registry.add_design("TreeFlat")
    description = entry.describe()
    assert description["fingerprint"] == entry.fingerprint
    assert description["n_segments"] == 24
    assert description["n_muxes"] == 24
    assert description["source"] == "design"
    assert description["n_nodes"] == entry.ir.n_nodes


def test_json_declaration_round_trip(tree_decl):
    payload = decl_to_dict(tree_decl)
    assert decl_from_dict(payload) == tree_decl


def test_add_json_equals_add_icl(registry, tree_decl):
    json_entry = registry.add_json(decl_to_dict(tree_decl))
    icl_entry = registry.add_icl(icl.dumps(tree_decl))
    # Same structure from two source formats: one interned entry.
    assert json_entry is icl_entry
    assert len(registry) == 1


def test_add_dispatch(registry, tree_decl):
    assert registry.add({"design": "TreeFlat"}).source == "design"
    assert (
        registry.add({"icl": icl.dumps(tree_decl)}).fingerprint
        == registry.add({"network": decl_to_dict(tree_decl)}).fingerprint
    )


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"icl": "x", "design": "TreeFlat"},
        {"unknown": 1},
        "not a mapping",
    ],
)
def test_add_rejects_malformed_payloads(registry, payload):
    with pytest.raises(RegistryError):
        registry.add(payload)


def test_unknown_design_and_fingerprint_raise(registry):
    with pytest.raises(RegistryError):
        registry.add_design("NoSuchDesign")
    with pytest.raises(RegistryError):
        registry.get("deadbeef")


def test_spec_memoized_per_seed(registry):
    entry = registry.add_design("TreeFlat")
    spec_a = registry.spec(entry.fingerprint, seed=0)
    spec_b = registry.spec(entry.fingerprint, seed=0)
    spec_c = registry.spec(entry.fingerprint, seed=1)
    assert spec_a is spec_b
    assert spec_a is not spec_c
    assert spec_a.to_dict() != spec_c.to_dict()


def test_damage_solver_memoized_per_seed_and_policy(registry):
    entry = registry.add_design("TreeFlat")
    a = registry.damage_solver(entry.fingerprint, seed=0, policy="max")
    assert registry.damage_solver(entry.fingerprint, 0, "max") is a
    assert registry.damage_solver(entry.fingerprint, 0, "sum") is not a
    assert registry.damage_solver(entry.fingerprint, 1, "max") is not a


def test_elaborated_network_matches_builder(registry, tree_decl):
    entry = registry.add_json(decl_to_dict(tree_decl))
    direct = elaborate(tree_decl)
    assert intern(direct).fingerprint == entry.fingerprint


def test_concurrent_uploads_dedupe(registry, tree_decl):
    text = icl.dumps(tree_decl)
    entries = []

    def upload():
        entries.append(registry.add_icl(text))

    threads = [threading.Thread(target=upload) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(registry) == 1
    assert len({id(e) for e in entries}) == 1
