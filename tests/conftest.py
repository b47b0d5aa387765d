"""Shared fixtures: reference networks used across the test-suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The test-only oracles (analysis/_reference_reach.py) and non-SP network
# builders (sp/_nonsp_networks.py) import by module name from any test
# directory.
_TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(_TESTS / "analysis"), str(_TESTS / "sp")]

from repro.bench.generators import fig1_example
from repro.rsn import RsnBuilder
from repro.sp import decompose
from repro.spec import CriticalitySpec


@pytest.fixture
def fig1_network():
    """The paper's running example (Figs. 1-4)."""
    return fig1_example()


@pytest.fixture
def fig1_tree(fig1_network):
    return decompose(fig1_network)


@pytest.fixture
def fig1_spec():
    """Deterministic weights for the example's five instruments."""
    return CriticalitySpec(
        {f"i{k}": (float(k), float(10 + k)) for k in range(1, 6)}
    )


@pytest.fixture
def chain_network():
    """Three plain segments in series — no mux at all."""
    builder = RsnBuilder("chain")
    builder.segment("s1", length=2, instrument="a")
    builder.segment("s2", length=3, instrument="b")
    builder.segment("s3", length=1, instrument="c")
    return builder.build()


@pytest.fixture
def sib_network():
    """One SIB hosting two segments, one plain segment outside."""
    builder = RsnBuilder("single_sib")
    builder.segment("pre", length=2, instrument="outside")
    with builder.sib("sib0"):
        builder.segment("in1", length=2, instrument="first")
        builder.segment("in2", length=3, instrument="second")
    return builder.build()


@pytest.fixture
def nested_sib_network():
    """Two-level SIB nesting (MBIST-like)."""
    builder = RsnBuilder("nested")
    with builder.sib("outer"):
        builder.segment("top", length=1, instrument="i_top")
        with builder.sib("inner"):
            builder.segment("deep1", length=2, instrument="i_deep1")
            builder.segment("deep2", length=2, instrument="i_deep2")
    return builder.build()


@pytest.fixture
def mux3_network():
    """A 3-branch mux with one bypass wire branch."""
    builder = RsnBuilder("mux3")
    with builder.mux("m") as mux:
        with mux.branch():
            builder.segment("x", length=2, instrument="ix")
        with mux.branch():
            pass  # bypass
        with mux.branch():
            builder.segment("y", length=1, instrument="iy")
    return builder.build()


@pytest.fixture
def shared_cell_network():
    """One control cell driving two muxes (shared select)."""
    builder = RsnBuilder("shared")
    builder.control_cell("sel", length=1)
    with builder.mux("mA", control="sel") as mux:
        with mux.branch():
            builder.segment("a0", length=1, instrument="ia0")
        with mux.branch():
            builder.segment("a1", length=1, instrument="ia1")
    with builder.mux("mB", control="sel") as mux:
        with mux.branch():
            builder.segment("b0", length=1, instrument="ib0")
        with mux.branch():
            builder.segment("b1", length=1, instrument="ib1")
    return builder.build()
