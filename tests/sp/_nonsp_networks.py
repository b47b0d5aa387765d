"""Non-series-parallel RSNs for the virtual-duplication tests."""

from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import SegmentRole


def bridge_network():
    """A Wheatstone-bridge RSN: the cross edge blocks SP reduction."""
    net = RsnNetwork("bridge")
    net.add_scan_in()
    net.add_scan_out()
    net.add_segment("sel1", role=SegmentRole.CONTROL)
    net.add_fanout("f1")
    net.add_segment("a", instrument="ia")
    net.add_segment("b", instrument="ib")
    net.add_fanout("fa")
    net.add_mux("m1", fanin=2, control_cell="sel1")
    net.add_mux("m2", fanin=2, control_cell="sel1")
    net.add_segment("tail", instrument="it")
    for src, dst in (
        ("scan_in", "sel1"),
        ("sel1", "f1"),
        ("f1", "a"),
        ("f1", "b"),
        ("a", "fa"),
        ("fa", "m1"),
        ("b", "m1"),
        ("m1", "m2"),
        ("fa", "m2"),
        ("m2", "tail"),
        ("tail", "scan_out"),
    ):
        net.add_edge(src, dst)
    return net


def stem_bridge_network(bridges: int = 1):
    """A mux-closed stem ``sel, P(p, q), m0`` followed by ``bridges``
    Wheatstone bridges in series.

    The first bridge's fan-outs duplicate the stem, mux included; each
    later bridge duplicates everything before it, so with two or more
    bridges copies are made of structure that already holds copies.
    """
    net = RsnNetwork(f"stem_bridge_{bridges}")
    net.add_scan_in()
    net.add_scan_out()
    net.add_segment("sel", role=SegmentRole.CONTROL)
    net.add_fanout("g")
    net.add_segment("p", instrument="ip")
    net.add_segment("q", instrument="iq")
    net.add_mux("m0", fanin=2, control_cell="sel")
    edges = [
        ("scan_in", "sel"),
        ("sel", "g"),
        ("g", "p"),
        ("g", "q"),
        ("p", "m0"),
        ("q", "m0"),
    ]
    last = "m0"
    for k in range(bridges):
        f, a, b, fa, m1, m2, tail = (
            f"{name}{k}" for name in ("f", "a", "b", "fa", "m1_", "m2_", "tail")
        )
        net.add_fanout(f)
        net.add_segment(a, instrument=f"i{a}")
        net.add_segment(b, instrument=f"i{b}")
        net.add_fanout(fa)
        net.add_mux(m1, fanin=2, control_cell="sel")
        net.add_mux(m2, fanin=2, control_cell="sel")
        net.add_segment(tail, instrument=f"i{tail}")
        edges += [
            (last, f),
            (f, a),
            (f, b),
            (a, fa),
            (fa, m1),
            (b, m1),
            (m1, m2),
            (fa, m2),
            (m2, tail),
        ]
        last = tail
    edges.append((last, "scan_out"))
    for src, dst in edges:
        net.add_edge(src, dst)
    return net
