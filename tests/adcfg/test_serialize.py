"""Binary serialisation round-trips and size accounting."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adcfg.graph import ADCFG, END_LABEL, START_LABEL
from repro.adcfg.serialize import (
    SerializationError,
    adcfg_size_bytes,
    deserialize_adcfg,
    serialize_adcfg,
)
from tests.oracle import assert_matches_reference, reference_serialize_adcfg


def sample_graph():
    graph = ADCFG("kern@abcd", kernel_name="kern", total_threads=64,
                  num_warps=2)
    graph.edge(START_LABEL, "a").record(START_LABEL, 2)
    graph.edge("a", "b").record(START_LABEL, 2)
    graph.edge("b", "b").record("a", 1)
    graph.edge("b", END_LABEL).record("b", 2)
    node_a = graph.node("a")
    node_a.record_entry(2)
    node_a.record_access(0, 0, 3, False, [("input", 0), ("input", 8)])
    node_a.record_access(0, 1, 5, True, [("output", -16)])
    node_b = graph.node("b")
    node_b.record_entry(3)
    node_b.record_access(1, 0, 4, False, [("shared", 4)] * 7)
    return graph


class TestRoundTrip:
    def test_sample_graph(self):
        graph = sample_graph()
        assert deserialize_adcfg(serialize_adcfg(graph)) == graph

    def test_empty_graph(self):
        graph = ADCFG("empty@0")
        assert deserialize_adcfg(serialize_adcfg(graph)) == graph

    def test_metadata_preserved(self):
        restored = deserialize_adcfg(serialize_adcfg(sample_graph()))
        assert restored.kernel_identity == "kern@abcd"
        assert restored.kernel_name == "kern"
        assert restored.total_threads == 64
        assert restored.num_warps == 2

    def test_negative_offsets_survive(self):
        restored = deserialize_adcfg(serialize_adcfg(sample_graph()))
        assert ("output", -16) in restored.nodes["a"].visits[0][1].counts

    def test_unicode_labels(self):
        graph = ADCFG("kernel@λ", kernel_name="kernel")
        graph.node("blök").record_entry()
        assert deserialize_adcfg(serialize_adcfg(graph)) == graph

    def test_serialisation_is_canonical(self):
        """Equal graphs built in different insertion orders serialise
        identically — the property the filtering phase's digests rely on."""
        forward = ADCFG("k@1")
        forward.node("a").record_entry()
        forward.node("b").record_entry()
        backward = ADCFG("k@1")
        backward.node("b").record_entry()
        backward.node("a").record_entry()
        assert serialize_adcfg(forward) == serialize_adcfg(backward)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            deserialize_adcfg(b"NOPE" + b"\x00" * 16)

    def test_truncated_payload(self):
        payload = serialize_adcfg(sample_graph())
        with pytest.raises(SerializationError):
            deserialize_adcfg(payload[:len(payload) // 2])

    def test_trailing_bytes(self):
        payload = serialize_adcfg(sample_graph())
        with pytest.raises(SerializationError):
            deserialize_adcfg(payload + b"\x00")

    def test_unsupported_version(self):
        payload = bytearray(serialize_adcfg(sample_graph()))
        payload[4] = 99
        with pytest.raises(SerializationError):
            deserialize_adcfg(bytes(payload))


class TestSizeAccounting:
    def test_size_equals_payload_length(self):
        graph = sample_graph()
        assert adcfg_size_bytes(graph) == len(serialize_adcfg(graph))

    def test_size_grows_with_distinct_addresses(self):
        small = ADCFG("k@1")
        small.node("a").record_access(0, 0, 3, False, [("b", 0)])
        big = ADCFG("k@1")
        big.node("a").record_access(0, 0, 3, False,
                                    [("b", 8 * i) for i in range(100)])
        assert adcfg_size_bytes(big) > adcfg_size_bytes(small)

    def test_size_constant_under_repeat_access(self):
        """Duplicate accesses only bump counters: the de-duplication that
        keeps thread-heavy traces bounded (§V-B)."""
        once = ADCFG("k@1")
        once.node("a").record_access(0, 0, 3, False, [("b", 0)])
        many = ADCFG("k@1")
        many.node("a").record_access(0, 0, 3, False, [("b", 0)] * 10_000)
        assert adcfg_size_bytes(many) == adcfg_size_bytes(once)


@st.composite
def random_graphs(draw):
    graph = ADCFG(draw(st.sampled_from(["k@1", "kernel@ff", "x@0"])))
    labels = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]),
                           min_size=1, max_size=4, unique=True))
    for label in labels:
        node = graph.node(label)
        node.record_entry(draw(st.integers(1, 5)))
        for visit in range(draw(st.integers(0, 2))):
            for instr in range(draw(st.integers(0, 2))):
                offsets = draw(st.lists(
                    st.integers(-1000, 1000), min_size=1, max_size=4))
                node.record_access(visit, instr, draw(st.integers(0, 8)),
                                   draw(st.booleans()),
                                   [("buf", off) for off in offsets])
    for src in labels:
        for dst in labels:
            if draw(st.booleans()):
                graph.edge(src, dst).record(
                    draw(st.sampled_from(labels + [START_LABEL])),
                    draw(st.integers(1, 9)))
    return graph


@given(graph=random_graphs())
@settings(max_examples=60, deadline=None)
def test_property_roundtrip(graph):
    assert deserialize_adcfg(serialize_adcfg(graph)) == graph


LABELS = st.sampled_from(["a", "b", "blök", "λ", "sbox→T0", "x" * 40])
OFFSETS = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def v1_graphs(draw):
    """Graphs over the v1 format's full value ranges: non-ASCII labels,
    negative offsets and empty records (slots skipped over)."""
    graph = ADCFG(draw(st.sampled_from(["k@1", "kernel@λ"])),
                  kernel_name=draw(st.sampled_from(["", "kern", "ядро"])),
                  total_threads=draw(st.integers(0, 2 ** 32 - 1)),
                  num_warps=draw(st.integers(0, 2 ** 32 - 1)))
    blocks = draw(st.lists(LABELS, max_size=4, unique=True))
    for label in blocks:
        node = graph.node(label)
        node.record_entry(draw(st.integers(0, 2 ** 64 - 1)))
        for _ in range(draw(st.integers(0, 4))):
            counts = draw(st.dictionaries(st.tuples(LABELS, OFFSETS),
                                          st.integers(1, 2 ** 61),
                                          max_size=6))
            node.record_access_bulk(
                draw(st.integers(0, 2)), draw(st.integers(0, 3)),
                draw(st.integers(0, 255)), draw(st.booleans()),
                list(counts), list(counts.values()))
    ends = blocks + [START_LABEL, END_LABEL]
    for _ in range(draw(st.integers(0, 6))):
        graph.edge(draw(st.sampled_from(ends)),
                   draw(st.sampled_from(ends))).record(
            draw(st.one_of(LABELS, st.just(START_LABEL))),
            draw(st.integers(1, 2 ** 61)))
    return graph


@given(graph=st.one_of(random_graphs(), v1_graphs()))
@settings(max_examples=150, deadline=None)
def test_property_codec_matches_reference(graph):
    assert_matches_reference(graph)


def pinned_graph():
    graph = ADCFG("kernel@λ0f", kernel_name="kernel", total_threads=96,
                  num_warps=3)
    graph.edge(START_LABEL, "a").record(START_LABEL, 3)
    graph.edge("a", "blök").record(START_LABEL, 2)
    graph.edge("a", "blök").record("blök", 5)
    graph.edge("blök", "a").record("a", 4)
    graph.edge("blök", END_LABEL).record("a", 3)
    node = graph.node("a")
    node.record_entry(7)
    node.record_access(0, 0, 1, False, [("input", 0), ("input", 8),
                                        ("sbox→T0", -4)])
    # slot (1, 1) leaves slot (1, 0) an empty record
    node.record_access(1, 1, 3, True, [("output", -(2 ** 63))] * 3
                       + [("output", 2 ** 63 - 1)])
    node = graph.node("blök")
    node.record_entry(5)
    node.record_access(0, 0, 4, False, [("shared", off)
                                        for off in range(-64, 64, 4)])
    return graph


#: SHA-256 of :func:`pinned_graph`'s v1 payload as the per-element codec
#: wrote it before the per-record rewrite: a drift of codec and reference
#: together still fails here
PINNED_PAYLOAD_SHA256 = (
    "8531b9183e4829f1624cfe45d200d89deecf2306e3b621e99b2abf0b0c4009e3")


@pytest.mark.parametrize("encode", [serialize_adcfg,
                                    reference_serialize_adcfg])
def test_pinned_payload_digest(encode):
    payload = encode(pinned_graph())
    assert hashlib.sha256(payload).hexdigest() == PINNED_PAYLOAD_SHA256
    assert len(payload) == adcfg_size_bytes(pinned_graph())
