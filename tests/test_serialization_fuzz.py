"""Fuzz tests: corrupted model files must fail cleanly, never crash or hang.

The loader's contract is that any malformed input raises FormatError (or a
clean GraphError/ValueError from validation) — never a segfault-ish numpy
error, KeyError leak, or silent wrong model.  Pre-inference cache entries
get the same treatment: a damaged entry is a miss, never wrong numbers.
"""

import copy
import functools
import json
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Session, SessionConfig, select_graph_schemes
from repro.ir import FormatError, GraphBuilder, GraphError, dumps, loads
from repro.kernels.winograd import clear_transform_cache
from repro.serving import Engine, EngineConfig, PreInferenceCache

ACCEPTABLE = (FormatError, GraphError, ValueError, KeyError)


def model_bytes(seed=0):
    b = GraphBuilder("fuzz", seed=seed)
    x = b.input("in", (1, 3, 8, 8))
    x = b.conv(x, oc=4, kernel=3, activation="relu")
    x = b.fc(b.global_avg_pool(x), units=2)
    b.output(b.softmax(x))
    return dumps(b.finish())


BLOB = model_bytes()


class TestSerializationFuzz:
    @given(
        offset=st.integers(0, len(BLOB) - 1),
        value=st.integers(0, 255),
    )
    @settings(max_examples=120, deadline=None)
    def test_single_byte_flip_never_crashes(self, offset, value):
        data = bytearray(BLOB)
        if data[offset] == value:
            value = (value + 1) % 256
        data[offset] = value
        try:
            graph = loads(bytes(data))
        except ACCEPTABLE:
            return  # clean rejection
        # a flip in weight payload bytes can yield a still-valid model;
        # if it loaded, it must be structurally sound
        graph.validate()

    @given(cut=st.integers(0, len(BLOB) - 1))
    @settings(max_examples=60, deadline=None)
    def test_truncation_never_crashes(self, cut):
        with pytest.raises(ACCEPTABLE):
            loads(BLOB[:cut])

    @given(junk=st.binary(min_size=0, max_size=256))
    @settings(max_examples=60, deadline=None)
    def test_random_junk_rejected(self, junk):
        if junk[:4] == b"RMNN":
            return  # astronomically unlikely, but skip true-prefix junk
        with pytest.raises(ACCEPTABLE):
            loads(junk)

    @given(extra=st.binary(min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_trailing_garbage_tolerated_or_rejected(self, extra):
        # appended bytes after a complete model: loader reads a prefix, so
        # this must either load the identical model or reject cleanly
        try:
            graph = loads(BLOB + extra)
        except ACCEPTABLE:
            return
        graph.validate()
        assert [n.op_type for n in graph.nodes] == [
            n.op_type for n in loads(BLOB).nodes
        ]

    def test_swapped_sections_rejected(self):
        # move the constants count field into the metadata: must not hang
        data = bytearray(BLOB)
        mid = len(data) // 2
        data[16:20], data[mid : mid + 4] = data[mid : mid + 4], data[16:20]
        with pytest.raises(ACCEPTABLE):
            loads(bytes(data))


def quantized_model_bytes(seed=3):
    """A serialized *quantized* decoder: int8 constants + scale attrs."""
    from repro.models.text import tiny_decoder
    from repro.quant import quantize_graph

    graph = tiny_decoder(mode="full", seq_len=8, batch=1, vocab=32,
                         max_seq=8, d_model=16, heads=2, layers=1, seed=seed)
    return dumps(quantize_graph(graph))


QBLOB = quantized_model_bytes()


class TestQuantizedSerializationFuzz:
    """int8 tensors and scale metadata through the same corruption mill.

    The quantized format adds two attack surfaces: int8 constant
    payloads and the float scale lists stamped into node attrs.  Neither
    may crash the loader; a *loaded-but-wrong* scale must surface as a
    typed Q-rule diagnostic, not as downstream garbage.
    """

    def test_quantized_round_trip_preserves_scales(self):
        graph = loads(QBLOB)
        graph.validate()
        int8_consts = [c for c in graph.constants.values() if c.dtype == np.int8]
        assert int8_consts, "quantized model lost its int8 constants"
        scaled = [n for n in graph.nodes if n.attrs.get("weight_scales")]
        assert scaled, "quantized model lost its weight_scales attrs"
        assert loads(dumps(graph)).tensor_descs == graph.tensor_descs

    @given(
        offset=st.integers(0, len(QBLOB) - 1),
        value=st.integers(0, 255),
    )
    @settings(max_examples=120, deadline=None)
    def test_quantized_byte_flip_never_crashes(self, offset, value):
        data = bytearray(QBLOB)
        if data[offset] == value:
            value = (value + 1) % 256
        data[offset] = value
        try:
            graph = loads(bytes(data))
        except ACCEPTABLE:
            return  # clean rejection
        graph.validate()

    @given(cut=st.integers(0, len(QBLOB) - 1))
    @settings(max_examples=60, deadline=None)
    def test_quantized_truncation_never_crashes(self, cut):
        with pytest.raises(ACCEPTABLE):
            loads(QBLOB[:cut])

    def test_corrupt_scales_yield_typed_diagnostics(self):
        # Sabotage the scale metadata in every way the wire can: the
        # lint pass must convert each into a typed Q diagnostic instead
        # of letting the kernels divide by it.
        from repro.analysis import Severity, lint_graph

        graph = loads(QBLOB)
        scaled = [n for n in graph.nodes if n.attrs.get("weight_scales")]
        scaled[0].attrs["weight_scales"] = [
            float("nan")
        ] * len(scaled[0].attrs["weight_scales"])               # Q001
        if len(scaled) > 1:
            scaled[1].attrs["weight_scales"] = (
                scaled[1].attrs["weight_scales"][:-1]
            )                                                   # Q003
        diags = [d for d in lint_graph(graph) if d.rule.startswith("Q")]
        assert any(d.rule == "Q001" for d in diags)
        if len(scaled) > 1:
            assert any(d.rule == "Q003" for d in diags)
        assert all(d.severity is Severity.ERROR for d in diags)

    def test_missing_scales_yield_q003(self):
        from repro.analysis import lint_graph

        graph = loads(QBLOB)
        scaled = [n for n in graph.nodes if n.attrs.get("weight_scales")]
        for node in scaled:
            node.attrs["weight_scales"] = None
        diags = [d for d in lint_graph(graph) if d.rule == "Q003"]
        assert len(diags) == len(scaled)


@functools.lru_cache(maxsize=None)
def _cache_case():
    """One stored cache entry of a graph whose only conv runs Winograd, plus
    the uncached session's answer it must reproduce."""
    b = GraphBuilder("fuzzcache", seed=1)
    x = b.input("in", (1, 3, 16, 16))
    x = b.conv(x, oc=16, kernel=3, pad_mode="same", activation="relu")
    b.output(b.fc(b.global_avg_pool(x), units=3))
    graph = b.finish()
    feed = {"in": np.random.default_rng(0).standard_normal((1, 3, 16, 16)).astype(np.float32)}
    # The modeled picks, pinned: measurement may demote the Winograd conv.
    config = SessionConfig(scheme_overrides=select_graph_schemes(graph))
    session = Session(graph, config)
    stored = session.export_artifacts()
    assert stored.winograd, "the fuzz graph must exercise Winograd transforms"
    with tempfile.TemporaryDirectory() as root:
        cache = PreInferenceCache(root)
        key = cache.key(graph, config)
        entry = json.loads(cache.store(key, stored).read_text())
    return SimpleNamespace(graph=graph, config=config, feed=feed, gold=session.run(feed),
                           key=key, stored=stored, entry=entry)


MUTATIONS = ("drop", "retype", "perturb", "truncate", "reshape", "flip")
RETYPES = (None, "x", 7, 1.5, True, [], {})
FITS = {
    "drop": lambda v: True,
    "retype": lambda v: True,
    "perturb": lambda v: isinstance(v, float),
    "truncate": lambda v: isinstance(v, list) and bool(v),
    "reshape": lambda v: isinstance(v, list) and bool(v)
    and all(isinstance(row, list) for row in v),
}


def _nodes(node, path=()):
    """``(path, value)`` for every value below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _mutate(entry, kind, pick, value):
    """The bytes of ``entry`` after one ``kind`` mutation chosen by ``pick``."""
    if kind == "flip":
        raw = bytearray(json.dumps(entry).encode())
        i = pick % len(raw)
        raw[i] = value if raw[i] != value else (value + 1) % 256
        return bytes(raw)
    entry = copy.deepcopy(entry)
    candidates = [(p, v) for p, v in _nodes(entry) if FITS[kind](v)]
    path, old = candidates[pick % len(candidates)]
    container = entry
    for key in path[:-1]:
        container = container[key]
    key = path[-1]
    if kind == "drop":
        del container[key]
    elif kind == "retype":
        container[key] = RETYPES[value % len(RETYPES)]
    elif kind == "perturb":
        container[key] = float(np.nextafter(old, np.inf))
    elif kind == "truncate":
        container[key] = old[:-1]
    else:  # reshape: flatten a matrix into one row
        container[key] = [x for row in old for x in row]
    return json.dumps(entry).encode()


def _assert_bitwise(got, want):
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_array_equal(got[name], want[name])


class TestCacheEntryFuzz:
    """A stored pre-inference entry, mutated on disk: ``load`` returns
    ``None`` or the stored artifacts; an engine over the mutated entry
    answers bitwise like an uncached session; and so does an uncached
    session built afterwards, so nothing the entry held leaked into
    process-wide state."""

    @given(
        kind=st.sampled_from(MUTATIONS),
        pick=st.integers(0, 10**6),
        value=st.integers(0, 255),
    )
    @settings(max_examples=60, deadline=None)
    def test_mutated_entry_loads_equal_or_misses(self, kind, pick, value):
        case = _cache_case()
        blob = _mutate(case.entry, kind, pick, value)
        with tempfile.TemporaryDirectory() as root:
            cache = PreInferenceCache(root)
            path = cache.path(case.key)
            path.write_bytes(blob)
            loaded = cache.load(case.key)
            assert loaded is None or loaded.to_json() == case.stored.to_json()
            path.write_bytes(blob)  # load quarantines what it rejects
            clear_transform_cache()  # as in a fresh process
            engine = Engine(case.graph, EngineConfig(
                session=case.config, pool_size=1, cache_dir=root))
            _assert_bitwise(engine.infer(case.feed), case.gold)
        _assert_bitwise(Session(case.graph, case.config).run(case.feed), case.gold)
