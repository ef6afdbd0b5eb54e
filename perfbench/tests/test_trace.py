import pytest

from perfbench.trace import Recorder, Span, covered, self_times


def _span(name, start, end, parent=None):
    span = Span(name, start, parent, tid=1, op=None)
    span.end = end
    return span


def test_self_time_on_a_nested_tree():
    #  root 0..10
    #    a  1..4      (child b 2..3)
    #    c  5..9      (children d 5..6, e 6.5..8.5)
    root = _span("op", 0.0, 10.0)
    a = _span("core.a", 1.0, 4.0, root)
    b = _span("kernels.b", 2.0, 3.0, a)
    c = _span("genai.c", 5.0, 9.0, root)
    d = _span("genai.d", 5.0, 6.0, c)
    e = _span("genai.e", 6.5, 8.5, c)
    selfs = self_times([root, a, b, c, d, e])
    assert selfs[root] == pytest.approx(3.0)     # 10 - (3 + 4)
    assert selfs[a] == pytest.approx(2.0)
    assert selfs[b] == pytest.approx(1.0)
    assert selfs[c] == pytest.approx(1.0)        # 4 - (1 + 2)
    assert sum(selfs.values()) == pytest.approx(root.dur)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 9.0)], 0.0, 8.0) == pytest.approx(5.0)
    assert covered([], 0.0, 8.0) == 0.0


def test_recorder_nests_by_thread_and_inherits_the_operation():
    rec = Recorder()
    with rec.span("op", op=7) as root:
        with rec.span("core.session_run") as inner:
            pass
    assert inner.parent is root and inner.op == 7
    assert root.parent is None and root.dur >= inner.dur


def test_wrappers_record_then_restore_the_originals():
    from repro.core import Session
    from repro.faults.chaos import default_chaos_graph
    from repro.genai import KVCacheAllocator
    from repro.serving import SessionPool
    import numpy as np

    originals = (Session.run, Session.__init__, SessionPool.acquire,
                 KVCacheAllocator.alloc)
    rec = Recorder()
    rec.install()
    try:
        assert Session.run is not originals[0]
        graph = default_chaos_graph()
        session = Session(graph)
        x = np.zeros(graph.desc(graph.inputs[0]).shape, np.float32)
        with rec.span("op", op=0):
            session.run({graph.inputs[0]: x})
    finally:
        rec.restore()
    assert (Session.run, Session.__init__, SessionPool.acquire,
            KVCacheAllocator.alloc) == originals
    names = [s.name for s in rec.spans]
    assert names == ["core.session_init", "op", "core.session_run"]
    init, _, run = rec.spans
    assert init.args == {"cold": True}
    assert run.args["batch"] == 1 and run.parent.name == "op" and run.op == 0
    session.run({graph.inputs[0]: x})
    assert len(rec.spans) == 3          # nothing records after restore
