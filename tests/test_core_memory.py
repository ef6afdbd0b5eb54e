"""Tests for memory planning (Figure 3) and the extent free list."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import compute_lifetimes, plan_memory
from repro.core.memory import ALIGNMENT
from repro.ir import GraphBuilder


def chain_graph(depth=6, hw=16, seed=0):
    b = GraphBuilder("chain", seed=seed)
    x = b.input("in", (1, 8, hw, hw))
    for _ in range(depth):
        x = b.conv(x, oc=8, kernel=3, activation="relu")
    b.output(x)
    return b.finish()


def diamond_graph():
    b = GraphBuilder("diamond", seed=0)
    x = b.input("in", (1, 8, 16, 16))
    left = b.conv(x, oc=8, kernel=3)
    right = b.conv(x, oc=8, kernel=1)
    out = b.add(left, right)
    b.output(out)
    return b.finish()


class TestLifetimes:
    def test_chain_lifetimes_are_short(self):
        g = chain_graph(4)
        order = g.toposort()
        lifetimes = compute_lifetimes(g, order)
        # every intermediate dies one step after it is born, except the output
        for name, life in lifetimes.items():
            if name in g.outputs:
                assert life.last == len(order)
            else:
                assert life.last - life.first == 1

    def test_diamond_input_branch_lives_until_both_uses(self):
        g = diamond_graph()
        order = g.toposort()
        lifetimes = compute_lifetimes(g, order)
        conv_left = order[0].outputs[0]
        add_step = next(i for i, n in enumerate(order) if n.op_type == "Add")
        assert lifetimes[conv_left].last == add_step

    def test_inputs_and_constants_excluded(self):
        g = chain_graph(2)
        lifetimes = compute_lifetimes(g, g.toposort())
        assert "in" not in lifetimes
        for name in g.constants:
            assert name not in lifetimes


class TestPlanMemory:
    def test_chain_reuses_two_slots(self):
        g = chain_graph(8)
        plan = plan_memory(g)
        plan.validate()
        # a pure chain needs at most ~2 live buffers; reuse must be substantial
        assert plan.reuse_ratio > 2.0

    def test_plan_is_sound(self):
        for builder in (chain_graph, diamond_graph):
            plan = plan_memory(builder())
            plan.validate()

    def test_offsets_are_aligned(self):
        plan = plan_memory(chain_graph(5))
        for offset in plan.offsets.values():
            assert offset % ALIGNMENT == 0

    def test_arena_never_exceeds_naive_total(self):
        plan = plan_memory(diamond_graph())
        # alignment may add a little slack per tensor, bounded here
        slack = ALIGNMENT * len(plan.offsets)
        assert plan.arena_bytes <= plan.total_tensor_bytes + slack

    @given(depth=st.integers(1, 10), hw=st.integers(4, 24), seed=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_property_plans_always_sound(self, depth, hw, seed):
        plan = plan_memory(chain_graph(depth, hw, seed))
        plan.validate()

    def test_empty_graph(self):
        b = GraphBuilder("empty")
        x = b.input("in", (1, 3, 4, 4))
        b.output(b.relu(x))
        plan = plan_memory(b.finish())
        plan.validate()
        assert plan.arena_bytes >= 3 * 16 * 4


class TestExtentFreeListGuards:
    """Typed misuse guards on the shared free list (KV arena + sanitizer).

    Every guard raises :class:`FreeListError` — a ``ValueError`` subclass
    carrying a stable rule id and an ``as_diagnostic()`` conversion, so
    allocator misuse surfaces through the same diagnostics pipeline as
    the static lint and the runtime sanitizer.
    """

    def _fl(self, units=16):
        from repro.core.memory import ExtentFreeList

        return ExtentFreeList(units)

    def test_double_free_raises_typed_error(self):
        from repro.core.memory import FreeListError

        fl = self._fl()
        start = fl.alloc(4)
        fl.free(start, 4)
        with pytest.raises(FreeListError) as exc:
            fl.free(start, 4)
        assert exc.value.rule == "mem-double-free"
        assert "double free" in str(exc.value)

    def test_free_of_never_allocated_extent_raises(self):
        from repro.core.memory import FreeListError

        fl = self._fl()
        fl.alloc(4)  # occupies [0, 4)
        with pytest.raises(FreeListError) as exc:
            fl.free(8, 4)  # in range, but never handed out
        assert exc.value.rule == "mem-double-free"

    def test_out_of_range_free_raises(self):
        from repro.core.memory import FreeListError

        fl = self._fl(16)
        for start, units in [(-1, 4), (14, 4), (0, 0), (0, 17)]:
            with pytest.raises(FreeListError) as exc:
                fl.free(start, units)
            assert exc.value.rule == "mem-free-out-of-range"
            assert "bad free" in str(exc.value)

    def test_mismatched_size_free_raises(self):
        from repro.core.memory import FreeListError

        fl = self._fl()
        start = fl.alloc(8)
        with pytest.raises(FreeListError) as exc:
            fl.free(start, 4)  # partial free would corrupt coalescing
        assert exc.value.rule == "mem-free-mismatched"
        # The allocation is still outstanding after the rejected free.
        fl.free(start, 8)
        assert fl.free_units == 16

    def test_guard_errors_convert_to_diagnostics(self):
        from repro.analysis import Severity
        from repro.core.memory import FreeListError

        fl = self._fl()
        with pytest.raises(FreeListError) as exc:
            fl.free(0, 4)
        diag = exc.value.as_diagnostic()
        assert diag.rule == "mem-double-free"
        assert diag.severity is Severity.ERROR

    def test_exact_free_after_realloc_still_works(self):
        fl = self._fl()
        a = fl.alloc(4)
        fl.free(a, 4)
        b = fl.alloc(4)
        assert b == a  # best-fit reuses the hole
        fl.free(b, 4)  # the re-allocation made this free legal again
        assert fl.free_units == 16

    def test_guards_are_valueerrors_for_compatibility(self):
        from repro.core.memory import FreeListError

        fl = self._fl()
        start = fl.alloc(4)
        fl.free(start, 4)
        with pytest.raises(ValueError):
            fl.free(start, 4)
        assert issubclass(FreeListError, ValueError)
