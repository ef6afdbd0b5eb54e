"""Static concurrency lint (C0xx): planted defects, exemptions, self-lint.

Each rule gets a minimal planted source that must trigger it and a
minimal corrected source that must not — the lint is only trustworthy as
a merge gate (``scripts/check.sh``) if both directions hold.  The
self-lint tests then run the full rule family over ``src/repro`` itself,
which must stay clean.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import C_RULES, Severity, lint_source_text, lint_source_tree

pytestmark = pytest.mark.sanitize


def lint(source):
    return lint_source_text(textwrap.dedent(source), "planted.py")


def rules(diags):
    return [d.rule for d in diags]


class TestC001LockOrder:
    def test_inverted_nesting_across_methods(self):
        diags = lint(
            """
            import threading

            class Worker:
                def __init__(self):
                    self._alock = threading.Lock()
                    self._block = threading.Lock()

                def forward(self):
                    with self._alock:
                        with self._block:
                            pass

                def backward(self):
                    with self._block:
                        with self._alock:
                            pass
            """
        )
        assert "C001" in rules(diags)
        c001 = next(d for d in diags if d.rule == "C001")
        assert c001.severity is Severity.ERROR  # a real deadlock risk

    def test_consistent_nesting_is_clean(self):
        diags = lint(
            """
            import threading

            class Worker:
                def __init__(self):
                    self._alock = threading.Lock()
                    self._block = threading.Lock()

                def forward(self):
                    with self._alock:
                        with self._block:
                            pass

                def backward(self):
                    with self._alock:
                        with self._block:
                            pass
            """
        )
        assert "C001" not in rules(diags)

    def test_cross_module_cycle_via_tree_merge(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text(textwrap.dedent(
            """
            import threading

            class A:
                def __init__(self):
                    self.red_lock = threading.Lock()
                    self.blue_lock = threading.Lock()

                def go(self):
                    with self.red_lock:
                        with self.blue_lock:
                            pass
            """
        ))
        (pkg / "b.py").write_text(textwrap.dedent(
            """
            import threading

            class A:
                def __init__(self):
                    self.red_lock = threading.Lock()
                    self.blue_lock = threading.Lock()

                def back(self):
                    with self.blue_lock:
                        with self.red_lock:
                            pass
            """
        ))
        diags = lint_source_tree(pkg)
        assert "C001" in rules(diags)


class TestC002MixedMutation:
    PLANTED = """
        import threading

        class Batcher:
            def __init__(self):
                self._lock = threading.Lock()
                self._pending = []

            def submit(self, item):
                with self._lock:
                    self._pending.append(item)

            def drain(self):
                self._pending.clear()
        """

    def test_inside_and_outside_mutation_flagged(self):
        diags = lint(self.PLANTED)
        assert "C002" in rules(diags)
        c002 = next(d for d in diags if d.rule == "C002")
        assert "_pending" in c002.message and "drain" in c002.message

    def test_always_locked_is_clean(self):
        diags = lint(
            """
            import threading

            class Batcher:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pending = []

                def submit(self, item):
                    with self._lock:
                        self._pending.append(item)

                def drain(self):
                    with self._lock:
                        self._pending.clear()
            """
        )
        assert "C002" not in rules(diags)

    def test_init_is_exempt(self):
        # Construction happens-before every other access; the planted
        # source's only unlocked writes are in __init__.
        diags = lint(
            """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []
                    self._items.append(0)

                def put(self, x):
                    with self._lock:
                        self._items.append(x)
            """
        )
        assert "C002" not in rules(diags)

    def test_lock_held_docstring_exempts_helper(self):
        diags = lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._live = {}

                def drop(self, k):
                    with self._lock:
                        self._forget(k)

                def _forget(self, k):
                    \"\"\"Drop one key.  Called with the lock held.\"\"\"
                    self._live.pop(k, None)

                def put(self, k, v):
                    with self._lock:
                        self._live.update({k: v})
            """
        )
        assert "C002" not in rules(diags)

    def test_suppression_comment(self):
        suppressed = self.PLANTED.replace(
            "self._pending.clear()",
            "self._pending.clear()  # sanitize: single-thread",
        )
        assert "C002" not in rules(lint(suppressed))


class TestC003NestedAcquire:
    def test_nested_same_lock_flagged(self):
        diags = lint(
            """
            import threading

            class Nested:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        assert "C003" in rules(diags)

    def test_rlock_reentry_is_clean(self):
        diags = lint(
            """
            import threading

            class Nested:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        assert "C003" not in rules(diags)

    def test_condition_aliases_its_lock(self):
        # Holding the condition IS holding the wrapped lock: re-entering
        # via the other name is the same non-reentrant deadlock.
        diags = lint(
            """
            import threading

            class CondUser:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)

                def bad(self):
                    with self._cond:
                        with self._lock:
                            pass
            """
        )
        assert "C003" in rules(diags)


class TestC004BlockingUnderLock:
    def test_sleep_and_join_under_lock_flagged(self):
        diags = lint(
            """
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._thread = threading.Thread(target=print)

                def nap(self):
                    with self._lock:
                        time.sleep(1.0)

                def stop(self):
                    with self._lock:
                        self._thread.join()
            """
        )
        assert rules(diags).count("C004") == 2

    def test_condition_wait_is_exempt(self):
        diags = lint(
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._cond = threading.Condition()

                def hold(self):
                    with self._cond:
                        self._cond.wait(1.0)
            """
        )
        assert "C004" not in rules(diags)

    def test_blocking_outside_lock_is_clean(self):
        diags = lint(
            """
            import threading
            import time

            class Fine:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    time.sleep(0.1)
                    with self._lock:
                        pass
            """
        )
        assert "C004" not in rules(diags)


class TestC005BareAcquire:
    def test_bare_acquire_flagged(self):
        diags = lint(
            """
            import threading

            class Leaky:
                def __init__(self):
                    self._lock = threading.Lock()

                def grab(self):
                    self._lock.acquire()
                    self.work()
                    self._lock.release()
            """
        )
        assert "C005" in rules(diags)

    def test_try_finally_release_is_clean(self):
        diags = lint(
            """
            import threading

            class Careful:
                def __init__(self):
                    self._lock = threading.Lock()

                def grab(self):
                    self._lock.acquire()
                    try:
                        self.work()
                    finally:
                        self._lock.release()
            """
        )
        assert "C005" not in rules(diags)

    def test_acquire_with_args_is_not_a_lock_acquire(self):
        # Recorder-style acquire(tid, name) methods must not trip C005.
        diags = lint(
            """
            import threading

            class Recorder:
                def __init__(self):
                    self.order_lock = threading.Lock()
                    self.tracker = object()

                def note(self, tid):
                    self.tracker.acquire(tid, "name")
            """
        )
        assert "C005" not in rules(diags)


class TestCatalog:
    def test_rule_catalog_is_complete(self):
        assert set(C_RULES) == {"C001", "C002", "C003", "C004", "C005"}
        for rule, desc in C_RULES.items():
            assert desc  # README catalog is generated from these

    def test_syntax_error_reports_c000_not_crash(self):
        diags = lint_source_text("def broken(:\n", "broken.py")
        assert rules(diags) == ["C000"]


@pytest.mark.lint_self
class TestSelfLint:
    """src/repro must pass its own concurrency lint — the check.sh gate."""

    def test_source_tree_has_no_c0xx_findings(self):
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        assert root.is_dir()
        diags = lint_source_tree(root)
        assert diags == [], "\n".join(
            f"{d.rule} {d.node}: {d.message}" for d in diags
        )

    def test_cli_sanitize_strict_passes(self, capsys):
        from repro.tools.cli import main

        rc = main(["sanitize", "--strict"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "no problems" in out
