r"""Worker supervision: spawn, heartbeat, detect, replace.

The :class:`Supervisor` owns the process lifecycle of every worker slot
so the router never has to reason about half-dead children.  Its state
machine per slot (DESIGN §14):

::

    SPAWNING --ready--> UP --crash/hang--> DOWN --respawn--> SPAWNING
        \--slow-start/crash-at-start--> (retry, bounded) --> SPAWNING

Every wait blocks on the event it is waiting for:

* **Crash** detection is the worker's ``Process.sentinel`` becoming
  readable: the monitor thread sits in ``multiprocessing.connection.wait``
  on every up worker's sentinel plus a wake pipe, so a death wakes it at
  once (a broken pipe mid-RPC reaches the router the same way — both
  paths funnel into the idempotent :meth:`report_down`).
* **Hang** detection is a stale heartbeat: each worker stamps
  ``time.monotonic()`` into a shared ``Value`` from a daemon thread; a
  stamp older than ``HANG_TIMEOUT_S`` gets the worker SIGKILLed and
  replaced.  ``HEARTBEAT_INTERVAL_S`` is the monitor's wait timeout,
  so it paces only this check.  Hangs are counted separately from
  crashes.
* **Slow start** is a worker that does not report ready within
  ``START_TIMEOUT_S``; it is killed and respawned up to
  ``START_RETRIES`` times before the slot is declared failed.
* **Waiting for a slot**: :meth:`wait_handle` blocks on a condition
  notified when a slot comes up, when it is given up, and when the
  owner releases its waiters.

Epochs make replacement unambiguous: every spawn of a slot gets a fresh
monotonically-increasing epoch, and ``report_down(slot, epoch)`` is a
no-op for any epoch but the current one (a racing crash report about an
already-replaced worker cannot kill its successor).  A respawn joins the
slot's previous process before it starts the next, so one slot never has
two live workers and every epoch can attach the same segments.

Health is exported as per-slot gauges — ``cluster.worker.<slot>.up``
and ``.restarts`` — in the registry the router passes in, which the
existing Prometheus exposition picks up unchanged.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

import multiprocessing
from multiprocessing.connection import wait

from .worker import HEARTBEAT_INTERVAL_S, worker_main

__all__ = ["Supervisor", "WorkerHandle", "fork_available"]

#: A heartbeat older than this marks a live worker as hung.
HANG_TIMEOUT_S = 5.0
#: How long a spawned worker may take to report ready.
START_TIMEOUT_S = 120.0
#: Respawns of a worker that failed to start before its slot is given up.
START_RETRIES = 2


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerHandle:
    """One live (or just-deceased) worker process for a slot."""

    __slots__ = ("slot", "epoch", "proc", "conn", "hb", "up")

    def __init__(self, slot: int, epoch: int, proc, conn, hb) -> None:
        self.slot = slot
        self.epoch = epoch
        self.proc = proc
        self.conn = conn
        self.hb = hb
        self.up = True

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid


class Supervisor:
    """Keeps ``slots`` worker processes alive, replacing any that die."""

    def __init__(
        self,
        spawn_cfg: Callable[[int], Dict[str, object]],
        slots: int,
        *,
        metrics,
    ) -> None:
        if not fork_available():  # pragma: no cover - POSIX-only repo
            raise RuntimeError(
                "repro.cluster requires the 'fork' start method "
                "(POSIX); it is unavailable on this platform"
            )
        self.spawn_cfg = spawn_cfg
        self.slots = int(slots)
        self.metrics = metrics
        self._ctx = multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        #: Notified when a slot comes up or is given up, and on release.
        self._changed = threading.Condition(self._lock)
        self._handles: Dict[int, WorkerHandle] = {}
        self._epochs: Dict[int, int] = {slot: 0 for slot in range(self.slots)}
        self._pending: List[int] = []  # slots awaiting respawn
        self._failed: set = set()  # slots the supervisor gave up on
        self._released = False
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- metrics helpers -----------------------------------------------------
    def _gauge(self, slot: int, name: str, value: float) -> None:
        self.metrics.gauge(f"cluster.worker.{slot}.{name}").set(value)

    def _count(self, name: str) -> None:
        self.metrics.counter(name).inc()

    def _wake(self) -> None:
        self._wake_w.send_bytes(b"")

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Spawn every slot (synchronously) and start the monitor."""
        for slot in range(self.slots):
            self._spawn(slot)
        self._monitor = threading.Thread(  # sanitize: single-thread (start)
            target=self._monitor_loop, name="cluster-supervisor", daemon=True
        )
        self._monitor.start()

    def release_waiters(self) -> None:
        """Make every :meth:`wait_handle` on a down slot return ``None``
        now and from here on (the owner is closing)."""
        with self._changed:
            self._released = True
            self._changed.notify_all()

    def stop(self, join_timeout_s: float = 5.0) -> None:
        """Stop monitoring, ask workers to exit, escalate to SIGKILL."""
        self._stopping.set()
        self._wake()
        if self._monitor is not None:
            self._monitor.join(timeout=join_timeout_s)
        with self._lock:
            handles = list(self._handles.values())
        for h in handles:
            try:
                h.conn.send({"kind": "stop"})
            except Exception:
                pass
        for h in handles:
            h.proc.join(timeout=join_timeout_s)
            if h.proc.is_alive():
                h.proc.kill()
                h.proc.join(timeout=join_timeout_s)
            try:
                h.conn.close()
            except Exception:
                pass
            self._gauge(h.slot, "up", 0)
        self._wake_r.close()
        self._wake_w.close()

    # -- queries -------------------------------------------------------------
    def _live(self, slot: int) -> Optional[WorkerHandle]:
        """``slot``'s handle if it is up; called with ``self._lock`` held."""
        h = self._handles.get(slot)
        return h if h is not None and h.up else None

    def handle(self, slot: int) -> Optional[WorkerHandle]:
        """The current handle for ``slot`` if it is up, else ``None``."""
        with self._lock:
            return self._live(slot)

    def wait_handle(self, slot: int, timeout_s: Optional[float]) -> Optional[WorkerHandle]:
        """Block until ``slot`` is up and return its handle.

        Returns ``None`` when the slot is given up, the waiters were
        released, or ``timeout_s`` (``None``: no bound) passed first.
        """
        with self._changed:
            self._changed.wait_for(
                lambda: (self._live(slot) is not None or slot in self._failed
                         or self._released),
                timeout_s,
            )
            return self._live(slot)

    def is_up(self, slot: int) -> bool:
        return self.handle(slot) is not None

    def slot_failed(self, slot: int) -> bool:
        """Whether the supervisor gave up respawning ``slot`` (start
        retries exhausted); requests parked there must fail, not wait."""
        with self._lock:
            return slot in self._failed

    def live_slots(self) -> List[int]:
        with self._lock:
            return [s for s, h in self._handles.items() if h.up]

    def restarts(self, slot: int) -> int:
        """Completed restarts for ``slot`` (0 for a never-replaced worker)."""
        with self._lock:
            return self._epochs.get(slot, 0) - 1 if self._epochs.get(slot) else 0

    # -- fault reporting -----------------------------------------------------
    def report_down(self, slot: int, epoch: int, reason: str = "crash") -> bool:
        """Mark ``slot``'s worker of ``epoch`` dead; schedule a replacement.

        Idempotent and epoch-guarded: duplicate reports, or reports about
        a worker that has already been replaced, are no-ops.  Returns
        whether this call was the one that took the worker down.
        """
        with self._lock:
            h = self._handles.get(slot)
            if h is None or not h.up or h.epoch != epoch:
                return False
            h.up = False
            if slot not in self._pending:
                self._pending.append(slot)
        self._gauge(slot, "up", 0)
        self._count(f"cluster.down.{reason}")
        self._wake()
        return True

    def kill(self, slot: int) -> Optional[int]:
        """SIGKILL ``slot``'s worker (a test hook for crash recovery).

        Returns the killed pid, or ``None`` if the slot was already down.
        The monitor wakes on the death and replaces the worker exactly as
        it would after an organic crash.
        """
        h = self.handle(slot)
        if h is None or h.pid is None:
            return None
        h.proc.kill()
        return h.pid

    def hang(self, slot: int) -> bool:
        """Make ``slot``'s worker stop heartbeating and stall (a test hook
        for the hang detector).

        Returns whether the message was sent.  Like :meth:`stop`, it
        writes to the worker's pipe without the router's slot lock, so
        call it only on a slot with no request in flight.
        """
        h = self.handle(slot)
        if h is None:
            return False
        try:
            h.conn.send({"kind": "hang"})
        except (BrokenPipeError, OSError):
            return False
        return True

    # -- internals -----------------------------------------------------------
    def _spawn(self, slot: int) -> WorkerHandle:
        """Reap ``slot``'s previous worker, spawn the next, and wait for
        its ready message."""
        with self._lock:
            old = self._handles.get(slot)
        if old is not None:
            # The successor attaches the same segments: make sure no
            # earlier epoch is left to write into them.
            old.proc.kill()
            old.proc.join()
            old.conn.close()
        last_error = "unknown"
        for attempt in range(START_RETRIES + 1):
            with self._lock:
                self._epochs[slot] += 1
                epoch = self._epochs[slot]
                router_ends = [h.conn for h in self._handles.values()]
            parent_conn, child_conn = self._ctx.Pipe()
            hb = self._ctx.Value("d", time.monotonic())
            proc = self._ctx.Process(
                target=worker_main,
                args=(slot, self.spawn_cfg(slot), child_conn, hb,
                      [parent_conn] + router_ends),
                name=f"repro-worker-{slot}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            ready = wait([parent_conn, proc.sentinel], START_TIMEOUT_S)
            msg = None
            if parent_conn in ready:
                try:
                    msg = parent_conn.recv()
                except (EOFError, OSError):
                    msg = None
            if msg is not None and msg[0] == "ready":
                handle = WorkerHandle(slot, epoch, proc, parent_conn, hb)
                with self._changed:
                    self._handles[slot] = handle
                    self._changed.notify_all()
                self._gauge(slot, "up", 1)
                self._gauge(slot, "restarts", epoch - 1)
                return handle
            proc.kill()
            proc.join(timeout=5.0)
            parent_conn.close()
            # Startup failed: typed report, slow start, or organic crash.
            if msg is not None and msg[0] == "start_failed":
                last_error = f"{msg[2]}: {msg[3]}"
                self._count("cluster.start_failed")
            elif not ready:
                last_error = f"no ready within {START_TIMEOUT_S:.1f}s"
                self._count("cluster.slow_starts")
            else:
                last_error = f"exited with code {proc.exitcode} before ready"
                self._count("cluster.start_crashes")
        raise RuntimeError(
            f"worker slot {slot} failed to start after "
            f"{START_RETRIES + 1} attempts: {last_error}"
        )

    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            with self._lock:
                handles = [h for h in self._handles.values() if h.up]
            ready = wait([self._wake_r] + [h.proc.sentinel for h in handles],
                         HEARTBEAT_INTERVAL_S)
            if self._stopping.is_set():
                break
            if self._wake_r in ready:
                self._wake_r.recv_bytes()  # a further message wakes the next wait
            now = time.monotonic()
            for h in handles:
                if h.proc.sentinel in ready:
                    self.report_down(h.slot, h.epoch, reason="crash")
                elif now - h.hb.value > HANG_TIMEOUT_S:
                    # Hung: heartbeats stopped but the process lives;
                    # the respawn below SIGKILLs it before its successor.
                    self.report_down(h.slot, h.epoch, reason="hang")
            while not self._stopping.is_set():
                with self._lock:
                    if not self._pending:
                        break
                    slot = self._pending.pop(0)
                try:
                    self._spawn(slot)
                    self._count("cluster.replacements")
                except RuntimeError:
                    # Slot declared failed; leave it down. New requests
                    # fail over via the ring's liveness filter, parked
                    # ones get WorkerLost via slot_failed().
                    with self._changed:
                        self._failed.add(slot)
                        self._changed.notify_all()
                    self._count("cluster.slot_failed")
