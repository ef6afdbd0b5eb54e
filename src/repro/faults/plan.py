"""Deterministic, seedable fault injection (the chaos side of resilience).

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s evaluated at named
**fault points** — fixed injection sites compiled into the engine (see
:data:`FAULT_SITES`).  Each site calls :meth:`FaultPlan.fire` with a
little context; the first matching rule with budget left decides whether
a fault happens and of what kind:

* ``transient`` / ``fatal`` — raise a typed
  :class:`~repro.faults.TransientFault` / :class:`~repro.faults.FatalFault`;
* ``delay``   — sleep ``delay_ms`` (exercises deadlines);
* ``nan``     — return a :class:`Fault` the caller uses to corrupt the
  op's output with non-finite values (exercises the numeric guard);
* ``corrupt`` / ``torn`` — cache-entry corruption: pretend the entry is
  unreadable, or write a truncated entry as if the process died mid-write.

Determinism: every site draws from its own ``random.Random`` seeded with
``(plan seed, site name)``, so the injection sequence at a site is a pure
function of the seed and that site's call order — independent of thread
interleaving *across* sites.  The full sequence is recorded in
:attr:`FaultPlan.log` for replay tests.

Activation: ``Runtime.resolve(faults=...)`` / ``EngineConfig(faults=...)``
pin a plan per session/engine (an engine's :class:`repro.Runtime`
carries it to every component and worker session); otherwise
:meth:`repro.Runtime.resolve` falls back to the process-wide plan, which
is parsed once from ``$REPRO_FAULTS`` (see
:func:`parse_fault_spec` for the grammar) and defaults to a disabled
no-op — a disabled plan costs one attribute check per guarded site.
"""

from __future__ import annotations

import fnmatch
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import get_metrics
from .errors import FatalFault, TransientFault

__all__ = [
    "FAULTS_ENV_VAR",
    "FAULT_SITES",
    "FAULT_KINDS",
    "Fault",
    "FaultRule",
    "FaultPlan",
    "parse_fault_spec",
    "get_fault_plan",
    "set_fault_plan",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"

#: The fault-point catalog: every named injection site compiled into the
#: engine, and what a fault there simulates.
FAULT_SITES: Dict[str, str] = {
    "session.prepare": "pre-inference pipeline failure (exercises resize rollback)",
    "backend.dispatch": "the placed backend rejects the op at dispatch time",
    "kernel.execute": "kernel failure: flaky (transient), broken (fatal), "
                      "slow (delay) or numerically corrupt (nan)",
    "cache.load": "pre-inference cache read: IO error (transient) or "
                  "unreadable entry (corrupt)",
    "cache.store": "pre-inference cache write: IO error (transient) or "
                   "mid-write crash leaving a truncated entry (torn)",
    "pool.checkout": "session-pool checkout failure (transient) or stall (delay)",
    "batch.assemble": "micro-batch assembly/run failure (exercises bisection)",
    "kvcache.alloc": "KV-cache slab allocation failure: flaky arena (transient) "
                     "or hard OOM (fatal, exercises eviction + retry)",
    "worker.crash": "cluster worker process death, decided router-side at "
                    "dispatch: killed before starting (transient) or "
                    "mid-decode (fatal); exercises supervision + replay",
}

FAULT_KINDS: Tuple[str, ...] = ("transient", "fatal", "delay", "nan", "corrupt", "torn")

#: Kinds that raise from ``fire`` itself; the rest are returned to the
#: caller, which applies the corruption (nan/corrupt/torn) or has already
#: been delayed (delay).
_RAISING_KINDS = {"transient", "fatal"}


@dataclass(frozen=True)
class Fault:
    """One fired injection, as seen by the call site."""

    site: str
    kind: str
    seq: int
    delay_ms: float = 0.0


@dataclass
class FaultRule:
    """One line of a fault plan.

    Attributes:
        site: fault-point name; ``fnmatch`` globs allowed (``"cache.*"``).
        kind: one of :data:`FAULT_KINDS`.
        p: probability of firing per eligible evaluation (seeded RNG).
        times: total fire budget; ``None`` is unlimited.
        skip: let this many eligible evaluations pass before arming
            (e.g. ``skip=1`` at ``session.prepare`` spares construction
            and hits the first resize).
        delay_ms: sleep length for ``delay`` faults.
        match: optional exact-match filter on the call-site context
            (value may be a tuple of alternatives), e.g.
            ``{"scheme": ("winograd", "winograd_rect")}``.
    """

    site: str
    kind: str
    p: float = 1.0
    times: Optional[int] = None
    skip: int = 0
    delay_ms: float = 5.0
    match: Optional[Dict[str, object]] = None
    seen: int = 0
    fired: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        plain = not any(ch in self.site for ch in "*?[")
        if plain and self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {sorted(FAULT_SITES)}"
            )

    def matches(self, site: str, ctx: Dict[str, object]) -> bool:
        if not fnmatch.fnmatchcase(site, self.site):
            return False
        if self.match:
            for key, want in self.match.items():
                have = ctx.get(key)
                if isinstance(want, (tuple, list, set, frozenset)):
                    if have not in want:
                        return False
                elif have != want:
                    return False
        return True

    @property
    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times


class FaultPlan:
    """A deterministic schedule of injected faults over the named sites.

    ``FaultPlan()`` (no rules) is the disabled no-op used as the
    process-wide default; guarded sites check :attr:`enabled` and skip
    the machinery entirely.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self.enabled = bool(self.rules)
        self._lock = threading.Lock()
        self._rngs: Dict[str, random.Random] = {}
        self.log: List[Fault] = []

    def rng_for(self, site: str) -> random.Random:
        """The per-site RNG (``(seed, site)``-derived, creation on demand).

        Also used by resilience handlers for backoff jitter, so retry
        timing is reproducible under a fixed seed.
        """
        with self._lock:
            rng = self._rngs.get(site)
            if rng is None:
                rng = self._rngs[site] = random.Random(f"{self.seed}:{site}")
            return rng

    # -- firing --------------------------------------------------------------
    def fire(self, site: str, **ctx) -> Optional[Fault]:
        """Evaluate the plan at ``site``; inject at most one fault.

        Raises:
            TransientFault/FatalFault: for the raising kinds.

        Returns:
            The :class:`Fault` for data-corruption kinds (``nan``,
            ``corrupt``, ``torn``) and for ``delay`` (after sleeping),
            or ``None`` when nothing fired.
        """
        if not self.enabled:
            return None
        with self._lock:
            fault = self._decide(site, ctx)
        if fault is None:
            return None
        if fault.kind == "transient":
            raise TransientFault(site, fault.kind, fault.seq)
        if fault.kind == "fatal":
            raise FatalFault(site, fault.kind, fault.seq)
        if fault.kind == "delay" and fault.delay_ms > 0:
            time.sleep(fault.delay_ms / 1000.0)
        return fault

    def _decide(self, site: str, ctx: Dict[str, object]) -> Optional[Fault]:
        """Pick the firing rule, if any.  Called with the lock held."""
        for index, rule in enumerate(self.rules):
            if rule.exhausted or not rule.matches(site, ctx):
                continue
            rule.seen += 1
            if rule.seen <= rule.skip:
                continue
            if rule.p < 1.0:
                rng = self._rngs.get(site)
                if rng is None:
                    rng = self._rngs[site] = random.Random(f"{self.seed}:{site}")
                if rng.random() >= rule.p:
                    return None  # the armed rule declined; no cascading
            rule.fired += 1
            fault = Fault(
                site=site, kind=rule.kind, seq=len(self.log), delay_ms=rule.delay_ms
            )
            self.log.append(fault)
            metrics = get_metrics()
            metrics.counter("faults.injected").inc()
            metrics.counter(f"faults.injected.{rule.kind}").inc()
            return fault
        return None

    # -- introspection -------------------------------------------------------
    @property
    def injected(self) -> int:
        """Total faults this plan has fired."""
        with self._lock:
            return len(self.log)

    def events(self) -> List[Tuple[str, str]]:
        """The ``(site, kind)`` injection sequence (for replay tests)."""
        with self._lock:
            return [(f.site, f.kind) for f in self.log]

    def site_counts(self) -> Dict[str, int]:
        """Fired-fault count per site."""
        counts: Dict[str, int] = {}
        with self._lock:
            for fault in self.log:
                counts[fault.site] = counts.get(fault.site, 0) + 1
        return counts

    def describe(self) -> str:
        parts = [
            f"{r.site}:{r.kind} fired {r.fired}"
            + (f"/{r.times}" if r.times is not None else "")
            for r in self.rules
        ]
        return f"FaultPlan(seed={self.seed}, {len(self.log)} injected; " \
               + "; ".join(parts) + ")"


def parse_fault_spec(text: str) -> FaultPlan:
    """Parse a ``$REPRO_FAULTS``-style spec string into a plan.

    Grammar (clauses separated by ``;`` or ``,``)::

        spec    ::= clause (";" clause)*
        clause  ::= "seed=" INT | rule
        rule    ::= site ":" kind modifiers*
        mod     ::= "@" FLOAT    -- probability        (default 1.0)
                  | "x" INT      -- total fire budget  (default unlimited)
                  | "+" INT      -- skip first N       (default 0)
                  | "~" FLOAT    -- delay_ms           (default 5.0)

    Example::

        REPRO_FAULTS="seed=7;kernel.execute:transient@0.2x10;cache.load:corrupt x2"
    """
    seed = 0
    rules: List[FaultRule] = []
    for raw in text.replace(",", ";").split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            seed = int(clause[len("seed="):])
            continue
        if ":" not in clause:
            raise ValueError(f"bad fault clause {clause!r}: expected site:kind")
        site, rest = clause.split(":", 1)
        rest = rest.replace(" ", "")
        kind = rest
        mods = ""
        for i, ch in enumerate(rest):
            if ch in "@x+~":
                kind, mods = rest[:i], rest[i:]
                break
        kwargs: Dict[str, object] = {}
        while mods:
            tag, mods = mods[0], mods[1:]
            number = ""
            while mods and (mods[0].isdigit() or mods[0] == "."):
                number, mods = number + mods[0], mods[1:]
            if not number:
                raise ValueError(f"bad fault clause {clause!r}: dangling {tag!r}")
            if tag == "@":
                kwargs["p"] = float(number)
            elif tag == "x":
                kwargs["times"] = int(number)
            elif tag == "+":
                kwargs["skip"] = int(number)
            else:  # "~"
                kwargs["delay_ms"] = float(number)
        rules.append(FaultRule(site=site.strip(), kind=kind, **kwargs))
    return FaultPlan(rules, seed=seed)


#: Process-wide default plan; ``None`` until first resolved so tests can
#: manipulate ``$REPRO_FAULTS`` before anything asks for it.
_GLOBAL_PLAN: Optional[FaultPlan] = None
_GLOBAL_LOCK = threading.Lock()


def get_fault_plan() -> FaultPlan:
    """The process-wide plan: ``$REPRO_FAULTS`` if set, else a disabled no-op."""
    global _GLOBAL_PLAN
    if _GLOBAL_PLAN is None:
        with _GLOBAL_LOCK:
            if _GLOBAL_PLAN is None:
                spec = os.environ.get(FAULTS_ENV_VAR)
                _GLOBAL_PLAN = parse_fault_spec(spec) if spec else FaultPlan()
    return _GLOBAL_PLAN


def set_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` process-wide; returns the previous one (restore it).

    Passing ``None`` resets to "unresolved", so the next
    :func:`get_fault_plan` re-reads ``$REPRO_FAULTS``.
    """
    global _GLOBAL_PLAN
    with _GLOBAL_LOCK:
        previous = _GLOBAL_PLAN
        _GLOBAL_PLAN = plan
    return previous
