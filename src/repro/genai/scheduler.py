"""Continuous batching: sequences join and leave at token boundaries.

Classic serving batches whole *requests* (``repro.serving.batching``
coalesces single-shot inferences).  Generation makes that wasteful: a
request that wants 4 tokens would ride along for a neighbour's 64.  The
continuous scheduler instead re-forms the batch **every decode step** —

* **admission** happens whenever the running set has room *and* the KV
  allocator can stake the sequence a slab (admission control is memory
  control; an OOM just leaves the request queued).  The admitted prompt
  — or, on a prefix-cache hit, just its unshared suffix — extends the
  slab in one :meth:`~repro.genai.DecodeRunner.run`;
* each token boundary runs **one** decode step that advances every
  live sequence by one token, whatever mix of KV-capacity buckets they
  hold (the step runs the prepared cell of the largest);
* a sequence that hits its token budget or a stop token **leaves
  immediately**, its pages return (or retire for lazy eviction), and a
  queued request takes the seat at the very next boundary.

Every join/leave is a trace instant (``genai.batch_join`` /
``genai.batch_leave``) and every step nests under ``genai.decode_step``,
so a waterfall of a storm shows the batch breathing.

Determinism: the per-row decode kernels make each sequence's logits
independent of its batch neighbours, and sampling draws only from the
request's own seeded RNG — so scheduling order affects *throughput*,
never *output*.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.errors import ResilienceError
from ..obs.requests import NULL_TIMELINE
from ..obs.resources import ResourceSampler
from ..runtime import Runtime
from .decode import DecodeRunner
from .kvcache import KVCacheAllocator, KVCacheOOM, KVCacheUseAfterFree, KVSlab
from .prefix import PrefixCache
from .sampling import Sampler, SamplingParams

__all__ = ["GenRequest", "GenResult", "ContinuousBatchScheduler"]

#: A request preempted more often than this fails instead of re-queueing.
MAX_PREEMPTIONS = 2


@dataclass(frozen=True)
class GenRequest:
    """One generation request: a prompt and its sampling contract."""

    request_id: str
    prompt: Sequence[int]
    params: SamplingParams = field(default_factory=SamplingParams)


@dataclass
class GenResult:
    """What a request got back.

    ``finish_reason`` is ``"length"`` (budget spent), ``"stop"`` (stop
    token emitted), or ``"error"`` (failed; ``error`` holds the message
    and ``tokens`` whatever was produced before the failure).
    """

    request_id: str
    prompt: List[int]
    tokens: List[int]
    finish_reason: str
    steps: int = 0
    error: Optional[str] = None


class _Sequence:
    """A running request's mutable state."""

    __slots__ = ("request", "sampler", "slab", "tokens", "budget", "steps", "done_reason")

    def __init__(self, request: GenRequest, sampler: Sampler, slab: KVSlab, budget: int):
        self.request = request
        self.sampler = sampler
        self.slab = slab
        self.tokens: List[int] = []
        self.budget = budget
        self.steps = 0
        self.done_reason: Optional[str] = None

    def take(self, token: int) -> None:
        self.tokens.append(token)
        if self.sampler.is_stop(token):
            self.done_reason = "stop"
        elif len(self.tokens) >= self.budget:
            self.done_reason = "length"


class ContinuousBatchScheduler:
    """The token-boundary loop tying the allocator and the runner together."""

    def __init__(
        self,
        decode: DecodeRunner,
        allocator: KVCacheAllocator,
        max_batch: int,
        max_seq: int,
        prefix_cache: Optional[PrefixCache] = None,
        sampler: Optional[ResourceSampler] = None,
        *,
        runtime: Optional[Runtime] = None,
    ) -> None:
        self.decode = decode
        self.allocator = allocator
        self.max_batch = max_batch
        self.max_seq = max_seq
        #: When set, finished sequences register their retired slabs by
        #: token path and admission serves matching prompt prefixes from
        #: them copy-on-write instead of re-prefilling.
        self.prefix_cache = prefix_cache
        runtime = runtime if runtime is not None else Runtime.resolve()
        self.metrics = runtime.metrics
        self.tracer = runtime.tracer
        self.sanitizer = runtime.sanitizer
        #: Request-timeline tracker.  Timelines live in ``_timelines`` only
        #: for the duration of one ``run()`` (the loop is single-threaded);
        #: untracked, every stamp lands on the no-op ``NULL_TIMELINE``.
        self.requests = runtime.requests
        self.sampler = sampler
        self._timelines: Dict[str, object] = {}

    def _tl(self, request_id: str):
        """The request's live timeline, or ``NULL_TIMELINE`` when not tracking."""
        return self._timelines.get(request_id, NULL_TIMELINE)

    # -- lifecycle helpers ---------------------------------------------------
    def _fail(self, results: Dict[str, GenResult], request: GenRequest,
              message: str, tokens: Optional[List[int]] = None, steps: int = 0,
              trigger: Optional[str] = None) -> None:
        results[request.request_id] = GenResult(
            request.request_id, list(request.prompt), tokens or [],
            "error", steps=steps, error=message,
        )
        self.metrics.counter("genai.request_errors").inc()
        timeline = self._tl(request.request_id)
        timeline.event("error", message=message)
        timeline.finish("error")
        if trigger is not None:
            # The "page the on-call" failures (KV OOM, exhausted
            # preemption, prefill faults) dump a postmortem.
            self.requests.dump(trigger, request.request_id, detail=message)

    def _retire(self, results: Dict[str, GenResult], seq: _Sequence) -> None:
        self.allocator.release(seq.slab, evictable=True)
        if self.prefix_cache is not None:
            # The retired slab's rows cover prompt + generated tokens;
            # register the written ones so later prompts sharing the
            # prefix can alias them copy-on-write.
            path = list(seq.request.prompt) + seq.tokens
            self.prefix_cache.insert(path[: seq.slab.length], seq.slab)
        self.tracer.instant(
            "genai.batch_leave", "genai",
            request=seq.request.request_id, reason=seq.done_reason,
        )
        self._tl(seq.request.request_id).finish(seq.done_reason or "length",
                                               steps=seq.steps)
        results[seq.request.request_id] = GenResult(
            seq.request.request_id, list(seq.request.prompt), seq.tokens,
            seq.done_reason or "length", steps=seq.steps,
        )
        self.metrics.counter("genai.requests").inc()

    def _evictions(self) -> float:
        return self.metrics.value("kvcache.evictions")

    def _admit(self, request: GenRequest, batch_size: int) -> _Sequence:
        """Stake the request a slab and run its prompt through it.

        A prefix-cache hit stakes a copy-on-write share of the cached
        rows and runs only the prompt's suffix; a miss allocates a fresh
        slab and runs the whole prompt.  K/V rows are a deterministic
        function of the token prefix and the runner is bitwise equal to
        full recompute, so both routes emit the same tokens.

        Raises:
            KVCacheOOM: no room for the slab; the caller queues the
                request until a leaver returns pages.
        """
        prompt = list(request.prompt)
        timeline = self._tl(request.request_id)
        evictions_before = self._evictions() if timeline.enabled else 0
        slab, plen = None, 0
        if self.prefix_cache is not None:
            slab, plen = self._share_prefix(request, prompt)
        if slab is None:
            slab = self.allocator.alloc(request.request_id, len(prompt) + 1)
        self.tracer.instant(
            "genai.batch_join", "genai",
            request=request.request_id, prompt_tokens=len(prompt), batch=batch_size,
        )
        if plen:
            self.tracer.instant(
                "genai.prefix_hit", "genai",
                request=request.request_id, prefix_tokens=plen,
                prompt_tokens=len(prompt),
            )
            self.metrics.counter("genai.prefix_hits").inc()
            self.metrics.counter("genai.prefix_hit_tokens").inc(plen)
        if timeline.enabled:
            evicted = self._evictions() - evictions_before
            if evicted:
                timeline.event("kv_eviction", evictions=int(evicted), at="alloc")
        if plen:
            timeline.event("prefix_hit", prefix_tokens=plen, prompt_tokens=len(prompt))
        timeline.admitted(batch=batch_size, prompt_tokens=len(prompt))
        budget = min(request.params.max_tokens, self.max_seq - len(prompt))
        seq = _Sequence(request, Sampler(request.params), slab, budget)
        try:
            logits = self._extend(prompt[plen:], slab)
        except Exception:
            self.allocator.release(slab)
            raise
        seq.take(seq.sampler.sample(logits))
        timeline.token()  # the prompt's sample is the first token (TTFT)
        return seq

    def _share_prefix(
        self, request: GenRequest, prompt: List[int]
    ) -> Tuple[Optional[KVSlab], int]:
        """A slab sharing the deepest cached prefix, and that prefix's length.

        On a trie hit the matched slab's prefix rows are shared
        copy-on-write and materialized into private pages with room for
        the prompt (the grow call is the write barrier).  A miss — or a
        racing eviction of the matched slab — returns ``(None, 0)``.

        Raises:
            KVCacheOOM: no room to materialize.
        """
        match = self.prefix_cache.match(prompt)
        if match is None:
            return None, 0
        parent, plen = match
        try:
            slab = self.allocator.share(parent, request.request_id, plen)
        except (KVCacheUseAfterFree, ValueError):
            return None, 0  # evicted or already-owned: recompute instead
        try:
            return self.allocator.grow(slab, len(prompt) + 1), plen
        except KVCacheOOM:
            self.allocator.release(slab)
            raise

    def _extend(self, tokens: List[int], slab: KVSlab) -> np.ndarray:
        """Append the prompt's uncached ``tokens``; the last one's logits.

        fp32 runs them in one call.  Quantized KV runs the last token in
        its own step, so the logits it samples from attend over every
        earlier prompt row *dequantized* — as each later decode step
        does, and whatever route (cold, prefix hit, preemption replay)
        admitted the sequence.
        """
        if not self.allocator.config.quantized:
            return self.decode.run(tokens, slab)
        if len(tokens) > 1:
            self.decode.run(tokens[:-1], slab)
        return self.decode.step([tokens[-1]], [slab])[0]

    # -- the loop ------------------------------------------------------------
    def run(self, requests: Sequence[GenRequest]) -> List[GenResult]:
        """Drive every request to completion; results in input order."""
        waiting: Deque[GenRequest] = deque(requests)
        running: List[_Sequence] = []
        results: Dict[str, GenResult] = {}
        preempts: Dict[str, int] = {}
        order = [r.request_id for r in requests]
        if len(set(order)) != len(order):
            raise ValueError("duplicate request_id in batch")
        tracker = self.requests
        if tracker.enabled:
            # Every request's queue-wait clock starts now: entering the
            # scheduler's admission queue is the "enqueued" milestone.
            self._timelines = {
                r.request_id: tracker.start(
                    r.request_id, "generate", prompt_tokens=len(r.prompt)
                )
                for r in requests
            }
        else:
            self._timelines = {}
        if self.sanitizer.enabled:
            # The loop below is deliberately single-threaded; concurrent
            # run() calls on one scheduler would interleave allocator and
            # decode-session state.  An unsynchronized write-write probe
            # turns that misuse into a deterministic race finding (vector
            # clocks never order two runs that overlap in wall time).
            self.sanitizer.probe(self, "run_loop", "w")

        while waiting or running:
            # 1. Admission at the token boundary: fill free seats while
            #    the allocator can stake each newcomer a slab.
            while waiting and len(running) < self.max_batch:
                request = waiting[0]
                prompt_len = len(request.prompt)
                if prompt_len < 1 or prompt_len >= self.max_seq:
                    waiting.popleft()
                    self._fail(
                        results, request,
                        f"prompt of {prompt_len} tokens outside [1, {self.max_seq})",
                    )
                    continue
                try:
                    seq = self._admit(request, len(running) + 1)
                except KVCacheOOM as exc:
                    if not running:
                        # Nothing will ever free pages: fail, don't hang.
                        waiting.popleft()
                        self._fail(
                            results, request, f"kv admission failed: {exc}",
                            trigger="KVCacheOOM",
                        )
                        continue
                    break  # wait for a leaver to return pages
                except ResilienceError as exc:
                    waiting.popleft()
                    self._fail(
                        results, request, f"prefill failed: {exc}",
                        trigger=type(exc).__name__,
                    )
                    continue
                waiting.popleft()
                if seq.done_reason is not None:
                    self._retire(results, seq)
                else:
                    running.append(seq)

            if not running:
                continue
            self.metrics.histogram("genai.batch_size").observe(len(running))
            if self.sampler is not None:
                # One resource sample per token boundary: KV/arena
                # utilization plus the batch occupancy counter track.
                self.sampler.sample(
                    {
                        "res.batch.occupancy": len(running),
                        "res.batch.waiting": len(waiting),
                    }
                )

            # 2. Make room for each sequence's next K/V row (bucket growth).
            #    A sequence whose growth hits OOM *stalls* — it keeps its
            #    slab and skips this step, waiting for a leaver's pages —
            #    rather than failing outright.
            stalled: List[_Sequence] = []
            for seq in list(running):
                timeline = self._tl(seq.request.request_id)
                evictions_before = self._evictions() if timeline.enabled else 0
                try:
                    seq.slab = self.allocator.grow(seq.slab, seq.slab.length + 1)
                except KVCacheOOM:
                    stalled.append(seq)
                except ResilienceError as exc:
                    running.remove(seq)
                    self.allocator.release(seq.slab)
                    self._fail(
                        results, seq.request, f"kv growth failed: {exc}",
                        tokens=seq.tokens, steps=seq.steps,
                        trigger=type(exc).__name__,
                    )
                else:
                    if timeline.enabled:
                        evicted = self._evictions() - evictions_before
                        if evicted:
                            timeline.event(
                                "kv_eviction", evictions=int(evicted), at="grow"
                            )
            if stalled and len(stalled) == len(running):
                # Every live sequence is memory-stalled: nobody will ever
                # leave, so preempt one (the youngest — least sunk work)
                # to guarantee progress for the rest.  The victim's pages
                # return and its request goes back in the queue for a
                # full recompute; repeat offenders eventually fail.
                victim = min(stalled, key=lambda s: len(s.tokens))
                running.remove(victim)
                self.allocator.release(victim.slab)
                self.metrics.counter("genai.preemptions").inc()
                rid = victim.request.request_id
                preempts[rid] = preempts.get(rid, 0) + 1
                self._tl(rid).event(
                    "preempted", count=preempts[rid], tokens_done=len(victim.tokens),
                )
                if preempts[rid] > MAX_PREEMPTIONS:
                    self._fail(
                        results, victim.request,
                        f"preempted {preempts[rid]} times: kv arena exhausted",
                        tokens=victim.tokens, steps=victim.steps,
                        trigger="PreemptionLimit",
                    )
                else:
                    waiting.appendleft(victim.request)
                continue

            # 3. One decode step advances every active sequence.
            active = [s for s in running if s not in stalled]
            if active:
                logits = self.decode.step(
                    [seq.tokens[-1] for seq in active],
                    [seq.slab for seq in active],
                )
                for seq, row in zip(active, logits):
                    seq.steps += 1
                    seq.take(seq.sampler.sample(row))
                    if self._timelines:  # inter-arrival gap -> TPOT
                        self._tl(seq.request.request_id).token()

            # 4. Leave at the boundary; seats reopen for step 1.
            for seq in [s for s in running if s.done_reason is not None]:
                running.remove(seq)
                self._retire(results, seq)

        return [results[rid] for rid in order]
