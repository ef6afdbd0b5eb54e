#!/usr/bin/env bash
# Pre-merge gate: every correctness tool in the repo, end to end.
#
#   ./scripts/check.sh
#
# Thirteen stages, each of which must pass:
#
#   1. Static concurrency lint (rule family C0xx) over src/repro itself
#      (`cli sanitize --strict`) — warnings fail too.
#   2. Strict graph lint + memory-plan sanitizer over every registered
#      zoo model (each one is built fresh, then linted; a tier-1 test
#      parametrized over MODEL_REGISTRY, run here by node id).
#   3. The lint_self and sanitize pytest markers: the repo lints its own
#      fixtures, the race / lock-order / lifecycle detectors prove they
#      both catch seeded defects and come up clean on real code, and the
#      prefix-cache bit-identity properties run under the sanitizer.
#   4. A 50-fault sanitized chaos storm (`cli chaos --sanitize`): the
#      seven phases of repro.faults.chaos — cache, pool+dispatch, batch,
#      numeric, generation, COW prefix sharing, cluster — with the
#      dynamic sanitizer live; any race, lock cycle, leaked slab or
#      shared-memory segment fails the storm.
#   5. Pre-inference cache guard: on the serving bench graph, a traced
#      warm engine must hit the cache once (digest check and full decode
#      of the entry), its scheme_selection and memory_plan spans must say
#      cached=True, its scheme_selection must report zero probes (the
#      measured Winograd-vs-sliding verdicts replay from the entry), and
#      it must answer bitwise equal to the cold engine.  Then measured
#      scheme selection itself: a decision follows its timing verdict, a
#      second session times nothing, sliding and gemm1x1 picks are never
#      timed, overrides and cached schemes win over measurement,
#      simulated backends keep the modeled picks, and an entry keyed
#      under another host misses.  Last, pre-inference leaves the run
#      pure compute: Session.run of every zoo CNN and of the chaos graph
#      carves no kernel temporary (every runner carved and built its
#      views when it was bound) (tier-1 tests, run here by node id).
#   6. Prometheus export: a tracked generation workload is exported as
#      text exposition and re-ingested by the validating parser; the six
#      SLO and resource families must all be present, and a populated
#      registry must round-trip with its types, sums and quantiles
#      (tier-1 tests, run here by node id).
#   7. Request layer: disabled request tracking must cost under 5% of a
#      small-model run, and two same-seed chaos storms must dump
#      byte-identical postmortems from the request tracker's event rings
#      (tier-1 tests, the second run here by node id).
#   8. Bench-regression gate: a micro-benchmark writes two consecutive
#      BENCH records into a scratch trajectory and `cli regress` must
#      pass it — exercising the stamp, headline extraction and the
#      noise threshold end to end.  Each run pre-flights its graph
#      (lint, trace, a per-graph fault storm, sanitizer); the engine
#      storms are stage 4's and are not repeated.
#   9. Cluster supervision: spawn the multi-process serving tier,
#      SIGKILL a worker mid-run, and require the supervisor to replace it
#      with the post-recovery response bit-identical to the pre-kill gold;
#      then, with the hang check paced at 30 s, require a SIGKILLed idle
#      worker to be replaced within 5 s (its death alone wakes the
#      supervisor) and to answer bitwise the gold again; then stall a
#      worker's heartbeat and require the hang detector to kill and
#      replace it the same way; then force a near-tie scheme
#      verdict that goes Winograd's way only in the router's process, and
#      require every worker, the respawned one included, to replay the
#      router's plan (bitwise a local session's answer, zero probes in any
#      worker); then an infer RPC must be one fixed-layout frame over
#      tensor views bound at spawn: the router side calls the pipe's
#      pickler zero times and builds zero TensorSpecs, and still answers
#      bitwise the gold; last, a synchronous infer or generate must run
#      its RPC on the caller's thread (no per-slot dispatch thread), a
#      request waiting on a busy slot must expire as DeadlineExceeded
#      while the one in flight answers bitwise the gold, and close() with
#      one caller mid-RPC and one parked on another slot must end both
#      with the gold or a typed error (the mid-RPC one with the gold),
#      use no unlinked segment and leave no thread behind;
#      last, SIGKILL a process holding a 2-worker cluster and require
#      both workers to exit, its shared-memory segments to be gone
#      within 5 s and no repro-cluster-* entry to be left in the temp
#      directory (tier-1 tests, run here by node id).
#  10. Quantization contracts (tier-1 tests, run here by node id): the
#      integer GEMM equals an int64 reference on worst-case operands on
#      both sides of its float32/float64 switch (K = 1040, 1041);
#      per-channel int8 weights pass the Q-rule lint and hold the logits
#      max-abs-error contract; seeded replay over int8 weights + int8 KV
#      is bit-identical; the int8 KV layout fits >= 3x the tokens per
#      arena byte; and each column block of a merged sibling GEMM is
#      bitwise its own projection's qmatmul.
#  11. Greedy decode == full recompute (tier-1 tests, run here by node
#      id).  Eight generations whose slabs straddle KV-capacity buckets
#      (4-token pages), so the one-step-per-token-boundary decode runs
#      mixed-capacity steps; then the same eight behind a shared 12-token
#      prefix with the prefix cache on, so prefix hits run their
#      multi-token suffix from cached rows in one call.  Every token must
#      equal a token-by-token full-sequence recompute.  Sampled
#      generation must replay token for token from its seed.
#  12. Benchmark smoke: perfbench's smoke tests, all six workloads, each
#      untraced and traced.  perfbench wraps Session.__init__/run and the
#      serving/genai/cluster entry points from outside, builds every
#      front door from its config, and replays sessions through
#      run_profiled, so an executor or config change can break the
#      benchmark without failing any unit test.
#  13. Examples: every examples/*.py runs to exit 0 from a temporary
#      directory.  They are the documented front doors of the config
#      API, and no unit test imports them.
#
# Total runtime is a few minutes on a laptop.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "== [1/13] static concurrency lint (C0xx, strict) =="
python -m repro.tools.cli sanitize --strict

echo
echo "== [2/13] strict model lint over the registered zoo =="
python -m pytest -q "tests/test_cli.py::test_zoo_model_builds_and_lints_strict"

echo
echo "== [3/13] lint_self + sanitize pytest markers =="
python -m pytest -q -m "lint_self or sanitize"

echo
echo "== [4/13] 50-fault sanitized chaos storm =="
python -m repro.tools.cli chaos --faults 50 --sanitize

echo
echo "== [5/13] pre-inference cache guard + measured scheme selection + carve-free runs =="
python -m pytest -q \
    "tests/test_serving.py::TestEngineWarmup::test_traced_warm_engine_replays_the_cold_products" \
    "tests/test_measured_schemes.py::test_the_decision_follows_the_verdict" \
    "tests/test_measured_schemes.py::test_a_second_session_runs_no_probe" \
    "tests/test_measured_schemes.py::test_sliding_and_gemm1x1_picks_are_never_timed" \
    "tests/test_measured_schemes.py::test_overrides_take_precedence_over_measurement" \
    "tests/test_measured_schemes.py::test_cached_schemes_take_precedence_over_measurement" \
    "tests/test_measured_schemes.py::test_simulated_backends_keep_the_modeled_picks" \
    "tests/test_measured_schemes.py::test_an_entry_keyed_under_another_host_misses" \
    "tests/test_bound_runners.py::test_session_run_carves_nothing"

echo
echo "== [6/13] prometheus export (validating re-parse, SLO families) =="
python -m pytest -q \
    "tests/test_obs_requests.py::TestPrometheus::test_engine_slo_metrics_export" \
    "tests/test_obs_requests.py::TestPrometheus::test_export_round_trips_through_the_validating_parser"

echo
echo "== [7/13] request layer (disabled tracking <5%; same-seed postmortems byte-identical) =="
python -m pytest -q tests/test_obs_requests.py -k overhead
python -m pytest -q \
    "tests/test_obs_recorder.py::TestChaosFlightRecorder::test_same_seed_storms_dump_byte_identical_postmortems"

echo
echo "== [8/13] bench-regression gate (two-run trajectory) =="
export REPRO_BENCH_DIR="$tmpdir/bench"
python -m pytest -q benchmarks/bench_prefix_cache.py
python -m pytest -q benchmarks/bench_prefix_cache.py
python -m repro.tools.cli regress "$REPRO_BENCH_DIR"/BENCH_*.json
unset REPRO_BENCH_DIR

echo
echo "== [9/13] cluster supervision (kill or hang a worker, stay bit-identical; a death wakes the supervisor; workers replay the router's plan; an infer RPC pickles nothing; a sync RPC runs on the caller's thread, a parked request expires typed, close() ends every caller with gold or a typed error and leaves no thread, a dead router's workers exit and leave no segment or temp dir) =="
python -m pytest -q \
    "tests/test_cluster_router.py::TestSupervision::test_sigkill_is_recovered_bit_identical" \
    "tests/test_cluster_router.py::TestSupervision::test_death_wakes_the_supervisor_without_a_tick" \
    "tests/test_cluster_router.py::TestSupervision::test_hang_is_detected_and_replaced" \
    "tests/test_cluster_router.py::TestSupervision::test_workers_replay_the_routers_near_tie_pick" \
    "tests/test_cluster_router.py::TestTransport::test_infer_pickles_nothing_and_lays_out_nothing" \
    "tests/test_cluster_router.py::TestTransport::test_sync_rpc_runs_on_the_callers_thread" \
    "tests/test_cluster_router.py::TestAdmissionControl::test_a_request_parked_on_a_busy_slot_expires_typed" \
    "tests/test_cluster_router.py::TestLifecycle::test_close_with_work_in_flight" \
    "tests/test_cluster_router.py::TestLifecycle::test_a_dead_routers_workers_exit"

echo
echo "== [10/13] quantization contracts (exactness, accuracy, determinism, capacity, merged siblings) =="
python -m pytest -q \
    "tests/test_quant_kernels.py::TestExactIntGemm::test_worst_case_operands_match_int64[1040]" \
    "tests/test_quant_kernels.py::TestExactIntGemm::test_worst_case_operands_match_int64[1041]" \
    "tests/test_quant_convert.py::TestQuantizeGraph::test_quantized_decoder_is_q_rule_clean" \
    "tests/test_quant_convert.py::TestQuantizeGraph::test_accuracy_contract_on_decoder_logits" \
    "tests/test_quant_kvcache.py::TestEngine::test_quantized_weights_replay_is_bit_identical" \
    "tests/test_quant_kvcache.py::TestConfig::test_capacity_ratio_at_least_3x" \
    "tests/test_quant_convert.py::TestSiblingMerge::test_each_column_block_is_bitwise_its_own_qmatmul"

echo
echo "== [11/13] greedy decode == full recompute (mixed-capacity steps, prefix-hit runs) =="
python -m pytest -q \
    "tests/test_genai_engine.py::TestAcceptance::test_decode_bit_identical_to_full_recompute[mixed-capacity-steps]" \
    "tests/test_genai_engine.py::TestAcceptance::test_decode_bit_identical_to_full_recompute[prefix-hits]" \
    "tests/test_genai_engine.py::TestScheduler::test_sampled_generations_replay"

echo
echo "== [12/13] benchmark smoke (perfbench, all six workloads, traced and untraced) =="
python -m pytest -q perfbench/tests/test_smoke.py

echo
echo "== [13/13] examples (every examples/*.py exits 0) =="
root=$PWD
for example in examples/*.py; do
    echo "-- $example"
    (cd "$tmpdir" && PYTHONPATH="$root/src" python "$root/$example" >/dev/null)
done

echo
echo "check.sh: all gates passed"
