#!/usr/bin/env python3
"""Holds a perf record (BENCH_core.json) to every pin CI checks.

Usage: python3 ci/check_bench_record.py <record>

One list for both callers, so they cannot disagree: the multicore-bench CI
leg runs it on the record it just measured, and ci/verify.sh's docs pass
runs it on the tracked BENCH_core.json.  It first requires every scenario
and summary scalar the docs promise, then asserts the pins on the summary
values.  Exits 0 when every check holds and 1 otherwise, naming each
missing key or the failed pin.
"""
import json
import math
import sys

# Text the record must contain: a benchmark-name prefix such as
# '"async_drain/burst-seq' or a summary key such as '"sgd_update_speedup"'.
# In particular the batched-message-plane entries (DESIGN.md §13): a bench
# refactor that silently drops a scenario would otherwise leave a stale
# record in place; ci/promote_bench.sh replaces the tracked file only with
# artifacts that pass the same checks.
REQUIRED = (
    '"async_drain/burst-seq',
    '"async_drain/coalesced-seq',
    '"async_coalesced_event_gain"',
    '"async_intershard_frame_gain"',
    '"async_pair_lookahead_window_gain"',
    '"sgd_update_speedup"',
    '"async_drain_parallel_scaling"',
    '"async_distributed_scaling"',
    '"round_sweep_speedup_n8192"',
    '"round_sweep_speedup_n65536"',
    '"round_throughput/per-message',
    '"async_drain/distributed-2proc-rawlink',
    '"async_drain/distributed-2proc-reliable',
    '"async_drain/distributed-2proc-lossy5',
    '"intershard_retransmit_overhead"',
    '"intershard_lossy_window_throughput"',
    '"ann_query/index',
    '"ann_query/brute-force',
    '"ann_recall_at_10"',
    '"ann_qps_speedup"',
    '"ann_query/index/n1000000',
    '"ann_recall_at_10_n1m"',
    '"ann_qps_speedup_n1m"',
    '"ann_index_build_seconds_n1m"',
    '"svc_mixed/',
    '"svc_ingest/',
    '"svc_query/',
    '"svc_mixed/n1000000',
    '"svc_query_parallel_scaling"',
    '"svc_query_p50_ms"',
    '"svc_query_p99_ms"',
    '"svc_ingest_throughput"',
    '"svc_coord_staleness"',
    '"svc_staleness_budget"',
)


def check_pins(record):
    summary = record["summary"]
    # The *_parallel_scaling ratios are real only at hw_threads > 1; a
    # 1-core host would record single-thread ratios — fail instead.
    hw = summary["hw_threads"]
    assert hw > 1, f"runner reports hw_threads={hw}; need a multi-core host"
    for key in ("async_drain_parallel_scaling", "round_parallel_scaling",
                "alg2_round_parallel_scaling", "matrix_parallel_scaling",
                "async_distributed_scaling", "async_coalesced_event_gain",
                "async_intershard_frame_gain"):
        print(f"{key}: {summary[key]:.3f}x (hw_threads={hw})")
    # The batched message plane (DESIGN.md §13) must show its win in
    # the canonical record: coalescing merges real events, and its
    # scenarios must be present for ci/promote_bench.sh to promote.
    names = {entry["name"] for entry in record["benchmarks"]}
    assert any(n.startswith("async_drain/coalesced-seq") for n in names), names
    assert any(n.startswith("async_drain/burst-seq") for n in names), names
    gain = summary["async_coalesced_event_gain"]
    assert gain > 1.0, f"async_coalesced_event_gain={gain}; expected > 1"
    # The sequential round sweep (DESIGN.md §14) must beat the same
    # rounds driven as messages at both tiers.
    assert any(n.startswith("round_throughput/per-message") for n in names), names
    for key in ("round_sweep_speedup_n8192", "round_sweep_speedup_n65536"):
        speedup = summary[key]
        print(f"{key}: {speedup:.3f}x")
        assert speedup > 1.0, f"{key}={speedup}; expected > 1"
    # The ANN query plane (DESIGN.md §16) must hold its staleness
    # acceptance in the canonical record: recall@10 against the
    # fresh-coordinate oracle >= 0.9 after live drift, while beating
    # the brute-force scan at the deployment tier.
    assert any(n.startswith("ann_query/index") for n in names), names
    assert any(n.startswith("ann_query/brute-force") for n in names), names
    recall = summary["ann_recall_at_10"]
    print(f"ann_recall_at_10: {recall:.3f}")
    assert recall >= 0.9, f"ann_recall_at_10={recall}; floor is 0.9"
    ann_speedup = summary["ann_qps_speedup"]
    print(f"ann_qps_speedup: {ann_speedup:.3f}x")
    assert ann_speedup > 1.0, f"ann_qps_speedup={ann_speedup}; expected > 1"
    # The million-node tier (DESIGN.md §18): IVF-routed recall must
    # hold the same 0.9 floor where the exact scan is 10⁶ dot products
    # per query, the index must beat that scan outright, and the build
    # cost must be a real (positive, finite) measurement.
    assert any(n.startswith("ann_query/index/n1000000") for n in names), names
    recall_1m = summary["ann_recall_at_10_n1m"]
    print(f"ann_recall_at_10_n1m: {recall_1m:.3f}")
    assert recall_1m >= 0.9, f"ann_recall_at_10_n1m={recall_1m}; floor is 0.9"
    speedup_1m = summary["ann_qps_speedup_n1m"]
    print(f"ann_qps_speedup_n1m: {speedup_1m:.3f}x")
    assert speedup_1m > 1.0, f"ann_qps_speedup_n1m={speedup_1m}; expected > 1"
    build_1m = summary["ann_index_build_seconds_n1m"]
    print(f"ann_index_build_seconds_n1m: {build_1m:.1f}s")
    assert math.isfinite(build_1m) and build_1m > 0.0, \
        f"ann_index_build_seconds_n1m={build_1m}; expected a real build time"
    # The reader-writer query plane (DESIGN.md §18): hw threads sharing
    # the service's read lock must outrun one thread on this multi-core
    # runner — a scaling <= 1 means the shared lock serialized reads.
    assert any(n.startswith("svc_query/") for n in names), names
    query_scaling = summary["svc_query_parallel_scaling"]
    print(f"svc_query_parallel_scaling: {query_scaling:.3f}x (hw_threads={hw})")
    assert query_scaling > 1.0, \
        f"svc_query_parallel_scaling={query_scaling}; expected > 1 at hw={hw}"
    # The resident service (DESIGN.md §17) must record its SLO in the
    # canonical record: a real p99 query latency and an index
    # staleness that is finite and inside the configured budget.
    assert any(n.startswith("svc_mixed/") for n in names), names
    assert any(n.startswith("svc_ingest/") for n in names), names
    p99 = summary["svc_query_p99_ms"]
    print(f"svc_query_p99_ms: {p99:.4f}")
    assert math.isfinite(p99) and p99 > 0.0, \
        f"svc_query_p99_ms={p99}; expected a positive finite latency"
    assert summary["svc_query_p50_ms"] <= p99, "p50 exceeds p99"
    ingest = summary["svc_ingest_throughput"]
    print(f"svc_ingest_throughput: {ingest:.0f}/s")
    assert ingest > 0.0, f"svc_ingest_throughput={ingest}; expected > 0"
    staleness = summary["svc_coord_staleness"]
    budget = summary["svc_staleness_budget"]
    print(f"svc_coord_staleness: {staleness:.0f} (budget {budget:.0f})")
    assert math.isfinite(staleness) and 0.0 <= staleness <= budget, \
        f"svc_coord_staleness={staleness}; budget is {budget}"
    # The reliability layer (DESIGN.md §15) must stay nearly free on a
    # clean link and keep the window moving at 5% loss.
    overhead = summary["intershard_retransmit_overhead"]
    print(f"intershard_retransmit_overhead: {overhead:.4f}")
    assert overhead < 0.05, \
        f"reliable layer costs {overhead:.1%} on a lossless link; budget is 5%"
    lossy = summary["intershard_lossy_window_throughput"]
    print(f"intershard_lossy_window_throughput: {lossy:.3f}")
    assert lossy > 0.0, f"lossy window throughput {lossy}; the drain stalled"


def main(argv):
    if len(argv) != 2:
        print("usage: check_bench_record.py <record>", file=sys.stderr)
        return 2
    path = argv[1]
    with open(path) as handle:
        text = handle.read()
    missing = [key for key in REQUIRED if key not in text]
    for key in missing:
        print(f"{path} lacks {key}", file=sys.stderr)
    if missing:
        return 1
    try:
        check_pins(json.loads(text))
    except AssertionError as error:
        print(f"{path} fails a pin: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
