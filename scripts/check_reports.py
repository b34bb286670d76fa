#!/usr/bin/env python3
"""Acceptance checks for the benchmark reports written under results/.

Usage:
    python3 scripts/check_reports.py {tangle_scale|tips|mesh|api|runtime|pow|rsa} [REPORT]

Loads REPORT (default: results/BENCH_<name>.json), asserts the report's
acceptance flags and bounds, and prints one summary line. A failed check
raises AssertionError with its message, so the process exits non-zero.
"""

import json
import sys


def tangle_scale(r):
    acc = r['acceptance']
    assert acc['oracle_exact'], 'recount oracle diverged'
    assert acc['per_attach_bounded'], f"p99 grew {acc['window_p99_growth']}x with depth"
    assert acc['speedup_at_least_5x'], f"speedup {r['probe_at_depth']['speedup']}x < 5x"
    assert r['sealed_ingest']['oracle_failures'] == 0
    ingest = r['sealed_ingest']
    assert ingest['sealed_len'] > ingest['frontier_len']
    # The tangle is append-only: every attach plus the genesis is stored,
    # and the sealed counter plus the frontier recount must account for
    # each.
    assert ingest['sealed_len'] + ingest['frontier_len'] == ingest['txs'] + 1, \
        f"sealed {ingest['sealed_len']} + frontier {ingest['frontier_len']} " \
        f"!= {ingest['txs']} txs + genesis"
    print('tangle scale acceptance ok:',
          f"{r['sealed_ingest']['tx_per_sec']:.0f} tx/s,",
          f"speedup {r['probe_at_depth']['speedup']}x")


def tips(r):
    rows = r['tangles']
    for row in rows:
        # The tangle is append-only: it stores every attach and the genesis.
        assert row['stored'] == row['attached'] + 1, \
            f"{row['attached']} attached but {row['stored']} stored"
    # Depth-constrained selection costs O(walk), not O(ledger): the largest
    # tangle keeps at least a third of the smallest one's rate.
    small = rows[0]['depth_constrained']['indexed_per_sec']
    large = rows[-1]['depth_constrained']['indexed_per_sec']
    assert large * 3 >= small, \
        f"depth-constrained {small:.0f}/s at {rows[0]['attached']} txs fell to " \
        f"{large:.0f}/s at {rows[-1]['attached']}"
    print('tips acceptance ok:',
          f"depth-constrained {small:.0f}/s -> {large:.0f}/s",
          f"from {rows[0]['attached']} to {rows[-1]['attached']} txs")


def mesh(r):
    acc = r['acceptance']
    assert acc['all_converged_bit_for_bit'], 'a fleet diverged from the oracle'
    assert acc['digest_beats_flood_3x'], \
        f"flood/digest only {acc['flood_over_digest_bytes_per_node']}x"
    assert acc['bytes_per_node_per_tx_non_increasing'], \
        f"bytes/node/tx grew {acc['bytes_per_node_per_tx_first']} -> " \
        f"{acc['bytes_per_node_per_tx_last']}"
    assert acc['partition_heals'], 'partitioned fleet failed to re-converge'
    assert acc['deterministic'], 'seeded re-run diverged'
    runs = r['digest'] + r['flood'] + [r['partitioned']]
    for run in runs:
        kinds = run['frames_by_kind']
        for field, total in (('bytes', 'total_bytes_sent'), ('frames', 'total_frames_sent')):
            assert sum(k[field] for k in kinds.values()) == run[total], \
                f"N={run['nodes']}: per-kind {field} do not sum to {total}"
    print('mesh acceptance ok:',
          f"flood/digest {acc['flood_over_digest_bytes_per_node']}x,",
          f"{acc['bytes_per_node_per_tx_last']} B/node/tx")


def api(r):
    acc = r['acceptance']
    assert acc['all_responses_ok'], 'a query answered non-200'
    assert acc['qps_floor_ok'], \
        f"only {acc['queries_per_sec']} queries/s"
    assert acc['p99_under_50ms'], \
        f"p99 latency {acc['latency_p99_ms']} ms"
    assert acc['synced_under_load'], \
        'archival replica fell behind while serving'
    assert acc['snapshot_boot_faster'], \
        f"snapshot boot only {acc['snapshot_speedup']}x vs replay"
    print('api acceptance ok:',
          f"{acc['queries_per_sec']:.0f} queries/s,",
          f"p99 {acc['latency_p99_ms']} ms,",
          f"snapshot boot {acc['snapshot_speedup']}x")


def runtime(r):
    acc = r['acceptance']
    assert acc['idle_wakeups_ok'], \
        f"idle event loop burned {r['idle']['event_wakeups_per_sec']} wakeups/s"
    assert acc['first_byte_ok'], \
        f"first-byte p99 {r['first_byte']['event_p99_ms']} ms"
    assert r['idle']['reduction'] >= 10, \
        f"only {r['idle']['reduction']}x fewer wakeups than the tick loop"
    print('runtime acceptance ok:',
          f"idle {r['idle']['event_wakeups_per_sec']} wakeups/s",
          f"({r['idle']['reduction']}x fewer),",
          f"first byte p99 {r['first_byte']['event_p99_ms']} ms")


def pow_report(r):
    # Ratios only: absolute timings swing with the runner, ratios do not.
    speedup = r['weight_index']['speedup']
    assert speedup >= 100, f"weight index only {speedup}x faster than the BFS recount"
    print('pow acceptance ok:', f"weight index {speedup}x faster than the BFS recount")


def rsa_report(r):
    full = r['full_modpow']['speedup']
    crt = r['crt_private_op']['speedup']
    assert full >= 2, f"Montgomery full modpow only {full}x faster than naive"
    assert crt >= 2, f"Montgomery CRT private op only {crt}x faster than naive"
    ops = r['library_ops']
    assert ops['verify_secs'] < ops['sign_secs'], \
        f"verify {ops['verify_secs']} s not below sign {ops['sign_secs']} s"
    print('rsa acceptance ok:',
          f"Montgomery {full}x (full) and {crt}x (CRT),",
          f"sign/verify {ops['sign_secs'] / ops['verify_secs']:.1f}x")


CHECKS = {'tangle_scale': tangle_scale, 'tips': tips, 'mesh': mesh, 'api': api,
          'runtime': runtime, 'pow': pow_report, 'rsa': rsa_report}


def main(argv):
    if len(argv) not in (2, 3) or argv[1] not in CHECKS:
        sys.exit(f"usage: {argv[0]} {{{'|'.join(CHECKS)}}} [REPORT]")
    path = argv[2] if len(argv) == 3 else f'results/BENCH_{argv[1]}.json'
    with open(path) as f:
        CHECKS[argv[1]](json.load(f))


if __name__ == '__main__':
    main(sys.argv)
