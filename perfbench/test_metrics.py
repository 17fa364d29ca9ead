#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic (metrics.py).

Run from anywhere: python3 perfbench/test_metrics.py

The canned stats JSON (testdata/canned_runs.json) holds two small runs
whose counts were chosen so every expected value below can be checked
by hand; the comments show the sums.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

with open(os.path.join(HERE, "testdata", "canned_runs.json")) as f:
    CANNED = json.load(f)

# First timed round: events, ticks and requests sum to 8000, 40000
# and 2000 over the two configurations.
COUNTS = {"events": 8000, "ticks": 40000, "requests": 2000}


def run(measured, total=1.0, instructions=2_000_000):
    return {"construct_s": 1e-4, "warmup_s": 0.1, "measured_s": measured,
            "export_s": 1e-3, "total_s": total,
            "instructions": instructions, "events": 4000,
            "ticks": 20000, "requests": 1000}


def rnd(kind, *runs):
    return {"kind": kind, "runs": list(runs)}


# Timed rounds measure 0.4, 0.5 and 0.4 s for 4e6 instructions, so the
# fast end is 0.4 s, 10 MIPS; the traced round reads 8 MIPS; the
# checked round measures 0.6 s against the timed 0.4 s.
REPORT = {
    "configs": [{"label": "a"}, {"label": "b"}],
    "attempted": 10, "failed": 1, "peak_rss_kb": 2048,
    "setup_s": [3e-4, 1e-4, 2e-4],
    "rounds": [
        rnd("reference", run(9.0), run(9.0)),
        rnd("timed", run(0.2), run(0.2)),
        rnd("timed", run(0.25, 1.2), run(0.25, 1.2)),
        rnd("timed", run(0.1), run(0.3)),
        rnd("traced", run(0.25), run(0.25)),
        rnd("checked", run(0.3), run(0.3)),
    ],
}


def span(sid, name, ts, dur, parent=-1, trace=0, ops=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "args": {"span": sid, "parent": parent, "trace": trace,
                     "ops": ops}}


def system_run(first_id, trace):
    """One System run: 1 + 399 + 500 + 1 us of phases in 1000 us."""
    return [
        span(first_id, "system.run", 0, 1000, trace=trace),
        span(first_id + 1, "system.construct", 0, 1, first_id, trace),
        span(first_id + 2, "system.warmup", 1, 399, first_id, trace),
        span(first_id + 3, "system.measured", 400, 500, first_id, trace),
        span(first_id + 4, "system.export", 900, 1, first_id, trace),
    ]


SPANS = system_run(0, 1) + system_run(5, 2) + [
    span(10, "cache.driver", 0, 3000, trace=3),
    span(11, "cache.access", 0, 2000, 10, 3, ops=100_000),  # 20 ns/op
    span(12, "vm.lookup", 0, 100, trace=4, ops=10_000),      # 10 ns/op
    span(13, "workload.next", 0, 50, trace=5, ops=10_000),   # 5 ns/op
    span(14, "dram.hbm.access", 0, 1000, trace=6, ops=10_000),
    span(15, "dram.ddr.access", 0, 2000, trace=6, ops=10_000),
]


class SimMetrics(unittest.TestCase):
    def setUp(self):
        self.m = metrics.sim_metrics(metrics.Stats(CANNED), COUNTS)

    def check(self, name, want):
        self.assertAlmostEqual(self.m[name], want, places=9, msg=name)

    def test_instructions_sum_over_cores_and_configs(self):
        # 1000 + 1000 + 2000.
        self.assertEqual(metrics.Stats(CANNED).instructions, 4000)

    def test_per_kinstr_counts(self):
        self.check("sim.events_per_kinstr", 2000)      # 8000 / 4
        self.check("sim.ticks_per_kinstr", 10000)      # 40000 / 4
        self.check("mem.requests_per_kinstr", 500)     # 2000 / 4
        self.check("cpu.mem_ops_per_kinstr", 300)      # 1200 / 4
        self.check("cache.l1_accesses_per_kinstr", 300)  # 600+600
        self.check("cache.l3_mpki", 30)                # 120 / 4
        self.check("vm.tlb_mpki", 8)                   # 32 / 4
        self.check("vm.walks_per_kinstr", 5)           # 20 / 4
        self.check("dramcache.tag_misses_per_kinstr", 2)
        self.check("dramcache.fills_per_kinstr", 2)
        self.check("dramcache.writebacks_per_kinstr", 0.5)
        self.check("dramcache.data_misses_per_kinstr", 25)
        self.check("tiering.promotions_per_kinstr", 1.5)
        self.check("tiering.demotions_per_kinstr", 0.5)
        self.check("dram.hbm_reqs_per_kinstr", 125)    # 400+100
        self.check("dram.ddr_reqs_per_kinstr", 75)     # 120+180

    def test_cpi_and_ipc(self):
        self.check("cpu.ipc", 4000 / 12000)
        self.check("cpu.stall_mem_cpi", 1.5)           # 6000 / 4000
        self.check("cpu.stall_handler_cpi", 0.1)       # 400 / 4000
        self.check("cpu.stall_walk_cpi", 0.05)         # 200 / 4000

    def test_ratios(self):
        # Rejects over attempts: 1800 / (1800 + 1200).
        self.check("cache.l1_reject_ratio", 0.6)
        # Sub-entry rejects over back-end attempts: 600 / (600+300+100).
        self.check("dramcache.subentry_reject_ratio", 0.6)
        self.check("dramcache.buffer_hit_rate", 0.75)  # 60 / (60+20)
        self.check("dramcache.tid_reject_ratio", 0)    # no TiD run
        self.check("tiering.write_abort_ratio", 0.5)   # 5 / 10
        self.check("dram.hbm_row_hit_rate", 0.8)       # 400 / 500
        self.check("dram.ddr_row_hit_rate", 0.7)       # 140 / 200

    def test_sample_weighted_means(self):
        self.check("dramcache.fill_latency_ticks", 1000)
        self.check("dramcache.interface_wait_ticks", 10)
        self.check("dramcache.tag_mgmt_latency_ticks", 500)
        self.check("tiering.migration_latency_ticks", 2000)
        self.check("dram.hbm_read_latency_ticks", 100)  # 40000 / 400
        self.check("dram.ddr_read_latency_ticks", 150)  # 30000 / 200
        self.check("tiering.far_read_p99_ticks", 7680)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        events = [
            span(0, "parent", 0, 100),
            span(1, "a", 10, 20, 0),
            span(2, "b", 40, 30, 0),
            span(3, "d", 12, 5, 1),    # grandchild: a's, not parent's
        ]
        selfs = metrics.self_times(events)
        self.assertEqual(selfs[0][3], 100 - 20 - 30)
        self.assertEqual(selfs[1][3], 20 - 5)
        self.assertEqual(selfs[2][3], 30)
        self.assertEqual(selfs[3][3], 5)

    def test_ns_per_op_and_phase_rounds(self):
        selfs = metrics.self_times(SPANS)
        self.assertAlmostEqual(metrics.ns_per_op(selfs, "cache.access"), 20)
        rounds = metrics.phase_rounds(selfs, configs=2)
        self.assertEqual(len(rounds), 1)
        self.assertAlmostEqual(rounds[0]["system.warmup"], 798e-6)
        # Teardown and bookkeeping: 1000 - 901 us per run, two runs.
        self.assertAlmostEqual(rounds[0]["system.run"], 198e-6)


class HostMetrics(unittest.TestCase):
    def setUp(self):
        self.e2e = metrics.end_to_end(REPORT)
        self.host = metrics.host_metrics(
            REPORT, metrics.Stats(CANNED), COUNTS,
            metrics.self_times(SPANS))

    def test_fast_round_is_the_interpolated_tenth_percentile(self):
        def rounds(*times):
            return [[{"t": t}] for t in times]
        self.assertAlmostEqual(
            metrics.fast_round(rounds(*range(11, 0, -1)), "t"), 2)
        self.assertAlmostEqual(metrics.fast_round(rounds(2, 1), "t"), 1.1)
        self.assertAlmostEqual(metrics.fast_round(rounds(7), "t"), 7)

    def test_end_to_end(self):
        self.assertAlmostEqual(self.e2e["mips"], 10)
        self.assertAlmostEqual(self.e2e["wall_s"], 2.0)
        # Fast end of 1e-4, 2e-4, 3e-4: 0.2 of the way from 1e-4 to 2e-4.
        self.assertAlmostEqual(self.e2e["setup_s"], 1.2e-4)
        self.assertAlmostEqual(self.e2e["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(self.e2e["pass_ratio"], 0.9)

    def test_est_share(self):
        # 10 MIPS is 100 ns per instruction.
        self.assertAlmostEqual(metrics.est_share(50, 0.4, 100), 0.2)
        # 20 ns x 1200/4000 accesses per instruction / 100 ns.
        self.assertAlmostEqual(self.host["cache.est_share"], 0.06)
        # 10 ns x 1200/4000 lookups per instruction / 100 ns.
        self.assertAlmostEqual(self.host["vm.est_share"], 0.03)
        self.assertAlmostEqual(self.host["workload.est_share"], 0.05)
        # (100 ns x 500 + 200 ns x 300) / 4000 instructions / 100 ns.
        self.assertAlmostEqual(self.host["dram.est_share"], 0.275)

    def test_host_ratios(self):
        self.assertAlmostEqual(self.host["sim.host_ns_per_event"], 5e4)
        self.assertAlmostEqual(self.host["sim.host_ns_per_tick"], 1e4)
        self.assertAlmostEqual(self.host["harden.check_overhead"], 1.5)
        self.assertAlmostEqual(self.host["bench.trace_overhead"], 0.2)
        self.assertAlmostEqual(self.host["system.construct_ms"], 0.002)
        self.assertAlmostEqual(self.host["system.measured_s"], 0.001)

    def test_per_layer_lists_every_metric(self):
        out = metrics.per_layer(REPORT, CANNED, SPANS)
        self.assertEqual(list(out), list(metrics.PER_LAYER))

    def test_digest_is_stable(self):
        self.assertEqual(metrics.digest([b"a", b"b"]),
                         metrics.digest([b"ab"]))
        self.assertEqual(len(metrics.digest([b""])), 16)


if __name__ == "__main__":
    unittest.main()
