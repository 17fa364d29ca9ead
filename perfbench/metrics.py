"""Metric arithmetic over the benchmark driver's raw report.

Everything here is a pure function of parsed JSON (the driver's
report, the reference runs' stats JSON and the span file), so
test_metrics.py can check it on canned inputs.

Naming: "sim." metrics are simulated quantities and repeat exactly for
a seed; "host" metrics are host time. Per-kilo-instruction counts and
ratios aggregate over every configuration of the workload: counts are
summed, then divided by the summed retired instructions.
"""

import hashlib
import statistics
from collections import defaultdict

# name -> (unit, better, kind). Order is the print order.
END_TO_END = {
    "mips": ("Minstr/s", "higher", "host"),
    "wall_s": ("s", "lower", "host"),
    "setup_s": ("s", "lower", "host"),
    "peak_rss_mb": ("MB", "lower", "host"),
    "pass_ratio": ("fraction", "higher", "host"),
}

PER_LAYER = {
    "system.construct_ms": ("ms", "lower", "host"),
    "system.warmup_s": ("s", "lower", "host"),
    "system.measured_s": ("s", "lower", "host"),
    "system.export_ms": ("ms", "lower", "host"),
    "sim.events_per_kinstr": ("count/kinstr", "lower", "sim"),
    "sim.ticks_per_kinstr": ("ticks/kinstr", "lower", "sim"),
    "sim.host_ns_per_event": ("ns", "lower", "host"),
    "sim.host_ns_per_tick": ("ns", "lower", "host"),
    "cpu.ipc": ("instr/cycle", "higher", "sim"),
    "cpu.stall_mem_cpi": ("cycles/instr", "lower", "sim"),
    "cpu.stall_handler_cpi": ("cycles/instr", "lower", "sim"),
    "cpu.stall_walk_cpi": ("cycles/instr", "lower", "sim"),
    "cpu.mem_ops_per_kinstr": ("count/kinstr", "lower", "sim"),
    "cache.l1_accesses_per_kinstr": ("count/kinstr", "lower", "sim"),
    "cache.l1_reject_ratio": ("fraction", "lower", "sim"),
    "cache.l3_mpki": ("count/kinstr", "lower", "sim"),
    "cache.host_ns_per_access": ("ns", "lower", "host"),
    "cache.est_share": ("fraction", "lower", "host"),
    "vm.tlb_mpki": ("count/kinstr", "lower", "sim"),
    "vm.walks_per_kinstr": ("count/kinstr", "lower", "sim"),
    "vm.host_ns_per_lookup": ("ns", "lower", "host"),
    "vm.est_share": ("fraction", "lower", "host"),
    "workload.host_ns_per_instr": ("ns", "lower", "host"),
    "workload.est_share": ("fraction", "lower", "host"),
    "mem.requests_per_kinstr": ("count/kinstr", "lower", "sim"),
    "dramcache.tag_misses_per_kinstr": ("count/kinstr", "lower", "sim"),
    "dramcache.fills_per_kinstr": ("count/kinstr", "lower", "sim"),
    "dramcache.writebacks_per_kinstr": ("count/kinstr", "lower", "sim"),
    "dramcache.data_misses_per_kinstr": ("count/kinstr", "lower", "sim"),
    "dramcache.buffer_hit_rate": ("fraction", "higher", "sim"),
    "dramcache.subentry_reject_ratio": ("fraction", "lower", "sim"),
    "dramcache.interface_wait_ticks": ("ticks", "lower", "sim"),
    "dramcache.fill_latency_ticks": ("ticks", "lower", "sim"),
    "dramcache.tag_mgmt_latency_ticks": ("ticks", "lower", "sim"),
    "dramcache.tid_reject_ratio": ("fraction", "lower", "sim"),
    "tiering.promotions_per_kinstr": ("count/kinstr", "lower", "sim"),
    "tiering.demotions_per_kinstr": ("count/kinstr", "lower", "sim"),
    "tiering.write_abort_ratio": ("ratio", "lower", "sim"),
    "tiering.migration_latency_ticks": ("ticks", "lower", "sim"),
    "tiering.far_read_p99_ticks": ("ticks", "lower", "sim"),
    "dram.hbm_reqs_per_kinstr": ("count/kinstr", "lower", "sim"),
    "dram.ddr_reqs_per_kinstr": ("count/kinstr", "lower", "sim"),
    "dram.hbm_row_hit_rate": ("fraction", "higher", "sim"),
    "dram.ddr_row_hit_rate": ("fraction", "higher", "sim"),
    "dram.hbm_read_latency_ticks": ("ticks", "lower", "sim"),
    "dram.ddr_read_latency_ticks": ("ticks", "lower", "sim"),
    "dram.hbm_host_ns_per_req": ("ns", "lower", "host"),
    "dram.ddr_host_ns_per_req": ("ns", "lower", "host"),
    "dram.est_share": ("fraction", "lower", "host"),
    "harden.check_overhead": ("ratio", "lower", "host"),
    "bench.trace_overhead": ("fraction", "lower", "host"),
}


def ratio(num, den):
    return num / den if den else 0.0


def flatten(stats, prefix=""):
    """{"cpu0": {"l1": {"hits": {...}}}} -> {"cpu0.l1.hits": {...}}."""
    out = {}
    for key, val in stats.items():
        name = prefix + key
        if isinstance(val, dict) and "kind" not in val:
            out.update(flatten(val, name + "."))
        else:
            out[name] = val
    return out


class Stats:
    """The reference runs' stats, summed across configurations."""

    def __init__(self, runs):
        self.flat = [flatten(r["stats"]) for r in runs]
        self.results = [r["results"] for r in runs]
        self.instructions = self.total(core_suffix(".instructions"))

    def total(self, match, field="value"):
        return sum(stat.get(field, 0) for flat in self.flat
                   for key, stat in flat.items() if match(key))

    def suffix(self, suffix, field="value"):
        return self.total(lambda k: k.endswith(suffix), field)

    def mean(self, suffix):
        """Sample-weighted mean of every Average stat ending in suffix."""
        return ratio(self.suffix(suffix, "sum"),
                     self.suffix(suffix, "count"))

    def per_kinstr(self, count):
        return 1000.0 * ratio(count, self.instructions)

    def per_instr(self, count):
        return ratio(count, self.instructions)


def core_suffix(part):
    """Matcher for a per-core stat such as cpu3.l1.rejects."""
    return lambda k: k.startswith("cpu") and k.endswith(part)


def l1_accesses(s):
    """Accepted L1 accesses; a rejected tryAccess is retried later."""
    return sum(s.total(core_suffix(".l1." + p))
               for p in ("hits", "misses", "missesMerged"))


def tlb_lookups(s):
    return sum(s.total(core_suffix(".tlb." + p))
               for p in ("l1Hits", "l2Hits", "misses"))


def dram_reqs(s, dev):
    return s.suffix(dev + ".readReqs") + s.suffix(dev + ".writeReqs")


def row_hit_rate(s, dev):
    hits = s.suffix(dev + ".rowHits")
    return ratio(hits, hits + s.suffix(dev + ".rowMisses") +
                 s.suffix(dev + ".rowConflicts"))


def sim_metrics(s, run):
    """Simulated per-layer metrics. `run` holds the event, tick and
    request counts of one measured round (summed over configs)."""
    rejects = s.total(core_suffix(".l1.rejects"))
    sub_rejects = s.suffix(".subEntryRejects")
    buf_hits = s.suffix(".bufferReadHits")
    tid_rejects = s.suffix("tid.rejects")
    promos = s.suffix("tiering.engine.promotionsStarted")
    return {
        "sim.events_per_kinstr": s.per_kinstr(run["events"]),
        "sim.ticks_per_kinstr": s.per_kinstr(run["ticks"]),
        "cpu.ipc": ratio(s.instructions, s.total(core_suffix(".cycles"))),
        "cpu.stall_mem_cpi": s.per_instr(s.total(core_suffix(".stallMem"))),
        "cpu.stall_handler_cpi":
            s.per_instr(s.total(core_suffix(".stallHandler"))),
        "cpu.stall_walk_cpi":
            s.per_instr(s.total(core_suffix(".stallWalk"))),
        "cpu.mem_ops_per_kinstr":
            s.per_kinstr(s.total(core_suffix(".memOps"))),
        "cache.l1_accesses_per_kinstr": s.per_kinstr(l1_accesses(s)),
        "cache.l1_reject_ratio": ratio(rejects, rejects + l1_accesses(s)),
        "cache.l3_mpki": s.per_kinstr(s.suffix("l3.misses")),
        "vm.tlb_mpki": s.per_kinstr(s.total(core_suffix(".tlb.misses"))),
        "vm.walks_per_kinstr": s.per_kinstr(s.total(core_suffix(".walks"))),
        "mem.requests_per_kinstr": s.per_kinstr(run["requests"]),
        "dramcache.tag_misses_per_kinstr":
            s.per_kinstr(s.suffix(".fe.tagMisses")),
        "dramcache.fills_per_kinstr":
            s.per_kinstr(s.suffix(".fillCommands")),
        "dramcache.writebacks_per_kinstr":
            s.per_kinstr(s.suffix(".writebackCommands")),
        "dramcache.data_misses_per_kinstr":
            s.per_kinstr(s.suffix(".dataMisses")),
        "dramcache.buffer_hit_rate":
            ratio(buf_hits, buf_hits + s.suffix(".pendingServed")),
        "dramcache.subentry_reject_ratio":
            ratio(sub_rejects, sub_rejects + s.suffix(".dataHits") +
                  s.suffix(".dataMisses")),
        "dramcache.interface_wait_ticks": s.mean(".interfaceWait"),
        "dramcache.fill_latency_ticks": s.mean(".fillLatency"),
        "dramcache.tag_mgmt_latency_ticks": s.mean(".fe.tagMgmtLatency"),
        "dramcache.tid_reject_ratio":
            ratio(tid_rejects, tid_rejects + s.suffix("tid.dcHits") +
                  s.suffix("tid.dcMisses") + s.suffix("tid.dcMissesMerged")),
        "tiering.promotions_per_kinstr":
            s.per_kinstr(s.suffix("tiering.engine.promotionsDone")),
        "tiering.demotions_per_kinstr":
            s.per_kinstr(s.suffix("tiering.engine.demotionsDone")),
        "tiering.write_abort_ratio":
            ratio(s.suffix("tiering.engine.writeAborts"), promos),
        "tiering.migration_latency_ticks":
            s.mean("tiering.engine.migrationLatency"),
        "tiering.far_read_p99_ticks":
            max((r.get("far_read_p99", 0) for r in s.results), default=0),
        "dram.hbm_reqs_per_kinstr": s.per_kinstr(dram_reqs(s, "hbm")),
        "dram.ddr_reqs_per_kinstr": s.per_kinstr(dram_reqs(s, "ddr")),
        "dram.hbm_row_hit_rate": row_hit_rate(s, "hbm"),
        "dram.ddr_row_hit_rate": row_hit_rate(s, "ddr"),
        "dram.hbm_read_latency_ticks": s.mean("hbm.readLatency"),
        "dram.ddr_read_latency_ticks": s.mean("ddr.readLatency"),
    }


# --- spans ---------------------------------------------------------------

def self_times(events):
    """Span id -> (name, trace, ops, self time in us). Self time is the
    span's duration minus its children's. The driver opens spans as
    nested scopes on one thread, so children never overlap each other
    or outlast their parent."""
    kids = defaultdict(float)
    for e in events:
        kids[e["args"]["parent"]] += e["dur"]
    out = {}
    for e in events:
        a = e["args"]
        out[a["span"]] = (e["name"], a["trace"], a["ops"],
                          e["dur"] - kids[a["span"]])
    return out


def ns_per_op(selfs, name):
    """Host ns per call over every batch span called `name`."""
    us = sum(t for n, _, _, t in selfs.values() if n == name)
    ops = sum(o for n, _, o, _ in selfs.values() if n == name)
    return ratio(us * 1e3, ops)


def phase_rounds(selfs, configs):
    """Per traced round, the summed self time (s) of each system.*
    phase. A round is `configs` consecutive System-run traces."""
    by_trace = defaultdict(lambda: defaultdict(float))
    for name, trace, _, us in selfs.values():
        if name.startswith("system."):
            by_trace[trace][name] += us / 1e6
    traces = sorted(by_trace)
    rounds = []
    for i in range(0, len(traces) - configs + 1, configs):
        total = defaultdict(float)
        for t in traces[i:i + configs]:
            for name, sec in by_trace[t].items():
                total[name] += sec
        rounds.append(total)
    return rounds


# --- host metrics ----------------------------------------------------------

def rounds_of(report, kind):
    return [r["runs"] for r in report["rounds"] if r["kind"] == kind]


def fast_end(times):
    """The fast end of a run's host times: their 10th percentile
    (linear interpolation). Other jobs on a shared host only ever slow
    a sample down, and their load comes and goes over minutes, so the
    fast end is a far steadier estimate of the simulator's own speed
    than the median."""
    times = sorted(times)
    pos = 0.1 * (len(times) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(times) - 1)
    return times[lo] + (times[hi] - times[lo]) * (pos - lo)


def fast_round(rounds, key):
    """Host seconds of a round at the fast end of the run, from the
    rounds' `key` summed over configurations."""
    return fast_end(sum(x[key] for x in r) for r in rounds)


def fast_mips(rounds):
    """Instructions per round over the fast-end measured time; every
    round retires the same instructions."""
    instr = sum(x["instructions"] for x in rounds[0])
    return ratio(instr, fast_round(rounds, "measured_s")) / 1e6


def end_to_end(report):
    timed = rounds_of(report, "timed")
    return {
        "mips": fast_mips(timed),
        "wall_s": fast_round(timed, "total_s"),
        "setup_s": fast_end(report["setup_s"]),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "pass_ratio": ratio(report["attempted"] - report["failed"],
                            report["attempted"]),
    }


def est_share(ns_per_op_, ops_per_instr, ns_per_instr):
    """Most of the measured time a layer could save: its host ns per
    operation x operations per instruction / measured ns per
    instruction."""
    return ratio(ns_per_op_ * ops_per_instr, ns_per_instr)


def host_metrics(report, s, run, selfs):
    timed = rounds_of(report, "timed")
    mips = fast_mips(timed)
    ns_per_instr = ratio(1e3, mips)
    measured_ns = 1e9 * fast_round(timed, "measured_s")
    phases = phase_rounds(selfs, len(report["configs"]))

    def phase(name):
        return statistics.median(p[name] for p in phases) if phases else 0

    traced = rounds_of(report, "traced")
    traced_mips = fast_mips(traced) if traced else mips
    checked = rounds_of(report, "checked")
    checked_ns = 1e9 * fast_round(checked, "measured_s") if checked else 0

    cache_ns = ns_per_op(selfs, "cache.access")
    vm_ns = ns_per_op(selfs, "vm.lookup")
    gen_ns = ns_per_op(selfs, "workload.next")
    hbm_ns = ns_per_op(selfs, "dram.hbm.access")
    ddr_ns = ns_per_op(selfs, "dram.ddr.access")
    return {
        "system.construct_ms": 1e3 * phase("system.construct"),
        "system.warmup_s": phase("system.warmup"),
        "system.measured_s": phase("system.measured"),
        "system.export_ms": 1e3 * phase("system.export"),
        "sim.host_ns_per_event": ratio(measured_ns, run["events"]),
        "sim.host_ns_per_tick": ratio(measured_ns, run["ticks"]),
        "cache.host_ns_per_access": cache_ns,
        "cache.est_share": est_share(cache_ns, s.per_instr(l1_accesses(s)),
                                     ns_per_instr),
        "vm.host_ns_per_lookup": vm_ns,
        "vm.est_share": est_share(vm_ns, s.per_instr(tlb_lookups(s)),
                                  ns_per_instr),
        "workload.host_ns_per_instr": gen_ns,
        "workload.est_share": est_share(gen_ns, 1.0, ns_per_instr),
        "dram.hbm_host_ns_per_req": hbm_ns,
        "dram.ddr_host_ns_per_req": ddr_ns,
        "dram.est_share":
            est_share(hbm_ns, s.per_instr(dram_reqs(s, "hbm")),
                      ns_per_instr) +
            est_share(ddr_ns, s.per_instr(dram_reqs(s, "ddr")),
                      ns_per_instr),
        "harden.check_overhead": ratio(checked_ns, measured_ns),
        "bench.trace_overhead": ratio(mips - traced_mips, mips),
    }


def measured_counts(report):
    """Events, ticks and request packets of the first timed round,
    summed over configs. The reference round is skipped: its request
    count includes the freelist's first fills."""
    runs = rounds_of(report, "timed")[0]
    return {k: sum(r[k] for r in runs)
            for k in ("events", "ticks", "requests")}


def per_layer(report, stats_runs, trace_events):
    s = Stats(stats_runs)
    run = measured_counts(report)
    out = sim_metrics(s, run)
    out.update(host_metrics(report, s, run, self_times(trace_events)))
    return {name: out[name] for name in PER_LAYER}


def digest(blobs):
    """model_digest: the first 16 hex digits of the SHA-256 of the
    reference runs' stats JSON, concatenated in config order."""
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()[:16]
