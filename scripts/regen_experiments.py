#!/usr/bin/env python3
"""Regenerate every EXPERIMENTS.md table from nomad-sweep merged stats.

Runs each suite named in VIEWS once through nomad-sweep with
--stats-json, then renders every table as a view over its suite's
merged stats (schema: docs/OBSERVABILITY.md). A view keys runs by
meta.scheme, meta.workload and meta.run_label, and reads its axes
from the labels in run order:

    cmake --build build --target experiments
    # or directly:
    python3 scripts/regen_experiments.py --build-dir build \\
        --instr 300000 --jobs 4

--jobs N runs each suite on N workers with byte-identical merged
stats (docs/RUNNER.md). Only standard-library Python is used.
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

# Paper reference values (Table I of the NOMAD paper) keyed by the
# workload abbreviation: (class, RMHB GB/s, LLC MPMS).
PAPER_TABLE1 = {
    "cact": ("Excess", 43.8, 486.6),
    "sssp": ("Excess", 38.8, 511.1),
    "bwav": ("Excess", 31.7, 588.1),
    "les": ("Tight", 26.5, 532.8),
    "libq": ("Tight", 25.1, 210.6),
    "gems": ("Tight", 24.8, 269.2),
    "bfs": ("Tight", 23.1, 298.5),
    "cc": ("Loose", 13.5, 183.1),
    "lbm": ("Loose", 12.4, 270.5),
    "mcf": ("Loose", 12.2, 472.0),
    "bc": ("Loose", 10.8, 533.7),
    "ast": ("Few", 6.9, 72.1),
    "pr": ("Few", 3.4, 691.9),
    "sop": ("Few", 1.7, 310.2),
    "tc": ("Few", 1.7, 226.3),
}

# DDR4-3200 x1 channel peak: the RMHB classification budget.
OFF_PACKAGE_GBS = 25.6

# The paper's Fig 2 workloads (high MPMS, les excluded), by RMHB.
FIG2_WORKLOADS = ("pr", "bc", "mcf", "bwav", "sssp", "cact")
# The schemes the paper's Fig 10 breaks down.
FIG10_SCHEMES = ("TiD", "TDC", "NOMAD")
# Fig 14: highest sustained RMHB (cact) vs bursty RMHB (libq).
FIG14_WORKLOADS = ("cact", "libq")
FIG7_CASES = {
    "resident": "(hit, hit): TLB hit, DC-resident page",
    "stream": "(miss, miss): TLB miss + DC tag miss (page streaming)",
}


def ordered(items):
    """The distinct items, in first-seen order."""
    return list(dict.fromkeys(items))


def by_label(doc):
    return {r["meta"]["run_label"]: r["results"] for r in doc["runs"]}


def grid(doc):
    """Index plain "<scheme>/<workload>" runs by (scheme, workload);
    also return the schemes and workloads in run order."""
    runs = doc["runs"]
    cells = {(r["meta"]["scheme"], r["meta"]["workload"]): r["results"]
             for r in runs}
    return (cells, ordered(r["meta"]["scheme"] for r in runs),
            ordered(r["meta"]["workload"] for r in runs))


def sweep_axis(doc, depth):
    """The distinct label fields at position `depth` of the runs
    labelled "nomad/...", in run order."""
    return ordered(r["meta"]["run_label"].split("/")[depth]
                   for r in doc["runs"]
                   if r["meta"]["run_label"].startswith("nomad/"))


def table(header, rows):
    return (["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)] +
            ["| " + " | ".join(row) + " |" for row in rows])


def pct(x):
    return f"{100 * x:.1f}%"


def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs)


def table1_rows(doc):
    cells, _, workloads = grid(doc)
    rows = []
    for w in workloads:
        klass, rmhb, mpms = PAPER_TABLE1[w]
        r = cells[("Ideal", w)]
        rows.append([klass, w, f"{rmhb:.1f}", f"{r['rmhb_gbs']:.1f}",
                     f"{mpms:.1f}", f"{r['llc_mpms']:.0f}",
                     f"{r['ipc']:.2f}"])
    return table(["class", "bench", "RMHB GB/s (paper)", "measured",
                  "MPMS (paper)", "measured", "IPC"], rows) + [
        "", f"Off-package peak bandwidth: {OFF_PACKAGE_GBS} GB/s "
        "(DDR4-3200 x1 channel). Classes: Excess > 25.6, "
        "Tight ~ 20-26, Loose ~ 10-14, Few < 7."]


def fig2_rows(doc):
    cells, _, _ = grid(doc)
    rows = []
    for w in FIG2_WORKLOADS:
        tdc_vs_tid = cells[("TDC", w)]["ipc"] / cells[("TiD", w)]["ipc"]
        rows.append([w, f"{tdc_vs_tid:.2f}",
                     f"{cells[('Ideal', w)]['rmhb_gbs']:.1f}",
                     "TiD wins (blocking hurts TDC)"
                     if PAPER_TABLE1[w][0] == "Excess"
                     else "TDC wins (ideal access time)"])
    return table(["bench", "TDC IPC / TiD", "RMHB GB/s (Ideal)",
                  "expected"], rows)


def fig7_rows(doc):
    cells, schemes, workloads = grid(doc)
    out = []
    for w in workloads:
        rows = [[s, f"{r['ipc']:.2f}", f"{r['dc_read_latency']:.1f}",
                 pct(r["stall_ratio"]), pct(r["handler_stall_ratio"])]
                for s in schemes for r in [cells[(s, w)]]]
        out += [f"**{FIG7_CASES.get(w, w)}**", ""] + table(
            ["scheme", "IPC", "DC read cyc", "stall%", "OS stall%"],
            rows) + [""]
    return out[:-1]


def fig9_rows(doc):
    cells, schemes, workloads = grid(doc)
    others = [s for s in schemes if s != "Baseline"]
    rows, gain_tdc, gain_tid = [], 0.0, 0.0
    for w in workloads:
        base = cells[("Baseline", w)]["ipc"]
        rows.append([PAPER_TABLE1[w][0], w] +
                    [f"{cells[(s, w)]['ipc'] / base:.2f}"
                     for s in others] +
                    [f"{cells[(s, w)]['dc_read_latency']:.0f}"
                     for s in schemes])
        nomad = cells[("NOMAD", w)]["ipc"]
        gain_tdc += math.log(nomad / cells[("TDC", w)]["ipc"])
        gain_tid += math.log(nomad / cells[("TiD", w)]["ipc"])
    n = len(workloads)
    return table(["class", "bench"] + others +
                 ["t." + s for s in schemes], rows) + [
        "", "IPC relative to Baseline; t.X is the average DC access "
        "time in cycles.", "",
        f"Headline (geometric mean over {n} workloads):",
        f"* NOMAD vs TDC: {100 * (math.exp(gain_tdc / n) - 1):+.1f}%"
        " (paper: +16.7%)",
        f"* NOMAD vs TiD: {100 * (math.exp(gain_tid / n) - 1):+.1f}%"
        " (paper: +25.5%)"]


def fig10_rows(doc):
    cells, _, workloads = grid(doc)
    rows = []
    for w in workloads:
        for s in FIG10_SCHEMES:
            r = cells[(s, w)]
            parts = [r["hbm_demand_gbs"], r["hbm_metadata_gbs"],
                     r["hbm_fill_gbs"], r["hbm_writeback_gbs"]]
            rows.append([PAPER_TABLE1[w][0], w, s] +
                        [f"{x:.1f}" for x in parts + [sum(parts)]] +
                        [pct(r["hbm_row_hit_rate"])])
    return table(["class", "bench", "scheme", "demand", "meta", "fill",
                  "wback", "total GB/s", "row hit"], rows)


def fig11_rows(doc):
    cells, _, workloads = grid(doc)
    rows = []
    for w in workloads:
        tdc, nmd = cells[("TDC", w)], cells[("NOMAD", w)]
        rows.append([PAPER_TABLE1[w][0], w,
                     pct(tdc["stall_ratio"]), pct(nmd["stall_ratio"]),
                     pct(tdc["handler_stall_ratio"]),
                     pct(nmd["handler_stall_ratio"]),
                     f"{tdc['tag_mgmt_latency']:.0f}",
                     f"{nmd['tag_mgmt_latency']:.0f}"])
    tdc_os = sum(cells[("TDC", w)]["handler_stall_ratio"]
                 for w in workloads)
    nmd_os = sum(cells[("NOMAD", w)]["handler_stall_ratio"]
                 for w in workloads)
    return table(["class", "bench", "TDC stall", "NOMAD stall",
                  "TDC OS", "NOMAD OS", "TDC tag lat", "NOMAD tag lat"],
                 rows) + [
        "", "Headline: NOMAD reduces OS miss-handling stall cycles by "
        f"{100 * (1 - nmd_os / max(tdc_os, 1e-12)):.1f}% on average "
        "(paper: 76.1%)."]


def fig12_rows(doc):
    res, points = by_label(doc), sweep_axis(doc, 2)
    workloads = ordered(r["meta"]["workload"] for r in doc["runs"])
    rows = []
    for klass in ordered(PAPER_TABLE1[w][0] for w in workloads):
        ws = [w for w in workloads if PAPER_TABLE1[w][0] == klass]
        ipc = [mean(res[f"nomad/{w}/{p}"]["ipc"] /
                    res[f"Baseline/{w}"]["ipc"] for w in ws)
               for p in points]
        ddr = [mean(res[f"nomad/{w}/{p}"]["ddr_total_gbs"] for w in ws)
               for p in points]
        rows.append([klass, "IPC vs Baseline"] +
                    [f"{x:.2f}" for x in ipc])
        rows.append(["", "off-package GB/s"] +
                    [f"{x:.1f}" for x in ddr])
    return table(["class", "metric"] +
                 ["n=" + p[len("pcshr"):] for p in points], rows) + [
        "", "Expected: Excess saturates at ~8 PCSHRs; Loose/Few are "
        "flat from 1-2."]


def fig13_rows(doc):
    res = by_label(doc)
    workloads, cores, points = (sweep_axis(doc, 1), sweep_axis(doc, 2),
                                sweep_axis(doc, 3))
    rows = []
    for c in cores:
        ipc = [mean(res[f"nomad/{w}/{c}/{p}"]["ipc"] for w in workloads)
               for p in points]
        rows.append([c[1:]] + [f"{x / ipc[-1]:.2f}" for x in ipc])
    return table(["cores"] + ["n=" + p[len("pcshr"):] for p in points],
                 rows) + [
        "", f"Mean IPC of {', '.join(workloads)}, normalised to each "
        "core count's largest PCSHR budget."]


def fig14_rows(doc):
    res, points = by_label(doc), sweep_axis(doc, 2)
    rows = []
    for w in FIG14_WORKLOADS:
        rs = [res[f"nomad/{w}/{p}"] for p in points]
        rows.append([w, "stall"] + [pct(r["stall_ratio"]) for r in rs])
        rows.append([w, "tag lat"] +
                    [f"{r['tag_mgmt_latency']:.0f}" for r in rs])
    return table(["bench", "metric"] +
                 ["n=" + p[len("pcshr"):] for p in points], rows)


def fig15_rows(doc):
    res = by_label(doc)
    rows = []
    for w in sweep_axis(doc, 1):
        base = res[f"Baseline/{w}"]["ipc"]
        for label, r in res.items():
            if label.startswith(f"nomad/{w}/"):
                # The point is "n<PCSHRs>m<buffers>".
                n, m = label.split("/")[2][1:].split("m")
                rows.append([w, f"({n},{m})", f"{r['ipc'] / base:.2f}",
                             f"{r['tag_mgmt_latency']:.0f}"])
    return table(["bench", "(n PCSHRs, m buffers)", "IPC / Baseline",
                  "tag lat"], rows)


def fig16_rows(doc):
    res, points = by_label(doc), sweep_axis(doc, 3)
    names = {"cent": "centralized", "dist": "distributed"}
    rows = []
    for w in sweep_axis(doc, 1):
        base = res[f"Baseline/{w}"]["ipc"]
        for d in sweep_axis(doc, 2):
            rs = [res[f"nomad/{w}/{d}/{p}"] for p in points]
            rows.append([w, names.get(d, d)] + [
                f"{r['ipc'] / base:.2f} / {r['tag_mgmt_latency']:.0f}"
                for r in rs])
    return table(["bench", "back-end"] +
                 ["n=" + p[1:] for p in points], rows) + [
        "", "Cells: IPC vs Baseline / tag management latency; n is the "
        "total PCSHR budget, split evenly over two distributed "
        "back-ends."]


def fig17_rows(doc):
    rows = []
    for r in doc["runs"]:
        # Labels look like "tiering/sustained/far1000".
        _, profile, far = r["meta"]["run_label"].split("/")
        res = r["results"]
        rows.append([
            profile, far[len("far"):], f"{res['promotions']:.0f}",
            f"{res['demotions']:.0f}", f"{res['migration_aborts']:.0f}",
            f"{res['near_read_p50']:.0f}/{res['near_read_p99']:.0f}",
            f"{res['far_read_p50']:.0f}/{res['far_read_p99']:.0f}",
            f"{res['ipc']:.2f}"])
    return table(["profile", "far link", "promotions", "demotions",
                  "aborts", "near p50/p99", "far p50/p99", "IPC"], rows)


def rmhb_rows(doc):
    rows = []
    for r in doc["runs"]:
        m, res = r["meta"], r["results"]
        rows.append([PAPER_TABLE1[m["workload"]][0], m["workload"],
                     m["scheme"], f"{res['ipc']:.2f}",
                     f"{res['fills']:.0f}", f"{res['writebacks']:.0f}",
                     f"{res['rmhb_gbs']:.1f}",
                     "yes" if res["rmhb_gbs"] <= OFF_PACKAGE_GBS
                     else "EXCEEDS"])
    return table(["class", "bench", "scheme", "IPC", "fills",
                  "writebacks", "RMHB GB/s", "fits?"], rows) + [
        "", f"Classification budget: {OFF_PACKAGE_GBS} GB/s "
        "off-package (DDR4-3200 x1 channel); RMHB above it means the "
        "class cannot hide miss handling behind demand traffic."]


def ablation_rows(doc):
    res, workloads = by_label(doc), sweep_axis(doc, 1)
    rows = [[v] + [f"{res[f'nomad/{w}/{v}']['ipc']:.3f} / "
                   f"{res[f'nomad/{w}/{v}']['tag_mgmt_latency']:.0f}"
                   for w in workloads]
            for v in sweep_axis(doc, 2)]
    return table(["variant"] + workloads, rows) + [
        "", "Cells: NOMAD IPC / tag management latency."]


# (suite, section title, view) in EXPERIMENTS.md order. Each suite
# runs once, however many views read it.
VIEWS = [
    ("fig9", "Table I — workload characteristics", table1_rows),
    ("fig9", "Fig 2 — motivation, TDC vs TiD", fig2_rows),
    ("fig7", "Fig 7 — effective access latency", fig7_rows),
    ("fig9", "Fig 9 — IPC vs Baseline + DC access time", fig9_rows),
    ("fig9", "Fig 10 — on-package bandwidth breakdown", fig10_rows),
    ("fig9", "Fig 11 — stall ratios + tag management latency",
     fig11_rows),
    ("fig12", "Fig 12 — IPC and off-package bandwidth vs #PCSHRs",
     fig12_rows),
    ("fig13", "Fig 13 — PCSHRs vs core count", fig13_rows),
    ("fig12", "Fig 14 — sustained vs bursty RMHB", fig14_rows),
    ("fig15", "Fig 15 — area-optimized (n PCSHRs, m buffers)",
     fig15_rows),
    ("fig16", "Fig 16 — centralized vs distributed back-ends",
     fig16_rows),
    ("tiering", "Fig 17 — tiering far-link sweep", fig17_rows),
    ("rmhb", "RMHB classification", rmhb_rows),
    ("ablation", "Ablation", ablation_rows),
]


# A run that stops retiring instructions for this many ticks fails
# with a stall diagnostic instead of hanging the regeneration (the
# fig13 suite's 8-core runs livelock beyond ~100k instructions per
# core). The watchdog adds hardening stats to each run record but
# leaves meta and results, all that the views read, unchanged.
WATCHDOG_TICKS = 2_000_000


def run_sweep(sweep_bin, suite, jobs, extra_args, tmpdir):
    """Run one suite through nomad-sweep; return its merged stats."""
    stats_path = Path(tmpdir) / (suite + ".stats.json")
    cmd = [str(sweep_bin), f"--suite={suite}", f"--jobs={jobs}",
           f"--stats-json={stats_path}", f"--watchdog={WATCHDOG_TICKS}",
           "--quiet"] + extra_args
    print(f"[regen] {' '.join(cmd)}", file=sys.stderr)
    # Exit status 1 with a merged document means some jobs failed: the
    # document lists them under "failures" and keeps the other runs.
    status = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    if status not in (0, 1) or not stats_path.exists():
        sys.exit(f"[regen] nomad-sweep failed on suite {suite} "
                 f"(exit status {status})")
    with open(stats_path) as f:
        doc = json.load(f)
    if doc.get("failures"):
        print(f"[regen] suite {suite}: {len(doc['failures'])} runs "
              "failed; the generated file lists them", file=sys.stderr)
    return doc


def failure_note(doc):
    """One line naming the runs a suite lost, or nothing."""
    failures = doc.get("failures", [])
    if not failures:
        return []
    return ["", "Failed runs, left out of the table: " +
            ", ".join(f"`{f['label']}`" for f in failures) +
            f" (first error: {failures[0]['error']})."]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory with nomad-sweep")
    ap.add_argument("--out", default=None,
                    help="output path (default: <build-dir>/"
                         "EXPERIMENTS.generated.md)")
    ap.add_argument("--instr", type=int, default=None,
                    help="instructions per core per run")
    ap.add_argument("--cores", type=int, default=None,
                    help="cores per system")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker threads per suite "
                         "(results are identical at any value)")
    args = ap.parse_args()

    sweep_bin = Path(args.build_dir) / "src" / "runner" / "nomad-sweep"
    if not sweep_bin.exists():
        sys.exit(f"missing {sweep_bin}; build it first (cmake --build "
                 f"{args.build_dir} --target nomad-sweep)")
    extra = []
    if args.instr:
        extra.append(f"--instr={args.instr}")
    if args.cores:
        extra.append(f"--cores={args.cores}")

    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for suite in ordered(suite for suite, _, _ in VIEWS):
            docs[suite] = run_sweep(sweep_bin, suite, args.jobs, extra,
                                    tmp)

    lines = ["# EXPERIMENTS (generated)", "",
             "Regenerated by scripts/regen_experiments.py; splice "
             "these tables into EXPERIMENTS.md after checking the "
             "shape verdicts still hold.", ""]
    for suite, title, view in VIEWS:
        lines += [f"## {title} (suite `{suite}`, view `{view.__name__}`)",
                  ""] + view(docs[suite]) + failure_note(docs[suite]) + [""]
    out_path = Path(args.out) if args.out else \
        Path(args.build_dir) / "EXPERIMENTS.generated.md"
    out_path.write_text("\n".join(lines))
    print(f"[regen] wrote {out_path}", file=sys.stderr)


if __name__ == "__main__":
    main()
