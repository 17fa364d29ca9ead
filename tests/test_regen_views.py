#!/usr/bin/env python3
"""Renderer tests for scripts/regen_experiments.py: feed committed
merged stats (tests/golden) and canned runs to the EXPERIMENTS.md
views and check each table's shape. Runs no simulation.

    python3 tests/test_regen_views.py      # or through ctest
"""

import importlib.util
import json
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "regen_experiments", ROOT / "scripts" / "regen_experiments.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def golden(name):
    with open(ROOT / "tests" / "golden" / f"{name}.json") as f:
        return json.load(f)


def body_rows(lines):
    """Table body rows: Markdown table lines minus each table's header
    and separator."""
    table_lines = [l for l in lines if l.startswith("|")]
    tables = sum(l.startswith("|---") for l in table_lines)
    return len(table_lines) - 2 * tables


class Fig9Views(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.doc = golden("fig9_small")

    def test_table1(self):
        self.assertEqual(body_rows(regen.table1_rows(self.doc)), 15)

    def test_fig2(self):
        self.assertEqual(body_rows(regen.fig2_rows(self.doc)), 6)

    def test_fig9_has_access_time_columns_and_headlines(self):
        lines = regen.fig9_rows(self.doc)
        self.assertEqual(body_rows(lines), 15)
        self.assertIn("t.Baseline", lines[0])
        self.assertIn("t.Ideal", lines[0])
        text = "\n".join(lines)
        self.assertIn("NOMAD vs TDC", text)
        self.assertIn("(paper: +16.7%)", text)
        self.assertIn("NOMAD vs TiD", text)
        self.assertIn("(paper: +25.5%)", text)

    def test_fig10(self):
        self.assertEqual(body_rows(regen.fig10_rows(self.doc)), 45)

    def test_fig11_has_headline(self):
        lines = regen.fig11_rows(self.doc)
        self.assertEqual(body_rows(lines), 15)
        self.assertIn("(paper: 76.1%)", lines[-1])


class OtherGoldenViews(unittest.TestCase):
    def test_rmhb(self):
        lines = regen.rmhb_rows(golden("rmhb_small"))
        self.assertEqual(body_rows(lines), 36)
        self.assertTrue(any(l.endswith("| yes |") for l in lines))

    def test_fig17(self):
        self.assertEqual(body_rows(regen.fig17_rows(golden("tiering_small"))),
                         6)


class Fig7View(unittest.TestCase):
    def test_renders_every_scheme_in_run_order(self):
        schemes = ["Baseline", "TiD", "TDC", "NOMAD", "Ideal", "Alloy"]
        runs = [{"meta": {"scheme": s, "workload": w,
                          "run_label": f"{s}/{w}"},
                 "results": {"ipc": 1.0, "dc_read_latency": 100.0,
                             "stall_ratio": 0.5,
                             "handler_stall_ratio": 0.25}}
                for w in ("resident", "stream") for s in schemes]
        lines = regen.fig7_rows({"runs": runs})
        self.assertEqual(body_rows(lines), 12)
        rendered = [l.split(" | ")[0][2:] for l in lines
                    if l.startswith("| ") and "IPC" not in l]
        self.assertEqual(rendered, schemes * 2)


class FailedRuns(unittest.TestCase):
    def test_failed_runs_are_listed_and_left_out(self):
        runs = [{"meta": {"scheme": "NOMAD", "workload": w,
                          "run_label": f"nomad/{w}/c{c}/pcshr{n}"},
                 "results": {"ipc": n / 64}}
                for c in (2, 4) for w in ("cact", "bwav") for n in (2, 32)]
        doc = {"runs": runs, "mode": "degraded",
               "failures": [{"label": "nomad/cact/c8/pcshr2",
                             "error": "[stall] no forward progress"}]}
        lines = regen.fig13_rows(doc) + regen.failure_note(doc)
        self.assertEqual(body_rows(lines), 2)
        self.assertIn("`nomad/cact/c8/pcshr2`", lines[-1])
        self.assertEqual(regen.failure_note({"runs": runs}), [])


if __name__ == "__main__":
    unittest.main()
