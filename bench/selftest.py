"""Self-tests of the benchmark, run from the repository root:

    python3 -m unittest bench/selftest.py

They check that a tiny run prints every metric ``BENCHMARK.json`` names,
with its unit; that a seed fixes the inputs; that a wrong expected answer
is counted as a failure; and that the benchmark refuses to run without
the package's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import segre  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace), "--tiny", *extra)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def partitions(n: int, largest: int | None = None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def symbol_structures(weight: int) -> set:
    """Every multiset of groups (partitions) of total weight ``weight``."""
    groups = [p for w in range(1, weight + 1) for p in partitions(w)]

    def multisets(n, start):
        if n == 0:
            yield ()
            return
        for i in range(start, len(groups)):
            if sum(groups[i]) <= n:
                for rest in multisets(n - sum(groups[i]), i):
                    yield (groups[i],) + rest

    return {tuple(sorted(m, reverse=True)) for m in multisets(weight, 0)}


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        for workload in corpus.WORKLOADS:
            a = corpus.build(segre, workload, 11)
            self.assertEqual(a, corpus.build(segre, workload, 11), workload)
            self.assertNotEqual(a, corpus.build(segre, workload, 12), workload)

    def test_every_pass_has_a_hundred_ops(self):
        # p90 over a pass then has at least ten samples beyond it
        for workload in corpus.WORKLOADS:
            self.assertGreaterEqual(len(corpus.build(segre, workload, 1)), 100, workload)

    def test_symbol_lists_cover_weight_five(self):
        catalog = {corpus.structure(s) for s in corpus.CATALOG_SYMBOLS}
        off = {corpus.structure(s) for s in corpus.OFF_CATALOG_SYMBOLS}
        self.assertEqual(len(catalog | off), 27)
        self.assertEqual(catalog | off, symbol_structures(5))
        self.assertEqual(catalog, {corpus.structure(s) for s in segre.CATALOG_ORDER})

    def test_degenerate_pairs_have_no_nonsingular_member(self):
        for name, (ue, ve, kernel) in corpus.DEGENERATE_PAIRS.items():
            pencil = segre.QuadricPencil(corpus.symmetric(ue), corpus.symmetric(ve))
            with self.assertRaises(segre.NoSmoothMemberError, msg=name):
                segre.select_nonsingular_member(pencil)
            self.assertEqual(segre.degeneracy_report(pencil).common_kernel_dim, kernel, name)

    def test_forms_text_reads_back(self):
        for item in corpus.build(segre, "cli_cold", 5, tiny=True):
            pencil = segre.QuadricPencil(item.u, item.v)
            f, g = item.forms_text.split(" ; ")
            self.assertEqual(segre.parse_quadratic_form(f).matrix, pencil.u)
            self.assertEqual(segre.parse_quadratic_form(g).matrix, pencil.v)


class RunTest(unittest.TestCase):
    def test_smoke_prints_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in CONFIG[key]}
            for workload in corpus.WORKLOADS:
                result, text = tiny(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, wanted, f"{workload} trace {trace}")
                for name, unit in wanted.items():
                    self.assertRegex(text, rf"{name}\s+\S+ {unit}\n")
                self.assertTrue(result["correct"], text)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_planted_wrong_answer_is_a_failure(self):
        for workload in ("structured", "generic"):
            result, text = tiny(workload, 0, "--plant-wrong")
            self.assertFalse(result["correct"], text)
            self.assertGreaterEqual(result["failed"], 1, text)

    def test_held_out_seed_runs(self):
        proc = run_bench("--workload", "structured", "--seed", "900001", "--seconds", "0.3",
                         "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(json.loads(proc.stdout.strip().splitlines()[-1])["correct"])

    def test_refuses_without_the_package(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "structured", "--seed", "1", "--seconds", "1",
                             cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
