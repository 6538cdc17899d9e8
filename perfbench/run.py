"""Benchmark for flagrecon: cold command-line passes over seeded corpora.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze_corpus --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client: each item starts when the one before
it ends):

* ``analyze_corpus`` - ``analyze --json`` on flag spheres, non-sphere
  manifolds and non-manifolds;
* ``deck_roundtrip`` - ``deck`` on flag manifolds, then ``reconstruct`` on
  one card of every card class;
* ``census_n7`` - ``scan --max-n 7``, then ``analyze`` on each of the 1044
  classes of order 7, in seed-shuffled order.

The seed fixes every input.  The inputs are written as graph6 files (edge
lists above 62 vertices) under ``perfbench/out/`` before any pass starts,
together with the results, so a run can be replayed.  Each pass is a fresh
interpreter (``child.py``) that imports flagrecon from ``src/``, reads the
inputs and runs every item through ``flagrecon.cli.main``; passes run one
at a time.  Outputs are checked here, after every pass has ended.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time,
pass time (the item times of a pass, summed), median and tail item latency
and peak memory.  Times are scaled by the machine speed measured next to
them (see REFERENCE_S).  With ``--trace 1`` it alternates untraced passes
with traced ones and reports the per-layer metrics of ``tracing.py``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 3
# The 2-CPU host this benchmark was defined on changes speed by up to 1.7x,
# for anything from a second to minutes at a time; that moved the median
# pass time of whole runs by up to 30%.  So every time is scaled by
# REFERENCE_S over the time of child.reference_chunk measured around it:
# the metrics read as seconds on that host at its faster speed, where the
# chunk takes REFERENCE_S.  The unscaled figures go to result.json.
REFERENCE_S = 0.006
# Every child must end before this many seconds from the start of the run.
RUN_LIMIT_S = 165.0


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def tail_percentile(n: int, beyond: int = 10) -> int:
    """The highest whole percentile with at least ``beyond`` of ``n`` samples above it.

    With too few samples for any such percentile it is the median, p50.
    """
    return 100 * (n - beyond) // n if n > beyond else 50


def nearest_rank(samples: list[float], p: int) -> float:
    """The p-th percentile of ``samples``: the value at rank ceil(p/100 * n)."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def scaled_ms(report: dict) -> list[float]:
    """A pass's item latencies, each scaled by the reference chunks just before and after it."""
    speed = report["speed"]
    return [
        rec["ms"] * 2 * REFERENCE_S / (speed[rec["chunk"]] + speed[rec["chunk"] + 1])
        for rec in report["items"]
    ]


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' where the checkout is not a git repository.

    The ceiling keeps git from reporting the commit of a repository that
    merely contains the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, small: bool):
        import workloads

        self.started = time.monotonic()
        self.workload = workload
        self.items = workloads.BUILDERS[workload](seed, small=small)
        self.by_id = {item.id: item for item in self.items}
        self.check_item = workloads.check_item
        self.seconds = seconds
        self.trace = trace
        self.out = BENCH / "out" / f"{workload}-seed{seed}-trace{int(trace)}{'-small' * small}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.manifest = self.out / "manifest.json"
        # A fixed hash seed makes every pass of a run do the same work.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def write_inputs(self) -> None:
        inputs = self.out / "inputs"
        inputs.mkdir(exist_ok=True)
        for item in self.items:
            if item.text:
                (inputs / f"{item.id}.{item.fmt}").write_text(item.text.rstrip("\n") + "\n")
        tasks = [item.task() for item in self.items]
        self.manifest.write_text(json.dumps({"workload": self.workload, "tasks": tasks}))

    def child(self, mode: str, index: int) -> dict:
        """Run one pass process to its end and return what it reported."""
        workdir = self.out / f"{mode}{index}"
        workdir.mkdir(exist_ok=True)
        result = workdir / "result.json"
        result.unlink(missing_ok=True)
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("run time limit reached before every pass could start")
        cmd = [sys.executable, str(BENCH / "child.py"), str(self.manifest), str(result)]
        launch = time.monotonic_ns()
        proc = subprocess.Popen(cmd + [str(launch), mode], env=self.env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass {index} did not end within the run time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{mode} pass {index} exited {proc.returncode}: {err.strip()}")
        report = json.loads(result.read_text())
        report["workdir"] = workdir
        return report

    def timed_passes(self) -> list[dict]:
        """Passes, one at a time, while the next one fits in --seconds.

        A traced run alternates untraced and traced passes.  At least
        MIN_PASSES untraced passes (one of each kind when traced) run
        whatever the time.
        """
        cycle = ["plain", "traced"] if self.trace else ["plain"]
        minimum = len(cycle) if self.trace else MIN_PASSES
        reports: list[dict] = []
        spent: list[float] = []
        while True:
            for mode in cycle:
                start = time.monotonic()
                reports.append(self.child(mode, len(reports)))
                spent.append(time.monotonic() - start)
            estimate = statistics.median(spent) * len(cycle)
            if len(reports) >= minimum and sum(spent) + estimate > self.seconds:
                return reports

    def check(self, report: dict) -> int:
        """Count the items of one pass whose outputs fail a check, and log why.

        The JSON reports of items that pass are deleted; those of failed
        items stay in the pass's directory.
        """
        failed = 0
        for record in report["items"]:
            problems = self.check_item(self.by_id[record["id"]], record, report["workdir"])
            if problems:
                failed += 1
                print(f"FAILED {record['id']}: {'; '.join(problems)}", file=sys.stderr)
            else:
                (report["workdir"] / f"{record['id']}.json").unlink(missing_ok=True)
        return failed

    def run(self) -> dict:
        self.write_inputs()
        reports = self.timed_passes()
        attempted = sum(len(r["items"]) for r in reports)
        failed = sum(self.check(r) for r in reports)
        plain = [r for r in reports if "layers" not in r]
        traced = [r for r in reports if "layers" in r]
        for r in reports:
            r["scaled_ms"] = scaled_ms(r)
            r["scale"] = sum(r["scaled_ms"]) / 1000.0 / r["pass_s"]
        latencies = [ms for r in plain for ms in r["scaled_ms"]]
        # The percentile is fixed by the corpus size, not by how many passes
        # fit in --seconds: with p from MIN_PASSES passes, the rank lands on
        # the same input of the corpus whatever the pass count, so a faster
        # program reports the tail of the same input.
        tail_p = tail_percentile(len(self.items) * MIN_PASSES)
        pass_s = statistics.median(r["pass_s"] * r["scale"] for r in plain)
        setups = [r["setup_s"] * REFERENCE_S / r["speed"][0] for r in plain]
        summary = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (pass_s, "s"),
            "item_p50_ms": (statistics.median(latencies), "ms"),
            "item_tail_ms": (nearest_rank(latencies, tail_p), "ms"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), "MB"),
        }
        layers = {}
        if traced:
            from tracing import PER_LAYER

            units = dict(PER_LAYER)
            for name in traced[0]["layers"]:
                unit = units[name]
                if unit == "s":
                    value = statistics.median(r["layers"][name] * r["scale"] for r in traced)
                else:
                    value = statistics.median_low(r["layers"][name] for r in traced)
                layers[name] = (value, unit)
            traced_s = statistics.median(r["pass_s"] * r["scale"] for r in traced)
            layers["trace.overhead_frac"] = (traced_s / pass_s - 1, "ratio")
        unscaled = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "pass_s": statistics.median(r["pass_s"] for r in plain),
            "reference_chunk_s": statistics.median(s for r in plain for s in r["speed"]),
        }
        return {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": summary,
            "per_layer": layers,
            "unscaled": unscaled,
            "tail": {"percentile": tail_p, "samples": len(latencies)},
            "passes": {"plain": len(plain), "traced": len(traced)},
        }

    def metadata(self, seed: int) -> dict:
        return {
            "workload": self.workload,
            "seed": seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "items": len(self.items),
            "inputs": {item.id: item.text for item in self.items if item.text},
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze_corpus", "deck_roundtrip", "census_n7"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny corpus, for the harness smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "flagrecon" / "__init__.py").is_file():
        print(f"error: no flagrecon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flagrecon

    if Path(flagrecon.__file__).resolve().parent != SRC / "flagrecon":
        print(f"error: flagrecon imported from {flagrecon.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    try:
        outcome = runner.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = outcome["attempted"], outcome["failed"]
    record = {"metadata": runner.metadata(args.seed), **outcome,
              "failed_frac": failed / attempted}
    for key in ("end_to_end", "per_layer"):
        record[key] = {name: {"value": v, "unit": u} for name, (v, u) in outcome[key].items()}
    (runner.out / "result.json").write_text(json.dumps(record, indent=1))

    tail = f" (p{outcome['tail']['percentile']} of {outcome['tail']['samples']} items)"
    print(f"workload {args.workload} seed {args.seed}: {len(runner.items)} items, "
          f"{outcome['passes']['plain']} untraced and {outcome['passes']['traced']} traced "
          "passes")
    for name, (value, unit) in outcome["end_to_end"].items():
        print(f"{name}: {value:.6g} {unit}{tail if name == 'item_tail_ms' else ''}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} items)")
    print("unscaled medians: " + ", ".join(
        f"{name} {value:.6g} s" for name, value in outcome["unscaled"].items()))
    for name, (value, unit) in outcome["per_layer"].items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"results: {runner.out.relative_to(ROOT)}/result.json")
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
