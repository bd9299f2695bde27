#!/usr/bin/env python3
"""Pipeline benchmark: stitch -> analyze -> report through trendnet.cli.main.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 50 --trace 0

Run from the repository root. Generates the workload's export tree from
the seed, times SETUP_PROBES fresh imports of trendnet.cli, then repeats
whole rounds while the next one is expected to end within --seconds, and
at least two. A round runs the commands in SCHEDULE order, each
invocation in its own fresh interpreter as an analyst runs it. Every round
writes to a fresh directory, because `report` reads every metrics file it
finds there.

The first round's outputs are checked (checks.py); every later invocation
must reproduce its command's outputs byte for byte. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, from untraced rounds. With
--trace 1 rounds alternate untraced and traced, and the metrics are the
per-layer self times and call counts of one pipeline (the first invocation
of each command) in each traced round, plus the tracing overhead on
analyze. Results are also saved under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9  # fresh interpreters that only import trendnet.cli
MIN_ROUNDS = 2  # determinism needs a second analyze; trace runs need one of each kind
OPS = ("stitch", "analyze", "report-density", "report-clustering")
# One round. `stitch` is the shortest command and the one whose time varies
# most between invocations, so it runs three times, kept apart: back-to-back
# repeats share one phase of the host's speed. Its repeats write under rep<k>/.
SCHEDULE = ("stitch", "analyze", "stitch", "report-density", "stitch", "report-clustering")


def child_env() -> dict[str, str]:
    """One command at a time; numeric library threads capped at nproc."""
    env = dict(os.environ)
    for name in ("PYTHONPATH", "TRENDNET_THREADS", "TRENDNET_NO_NUMBA"):
        env.pop(name, None)
    nproc = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = nproc
    return env


def op_args(inputs: workloads.Inputs, out: Path, op: str, rep: int = 0) -> list[str]:
    """CLI arguments of `op` in round directory `out`; repeat `rep` writes apart."""
    spec = inputs.spec
    if op == "stitch":
        return ["stitch", "--daily-dir", str(inputs.daily_dir),
                "--weekly-dir", str(inputs.weekly_dir), "--registry", str(inputs.registry),
                "--span-start", spec.start.isoformat(), "--span-end", spec.end.isoformat(),
                "--out", str((out / f"rep{rep}" if rep else out) / "stitched")]
    if op == "analyze":
        return ["analyze", "--stitched", str(out / "stitched"), "--registry", str(inputs.registry),
                "--windows", ",".join(map(str, spec.windows)),
                "--thresholds", ",".join(f"{t:g}" for t in spec.thresholds),
                "--out", str(out / "analysis")]
    metric = op.split("-")[1]
    return ["report", "--metrics", str(out / "analysis"), "--metric", metric,
            "--out", str(out / "reports" / f"{metric}.svg")]


class Runner:
    """Starts child.py processes and collects what they report."""

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work
        self.env = child_env()
        self.calls = 0

    def child(self, cli_args: list[str], traced: bool = False) -> dict:
        """Run child.py; returns its timings, exit code, spans and peak RSS."""
        self.calls += 1
        result = self.work / f"child{self.calls}.json"
        log = self.work / f"child{self.calls}.log"
        argv = [sys.executable, str(HERE / "child.py"), str(self.src), str(result)]
        if traced:
            argv.append("--trace")
        if cli_args:
            argv += ["--", *cli_args]
        started = time.perf_counter()
        with open(log, "wb") as sink:
            proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - started
        try:
            info = json.loads(result.read_text("utf-8"))
        except (OSError, ValueError):
            info = {"import_s": 0.0, "command_s": wall, "spans": []}
        info["exit"] = proc.returncode
        info["rss_mib"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        if proc.returncode != 0:
            tail = log.read_text("utf-8", "replace").strip().splitlines()[-3:]
            print(f"{cli_args[:1]} exited {proc.returncode}: {' | '.join(tail)}", file=sys.stderr)
        return info


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup: list[float], rounds: list[dict]) -> dict:
    med = statistics.median
    # every command invocation starts with the same timed import as a probe
    setup = setup + [i["import_s"] for r in rounds for op in OPS for i in r[op]]
    stitch_s = med(i["command_s"] for r in rounds for i in r["stitch"])
    analyze_s = med(i["command_s"] for r in rounds for i in r["analyze"])
    report_s = med(d["command_s"] + c["command_s"]
                   for r in rounds for d, c in zip(r["report-density"], r["report-clustering"]))
    return {
        "setup_s": metric(med(setup), "s"),
        "stitch_s": metric(stitch_s, "s"),
        "analyze_s": metric(analyze_s, "s"),
        "report_s": metric(report_s, "s"),
        "pipeline_s": metric(stitch_s + analyze_s + report_s, "s"),
        "analyze_peak_rss_mib": metric(med(i["rss_mib"] for r in rounds for i in r["analyze"]),
                                       "MiB"),
    }


def per_layer(spec: workloads.Spec, rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = []
    for r in traced:
        # span parents index into their own process's list, so sum per process
        self_s, calls = {}, {}
        for op in OPS:
            s, c = spans.self_times(r[op][0]["spans"])
            for name in s:
                self_s[name] = self_s.get(name, 0.0) + s[name]
                calls[name] = calls.get(name, 0) + c[name]
        per_round.append((self_s, calls))
    out = {}
    for name in spans.NAMES:
        out[f"{name}.self_s"] = metric(
            statistics.median(sr.get(name, 0.0) for sr, _ in per_round), "s")
        out[f"{name}.calls"] = metric(
            statistics.median(cr.get(name, 0) for _, cr in per_round), "count")
    pairs = len(spec.keywords) * (len(spec.keywords) - 1) // 2
    pair_frames = sum(spec.frames(w) for w in spec.windows) * pairs
    dcor_s = out["kernels.rolling_dcor.self_s"]["value"]
    out["kernels.rolling_dcor.pair_frames_per_s"] = metric(
        pair_frames / dcor_s if dcor_s > 0 else 0.0, "1/s")
    out["trace.overhead_s"] = metric(
        statistics.median(r["analyze"][0]["command_s"] for r in traced)
        - statistics.median(r["analyze"][0]["command_s"] for r in plain), "s")
    return out


def run_round(runner: Runner, inputs: workloads.Inputs, out: Path, traced: bool) -> dict:
    record = {"traced": traced} | {op: [] for op in OPS}
    for op in SCHEDULE:
        rep = len(record[op])
        record[op].append(runner.child(op_args(inputs, out, op, rep), traced=traced))
    return record


def output_digests(out: Path) -> dict[tuple[int, str], str]:
    """Digests of a round's outputs keyed by (repeat, path as repeat 0 writes it)."""
    found = {}
    for path, digest in checks.digests(out).items():
        top, _, rest = path.partition("/")
        found[(int(top[3:]), rest) if top[3:].isdigit() else (0, path)] = digest
    return found


def differing(found: dict, reference: dict[str, str]) -> list[tuple[int, str]]:
    """(repeat, path) of outputs that differ from, or are missing against, round 0."""
    expected = {(rep, rel) for rel in reference
                for rep in range(SCHEDULE.count(checks.owner(rel)))}
    return sorted(key for key in expected | found.keys()
                  if found.get(key) != reference.get(key[1]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "trendnet" / "cli.py").is_file():
        print(f"{src / 'trendnet' / 'cli.py'}: program source not found", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / ".work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workloads.generate(workloads.SPECS[args.workload], args.seed, work / "inputs")
        runner = Runner(src, work)
        setup = []
        for _ in range(SETUP_PROBES):
            probe = runner.child([])
            if probe["exit"] != 0:
                print("importing trendnet.cli failed", file=sys.stderr)
                return 1
            setup.append(probe["import_s"])

        rounds: list[dict] = []
        reference: dict[str, str] = {}
        # (round, op, repeat) of every failed invocation
        failed: set[tuple[int, str, int]] = set()
        elapsed = 0.0
        # start a round only if, at the mean round time so far, it ends in time
        while len(rounds) < MIN_ROUNDS or elapsed * (len(rounds) + 1) / len(rounds) <= args.seconds:
            n = len(rounds)
            out = work / f"round{n}"
            started = time.perf_counter()
            record = run_round(runner, inputs, out, traced=bool(args.trace) and n % 2 == 1)
            elapsed += time.perf_counter() - started
            rounds.append(record)
            failed.update((n, op, rep) for op in OPS
                          for rep, info in enumerate(record[op]) if info["exit"] != 0)

            found = output_digests(out)
            if n == 0:
                reference = {rel: digest for (rep, rel), digest in found.items() if rep == 0}
            for rep, rel in differing(found, reference):
                failed.add((n, checks.owner(rel), rep))
                print(f"round {n} repeat {rep}: {rel} differs from round 0", file=sys.stderr)
            if n:
                shutil.rmtree(out)

        problems = checks.check_run(inputs, work / "round0", args.seed)
        for command, message in problems:
            print(f"check failed [{command}]: {message}", file=sys.stderr)
        bad = {command for command, _ in problems}
        failed.update((n, op, rep) for n, r in enumerate(rounds) for op in bad
                      for rep in range(len(r[op])))

        metrics = per_layer(inputs.spec, rounds) if args.trace else end_to_end(setup, rounds)
        result = {
            "correct": not problems,
            "attempted": sum(len(r[op]) for r in rounds for op in OPS),
            "failed": len(failed),
            "metrics": metrics,
        }
        keep = ("import_s", "command_s", "rss_mib", "exit")
        saved = dict(result, setup_s=setup, problems=problems, rounds=[
            {op: [{k: i[k] for k in keep} for i in r[op]] for op in OPS} | {"traced": r["traced"]}
            for r in rounds
        ])
        if args.trace:
            saved["spans"] = {op: rounds[1][op][0]["spans"] for op in OPS}
        (HERE / "results").mkdir(exist_ok=True)
        (HERE / "results" / f"{tag}.json").write_text(json.dumps(saved), "utf-8")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
