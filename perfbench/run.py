"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh single-threaded process (``child.py``), one process
at a time: a closed loop with one caller.  A run first starts a few processes
that only set up, then repeats passes while the next one is expected to end
within ``--seconds``, and reports medians.  Pass and set-up times are also
given at a fixed reference speed (``speed.py``), which the host's drifting
speed leaves unchanged; those are the times ``BENCHMARK.json`` declares.  With
``--trace 1`` untraced and traced passes alternate: the traced ones give the
per-layer metrics, and the difference between the two medians of
``wall_ref_s`` is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones ``BENCHMARK.json`` declares.  A full record of the run,
with provenance and every pass, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 8
# every child is killed by then, so a run ends within 180 s
DEADLINE_S = 170.0


class RunError(Exception):
    """The run cannot produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    spans_file = OUT / "spans" / f"{workload}-seed{seed}.json"
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "child.py"),
                workload,
                str(seed),
                mode,
                str(spans_file),
                repr(started),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} pass of {workload} did not end by the deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunError(f"{mode} pass of {workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - started
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list[dict], dict]:
    """Set-up samples (``setup_s`` and ``setup_wall_s``), and the passes of each mode."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if trace else ("run",)
    passes: dict[str, list[dict]] = {mode: [] for mode in modes}
    first = time.monotonic()
    count = 0
    while True:
        mode = modes[count % len(modes)]
        result = spawn(workload, seed, mode, deadline)
        passes[mode].append(result)
        setups.append(result)
        count += 1
        now = time.monotonic()
        per_pass = (now - first) / count
        if count >= len(modes) and (
            now - start + per_pass > seconds or now + per_pass > deadline
        ):
            return setups, passes


def declared_metrics() -> dict:
    """BENCHMARK.json: its end_to_end and per_layer lists name every metric and unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines,
    }


def summarize(setups: list[dict], passes: dict, trace: bool) -> dict:
    """Medians over the passes, checks summed over every pass; a run that
    checked nothing is an error, not a pass."""
    every = [p for mode in passes.values() for p in mode]
    attempted = sum(p["attempted"] for p in every)
    if attempted == 0:
        raise RunError("the run checked nothing")
    failures = [f for p in every for f in p["failures"]]
    untraced = passes["run"]
    wall = statistics.median(p["wall_s"] for p in untraced)
    summary = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "fail_ratio": len(failures) / attempted,
        "end_to_end": {
            "wall_ref_s": statistics.median(p["wall_ref_s"] for p in untraced),
            "wall_s": wall,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        },
    }
    if trace:
        traced = passes["trace"]
        layers = {
            key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]
        }
        traced_ref = statistics.median(p["wall_ref_s"] for p in traced)
        layers["trace.overhead_s"] = traced_ref - summary["end_to_end"]["wall_ref_s"]
        summary["per_layer"] = layers
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        if not (ROOT / "src" / "bicayley" / "__init__.py").is_file():
            raise RunError(f"no bicayley sources under {ROOT / 'src'}")
        declared = declared_metrics()
        setups, passes = measure(args.workload, args.seed, args.seconds, trace)
        summary = summarize(setups, passes, trace)
        values = summary["per_layer"] if trace else summary["end_to_end"]
        section = declared["per_layer" if trace else "end_to_end"]
        missing = [m["name"] for m in section if m["name"] not in values]
        if missing:
            raise RunError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    except (RunError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    runs = {mode: len(p) for mode, p in passes.items()}
    print(f"workload {args.workload}, seed {args.seed}, passes {runs}")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units |= {"wall_s": "s", "setup_wall_s": "s"}
    for name, value in summary["end_to_end"].items():
        print(f"  {name:<12} {value:10.4f} {units[name]}")
    print(
        f"  {'fail_ratio':<12} {summary['failed']}/{summary['attempted']} checks failed"
        f" = {summary['fail_ratio']:.4f}"
    )
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")
    if trace:
        for m in section:
            print(f"  {m['name']:<44} {values[m['name']]:12.4f} {m['unit']}")

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "setup_samples": [
            {"setup_s": s["setup_s"], "setup_wall_s": s["setup_wall_s"]} for s in setups
        ],
        "passes": {
            mode: [{k: v for k, v in p.items() if k != "ready"} for p in ps]
            for mode, ps in passes.items()
        },
        **summary,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / "results" / name, "w") as fh:
        json.dump(record, fh, indent=1)

    correct = summary["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
