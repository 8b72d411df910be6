"""The fourfold benchmark: time to get rank tables, end to end and by layer.

    python3 perfbench/run.py --workload deep|sweep|catalog --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the workload's operation
list (see workloads.py); one child process (child.py) then calls
`fourfold.cli.main` in-process on every operation, pass after pass, for
about S seconds.  Every operation is checked against its documented exit
code and, when it exits cleanly, against the rank oracle (oracle.py); its
stdout must also be byte-identical between passes.

An execution fails when an exception escapes `main`, when it exits with a
code other than its documented one, when its stdout differs from the first
pass, or when its output disagrees with the oracle.  The last two are wrong
answers and also make `correct` false; the first two are failures the
program admits to, such as the RecursionError of the degree-5 hypersurface.

Times are rescaled to nominal host speed by the probe of speed.py, run
around and during every operation and around every set-up sample; the raw
seconds are kept in the results record.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json:
  wall_s        time to run the whole list once, each operation taken at
                its median over the run's passes
  slowest_op_s  the longest of those operation medians
  ok_ops        share of executions that did not fail (1 - failed/attempted)
  peak_rss_mib  peak resident memory of the child process
  setup_s       median time from a fresh interpreter to fourfold.cli
                imported and its parser built
With --trace 1 it prints the per-layer metrics of BENCHMARK.json from
traced passes (see tracer.py) and the tracing overhead, the traced pass
time minus the untraced one.  The engine is single-threaded and has no
queues, so there is no waiting time to report.

The last line of stdout is the JSON result; the lines before it list every
operation with its status, median seconds, exit code and the sha256 of its
stdout.  The same record, with every pass time, is kept as JSON in
.perfbench/results/, and the spans of the last traced pass next to it as
*.spans.jsonl.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import NOMINAL_S, burst, factor  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

SETUP_SAMPLES = 15
DEADLINE_S = 170  # a run must end within 180 s
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "from fourfold import cli\n"
    "cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(src: str, deadline: float) -> tuple[list[float], list[float]]:
    """Seconds from spawning an interpreter to fourfold.cli's parser being built.

    Returns the raw samples and the rescaled ones.
    """
    snippet = SETUP_SNIPPET.format(src=src)
    raw, scaled = [], []
    before = burst()
    for k in range(SETUP_SAMPLES + 1):
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        seconds = float(done.stdout) - started
        after = burst()
        if k:  # the first spawn also writes the bytecode cache
            raw.append(seconds)
            scaled.append(seconds * factor(before + after))
        before = after
    return raw, scaled


def execution_status(op: dict, rec: dict, k: int) -> tuple[str, str]:
    if rec["error"][k] is not None:
        return "crash", rec["error"][k]
    if rec["exit"][k] != op["expect_exit"]:
        return "exit", f"exit code {rec['exit'][k]}, documented {op['expect_exit']}"
    if rec["sha256"][k] != rec["sha256"][0]:
        return "nondeterministic", "stdout differs from the first pass"
    if rec["verdict"] != "ok":
        return "wrong", rec["verdict"]
    return "ok", ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fourfold", "cli.py")):
        return fail(f"no fourfold sources under {src}; run from a checkout of the repository")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    workdir = os.path.join(ROOT, ".perfbench", "work", f"{tag}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = make_ops(args.workload, args.seed, os.path.relpath(workdir, ROOT))
        spec = {
            "root": ROOT, "ops": ops, "seconds": args.seconds, "trace": args.trace,
            "spans_out": os.path.join(results_dir, f"{tag}.spans.jsonl"),
        }
        spec_path = os.path.join(workdir, "spec.json")
        out_path = os.path.join(workdir, "result.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        try:
            setup_raw, setup = ([], []) if args.trace else measure_setup(src, deadline)
            child = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, out_path],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.CalledProcessError as exc:
            return fail(f"a set-up sample failed:\n{exc.stderr}")
        except subprocess.TimeoutExpired:
            return fail(f"the run did not finish within {DEADLINE_S} s")
        if child.returncode != 0:
            return fail(f"child exited with {child.returncode}:\n{child.stderr}")
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    for p in passes:
        p["scaled"] = [t * f for t, f in zip(p["op_seconds"], p["op_factors"])]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # each operation at its median over the passes: steadier than the median
    # pass, as one slow stretch of the host then spoils one operation only
    op_median = [statistics.median(p["scaled"][i] for p in plain) for i in range(len(ops))]

    attempted = failed = 0
    correct = True
    summary = []
    for i, (op, rec) in enumerate(zip(ops, result["ops"])):
        statuses = [execution_status(op, rec, k) for k in range(len(rec["exit"]))]
        attempted += len(statuses)
        failed += sum(s != "ok" for s, _ in statuses)
        correct &= not any(s in ("wrong", "nondeterministic") for s, _ in statuses)
        worst = next(((s, d) for s, d in statuses if s != "ok"), ("ok", ""))
        summary.append({
            "argv": op["argv"], "expect_exit": op["expect_exit"], "exit": rec["exit"][0],
            "status": worst[0], "detail": worst[1], "sha256": rec["sha256"][0],
            "stdout_bytes": rec["stdout_bytes"],
            "seconds_median": op_median[i],
        })

    if args.trace:
        metrics = {
            key: statistics.median(p["layers"][key] for p in traced)
            for key in traced[0]["layers"]
        }
        metrics["cli.stdout_bytes"] = statistics.median(p["stdout_bytes"] for p in traced)
        metrics["trace.overhead_s"] = sum(
            statistics.median(p["scaled"][i] for p in traced) for i in range(len(ops))
        ) - sum(op_median)
    else:
        metrics = {
            "wall_s": sum(op_median),
            "slowest_op_s": max(op_median),
            "ok_ops": 1 - failed / attempted,
            "peak_rss_mib": result["peak_rss_kib"] / 1024,
            "setup_s": statistics.median(setup),
        }
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        return fail(f"BENCHMARK.json declares metrics this run does not measure: {missing}")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nominal_probe_s": NOMINAL_S,
        "passes": [{"traced": p["traced"], "wall_s": sum(p["scaled"]),
                    "raw_wall_s": sum(p["op_seconds"]),
                    "factor_median": statistics.median(p["op_factors"])} for p in passes],
        "setup_raw_s": setup_raw, "setup_s": setup,
        "untraced_functions": result["untraced_functions"], "ops": summary,
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    for row in summary:
        print(f"{row['status']:<16} {row['seconds_median']:9.4f} s  exit {row['exit']}"
              f"  {row['sha256']}  {' '.join(row['argv'])}"
              + (f"  [{row['detail']}]" if row["detail"] else ""))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
