"""One workload run, in a fresh interpreter: `python3 child.py SPEC OUT`.

Imports fourfold from the checkout's `src`, then calls `fourfold.cli.main`
in-process on every operation of the spec, pass after pass, until the next
pass would overrun the spec's seconds (at least two passes, so every
operation's stdout is compared between repeats).  With tracing on, untraced
and traced passes alternate, so the tracing overhead is measured in the
same process.  Writes a JSON result to OUT; the ops' stdout never reaches
this process's stdout.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

from oracle import check_output
from speed import Meter, burst, factor


def run_op(cli, argv, meter, sample):
    """(exit code or None, exception text or None, seconds, probes, stdout text)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv), None
        except SystemExit as exc:  # argparse rejects its input with exit code 2
            return (exc.code if isinstance(exc.code, int) else 1), None
        except Exception as exc:  # an exception escaping main is the op's failure
            return None, f"{type(exc).__name__}: {str(exc)[:200]}"

    (code, error), seconds, probes = meter.time(call, sample)
    return code, error, seconds, probes, out.getvalue()


def run_pass(cli, ops, records, meter, tracer=None) -> dict:
    """Every operation once, each rescaled by the host speed around and during it.

    A traced pass probes only between operations, so that no probe lands
    inside a span.
    """
    op_seconds, op_factors, stdout_bytes = [], [], 0
    gc.collect()
    before = burst()
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            code, error, seconds, probes, text = run_op(cli, op["argv"], meter, tracer is None)
            gc.collect()
            after = burst()
            op_seconds.append(seconds)
            op_factors.append(factor(before + probes + after))
            before = after
            data = text.encode()
            rec = records[i]
            rec["exit"].append(code)
            rec["error"].append(error)
            rec["sha256"].append(hashlib.sha256(data).hexdigest())
            if rec["verdict"] is None and error is None and code == op["expect_exit"]:
                rec["verdict"] = check_output(text, op["check"]) or "ok"
                rec["stdout_bytes"] = len(data)
            stdout_bytes += len(data)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"traced": tracer is not None, "op_seconds": op_seconds,
              "op_factors": op_factors, "stdout_bytes": stdout_bytes}
    if tracer is not None:
        record["layers"] = tracer.layers(op_factors)
    return record


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    from fourfold import cli

    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        print(f"fourfold imported from {here}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    meter = Meter()
    ops = spec["ops"]
    records = [{"exit": [], "error": [], "sha256": [], "stdout_bytes": None, "verdict": None}
               for _ in ops]
    # a round is one pass, or an untraced and a traced pass when tracing
    round_tracers = (None, tracer) if tracer else (None,)
    min_rounds = 1 if tracer else 2
    passes, round_times = [], []
    begun = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        passes += [run_pass(cli, ops, records, meter, t) for t in round_tracers]
        round_times.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - begun
        if (len(round_times) >= min_rounds
                and elapsed + statistics.median(round_times) > spec["seconds"]):
            break
    if tracer is not None:
        tracer.dump(spec["spans_out"])
    result = {
        "passes": passes,
        "ops": records,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "untraced_functions": tracer.missing if tracer else [],
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
