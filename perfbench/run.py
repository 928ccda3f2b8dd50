"""The benchmark command: one workload, one seed, one JSON line of results.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload population --seed 0 --seconds 12 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``
(``setup_s``, ``bills_per_s``, ``peak_rss_mb``); with ``--trace 1`` a
per-layer table followed by the per-layer metrics.  The last line of
standard output is always the JSON result.  The exit code is 0 only when
every output check passed; see README.md for what is measured and how.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from common import ROOT, SRC, now

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("population", "serve-fresh", "serve-repeat", "sweep-journaled")
#: Cold starts per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Wall-clock budget of one invocation, kept under the 180 s limit.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def run_worker(args, deadline: float, *extra: str):
    """Start one cold worker process; returns (spawn time, events)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    spawn = now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(extra) or 'run'} exceeded the time budget")
    finally:
        try:  # the worker's own children (the pricing server) go too
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    events = {}
    for line in out.splitlines():
        msg = json.loads(line)
        events[msg.pop("event")] = msg
    return spawn, events


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = now() + BUDGET_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")) or not os.path.isfile(spec_path):
        print("perfbench: run from the root of a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    # Compile once up front so no cold start pays for writing bytecode.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC, HERE],
        check=True, stdout=subprocess.DEVNULL,
    )

    problems, attempted, failed = [], 0, 0

    def timed(*extra):
        nonlocal attempted, failed
        spawn, ev = run_worker(args, deadline, *extra)
        res = ev["result"]
        attempted += res["attempted"]
        failed += res["failed"]
        problems.extend(res["problems"])
        return spawn, ev

    try:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                spawn, ev = run_worker(args, deadline, "--setup-only")
                setups.append(ev["ready"]["t"] - spawn)
            spawn, ev = timed()
            setups.append(ev["ready"]["t"] - spawn)
            res = ev["result"]
            values = {
                "setup_s": statistics.median(setups),
                "bills_per_s": res["bills_per_s"],
                "peak_rss_mb": res["peak_rss_mb"],
            }
            declared = spec["end_to_end"]
        else:
            # The traced run also proves the checks reject corrupted outputs.
            selftest = subprocess.run(
                [sys.executable, os.path.join(HERE, "selftest.py")],
                stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - now()),
            )
            if selftest.returncode != 0:
                problems.append("selftest.py: a check accepted a corrupted output")
            _spawn, plain = timed()
            spawn, ev = timed("--trace", "1")
            res = ev["result"]
            print(res["table"])
            values = {name: 0.0 for name in (m["name"] for m in spec["per_layer"])}
            values.update(
                {k: v for k, v in res["layers"].items() if k in values}
            )
            ready = plain["ready"]
            values["setup.import_s"] = ready["t_imported"] - _spawn
            values["setup.fixture_s"] = ready["t"] - ready["t_imported"]
            values["tracing.bills_per_s_ratio"] = (
                res["bills_per_s"] / plain["result"]["bills_per_s"]
            )
            print(
                f"tracing overhead: traced {res['bills_per_s']:.1f} vs untraced "
                f"{plain['result']['bills_per_s']:.1f} bills/s "
                f"(ratio {values['tracing.bills_per_s_ratio']:.3f})"
            )
            declared = spec["per_layer"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for problem in problems:
        print(f"perfbench check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
