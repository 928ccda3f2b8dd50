"""One cold process of a workload: set up, measure, check, report.

Usage: python3 perfbench/worker.py --workload W --seed S --seconds N
       [--trace 1] [--setup-only]

Prints JSON event lines: ``ready`` when the first timed operation may
start (set-up is over), then ``result``.  ``run.py`` starts these
processes and reads the events; see README.md.
"""

from __future__ import annotations

import argparse
import statistics

from common import emit, now, peak_rss_mb, use_source_tree
from tracing import COVERAGE_TOLERANCE, Tracer, coverage_error, format_table

WORKLOADS = ("population", "serve-fresh", "serve-repeat", "sweep-journaled")


def make(workload: str, seed: int, trace: bool):
    if workload == "population":
        from wl_population import Population

        return Population(seed)
    if workload == "sweep-journaled":
        from wl_sweep import Sweep

        return Sweep(seed)
    from wl_serve import Serve

    return Serve(seed, fresh=workload == "serve-fresh", trace=trace)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    use_source_tree()

    serve = args.workload.startswith("serve")
    wl = make(args.workload, args.seed, bool(args.trace))
    try:
        emit("ready", t=now(), t_imported=wl.t_imported)
        if args.setup_only:
            if serve:
                wl.stop_server()
            return
        tracer = Tracer() if args.trace and not serve else None
        if tracer is not None:
            wl.instrument(tracer)
        window = wl.window = wl.run(args.seconds, tracer)
        if tracer is not None:
            tracer.restore()
        rates = wl.round_rates()
        if serve:
            n_bills = len(wl.done_times)
            wl.stop_server()
            rss = wl.peak_rss_mb
        else:
            n_bills = len(wl.rounds) * wl.bills_per_op
            rss = peak_rss_mb()
        result = {
            "bills_per_s": statistics.median(rates),
            "round_rates": rates,
            "n_bills": n_bills,
            "wall_s": window[1] - window[0],
            "peak_rss_mb": rss,
        }
        if args.trace:
            result.update(layers(args.workload, wl, tracer, window, n_bills))
        problems = wl.check()
        if serve:
            result["attempted"], result["failed"] = len(wl.requests), len(problems)
        else:
            result["attempted"] = len(problems)
            result["failed"] = sum(1 for p in problems if p)
            problems = [p for round_problems in problems for p in round_problems]
        if args.trace and result["coverage_error"] > COVERAGE_TOLERANCE:
            problems.append(
                f"layer self-times miss the traced wall time by "
                f"{result['coverage_error']:.1%} (tolerance {COVERAGE_TOLERANCE:.0%})"
            )
        result["problems"] = problems[:10]
        result["n_problems"] = len(problems)
        emit("result", **result)
    finally:
        wl.close()


def layers(workload: str, wl, tracer, window, n_bills: int):
    """Per-layer metrics (self seconds per bill, counts, ratios) and table."""
    table, extra = wl.layer_metrics(tracer, window, n_bills)
    metrics = {f"{name}_s": secs / n_bills for name, secs in table.items()}
    metrics.update(extra)
    return {
        "layers": metrics,
        "coverage_error": coverage_error(table, window),
        "table": format_table(workload, table, window, n_bills),
    }


if __name__ == "__main__":
    main()
