"""Workload ``sweep-journaled``: supervised, journaled chaos sweeps.

One operation is one ``run_chaos_sweep(supervised=True, journal=...)``
over a year-horizon dropout x loss grid on which every point passes, run
serially, exactly what ``python -m repro sweep --journal J --serial``
runs.  The world seed is the benchmark seed.  Each point settles two
bills (the estimated bill and the true-up), so a round settles
``2 * len(DROPOUT) * len(LOSS)`` bills.
"""

from __future__ import annotations

import os

from common import WORK, now
from tracing import LOOP_ROW, Tracer, layer_table

DROPOUT = (0.0, 0.01, 0.02, 0.05)
LOSS = (0.0, 0.1, 0.2, 0.3)
HORIZON_DAYS = 365
PEAK_MW = 8.0

ROOT_SPAN = "robustness.supervisor.other"


class Sweep:
    """Fixture, timed loop, layer instrumentation and checks."""

    bills_per_op = 2 * len(DROPOUT) * len(LOSS)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        from repro.robustness import chaos

        self.chaos = chaos
        self.t_imported = now()
        # The world (ESP, system load, SC load, dispatches) is built once
        # per seed and cached; building it here is the set-up a user pays.
        chaos.run_scenario(
            chaos.ChaosScenario("warm-up", seed=seed),
            horizon_days=HORIZON_DAYS,
            peak_mw=PEAK_MW,
        )
        self.dir = os.path.join(WORK, f"sweep-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.rounds = []

    def sweep(self, journal: str):
        return self.chaos.run_chaos_sweep(
            DROPOUT,
            LOSS,
            seed=self.seed,
            horizon_days=HORIZON_DAYS,
            peak_mw=PEAK_MW,
            supervised=True,
            parallel=False,
            journal=journal,
        )

    def run(self, seconds: float, tracer: Tracer = None):
        """Whole sweeps until ``seconds`` have passed; returns the window."""
        t_start = now()
        deadline = t_start + seconds
        r = 0
        while True:
            journal = os.path.join(self.dir, f"round-{r}.jsonl")
            t0 = now()
            token = tracer.begin() if tracer is not None else None
            report = self.sweep(journal)
            if token is not None:
                tracer.end(token, ROOT_SPAN, r)
            t1 = now()
            self.rounds.append((journal, report, t1 - t0))
            r += 1
            if t1 >= deadline:
                return t_start, t1

    def round_rates(self):
        return [self.bills_per_op / dt for _j, _rep, dt in self.rounds]

    # -- traced run -------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        from repro.contracts.billing import BillingEngine
        from repro.robustness import chaos
        from repro.robustness.faults import FaultInjector
        from repro.robustness.journal import SweepJournal
        from repro.robustness.vee import VEEngine

        # chaos_grid binds the module's run_scenario when a sweep starts
        tracer.wrap(chaos, "run_scenario", "robustness.chaos.point")
        tracer.wrap(FaultInjector, "inject", "robustness.faults.inject")
        tracer.wrap(VEEngine, "estimate", "robustness.vee.estimate")
        tracer.wrap(BillingEngine, "bill", "contracts.billing.bill")
        tracer.wrap(BillingEngine, "reconcile", "contracts.billing.reconcile")
        tracer.wrap(SweepJournal, "record", "robustness.journal.append")
        fsync = os.fsync

        def counted_fsync(fd):
            tracer.counts["robustness.journal.fsyncs"] += 1
            return fsync(fd)

        tracer.patch(os, "fsync", counted_fsync)

    def layer_metrics(self, tracer: Tracer, window, n_bills: int):
        points = n_bills // 2
        extra = {
            "robustness.journal.fsyncs": tracer.counts["robustness.journal.fsyncs"] / points,
            "robustness.journal.bytes_per_point": sum(
                os.path.getsize(journal) for journal, _rep, _dt in self.rounds
            ) / points,
        }
        extra.update(self.cache_ratios())
        return layer_table(tracer.spans, window, LOOP_ROW), extra

    def cache_ratios(self):
        """World and response cache hit ratios of one more sweep, read from
        the program's own counters with observability switched on."""
        from repro import perfconfig
        from repro.observability import metrics

        registry = metrics.registry()
        registry.reset()
        with perfconfig.observing():
            self.sweep(os.path.join(self.dir, "counters.jsonl"))
        counters = registry.snapshot()["counters"]
        out = {}
        for cache in ("world_cache", "response_cache"):
            hit = counters.get(f"chaos.{cache}.hit", 0.0)
            miss = counters.get(f"chaos.{cache}.miss", 0.0)
            out[f"robustness.chaos.{cache}_hit_ratio"] = hit / (hit + miss) if hit + miss else 0.0
        return out

    # -- checks -----------------------------------------------------------

    def check(self):
        """Problems found in each round's output (one list per round)."""
        import checks

        return [
            checks.sweep_round(report.results, journal, DROPOUT, LOSS)
            for journal, report, _dt in self.rounds
        ]

    def close(self) -> None:
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        os.rmdir(self.dir)

