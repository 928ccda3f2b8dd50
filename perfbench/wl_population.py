"""Workload ``population``: serial population bill studies over fresh fleets.

One operation is one :func:`~repro.analysis.population.population_bill_study`
over ``N_SITES`` hourly site-years (two chunks of ``CHUNK``), all five
archetypes and twelve monthly periods.  Round ``r`` of a run with seed
``s`` draws its fleet from population seed ``s * 1_000_000 + r``, so no round
reuses another's loads.  A round settles ``N_SITES * 5`` bills.
"""

from __future__ import annotations

from common import now
from tracing import LOOP_ROW, Tracer, layer_table

N_SITES = 2048
CHUNK = 1024
N_INTERVALS = 8760
INTERVAL_S = 3600.0

ROOT_SPAN = "analysis.population.other"


def round_seed(seed: int, r: int) -> int:
    return seed * 1_000_000 + r


class Population:
    """Fixture, timed loop, layer instrumentation and checks."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        from repro.analysis import population

        self.population = population
        self.t_imported = now()
        # One untimed full-size study pays first-call and allocator costs.
        population.population_bill_study(
            n_sites=N_SITES, seed=round_seed(seed, 999_999), chunk=CHUNK
        )
        self.rounds = []

    bills_per_op = N_SITES * 5

    def run(self, seconds: float, tracer: Tracer = None):
        """Whole rounds until ``seconds`` have passed; returns the window."""
        study = self.population.population_bill_study
        t_start = now()
        deadline = t_start + seconds
        r = 0
        while True:
            s = round_seed(self.seed, r)
            t0 = now()
            token = tracer.begin() if tracer is not None else None
            result = study(n_sites=N_SITES, seed=s, chunk=CHUNK)
            if token is not None:
                tracer.end(token, ROOT_SPAN, r)
            t1 = now()
            self.rounds.append((s, result, t1 - t0))
            r += 1
            if t1 >= deadline:
                return t_start, t1

    def round_rates(self):
        return [self.bills_per_op / dt for _s, _res, dt in self.rounds]

    # -- traced run -------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        from repro.analysis import population
        from repro.contracts import billing, components
        from repro.contracts.columnar import PopulationBills

        tracer.wrap(population, "synthetic_load_matrix", "survey.population.generate")
        tracer.wrap(population, "SitePopulation", "contracts.columnar.site_population")
        tracer.wrap(billing, "population_plan_for", "contracts.columnar.plan")
        tracer.wrap(billing.BillingEngine, "bill_population", "contracts.billing.bill_population")

        def count_fallback(matrix):
            if matrix is None:
                tracer.counts["contracts.columnar.scalar_fallbacks"] += 1

        for cls in _component_classes(components.ContractComponent):
            if "charge_matrix" in vars(cls):
                module = cls.charge_matrix.__module__.replace("repro.", "", 1)
                tracer.wrap(cls, "charge_matrix", f"{module}.charge_matrix",
                            on_result=count_fallback)

        # The study folds ``for total in bills.totals()`` into the streaming
        # reducers; a span from the totals() call to the iterator's end
        # covers exactly that loop.
        totals = PopulationBills.totals

        def traced_totals(self):
            token = tracer.begin()
            return _SpanIterator(tracer, token, "analysis.streaming.reduce", totals(self))

        tracer.patch(PopulationBills, "totals", traced_totals)

    def layer_metrics(self, tracer: Tracer, window, n_bills: int):
        return layer_table(tracer.spans, window, LOOP_ROW), dict(tracer.counts)

    # -- checks -----------------------------------------------------------

    def check(self):
        """Problems found in each round's output (one list per round)."""
        import checks

        return [
            checks.population_round(
                result.archetypes,
                N_SITES,
                checks.population_expected(s, N_SITES, N_INTERVALS, INTERVAL_S, CHUNK),
            )
            for s, result, _dt in self.rounds
        ]

    def close(self) -> None:
        pass


class _SpanIterator:
    """Iterates ``values``; closes the span when the iteration ends."""

    def __init__(self, tracer, token, name, values):
        self._tracer, self._token, self._name = tracer, token, name
        self._it = iter(values)

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._it)
        except StopIteration:
            if self._token is not None:
                self._tracer.end(self._token, self._name)
                self._token = None
            raise


def _component_classes(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen
