"""Self-test of the output checks: valid outputs pass, corrupted ones fail.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Builds one small genuine output per workload family, confirms that
``checks.py`` accepts it, then confirms that every corruption below is
rejected: a total perturbed by 1e-6 relative, a missing or duplicated
response, and a dropped, duplicated or altered journal record.  Exits 1
if any check misses a corruption or rejects a genuine output.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import checks
from common import WORK, use_source_tree

PERTURB = 1.0 + 1e-6

failures = []


def expect(label: str, problems, ok: bool) -> None:
    passed = not problems
    if passed != ok:
        failures.append(f"{label}: {'accepted' if passed else 'rejected'} {problems[:2]}")
    print(f"  {'ok  ' if passed == ok else 'FAIL'} {label}: "
          f"{'accepted' if passed else f'rejected ({len(problems)} problems)'}")


def population() -> None:
    from repro.analysis.population import population_bill_study

    n_sites, n_intervals, interval_s, chunk, seed = 8, 8760, 3600.0, 4, 11
    result = population_bill_study(n_sites=n_sites, seed=seed, chunk=chunk)
    expected = checks.population_expected(seed, n_sites, n_intervals, interval_s, chunk)
    good = result.archetypes
    expect("population: genuine study", checks.population_round(good, n_sites, expected), True)
    for name in expected:
        for key in ("population_total", "min_total", "max_total"):
            bad = copy.deepcopy(good)
            bad[name][key] *= PERTURB
            expect(f"population: {name} {key} x (1 + 1e-6)",
                   checks.population_round(bad, n_sites, expected), False)
    other = next(n for n in good if n not in expected)
    bad = copy.deepcopy(good)
    bad[other]["population_total"] *= PERTURB
    expect(f"population: {other} total x (1 + 1e-6)",
           checks.population_round(bad, n_sites, expected), False)
    bad = copy.deepcopy(good)
    bad[other]["p95"] = bad[other]["max_total"] * 1.01
    expect(f"population: {other} p95 above max", checks.population_round(bad, n_sites, expected), False)
    bad = copy.deepcopy(good)
    bad[other]["n_sites"] = n_sites - 1
    expect(f"population: {other} count short", checks.population_round(bad, n_sites, expected), False)


def serve() -> None:
    from repro.service.batching import encode_bill
    from repro.service.catalog import default_catalog

    days, peak_mw, seed = 28, 2.0, 70_000
    catalog = default_catalog(n_sites=2, days=days, seed=seed, price_seed=seed)
    requests, responses = {}, []
    for load in catalog.load_names():
        for contract in catalog.contract_names():
            rid = len(requests) + 1
            requests[rid] = (contract, load)
            bill = encode_bill(catalog.price(contract, load))
            responses.append({"id": rid, "ok": True, "result": bill})
    fixed, totals = checks.post_tender_totals(catalog.load_names(), seed, days, peak_mw)

    def run(resps):
        return checks.serve_responses(requests, resps, fixed, totals)

    expect("serve: genuine answers", run(responses), True)
    for rid, (contract, _load) in list(requests.items())[:5]:
        bad = copy.deepcopy(responses)
        bad[rid - 1]["result"]["total"] *= PERTURB
        expect(f"serve: {contract} total x (1 + 1e-6)", run(bad), False)
    expect("serve: missing response", run(responses[:-1]), False)
    expect("serve: duplicated response", run(responses + responses[-1:]), False)
    bad = copy.deepcopy(responses)
    bad[0]["id"] = 999
    expect("serve: id not echoed", run(bad), False)
    bad = copy.deepcopy(responses)
    bad[1]["result"]["contract"] = requests[1][0]
    expect("serve: contract not echoed", run(bad), False)
    bad = copy.deepcopy(responses)
    bad[2] = {"id": 3, "ok": False, "error": {"code": "overloaded"}}
    expect("serve: error answer", run(bad), False)


def sweep() -> None:
    from repro.robustness.chaos import run_chaos_sweep

    dropout, loss = (0.0, 0.02), (0.0, 0.2)
    directory = os.path.join(WORK, f"selftest-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    try:
        journal = os.path.join(directory, "good.jsonl")
        report = run_chaos_sweep(dropout, loss, seed=3, horizon_days=28, supervised=True,
                                 parallel=False, journal=journal)
        results = list(report.results)
        expect("sweep: genuine sweep", checks.sweep_round(results, journal, dropout, loss), True)
        with open(journal, encoding="utf-8") as fh:
            header, *items = fh.readlines()

        def with_lines(label, lines):
            path = os.path.join(directory, "bad.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines([header, *lines])
            expect(label, checks.sweep_round(results, path, dropout, loss), False)

        with_lines("sweep: journal record dropped", items[:-1])
        with_lines("sweep: journal record duplicated", items + items[:1])
        swapped = items[1].replace('"index": 1', '"index": 0'), items[0].replace('"index": 0', '"index": 1')
        with_lines("sweep: journal records altered (results swapped)", [*swapped, *items[2:]])
        bad = copy.deepcopy(results)
        object.__setattr__(bad[1], "true_total", bad[1].true_total * PERTURB)
        expect("sweep: true_total x (1 + 1e-6)", checks.sweep_round(bad, journal, dropout, loss), False)
        bad = copy.deepcopy(results)
        object.__setattr__(bad[0], "estimated_total", bad[0].estimated_total * PERTURB)
        expect("sweep: estimated_total x (1 + 1e-6) at dropout 0",
               checks.sweep_round(bad, journal, dropout, loss), False)
        expect("sweep: a point missing", checks.sweep_round(results[:-1], journal, dropout, loss), False)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main() -> int:
    use_source_tree()
    for family in (population, serve, sweep):
        print(f"{family.__name__}:")
        family()
    if failures:
        for failure in failures:
            print(f"selftest failure: {failure}", file=sys.stderr)
        return 1
    print("selftest: every genuine output accepted, every corruption rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
