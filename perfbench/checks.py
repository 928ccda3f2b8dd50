"""Output checks: each compares the program's answer with a computation
made apart from it, or with a property the method must have.

Every function returns a list of problems (empty when the output is
right), so a run can count failed operations and ``selftest.py`` can
show that each check rejects a corrupted output.
"""

from __future__ import annotations

import base64
import json
import math
import pickle
from typing import Dict, List, Mapping, Sequence, Tuple

#: Relative tolerance of every floating-point comparison.
REL = 1e-9


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# -- population --------------------------------------------------------------


def population_expected(
    seed: int, n_sites: int, n_intervals: int, interval_s: float, chunk: int
) -> Dict[str, "object"]:
    """Per-site totals of the fixed-tariff-only and spot-passthrough
    archetypes, recomputed with numpy from the generated loads and the
    tariffs' published rates (contract name -> array of site totals)."""
    import numpy as np

    from repro.analysis.population import population_archetypes, population_context
    from repro.survey.population import synthetic_load_matrix

    by_archetype = {c.metadata.get("archetype"): c for c in population_archetypes(interval_s)}
    fixed = by_archetype["swiss_post_tender"]
    spot = by_archetype["nordic_spot_passthrough"]
    (fixed_tariff,) = fixed.components
    (spot_tariff,) = spot.components
    prices = population_context(n_intervals, interval_s, seed).price_series.values_kw
    spot_rate = np.maximum(prices + spot_tariff.adder_per_kwh, spot_tariff.floor_per_kwh)
    hours = interval_s / 3600.0
    energy, spot_cost = [], []
    for start in range(0, n_sites, chunk):
        loads, _peaks = synthetic_load_matrix(
            min(chunk, n_sites - start), n_intervals, interval_s, seed=seed, start_index=start
        )
        energy.append(loads.sum(axis=1) * hours)
        spot_cost.append(loads @ spot_rate * hours)
    return {
        fixed.name: np.concatenate(energy) * fixed_tariff.rate_per_kwh,
        spot.name: np.concatenate(spot_cost),
    }


def population_round(
    archetypes: Mapping[str, Mapping[str, float]],
    n_sites: int,
    expected: Mapping[str, "object"],
) -> List[str]:
    """Check one study's per-archetype statistics."""
    problems = []
    for name, st in archetypes.items():
        if st["n_sites"] != n_sites:
            problems.append(f"{name}: count {st['n_sites']} != {n_sites}")
        order = [st["min_total"], st["p50"], st["p95"], st["p99"], st["max_total"]]
        if any(b < a for a, b in zip(order, order[1:])):
            problems.append(f"{name}: min <= p50 <= p95 <= p99 <= max fails: {order}")
        if not close(st["mean_total"] * st["n_sites"], st["population_total"]):
            problems.append(f"{name}: mean x count != total")
    for name, totals in expected.items():
        st = archetypes.get(name)
        if st is None:
            problems.append(f"{name}: archetype missing")
            continue
        for key, want in (
            ("population_total", float(totals.sum())),
            ("min_total", float(totals.min())),
            ("max_total", float(totals.max())),
        ):
            if not close(st[key], want):
                problems.append(f"{name}: {key} {st[key]!r} != recomputed {want!r}")
    return problems


# -- serve -------------------------------------------------------------------


def post_tender_totals(
    load_names: Sequence[str], seed: int, days: int, peak_mw: float
) -> Tuple[str, Dict[str, float]]:
    """(contract name, load name -> total) of the catalog's fixed-tariff-only
    contract, recomputed from regenerated catalog loads."""
    import numpy as np

    from repro.analysis.scenarios import synthetic_sc_load
    from repro.contracts.tariff_library import swiss_post_tender

    contract = swiss_post_tender("svc")
    (tariff,) = contract.components
    out = {}
    for name in load_names:
        i = int(name[len("site"):])
        load = synthetic_sc_load(peak_mw, n_days=days, interval_s=900.0, seed=seed + i)
        out[name] = float(np.sum(load.values_kw) * 0.25 * tariff.rate_per_kwh)
    return contract.name, out


def serve_responses(
    requests: Mapping[int, Tuple[str, str]],
    responses: Sequence[Mapping],
    fixed_contract: str,
    fixed_totals: Mapping[str, float],
) -> List[str]:
    """Every request answered once, ok, self-consistent and, for the
    fixed-tariff contract, equal to the recomputed total.  At most one
    problem per request, so the count of problems is the count of failed
    requests."""
    problems = []
    seen = set()
    for resp in responses:
        rid = resp.get("id")
        if rid in seen:
            problems.append(f"request {rid}: answered twice")
            continue
        seen.add(rid)
        if rid not in requests:
            problems.append(f"response to unknown request {rid!r}")
            continue
        problem = _bill_problem(resp, *requests[rid], fixed_contract, fixed_totals)
        if problem:
            problems.append(f"request {rid}: {problem}")
    problems += [f"request {rid}: never answered" for rid in set(requests) - seen]
    return problems


def _bill_problem(resp, contract, load, fixed_contract, fixed_totals):
    if resp.get("ok") is not True:
        return f"not ok: {resp.get('error')}"
    bill = resp["result"]
    if bill.get("contract") != contract:
        return f"contract {bill.get('contract')!r} != {contract!r}"
    total = bill["total"]
    if not math.isfinite(total):
        return f"total {total!r}"
    if not close(total, math.fsum(bill["component_totals"].values())):
        return "total != sum of component_totals"
    if not close(total, math.fsum(bill["domain_totals"].values())):
        return "total != sum of domain_totals"
    if contract == fixed_contract and not close(total, fixed_totals[load]):
        return f"{total!r} != recomputed {fixed_totals[load]!r}"
    return None


# -- sweep -------------------------------------------------------------------


def read_journal(path: str) -> Tuple[Dict, List[Dict]]:
    """(header, item records) of a ``repro-journal-v1`` file, parsed here."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records or records[0].get("kind") != "header":
        return {}, records
    return records[0], [r for r in records[1:] if r.get("kind") == "item"]


def sweep_round(
    results: Sequence,
    journal_path: str,
    dropout_rates: Sequence[float],
    loss_rates: Sequence[float],
) -> List[str]:
    """Check one journaled sweep against its journal and the method."""
    problems = []
    for r in results:
        if not r.ok:
            problems.append(f"{r.scenario.name}: failed {r.failed_invariants()}")
        if r.scenario.dropout_rate == 0.0 and r.estimated_total != r.true_total:
            problems.append(f"{r.scenario.name}: estimated != true at dropout 0")
    by_loss: Dict[float, set] = {}
    for r in results:
        by_loss.setdefault(r.scenario.signal_loss_probability, set()).add(r.true_total)
    for loss, totals in by_loss.items():
        if len(totals) != 1:
            problems.append(f"loss {loss}: true_total differs across dropout rates")
    n_points = len(dropout_rates) * len(loss_rates)
    if len(results) != n_points:
        problems.append(f"{len(results)} results for {n_points} points")
    header, items = read_journal(journal_path)
    if header.get("format") != "repro-journal-v1" or header.get("n_items") != n_points:
        problems.append(f"journal header wrong: {header}")
    indices = [rec.get("index") for rec in items]
    if sorted(indices) != list(range(n_points)):
        problems.append(f"journal holds indices {sorted(indices)}, not one per point")
    for rec in items:
        i = rec.get("index")
        if not isinstance(i, int) or not 0 <= i < len(results):
            continue
        try:  # the journal was written by this process's own sweep
            got = pickle.loads(base64.b64decode(rec["result"]))
        except (ValueError, pickle.UnpicklingError, EOFError) as exc:
            problems.append(f"journal record {i} does not decode: {exc}")
            continue
        want = results[i]
        if (got.scenario.name, got.true_total, got.estimated_total) != (
            want.scenario.name, want.true_total, want.estimated_total
        ):
            problems.append(f"journal record {i} does not match the returned result")
    return problems
