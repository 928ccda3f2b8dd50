"""The pricing server process of the serve workloads.

Runs the same :class:`~repro.service.server.ContractPricingServer` with
the same settings as ``python -m repro serve`` (2 ms batch window, 256
max batch, 1024 max pending, no rate limit), over
:func:`~repro.service.catalog.default_catalog` built from the benchmark
seed, which the CLI cannot take.  It prints JSON event lines on stdout:
``imported`` and ``listening`` while starting, ``exit`` (with its
high-water RSS) after the ``shutdown`` op has drained it.

With ``--trace 1`` it first patches the service layers' entry points
with span wrappers and, on exit, pickles the spans to ``--spans``.

Usage: python3 perfbench/server_main.py --sites N --days D --seed S
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import pickle
import threading

from common import emit, now, peak_rss_mb, use_source_tree
from tracing import Tracer

#: Request id of the frame the current asyncio task is handling.
_RID: contextvars.ContextVar = contextvars.ContextVar("rid", default=None)


def instrument(tracer: Tracer, catalog) -> None:
    """Span wrappers around the service layers, from outside the program."""
    from repro.contracts import billing
    from repro.contracts.billing import BillingEngine
    from repro.contracts.settlement import SettlementPlan
    from repro.exceptions import AdmissionError
    from repro.service import batching, server
    from repro.service.admission import AdmissionController
    from repro.service.batching import MicroBatcher

    begin, end, counts = tracer.begin, tracer.end, tracer.counts
    parse_frame = server.parse_frame

    def traced_parse(line):
        token = begin()
        rid = None
        try:
            parsed = parse_frame(line)
            rid = parsed[0]
            _RID.set(rid)
            return parsed
        finally:
            end(token, "service.resilience.parse_frame", rid)

    tracer.patch(server, "parse_frame", traced_parse)

    admit = AdmissionController.admit

    def traced_admit(self):
        token = begin()
        try:
            return admit(self)
        except AdmissionError:
            counts["service.admission.rejected"] += 1
            raise
        finally:
            end(token, "service.admission.admit", _RID.get())

    tracer.patch(AdmissionController, "admit", traced_admit)

    future_rid = {}
    price = MicroBatcher.price

    def traced_price(self, contract, load, detail="summary"):
        future = price(self, contract, load, detail)
        future_rid[future] = _RID.get()
        return future

    tracer.patch(MicroBatcher, "price", traced_price)

    # Which request an encode_bill call serves: (contract, load) -> rids
    # of the batch being settled; bill_many names the current load.
    pricing = threading.local()
    load_names = {id(catalog.load(n)): n for n in catalog.load_names()}
    settle_batch = MicroBatcher._settle_batch

    def traced_settle(self, batch):
        token = begin()
        by_pair, rids = {}, []
        for pending in batch:
            rid = future_rid.pop(pending.future, None)
            by_pair.setdefault((pending.contract, pending.load), []).append(rid)
            rids.append(rid)
            tracer.waits.append(
                ("service.batching.queue_wait", pending.enqueued_at, token[2], rid)
            )
        pricing.by_pair = by_pair
        counts["service.batching.batches"] += 1
        counts["service.batching.requests"] += len(batch)
        try:
            return settle_batch(self, batch)
        finally:
            end(token, "service.batching.settle", tuple(rids))

    tracer.patch(MicroBatcher, "_settle_batch", traced_settle)

    bill_many = BillingEngine.bill_many

    def traced_bill_many(self, contracts, load, *args, **kwargs):
        token = begin()
        pricing.load = load_names.get(id(load))
        try:
            return bill_many(self, contracts, load, *args, **kwargs)
        finally:
            end(token, "contracts.billing.bill_many", pricing.load)

    tracer.patch(BillingEngine, "bill_many", traced_bill_many)

    encode_bill = batching.encode_bill

    def traced_encode(bill, detail="summary"):
        token = begin()
        try:
            return encode_bill(bill, detail)
        finally:
            rids = pricing.by_pair.get((bill.contract.name, pricing.load))
            end(token, "service.batching.encode", rids.pop(0) if rids else None)

    tracer.patch(batching, "encode_bill", traced_encode)

    settlement_for = SettlementPlan.settlement_for

    def counted_settlement_for(self, contract, context):
        found = settlement_for(self, contract, context)
        counts["settlement.memo.hit" if found is not None else "settlement.memo.miss"] += 1
        return found

    tracer.patch(SettlementPlan, "settlement_for", counted_settlement_for)

    plan_for = billing.plan_for

    def counted_plan_for(load, periods):
        counts["settlement.plan.lookup"] += 1
        return plan_for(load, periods)

    tracer.patch(billing, "plan_for", counted_plan_for)
    plan_init = SettlementPlan.__init__

    def counted_plan_init(self, load, periods):
        counts["settlement.plan.built"] += 1
        plan_init(self, load, periods)

    tracer.patch(SettlementPlan, "__init__", counted_plan_init)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="pickle the spans here on exit")
    args = parser.parse_args()

    use_source_tree()
    from repro.service.admission import AdmissionPolicy
    from repro.service.catalog import default_catalog
    from repro.service.server import ContractPricingServer

    emit("imported", t=now())
    tracer = Tracer() if args.trace else None

    async def run() -> None:
        catalog = default_catalog(
            n_sites=args.sites, days=args.days, seed=args.seed, price_seed=args.seed
        )
        if tracer is not None:
            instrument(tracer, catalog)
        server = ContractPricingServer(
            catalog,
            port=0,
            window_s=0.002,
            max_batch=256,
            admission=AdmissionPolicy(max_pending=1024),
        )
        await server.start()
        host, port = server.address
        emit("listening", host=host, port=port, t=now())
        await server.wait_stopped()
        await server.stop()

    asyncio.run(run())
    if tracer is not None:
        tracer.restore()
        with open(args.spans, "wb") as fh:
            pickle.dump(
                {"spans": tracer.spans, "waits": tracer.waits, "counts": dict(tracer.counts)},
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
    emit("exit", peak_rss_mb=peak_rss_mb())


if __name__ == "__main__":
    main()
