"""Workloads ``serve-fresh`` and ``serve-repeat``: a closed-loop client
against the pricing server (``server_main.py``) in its own process.

The client holds ``CONNECTIONS`` connections (at most ``nproc``), each
pipelining ``WINDOW`` ``price`` requests: a new request goes out only when
an answer comes back.  One operation is one request, and each answered
request is one bill.

* ``serve-fresh``: ``FRESH_SITES`` 28-day loads x 5 contracts; requests
  walk a seeded shuffle of the pairs, so no pair is priced twice in the
  server's life and the settled-bill memo never hits.  The run ends
  early if the catalog runs out.
* ``serve-repeat``: the default ``serve`` catalog size (8 loads x 5
  contracts); requests draw the 40 pairs at random, all of them already
  priced once during set-up, so every timed request is a memo hit.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import random
import subprocess
import sys

from common import ROOT, WORK, now, nproc
from tracing import Tracer, layer_table

DAYS = 28
PEAK_MW = 2.0  # default_catalog's facility peak
FRESH_SITES = 6000
REPEAT_SITES = 8
CONNECTIONS = max(1, min(2, nproc()))
#: In-flight requests per connection (far below the server's 1024 pending).
WINDOW = 64
#: Fresh pairs spent on warm-up, never timed.
FRESH_WARMUP = 2 * 256

ROOT_ROW = "service.server.other"


class Serve:
    """Server process, client connections, timed loop and checks."""

    def __init__(self, seed: int, fresh: bool, trace: bool) -> None:
        self.fresh = fresh
        self.sites = FRESH_SITES if fresh else REPEAT_SITES
        self.catalog_seed = seed * 10_000
        os.makedirs(WORK, exist_ok=True)
        self.spans_path = os.path.join(WORK, f"spans-{os.getpid()}.pickle")
        cmd = [
            sys.executable, os.path.join(ROOT, "perfbench", "server_main.py"),
            "--sites", str(self.sites), "--days", str(DAYS),
            "--seed", str(self.catalog_seed), "--trace", str(int(trace)),
            "--spans", self.spans_path,
        ]
        self.server = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.server_events = {}
        self._read_server_until("listening")
        self.t_imported = self.server_events["imported"]["t"]
        self.loop = asyncio.new_event_loop()
        self.conns = self.loop.run_until_complete(self._connect())
        self.contracts = self.loop.run_until_complete(self._contract_names())
        self._quoted = {c: json.dumps(c).encode() for c in self.contracts}
        pairs = [(c, f"site{i:02d}") for i in range(self.sites) for c in self.contracts]
        rng = random.Random(seed)
        self.requests, self.answers = {}, []
        if fresh:
            rng.shuffle(pairs)
            warm, timed = pairs[:FRESH_WARMUP], pairs[FRESH_WARMUP:]
            self._frames = iter(timed)
        else:
            warm = list(pairs)
            self._frames = iter(lambda: rng.choice(pairs), None)
        self._next_id = 0
        self.latencies, self.done_times = [], []
        self.loop.run_until_complete(self._drive(iter(warm), float("inf"), timed=False))

    # -- plumbing ---------------------------------------------------------

    def _read_server_until(self, event: str) -> None:
        while True:
            line = self.server.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited before {event!r}")
            msg = json.loads(line)
            self.server_events[msg["event"]] = msg
            if msg["event"] == event:
                return

    async def _connect(self):
        ev = self.server_events["listening"]
        return [
            await asyncio.open_connection(ev["host"], ev["port"], limit=1 << 20)
            for _ in range(CONNECTIONS)
        ]

    async def _contract_names(self):
        reader, writer = self.conns[0]
        writer.write(b'{"id": "catalog", "op": "catalog"}\n')
        resp = json.loads(await reader.readline())
        return [c["name"] for c in resp["result"]["contracts"]]

    def _frame(self, pairs):
        pair = next(pairs, None)
        if pair is None:
            return None
        self._next_id += 1
        rid = self._next_id
        self.requests[rid] = pair
        contract, load = pair
        return rid, b'{"id": %d, "op": "price", "params": {"contract": %s, "load": "%s"}}\n' % (
            rid, self._quoted[contract], load.encode())

    async def _drive(self, pairs, deadline: float, timed: bool) -> None:
        """Closed loop over ``pairs``: no new request after ``deadline``.

        Answers are kept as raw lines and decoded after the run; the
        server writes them with sorted keys, so each starts ``{"id": N,``.
        """
        sent = {}

        async def one(reader, writer):
            inflight = 0
            for _ in range(WINDOW):
                item = self._frame(pairs)
                if item is None:
                    break
                sent[item[0]] = now()
                writer.write(item[1])
                inflight += 1
            while inflight:
                line = await reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                t = now()
                inflight -= 1
                self.answers.append(line)
                t_sent = sent.pop(_answer_id(line), None)
                if timed:
                    if t_sent is not None:
                        self.latencies.append(t - t_sent)
                    self.done_times.append(t)
                if t < deadline:
                    item = self._frame(pairs)
                    if item is not None:
                        sent[item[0]] = now()
                        writer.write(item[1])
                        inflight += 1

        await asyncio.gather(*(one(r, w) for r, w in self.conns))

    # -- timed loop -------------------------------------------------------

    def run(self, seconds: float, tracer: Tracer = None):
        """The timed closed loop; returns its window (start, last answer).

        On ``serve-fresh`` the rest of the catalog is then priced untimed,
        so every run's server ends having priced the same pairs and its
        peak RSS does not depend on how many it priced in the window.
        """
        self.requests, self.answers = {}, []  # warm-up is not checked
        t_start = now()
        self.deadline = t_start + seconds
        self.loop.run_until_complete(self._drive(self._frames, self.deadline, timed=True))
        window = (t_start, now())
        if self.fresh:
            self.loop.run_until_complete(self._drive(self._frames, float("inf"), timed=False))
        return window

    def round_rates(self):
        """Rates of the answers received up to the deadline, split into one
        group per second of the run, each group's rate taken between the
        arrival times that bound it."""
        t0 = self.window[0]
        times = [t for t in self.done_times if t <= self.deadline]
        n = max(1, min(int(self.deadline - t0), len(times)))
        bounds = [len(times) * k // n for k in range(n + 1)]
        edges = [t0] + times
        return [
            (hi - lo) / (edges[hi] - edges[lo]) for lo, hi in zip(bounds, bounds[1:])
        ]

    def stop_server(self) -> None:
        """Drain the server with the ``shutdown`` op and wait for it."""

        async def shutdown():
            reader, writer = self.conns[0]
            writer.write(b'{"id": "shutdown", "op": "shutdown", "params": {"drain_s": 5}}\n')
            await reader.readline()
            for _r, w in self.conns:
                w.close()
                try:
                    await w.wait_closed()
                except ConnectionError:
                    pass

        self.loop.run_until_complete(shutdown())
        self.loop.close()
        self._read_server_until("exit")
        self.server.stdout.close()
        self.server.wait(timeout=60)
        self.peak_rss_mb = self.server_events["exit"]["peak_rss_mb"]

    def close(self) -> None:
        if not self.loop.is_closed():
            self.loop.close()
        if self.server.poll() is None:
            self.server.kill()
            self.server.wait()
        if os.path.exists(self.spans_path):
            os.remove(self.spans_path)

    # -- traced run -------------------------------------------------------

    def layer_metrics(self, tracer: Tracer, window, n_bills: int):
        """Per-layer metrics from the server's spans and the client's clock
        (``tracer`` is unused: the spans were recorded in the server)."""
        with open(self.spans_path, "rb") as fh:
            dump = pickle.load(fh)
        table = layer_table(dump["spans"], window, ROOT_ROW)
        w0, w1 = window
        waits = [min(t1, w1) - max(t0, w0) for _n, t0, t1, _rid in dump["waits"] if t1 > w0 and t0 < w1]
        counts = dump["counts"]
        lat = sorted(self.latencies)
        metrics = {
            "service.batching.queue_wait_s": sum(waits) / max(len(waits), 1),
            "service.batching.batch_size_mean": counts.get("service.batching.requests", 0.0)
            / max(counts.get("service.batching.batches", 0.0), 1.0),
            "service.admission.rejected": counts.get("service.admission.rejected", 0.0),
            "contracts.settlement.memo_hit_ratio": _ratio(
                counts.get("settlement.memo.hit", 0.0), counts.get("settlement.memo.miss", 0.0)
            ),
            "contracts.settlement.plan_hit_ratio": 1.0
            - counts.get("settlement.plan.built", 0.0) / max(counts.get("settlement.plan.lookup", 0.0), 1.0),
            "service.client.request_p50_ms": 1e3 * lat[len(lat) // 2],
            "service.client.request_p99_ms": 1e3 * lat[min(len(lat) - 1, int(0.99 * len(lat)))],
            "service.client.request_samples": float(len(lat)),
        }
        return table, metrics

    # -- checks -----------------------------------------------------------

    def check(self):
        """Problems found in the answers, one per failed request."""
        import checks

        fixed, totals = checks.post_tender_totals(
            sorted({load for _c, load in self.requests.values()}),
            self.catalog_seed, DAYS, PEAK_MW,
        )
        responses = [json.loads(line) for line in self.answers]
        return checks.serve_responses(self.requests, responses, fixed, totals)


def _answer_id(line: bytes):
    if line.startswith(b'{"id": '):
        return int(line[7:line.index(b",")])
    return json.loads(line).get("id")  # an error answer: "error" sorts first


def _ratio(hit: float, miss: float) -> float:
    return hit / (hit + miss) if hit + miss else 0.0

