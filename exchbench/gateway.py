"""The ``gateway`` workload: a closed loop over loopback HTTP.

An in-process gateway (:class:`repro.gateway.GatewayThread`) serves one
client driven from an asyncio loop in the main thread.  The client
repeats one cycle: a JSON exchange and a streamed (``application/xml``)
exchange of the same medium document at the same seed, then an edit
script (a seeded retitle or ``update-call``) against its own live
session on a larger document opened at set-up.  A client sends its next
request only when the previous reply has been read.

Checks: JSON and streamed replies equal the library path at the same
seed byte for byte; every edit reply equals the enforced document the
benchmark assembles from its own model of the edited source, with each
``Get_Temp`` replaced by the gateway's sampled answer; and the last edit
reply of the session equals a full library re-enforcement of the edited
document.  Every checked output also passes the ``re`` label checker.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import time
import tracemalloc
from typing import Dict, List, Optional, Tuple

from exchbench import inputs, labels, layers
from exchbench.library import (ERROR, MIB, MIN_EDITS, OK, ROUTES, WRONG, Tally, end_to_end, settle,
                               setup)
from exchbench.trace import REQUEST, ContextPool, Recorder, quantile

#: Medium documents (articles each) cycled by the exchange routes.
MEDIUM_ARTICLES = 16
MEDIUM_DOCS = 16
#: Articles of each client's live edit session.
SESSION_ARTICLES = 120
#: One client: with two, each request shared the process with whatever
#: request the other client had in flight, and ``json_p50_ms`` spread 18%
#: and 40% (interquartile distance over the median) in two sets of ten
#: runs of the same code.
CLIENTS = 1
SENDER, RECEIVER = "alice", "bob"
OBLIGATIONS = ("Get_Temp", "TimeOut")


class Inputs:
    """Everything the clients send, generated from the seed."""

    def __init__(self, seed: int):
        from repro.xschema.writer import schema_to_xschema

        rng = random.Random("gateway|%d" % seed)
        self.sender, self.receiver = inputs.magazine_schemas()
        self.sender_xsd = schema_to_xschema(self.sender)
        self.receiver_xsd = schema_to_xschema(self.receiver)
        self.medium: List[Tuple[str, int]] = []
        for _ in range(MEDIUM_DOCS):
            fields = [inputs.article_fields(rng, rng) for _ in range(MEDIUM_ARTICLES)]
            self.medium.append((source_xml(fields), rng.randrange(1 << 30)))
        self.sessions = []
        for _ in range(CLIENTS):
            fields = [inputs.article_fields(rng, rng) for _ in range(SESSION_ARTICLES)]
            self.sessions.append((fields, rng.randrange(1 << 30)))
        self.edit_seed = rng.randrange(1 << 30)


def source_xml(fields) -> str:
    return inputs.document_xml("magazine", [inputs.article_lines(f) for f in fields])


class SessionModel(inputs.EditModel):
    """A client's model of its session: each ``Get_Temp`` becomes the
    answer the gateway's per-call seeded sampler gives for it."""

    def __init__(self, fields, seed: int, sender):
        from repro.gateway.invoke import sampling_invoker

        self.seed = seed
        self.sampler = sampling_invoker(sender, seed)
        self.last_reply: Optional[str] = None
        super().__init__("magazine", fields, self.render_article, inputs.article_edit)

    def render_article(self, article) -> List[str]:
        from repro.doc.builder import call, el

        (temp,) = self.sampler(call("Get_Temp", el("city", article[2]),
                                    endpoint=inputs.FORECAST_URL, namespace=inputs.FORECAST_NS))
        return inputs.article_lines(article, temp.children[0].value)


def library_path(sender, receiver, xml: str, seed: int, cache=None) -> str:
    """The enforcement the gateway must reproduce, without HTTP."""
    from repro.axml.enforcement import SchemaEnforcer
    from repro.doc.document import Document
    from repro.gateway.invoke import sampling_invoker
    from repro.schema.patterns import allow_only

    outcome = SchemaEnforcer(target_schema=receiver, sender_schema=sender, k=1,
                             policy=allow_only(OBLIGATIONS), compile_cache=cache).enforce_document(
        Document.from_xml(xml), sampling_invoker(sender, seed))
    if not outcome.ok:
        raise RuntimeError("library path failed: %s" % outcome.error)
    return outcome.document.to_xml()


class StreamConnection:
    """A keep-alive connection for the streamed route (chunked replies
    with trailers, which :class:`GatewayClient` does not read)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def exchange(self, query: str, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        self.writer.write((
            "POST /exchange?%s HTTP/1.1\r\nHost: %s:%d\r\nContent-Type: application/xml\r\n"
            "Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
            % (query, self.host, self.port, len(body))).encode("latin-1") + body)
        await self.writer.drain()
        head = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        status = int(head[0].split(" ", 2)[1])
        headers = {}
        for line in head[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        trailers: Dict[str, str] = {}
        if headers.get("transfer-encoding", "").lower() != "chunked":
            body = await self.reader.readexactly(int(headers.get("content-length", "0")))
        else:
            parts = []
            while True:
                size = int((await self.reader.readuntil(b"\r\n")).split(b";", 1)[0], 16)
                if size == 0:
                    break
                parts.append((await self.reader.readexactly(size + 2))[:-2])
            while True:
                line = (await self.reader.readuntil(b"\r\n")).decode("latin-1")
                if line == "\r\n":
                    break
                name, _, value = line.partition(":")
                trailers[name.strip().lower()] = value.strip()
            body = b"".join(parts)
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, body, trailers

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = self.reader = None


class Served:
    """A started gateway with registered peers and one open session per
    client."""

    def __init__(self, data: Inputs):
        from repro.gateway import GatewayConfig, GatewayThread

        self.data = data
        self.harness = GatewayThread(GatewayConfig())
        self.harness.start()
        try:
            asyncio.run(self._register())
        except BaseException:
            self.harness.stop()
            raise

    async def _register(self) -> None:
        from repro.gateway import GatewayClient

        client = GatewayClient(self.harness.host, self.harness.port)
        try:
            for name, xsd, obligations in ((SENDER, self.data.sender_xsd, OBLIGATIONS),
                                           (RECEIVER, self.data.receiver_xsd, ())):
                reply = await client.register_peer(name, xsd, obligations=obligations)
                if reply.status != 201:
                    raise RuntimeError("peer registration failed: %r" % reply.body[:200])
            for client_id, (fields, seed) in enumerate(self.data.sessions):
                reply = await client.open_session(SENDER, RECEIVER, "session-%d" % client_id,
                                                  source_xml(fields), seed=seed)
                if reply.status != 200 or not reply.json()["accepted"]:
                    raise RuntimeError("session open failed: %r" % reply.body[:200])
        finally:
            await client.close()

    def stop(self) -> None:
        self.harness.stop()


class Clients:
    """The clients' shared state: what to send and what to expect."""

    def __init__(self, served: Served, expected: List[str], models: List[SessionModel]):
        self.served = served
        self.expected = expected
        self.models = models
        self.rid = 0
        self.cycles = [0] * CLIENTS
        self.rngs = [random.Random("edits|%d|%d" % (served.data.edit_seed, client))
                     for client in range(CLIENTS)]

    def next_rid(self) -> int:
        self.rid += 1
        return self.rid

    async def json(self, client, index: int, tally: Tally, recorder=None) -> None:
        xml, seed = self.served.data.medium[index]
        rid = self.next_rid()
        started = time.perf_counter()
        reply = await client.post_json("/exchange?rid=%d" % rid, {
            "sender": SENDER, "receiver": RECEIVER, "document": xml, "seed": seed})
        ended = time.perf_counter()
        if reply.status != 200:
            status = ERROR
        else:
            body = reply.json()
            status = OK if body["accepted"] and body["document"] == self.expected[index] else WRONG
        tally.sent["json"] += len(xml.encode("utf-8"))
        self.note(tally, "json", started, ended, status, rid, recorder)

    async def stream(self, connection: StreamConnection, index: int, tally: Tally,
                     recorder=None) -> None:
        xml, seed = self.served.data.medium[index]
        rid = self.next_rid()
        started = time.perf_counter()
        code, body, trailers = await connection.exchange(
            "sender=%s&receiver=%s&seed=%d&rid=%d" % (SENDER, RECEIVER, seed, rid),
            xml.encode("utf-8"))
        ended = time.perf_counter()
        if code != 200 or trailers.get("x-repro-ok") != "true":
            status = ERROR
        else:
            status = OK if body.decode("utf-8") == self.expected[index] else WRONG
        tally.sent["stream"] += len(xml.encode("utf-8"))
        self.note(tally, "stream", started, ended, status, rid, recorder)

    async def edit(self, client, client_id: int, tally: Tally, recorder=None) -> None:
        from repro.incremental.edits import script_to_json

        model = self.models[client_id]
        _index, edit = model.edit(self.rngs[client_id])
        rid = self.next_rid()
        started = time.perf_counter()
        reply = await client.post_json("/exchange?rid=%d" % rid, {
            "sender": SENDER, "receiver": RECEIVER,
            "document_id": "session-%d" % client_id, "edits": script_to_json([edit])})
        ended = time.perf_counter()
        if reply.status != 200:
            status = ERROR
        else:
            body = reply.json()
            status = OK if body["accepted"] and body["document"] == model.expected() else WRONG
            model.last_reply = body["document"]
            tally.reuse[0] += body["reuse"]["nodes_reanalyzed"]
            tally.reuse[1] += body["reuse"]["nodes_reused"]
        self.note(tally, "edit", started, ended, status, rid, recorder)

    @staticmethod
    def note(tally: Tally, route: str, started: float, ended: float, status: str, rid: int,
             recorder: Optional[Recorder]) -> None:
        tally.record(route, ended - started, status)
        if recorder is not None:
            recorder.flat("client." + route, started, ended, rid)

    def medium_index(self, client_id: int) -> int:
        return (self.cycles[client_id] * CLIENTS + client_id) % MEDIUM_DOCS

    async def drive(self, seconds: float, tally: Tally, recorder=None,
                    min_edits: int = MIN_EDITS) -> float:
        """The clients' cycles until ``seconds`` have passed and enough
        edits were made; returns the wall time from the first request to
        the last reply."""
        from repro.gateway import GatewayClient

        host, port = self.served.harness.host, self.served.harness.port

        async def client(client_id: int) -> None:
            json_client = GatewayClient(host, port)
            connection = StreamConnection(host, port)
            try:
                while True:
                    index = self.medium_index(client_id)
                    await self.json(json_client, index, tally, recorder)
                    await self.stream(connection, index, tally, recorder)
                    await self.edit(json_client, client_id, tally, recorder)
                    self.cycles[client_id] += 1
                    tally.rounds_done += 1
                    if tally.enough(started, seconds, min_edits):
                        return
            finally:
                await json_client.close()
                await connection.close()

        started = time.perf_counter()
        await asyncio.gather(*(client(i) for i in range(CLIENTS)))
        return time.perf_counter() - started

    async def one(self, route: str, tally: Tally) -> None:
        """One request of a route on fresh connections (peak passes)."""
        from repro.gateway import GatewayClient

        host, port = self.served.harness.host, self.served.harness.port
        if route == "json":
            client = GatewayClient(host, port)
            try:
                await self.json(client, 0, tally)
            finally:
                await client.close()
        else:
            connection = StreamConnection(host, port)
            try:
                await self.stream(connection, 0, tally)
            finally:
                await connection.close()


def prepare_checks(data: Inputs) -> List[str]:
    """Expected replies of the exchange routes: the library path, which
    must pass the label checker."""
    expected = []
    for xml, seed in data.medium:
        output = library_path(data.sender, data.receiver, xml, seed)
        misfit = labels.check(output, labels.MAGAZINE)
        if misfit:
            raise RuntimeError("library path output misfits its content models: %s" % misfit)
        expected.append(output)
    return expected


def session_models(data: Inputs) -> List[SessionModel]:
    """The clients' models, trusted as the edit route's oracle only after
    they match the library path on the opened documents."""
    models = []
    for fields, seed in data.sessions:
        model = SessionModel(fields, seed, data.sender)
        if model.expected() != library_path(data.sender, data.receiver, source_xml(fields), seed):
            raise RuntimeError("assembled session document differs from the library path")
        models.append(model)
    return models


def session_status(data: Inputs, model: SessionModel) -> str:
    """The last edit reply against a full library re-enforcement of the
    edited source, and against the label checker."""
    if model.last_reply is None:
        return ERROR
    full = library_path(data.sender, data.receiver, source_xml(model.fields), model.seed)
    right = model.last_reply == full and labels.check(full, labels.MAGAZINE) is None
    return OK if right else WRONG


def peak(clients: Clients, route: str, tally: Tally) -> float:
    """tracemalloc peak of one request, client and gateway together."""
    gc.collect()
    tracemalloc.start()
    try:
        asyncio.run(clients.one(route, tally))
        _current, top = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return top / MIB


def pin() -> None:
    """Keep this thread, and every thread it starts later (the gateway's
    loop and pool), on one CPU: the last one the process may use.

    A request wakes three threads in turn (gateway loop, pool worker,
    loop again) and then the client.  Left free to run on either of the
    machine's two virtual CPUs, two sets of ten runs of the same code,
    one after the other, gave a median ``json_p50_ms`` of 37.7 ms and
    27.2 ms, while the single-threaded library workloads moved less than
    4% between the same two sets.  The Python work of all these threads
    is serialized by the GIL, so one CPU is enough for it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(_name: str, seed: int, seconds: float, trace: bool) -> dict:
    pin()
    served, setup_s = setup(lambda: Served(Inputs(seed)), Served.stop)
    untimed = Tally()
    try:
        data = served.data
        clients = Clients(served, prepare_checks(data), session_models(data))
        settle()
        if trace:
            plain, traced, recorder, figures = run_traced(clients, seconds)
        else:
            tally = Tally()
            window = asyncio.run(clients.drive(seconds, tally))
            peaks = (peak(clients, "json", untimed), peak(clients, "stream", untimed))
    finally:
        served.stop()
    for model in clients.models:
        untimed.count(session_status(data, model))
    if trace:
        layers.write_trace(recorder, "gateway")
        return traced.result(layers.printed(figures), plain, untimed)
    return tally.result(end_to_end(tally, setup_s, window, peaks), untimed)


def run_traced(clients: Clients, seconds: float) -> tuple:
    """The traced quarters (:func:`layers.traced_run`), each request with
    its id on every span it causes."""
    from repro.gateway import service
    from repro.gateway.service import Gateway

    dispatch = Gateway._dispatch
    sampler = service.sampling_invoker
    gateway = clients.served.harness.gateway

    async def tagged(self, request):
        token = REQUEST.set(int(request.query.get("rid", "0")))
        try:
            return await dispatch(self, request)
        finally:
            REQUEST.reset(token)

    def patch(recorder: Recorder) -> None:
        recorder.patch(service, "validate", "schema.revalidate")
        recorder.replace(Gateway, "_dispatch", tagged)
        recorder.replace(service, "sampling_invoker", lambda schema, seed: recorder.timed(
            "services.invoke", sampler(schema, seed)))
        recorder.replace(gateway, "_pool", ContextPool(gateway._pool))

    def drive(quarter: float, tally: Tally, recorder: Optional[Recorder]) -> float:
        return asyncio.run(clients.drive(quarter, tally, recorder, min_edits=0))

    return layers.traced_run(seconds, drive, lambda: compile_probe(clients.served.data),
                             lambda: gateway.compile_cache, patch, gateway_layers)


def compile_probe(data: Inputs) -> Tuple[float, float]:
    """(cold, warm) seconds of the library path on the first medium
    document, the cold one from an empty compilation cache."""
    from repro.compile.cache import CompilationCache

    cache = CompilationCache()
    xml, seed = data.medium[0]
    started = time.perf_counter()
    library_path(data.sender, data.receiver, xml, seed, cache)
    cold = time.perf_counter() - started
    started = time.perf_counter()
    library_path(data.sender, data.receiver, xml, seed, cache)
    return cold, time.perf_counter() - started


def gateway_layers(recorder: Recorder, since: float, traced: Tally) -> Dict[str, float]:
    """Server-side enforcement and reply re-validation per request, from
    spans carrying the request id, and what the client saw beyond them."""
    enforce_span = {"axml.enforce_document": "json", "stream.enforce": "stream",
                    "incremental.apply": "edit"}
    revalidate = ("doc.serialize", "doc.parse", "schema.revalidate")
    enforce: Dict[str, Dict[int, float]] = {route: {} for route in ROUTES}
    loop_time: Dict[int, float] = {}
    for _sid, name, start, end, parent, rid, thread in recorder.spans(since):
        if not rid:
            continue
        if name in enforce_span:
            route = enforce_span[name]
            enforce[route][rid] = enforce[route].get(rid, 0.0) + (end - start)
        if name in revalidate and thread == "gateway-loop" and not parent:
            loop_time[rid] = loop_time.get(rid, 0.0) + (end - start)
    figures = {}
    for route in ROUTES:
        enforce_ms = quantile(list(enforce[route].values()), 0.5) * 1e3
        revalidate_ms = 0.0
        if route != "stream":
            revalidate_ms = quantile([loop_time.get(rid, 0.0) for rid in enforce[route]], 0.5) * 1e3
            figures["gateway.revalidate_ms.%s" % route] = revalidate_ms
        figures["gateway.enforce_ms.%s" % route] = enforce_ms
        client_ms = quantile(traced.latency[route], 0.5) * 1e3
        figures["gateway.overhead_ms.%s" % route] = client_ms - enforce_ms - revalidate_ms
    return figures
