"""The ``magazine`` and ``digest`` workloads: the library without HTTP.

A run repeats whole rounds until ``--seconds`` have passed.  One round
is one DOM enforcement of the generated document (parse, verify,
rewrite, post-validate, serialize), one streamed enforcement of it into
a hashing sink, and ``EDITS`` edit scripts applied to a live
``EnforcementSession`` on a smaller document of the same kind, opened at
set-up.  Every operation is checked against what the generator
expects; throughput is taken over all rounds.  Untraced runs then
measure the tracemalloc peak of one DOM and one streamed pass, untimed,
in two child processes at once (``peak.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Tuple, TypeVar

from exchbench import inputs, labels, layers
from exchbench.trace import quantile

MIB = float(1 << 20)
CHUNK = 1 << 16
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: Edit scripts per round, and the size of the edited session document.
EDITS = 80
#: A run ends only after this many edits, so ``edit_p95_ms`` always has
#: at least ten samples beyond it.
MIN_EDITS = 200
SESSION_UNITS = {"magazine": 600, "digest": 20}
ROUTES = ("json", "stream", "edit")
#: How one operation ended: as expected, with an error the program
#: reported, or with output that fails a check (a wrong answer).
OK, ERROR, WRONG = "ok", "error", "wrong"
T = TypeVar("T")


class HashSink:
    """A write sink that keeps a digest and a byte count, never the bytes."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.length = 0

    def write(self, chunk: str) -> None:
        data = chunk.encode("utf-8")
        self.digest.update(data)
        self.length += len(data)


class Library:
    """A generated document, its schemas, a warmed compilation cache and,
    with ``session``, an open edit session with the benchmark's model."""

    def __init__(self, name: str, seed: int, session: bool = True, units=None):
        from repro.compile.cache import CompilationCache

        self.name = name
        self.work = inputs.generate(name, seed, units)
        self.sender, self.receiver = self.work.kind.schemas()
        self.chunks = [self.work.xml[i:i + CHUNK] for i in range(0, len(self.work.xml), CHUNK)]
        self.expected_digest = hashlib.sha256(self.work.expected.encode("utf-8")).hexdigest()
        self.invoke: Callable = inputs.make_invoker()
        self.wrap_sink = None
        self.cache = CompilationCache()
        # Cold compile: the first enforcement on an empty cache builds
        # every automaton the workload's schemas need.
        self.sample = inputs.generate(name, seed, 4, "sample")
        self.enforce_sample()
        if session:
            self.open_session(seed)

    def enforcer(self):
        from repro.axml.enforcement import SchemaEnforcer

        return SchemaEnforcer(target_schema=self.receiver, sender_schema=self.sender,
                              k=self.work.kind.k, compile_cache=self.cache)

    def enforce_sample(self) -> float:
        from repro.doc.document import Document

        started = time.perf_counter()
        outcome = self.enforcer().enforce_document(Document.from_xml(self.sample.xml), self.invoke)
        elapsed = time.perf_counter() - started
        if not outcome.ok or outcome.document.to_xml() != self.sample.expected:
            raise RuntimeError("sample enforcement failed: %s" % outcome.error)
        return elapsed

    def open_session(self, seed: int) -> None:
        from repro.doc.document import Document

        edited = inputs.generate(self.name, seed, SESSION_UNITS[self.name], "session")
        self.session = self.enforcer().session(Document.from_xml(edited.xml), self.invoke)
        outcome = self.session.enforce()
        if not outcome.ok or outcome.document.to_xml() != edited.expected:
            raise RuntimeError("session open failed: %s" % outcome.error)
        kind = edited.kind
        self.model = inputs.EditModel(kind.root, edited.fields, kind.expected, kind.edit)
        self.edit_rng = random.Random("edits|%s|%d" % (self.name, seed))

    def dom(self) -> str:
        """One DOM pass, judged against the expected document."""
        from repro.doc.document import Document

        outcome = self.enforcer().enforce_document(Document.from_xml(self.work.xml), self.invoke)
        if not outcome.ok:
            return ERROR
        right = (outcome.document.to_xml() == self.work.expected
                 and outcome.calls_made == self.work.calls)
        return OK if right else WRONG

    def stream(self) -> str:
        """One streamed pass into a hashing sink, judged by its digest."""
        sink = HashSink()
        write = sink.write if self.wrap_sink is None else self.wrap_sink(sink.write)
        outcome = self.enforcer().enforce_stream(self.chunks, self.invoke, write)
        if not outcome.ok:
            return ERROR
        right = (sink.digest.hexdigest() == self.expected_digest
                 and sink.length == len(self.work.expected.encode("utf-8"))
                 and outcome.calls_made == self.work.calls)
        return OK if right else WRONG

    def edits(self, tally: "Tally", count: int) -> None:
        """``count`` timed edit scripts; each outcome's edited unit is
        compared with the model's (the whole document once per run)."""
        from repro.doc.xml_io import node_to_xml

        for _ in range(count):
            index, edit = self.model.edit(self.edit_rng)
            started = time.perf_counter()
            outcome = self.session.apply([edit])
            elapsed = time.perf_counter() - started
            if not outcome.ok:
                status = ERROR
            else:
                unit = node_to_xml(outcome.document.root.children[index], indent=1)
                status = OK if unit == self.model.unit_xml(index) else WRONG
                tally.reuse[0] += outcome.nodes_reanalyzed
                tally.reuse[1] += outcome.nodes_reused
            tally.record("edit", elapsed, status)

    def session_status(self) -> str:
        """The edited document as a whole against the model, and the
        label checker on it."""
        enforced = self.session.enforced
        if enforced is None:
            return ERROR
        output = enforced.to_xml()
        right = output == self.model.expected() and labels.check(output, self.models()) is None
        return OK if right else WRONG

    def models(self) -> Dict[str, str]:
        return labels.MAGAZINE if self.name == "magazine" else labels.digest_models(inputs.DIGEST_N)


def setup(make: Callable[[], T], stop: Callable[[T], None] = lambda made: None) -> Tuple[T, float]:
    """Set up ``SETUPS`` times with ``make`` (``stop`` ends each set-up
    but the last); return the last set-up and the median time."""
    times = []
    made = None
    for _ in range(SETUPS):
        if made is not None:
            stop(made)
            made = None
        gc.collect()
        started = time.perf_counter()
        made = make()
        times.append(time.perf_counter() - started)
    return made, statistics.median(times)


def settle() -> None:
    """Collect, then freeze every object set-up made (gc.freeze): later
    collections scan only what the timed operations allocate, not the
    benchmark's inputs and expected outputs.  Unfrozen, each full
    collection over them took 20 to 35 ms on the gateway workload and
    landed in whichever request it interrupted."""
    gc.collect()
    gc.freeze()


class Tally:
    """Operations attempted, how they ended, and their latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latency: Dict[str, List[float]] = {route: [] for route in ROUTES}
        self.reuse = [0, 0]  # nodes re-analyzed, nodes reused (edits)
        self.sent = {"json": 0, "stream": 0}  # input bytes per route
        self.rounds_done = 0

    def count(self, status: str) -> None:
        self.attempted += 1
        self.failed += status != OK
        self.wrong += status == WRONG

    def record(self, route: str, seconds: float, status: str) -> None:
        self.latency[route].append(seconds)
        self.count(status)

    def enough(self, started: float, seconds: float, min_edits: int) -> bool:
        return (time.perf_counter() - started >= seconds
                and len(self.latency["edit"]) >= min_edits)

    def rounds(self, library: Library, seconds: float, min_edits: int = MIN_EDITS) -> None:
        """Whole rounds until ``seconds`` have passed and ``min_edits``
        edits were made.  Half the round's edits follow each pass, so
        edit latencies are sampled across the run, not in a few bursts."""
        started = time.perf_counter()
        while True:
            for route, op in (("json", library.dom), ("stream", library.stream)):
                gc.collect()
                begun = time.perf_counter()
                status = op()
                self.record(route, time.perf_counter() - begun, status)
                self.sent[route] += library.work.nbytes
                gc.collect()
                library.edits(self, EDITS // 2)
            self.rounds_done += 1
            if self.enough(started, seconds, min_edits):
                return

    def busy(self) -> float:
        return sum(sum(samples) for samples in self.latency.values())

    def result(self, metrics: dict, *others: "Tally") -> dict:
        """The run's result: this tally's latency samples, and the
        operations of this tally and ``others`` (untimed checks)."""
        tallies = (self,) + others
        return {"attempted": sum(t.attempted for t in tallies),
                "failed": sum(t.failed for t in tallies),
                "wrong": sum(t.wrong for t in tallies),
                "metrics": metrics,
                "samples": {route: len(self.latency[route]) for route in ROUTES}}


def end_to_end(tally: Tally, setup_s: float, seconds: float, peaks: Tuple[float, float]) -> dict:
    """The end-to-end metrics every workload reports, from the tally of
    its timed operations; ``seconds`` is the time the completed
    operations are counted over."""
    latency, bytes_in = tally.latency, tally.sent
    return {
        "setup_s": (setup_s, "s"),
        "dom_mb_s": (bytes_in["json"] / MIB / sum(latency["json"]), "MB/s"),
        "stream_mb_s": (bytes_in["stream"] / MIB / sum(latency["stream"]), "MB/s"),
        "dom_peak_mib": (peaks[0], "MiB"),
        "stream_peak_mib": (peaks[1], "MiB"),
        "exchanges_s": ((tally.attempted - tally.failed) / seconds, "req/s"),
        "json_p50_ms": (quantile(latency["json"], 0.5) * 1e3, "ms"),
        "stream_p50_ms": (quantile(latency["stream"], 0.5) * 1e3, "ms"),
        "edit_p50_ms": (quantile(latency["edit"], 0.5) * 1e3, "ms"),
        "edit_p95_ms": (quantile(latency["edit"], 0.95) * 1e3, "ms"),
    }


def peaks(name: str, seed: int, tally: Tally) -> Tuple[float, float]:
    """Both peak passes at once, one child process each (``peak.py``;
    they are untimed, so running them side by side only saves time)."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "peak.py")
    children = [subprocess.Popen(
        [sys.executable, script, "--workload", name, "--seed", str(seed), "--route", route],
        stdout=subprocess.PIPE, text=True) for route in ("json", "stream")]
    results = []
    try:
        for child in children:
            output, _ = child.communicate(timeout=170)
            if child.returncode != 0:
                raise RuntimeError("peak pass exited with %d" % child.returncode)
            results.append(json.loads(output.strip().splitlines()[-1]))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    for result in results:
        tally.count(result["status"])
    return results[0]["peak_mib"], results[1]["peak_mib"]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    library, setup_s = setup(lambda: Library(name, seed))
    misfit = labels.check(library.work.expected, library.models())
    if misfit is not None:
        raise RuntimeError("expected %s document misfits its content models: %s" % (name, misfit))
    settle()
    untimed = Tally()
    if trace:
        plain, traced, recorder, figures = layers.traced_run(
            seconds, lambda quarter, tally, _recorder: timed_rounds(library, quarter, tally),
            lambda: probe(library), lambda: library.cache, lambda recorder: patch(library, recorder))
        untimed.count(library.session_status())
        layers.write_trace(recorder, name)
        return traced.result(layers.printed(figures), plain, untimed)
    tally = Tally()
    tally.rounds(library, seconds)
    untimed.count(library.session_status())
    peak_mib = peaks(name, seed, untimed)
    return tally.result(end_to_end(tally, setup_s, tally.busy(), peak_mib), untimed)


def timed_rounds(library: Library, seconds: float, tally: Tally) -> float:
    """Whole rounds for ``seconds`` (a quarter of a traced run); the
    wall time they took."""
    started = time.perf_counter()
    tally.rounds(library, seconds, min_edits=0)
    return time.perf_counter() - started


def probe(library: Library) -> Tuple[float, float]:
    """(cold, warm) seconds of the sample's enforcement; the cold one on
    a new, empty compilation cache, which the rounds then go on using."""
    from repro.compile.cache import CompilationCache

    warm = library.enforce_sample()
    library.cache = CompilationCache()
    return library.enforce_sample(), warm


def patch(library: Library, recorder) -> None:
    """The benchmark's invoker and the stream's sink in spans."""
    recorder.replace(library, "invoke", recorder.timed("services.invoke", library.invoke))
    recorder.replace(library, "wrap_sink", lambda write: recorder.timed("stream.sink", write))
