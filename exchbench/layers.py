"""Traced-mode instrumentation: which program calls become which spans.

Every wrapper is installed on a public function or method for the traced
part of a run and removed afterwards; untraced runs never install them.
Counts come from the program's own metrics registry
(``repro_analysis_cache_total``, ``repro_product_nodes`` and the
``repro_work_total`` work counters, summed over every label such as
``core`` so they survive a change of automata core).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

from exchbench.trace import Recorder

#: Every per-layer metric with its unit, in the order printed.  Times
#: are shares of the traced window (seconds busy per second); counts are
#: per round (one DOM pass, one streamed pass and the round's edits, or
#: one gateway client cycle), except the incremental ones, per edit.
PER_LAYER = (
    ("doc.parse_s", "s/s"), ("doc.serialize_s", "s/s"),
    ("schema.verify_s", "s/s"), ("schema.post_validate_s", "s/s"),
    ("axml.self_s", "s/s"),
    ("rewriting.rewrite_s", "s/s"), ("rewriting.analyze_s", "s/s"),
    ("rewriting.execute_s", "s/s"), ("rewriting.words", "count/round"),
    ("rewriting.analyses", "count/round"), ("rewriting.product_nodes", "count/round"),
    ("rewriting.analysis_hit_ratio", "ratio"),
    ("automata.game_pops", "count/round"), ("automata.product_states", "count/round"),
    ("compile.cold_s", "s"), ("compile.builds", "count"), ("compile.hit_ratio", "ratio"),
    ("services.invoke_s", "s/s"), ("services.calls", "count/round"),
    ("stream.enforce_s", "s/s"), ("stream.self_s", "s/s"), ("stream.sink_s", "s/s"),
    ("incremental.apply_ms", "ms"), ("incremental.nodes_reanalyzed", "count/edit"),
    ("incremental.nodes_reused", "count/edit"),
    ("gateway.enforce_ms.json", "ms"), ("gateway.enforce_ms.stream", "ms"),
    ("gateway.enforce_ms.edit", "ms"),
    ("gateway.revalidate_ms.json", "ms"), ("gateway.revalidate_ms.edit", "ms"),
    ("gateway.overhead_ms.json", "ms"), ("gateway.overhead_ms.stream", "ms"),
    ("gateway.overhead_ms.edit", "ms"),
    ("trace.round_s", "s"), ("trace.overhead_pct", "%"),
)

REWRITING = ("rewriting.rewrite", "rewriting.rewrite_forest")


def instrument(recorder: Recorder) -> None:
    """Wrap the library layers' public entry points in spans."""
    from repro.axml import enforcement
    from repro.axml.enforcement import SchemaEnforcer
    from repro.doc.document import Document
    from repro.incremental.session import EnforcementSession
    from repro.rewriting import engine
    from repro.rewriting.engine import RewriteEngine

    recorder.patch(Document, "from_xml", "doc.parse")
    recorder.patch(Document, "to_xml", "doc.serialize")
    recorder.patch(enforcement, "is_instance", "schema.verify")
    recorder.patch(enforcement, "validate", "schema.post_validate")
    recorder.patch(SchemaEnforcer, "enforce_document", "axml.enforce_document")
    recorder.patch(SchemaEnforcer, "enforce_stream", "stream.enforce")
    recorder.patch(RewriteEngine, "rewrite", "rewriting.rewrite", skip_inside=REWRITING)
    recorder.patch(RewriteEngine, "rewrite_forest", "rewriting.rewrite_forest",
                   skip_inside=REWRITING)
    recorder.patch(engine, "analyze_safe_lazy", "rewriting.analyze")
    recorder.patch(engine, "analyze_safe", "rewriting.analyze")
    recorder.patch(engine, "execute_safe", "rewriting.execute")
    recorder.patch(EnforcementSession, "apply", "incremental.apply")


def counters(registry) -> Dict[str, float]:
    """The program's own work counts, summed over every label."""
    out = {"words": 0.0, "analyses": 0.0, "product_nodes": 0.0,
           "game_pops": 0.0, "product_states": 0.0, "compile_builds": 0.0}
    cache = registry.get("repro_analysis_cache_total")
    if cache is not None:
        for sample, value in cache.samples():
            out["words"] += value
            if 'outcome="miss"' in sample:
                out["analyses"] += value
    nodes = registry.get("repro_product_nodes")
    if nodes is not None:
        for sample, value in nodes.samples():
            if sample.startswith("repro_product_nodes_sum"):
                out["product_nodes"] += value
    work = registry.get("repro_work_total")
    if work is not None:
        for sample, value in work.samples():
            if 'stage="game"' in sample and '_pops"' in sample:
                out["game_pops"] += value
            if 'counter="product_states"' in sample or (
                    'stage="game"' in sample and 'counter="product_nodes"' in sample):
                out["product_states"] += value
            if 'stage="compile"' in sample and 'counter="builds"' in sample:
                out["compile_builds"] += value
    return out


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def add(total: Dict[str, float], more: Dict[str, float]) -> Dict[str, float]:
    return {key: total.get(key, 0.0) + more[key] for key in more}


def figures(recorder: Recorder, since: float, window: float, rounds: int,
            work: Dict[str, float]) -> Dict[str, float]:
    """The per-layer figures every workload shares; every other metric
    starts at 0, which reads "this layer did no work here"."""
    from exchbench.trace import quantile

    total, own, count = recorder.totals(since)
    share = 1.0 / window
    per = 1.0 / max(rounds, 1)
    words = work["words"]
    out = {name: 0.0 for name, _unit in PER_LAYER}
    applies = [end - start for _sid, name, start, end, _parent, _rid, _thread
               in recorder.spans(since) if name == "incremental.apply"]
    out.update({
        "doc.parse_s": total["doc.parse"] * share,
        "doc.serialize_s": total["doc.serialize"] * share,
        "schema.verify_s": total["schema.verify"] * share,
        "schema.post_validate_s": total["schema.post_validate"] * share,
        "axml.self_s": own["axml.enforce_document"] * share,
        "rewriting.rewrite_s": (total["rewriting.rewrite"] + total["rewriting.rewrite_forest"]) * share,
        "rewriting.analyze_s": total["rewriting.analyze"] * share,
        "rewriting.execute_s": total["rewriting.execute"] * share,
        "rewriting.words": words * per,
        "rewriting.analyses": work["analyses"] * per,
        "rewriting.product_nodes": work["product_nodes"] * per,
        "rewriting.analysis_hit_ratio": (words - work["analyses"]) / words if words else 0.0,
        "automata.game_pops": work["game_pops"] * per,
        "automata.product_states": work["product_states"] * per,
        "services.invoke_s": total["services.invoke"] * share,
        "services.calls": count["services.invoke"] * per,
        "stream.enforce_s": total["stream.enforce"] * share,
        "stream.self_s": own["stream.enforce"] * share,
        "stream.sink_s": total["stream.sink"] * share,
        "incremental.apply_ms": quantile(applies, 0.5) * 1e3,
        "trace.round_s": window * per,
    })
    return out


def traced_run(seconds: float, drive: Callable, probe: Callable[[], Tuple[float, float]],
               cache: Callable, patch: Callable[[Recorder], None],
               extra: Callable = lambda recorder, since, traced: {}) -> tuple:
    """Untraced and traced quarters of ``seconds`` in turn, so the
    machine's drift falls on both alike; per-layer figures per round of
    the traced quarters.

    ``drive(seconds, tally, recorder)`` runs whole rounds for ``seconds``
    (``recorder`` is None in untraced quarters) and returns the wall time
    they took.  ``probe()`` returns the (cold, warm) seconds of one
    enforcement, the cold one on an empty compilation cache; ``cache()``
    is the compilation cache the rounds use; ``patch(recorder)`` installs
    the workload's own wrappers beside :func:`instrument`;
    ``extra(recorder, since, traced)`` gives the workload's own figures
    from the spans that started at ``since``.  Returns the untraced and
    traced tallies, the recorder and the figures."""
    from repro.obs.context import observing
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import NULL_TRACER

    from exchbench.library import Tally

    plain, traced = Tally(), Tally()
    recorder = Recorder()
    registry = MetricsRegistry()
    plain_window, window, work, hits, lookups = 0.0, 0.0, {}, 0, 0
    since = None
    for quarter in range(4):
        if quarter % 2 == 0:
            plain_window += drive(seconds / 4, plain, None)
            continue
        instrument(recorder)
        patch(recorder)
        try:
            with observing(NULL_TRACER, registry):
                if since is None:
                    before = counters(registry)["compile_builds"]
                    cold, warm = probe()
                    builds = counters(registry)["compile_builds"] - before
                    since = time.perf_counter()
                before, cache_before = counters(registry), cache().stats()
                window += drive(seconds / 4, traced, recorder)
                work = add(work, delta(counters(registry), before))
                cache_after = cache().stats()
                hits += cache_after.hits - cache_before.hits
                lookups += (cache_after.hits + cache_after.misses
                            - cache_before.hits - cache_before.misses)
        finally:
            recorder.restore()
    out = figures(recorder, since, window, traced.rounds_done, work)
    edits = max(len(traced.latency["edit"]), 1)
    out.update({
        "compile.cold_s": cold - warm,
        "compile.builds": builds,
        "compile.hit_ratio": hits / lookups if lookups else 0.0,
        "incremental.nodes_reanalyzed": traced.reuse[0] / edits,
        "incremental.nodes_reused": traced.reuse[1] / edits,
        "trace.overhead_pct": (window / traced.rounds_done
                               / (plain_window / plain.rounds_done) - 1.0) * 100.0,
    })
    out.update(extra(recorder, since, traced))
    return plain, traced, recorder, out


def printed(figures: Dict[str, float]) -> Dict[str, tuple]:
    return {name: (figures[name], unit) for name, unit in PER_LAYER}


def write_trace(recorder: Recorder, workload: str) -> None:
    """Every span of the run, one JSON object a line, to
    ``exchbench/traces/<workload>.jsonl``."""
    import os

    directory = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traces")
    os.makedirs(directory, exist_ok=True)
    recorder.write_jsonl(os.path.join(directory, "%s.jsonl" % workload))
