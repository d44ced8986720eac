"""Span tracer installed around lightcodes' public functions from outside.

The benchmark measures each layer by timing calls into that layer's public
functions; nothing inside the package changes.  ``install`` replaces each
traced function in every lightcodes namespace that holds it, so a name
imported with ``from .x import f`` is traced as well as the definition.
Hot functions that are cheap per call (rank, unrank, neighbor_ranks,
q_count) get a counter instead of a span.

Spans are kept in memory and written when the job ends.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LEARNERS = ("ridge", "knn", "order-direction", "constant", "parity", "random-orientation")
MC_LEARNERS = ("ridge", "knn", "order-direction")


class Tracer:
    """Spans of one process: (name, start, end, parent span index or -1)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []  # open spans: [index, name, parent, start, child time]
        self.agg: dict = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts: dict = defaultdict(int)
        self.active: dict = defaultdict(int)  # name -> open spans of that name

    def open(self, name: str) -> None:
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1][0] if self.stack else -1
        self.active[name] += 1
        self.stack.append([index, name, parent, time.perf_counter(), 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        index, name, parent, start, child = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][4] += duration
        self.spans[index] = (name, start, end, parent)
        entry = self.agg[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        self.active[name] -= 1

    def summary(self) -> dict:
        durations = defaultdict(list)
        for name, start, end, _ in self.spans:
            if name.startswith("lpocv.mc_null_pvalue."):
                durations[name].append(end - start)
        return {"agg": dict(self.agg), "counts": dict(self.counts), "durations": dict(durations)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _span(tracer: Tracer, name, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``name`` may be a function of the call's args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        tracer.open(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(result)
        return result

    return wrapper


def _counter(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _generator(tracer: Tracer, name: str, item_key: str, fn):
    """Time a generator's own work: one span per ``next`` call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close()
            tracer.counts[item_key] += 1
            yield item

    return wrapper


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _replace(original, wrapper) -> None:
    """Point every lightcodes namespace that holds ``original`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if modname != "lightcodes" and not modname.startswith("lightcodes."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Install spans and counters around the traced lightcodes functions."""
    import numpy as np

    from lightcodes import (bounds, cli, codes, datagen, experiments, johnson,
                            learners, lpocv, wilcoxon, words)

    labels = {
        learners.RidgeLearner: "ridge",
        learners.KnnLearner: "knn",
        learners.OrderDirectionLearner: "order-direction",
        learners.ConstantLearner: "constant",
        learners.ParityLearner: "parity",
        learners.RandomOrientationLearner: "random-orientation",
    }
    counts = tracer.counts

    def span(fn, name, before=None, after=None):
        _replace(fn, _span(tracer, name, fn, before, after))

    span(words.enumerate_words, "words.enumerate_words")
    _replace(words.iter_words,
             _generator(tracer, "words.iter_words", "words.iter_words.words", words.iter_words))
    _replace(words.rank, _counter(tracer, "words.rank.calls", words.rank))
    _replace(words.unrank, _counter(tracer, "words.unrank.calls", words.unrank))

    def feasibility_call(args, kwargs):
        g, W = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "W")
        if tracer.active["codes.exact_L"]:
            counts["codes.exact_L.nodes"] += 1
        if 0 < len(g.edges) and len(g.edges) > W * len(g.vertices):
            counts["johnson.orientation_feasible.density_pruned"] += 1

    def feasibility_result(result):
        if result[0]:
            counts["johnson.orientation_feasible.feasible"] += 1

    span(johnson.orientation_feasible, "johnson.orientation_feasible",
         feasibility_call, feasibility_result)
    span(johnson.build_induced, "johnson.build_induced")
    span(johnson.eulerian_orientation, "johnson.eulerian_orientation")
    johnson.JohnsonGraph.neighbor_ranks = _counter(
        tracer, "johnson.neighbor_ranks.calls", johnson.JohnsonGraph.neighbor_ranks)

    span(codes.exact_L, "codes.exact_L")
    span(codes.tau_classes, "codes.tau_classes")
    span(codes.verify_light, "codes.verify_light")
    span(bounds.assemble_table, "bounds.assemble_table")
    span(bounds.lightcode_critical, "bounds.lightcode_critical")
    span(wilcoxon.wmw_critical, "wilcoxon.wmw_critical")
    _replace(wilcoxon.q_count, _counter(tracer, "wilcoxon.q_count.calls", wilcoxon.q_count))

    span(learners.bit_matrix, "learners.bit_matrix")
    for cls, label in labels.items():
        def labeling_counts(args, kwargs, label=label):
            data, labs = _arg(args, kwargs, 1, "data"), _arg(args, kwargs, 2, "labelings")
            n = data.n
            if isinstance(labs, np.ndarray):
                ones = np.atleast_2d(labs).sum(axis=1, dtype=np.int64)
                rows, pairs = len(ones), int((ones * (n - ones)).sum())
            else:
                rows, pairs = len(labs), sum(lab.w * (n - lab.w) for lab in labs)
            counts[f"learners.{label}.labelings"] += rows
            counts[f"learners.{label}.pair_predictions"] += pairs

        # Looked up through the class so an inherited error_counts is wrapped too.
        cls.error_counts = _span(tracer, f"learners.{label}.error_counts",
                                 cls.error_counts, labeling_counts)

    def draws(args, kwargs):
        counts["lpocv.sample_labelings.draws"] += _arg(args, kwargs, 2, "count")

    span(lpocv.sample_labelings, "lpocv.sample_labelings", draws)
    span(lpocv.mc_null_pvalue, lambda args: f"lpocv.mc_null_pvalue.{labels[type(args[0])]}")
    span(lpocv.exact_null_distribution, "lpocv.exact_null_distribution")
    span(datagen.generate_data, "datagen.generate_data")

    def reps(args, kwargs):
        counts["experiments.replicate_error_counts.reps"] += _arg(args, kwargs, 4, "reps")

    span(experiments.replicate_error_counts, "experiments.replicate_error_counts", reps)
    span(cli.main, "cli.main")


def merge(summaries) -> dict:
    """Sum job summaries into one workload summary."""
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(int)
    durations = defaultdict(list)
    for summary in summaries:
        for name, (calls, total, self_time) in summary["agg"].items():
            entry = agg[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time
        for name, value in summary["counts"].items():
            counts[name] += value
        for name, values in summary["durations"].items():
            durations[name].extend(values)
    return {"agg": agg, "counts": counts, "durations": durations}


def _median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def layer_metrics(summary: dict, overhead_ratio: float) -> dict:
    """Per-layer metric values from a merged workload summary."""
    agg, counts = summary["agg"], summary["counts"]

    def calls(name):
        return agg[name][0] if name in agg else 0

    def total(name):
        return agg[name][1] if name in agg else 0.0

    def self_s(name):
        return agg[name][2] if name in agg else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    feasible = "johnson.orientation_feasible"
    m = {
        "words.iter_words.words": counts.get("words.iter_words.words", 0),
        "words.iter_words.s": total("words.iter_words"),
        "words.enumerate_words.s": total("words.enumerate_words"),
        "words.rank.calls": counts.get("words.rank.calls", 0),
        "words.unrank.calls": counts.get("words.unrank.calls", 0),
        f"{feasible}.calls": calls(feasible),
        f"{feasible}.s": total(feasible),
        f"{feasible}.feasible_ratio": ratio(counts.get(f"{feasible}.feasible", 0), calls(feasible)),
        f"{feasible}.density_pruned_ratio":
            ratio(counts.get(f"{feasible}.density_pruned", 0), calls(feasible)),
        "johnson.neighbor_ranks.calls": counts.get("johnson.neighbor_ranks.calls", 0),
        "johnson.build_induced.s": total("johnson.build_induced"),
        "johnson.eulerian_orientation.s": total("johnson.eulerian_orientation"),
        "codes.exact_L.s": total("codes.exact_L"),
        "codes.exact_L.self_s": self_s("codes.exact_L"),
        "codes.exact_L.nodes": counts.get("codes.exact_L.nodes", 0),
        "codes.exact_L.nodes_per_s":
            ratio(counts.get("codes.exact_L.nodes", 0), total("codes.exact_L")),
        "codes.tau_classes.s": total("codes.tau_classes"),
        "codes.verify_light.s": total("codes.verify_light"),
        "bounds.assemble_table.self_s": self_s("bounds.assemble_table"),
        "bounds.lightcode_critical.s": total("bounds.lightcode_critical"),
        "wilcoxon.wmw_critical.s": total("wilcoxon.wmw_critical"),
        "wilcoxon.wmw_critical.calls": calls("wilcoxon.wmw_critical"),
        "wilcoxon.q_count.calls": counts.get("wilcoxon.q_count.calls", 0),
        "learners.bit_matrix.s": total("learners.bit_matrix"),
        "lpocv.sample_labelings.s": total("lpocv.sample_labelings"),
        "lpocv.sample_labelings.draws_per_s":
            ratio(counts.get("lpocv.sample_labelings.draws", 0), total("lpocv.sample_labelings")),
        "lpocv.mc_null_pvalue.self_s":
            sum(self_s(f"lpocv.mc_null_pvalue.{label}") for label in LEARNERS),
        "lpocv.exact_null_distribution.self_s": self_s("lpocv.exact_null_distribution"),
        "datagen.generate_data.calls": calls("datagen.generate_data"),
        "datagen.generate_data.s": total("datagen.generate_data"),
        "experiments.replicate_error_counts.reps":
            counts.get("experiments.replicate_error_counts.reps", 0),
        "experiments.replicate_error_counts.self_s": self_s("experiments.replicate_error_counts"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for label in LEARNERS:
        key = f"learners.{label}"
        pairs = counts.get(f"{key}.pair_predictions", 0)
        m[f"{key}.error_counts.s"] = total(f"{key}.error_counts")
        m[f"{key}.labelings"] = counts.get(f"{key}.labelings", 0)
        m[f"{key}.pair_predictions"] = pairs
        m[f"{key}.pair_predictions_per_s"] = ratio(pairs, total(f"{key}.error_counts"))
    for label in MC_LEARNERS:
        durations = summary["durations"].get(f"lpocv.mc_null_pvalue.{label}", [])
        m[f"lpocv.mc_null_pvalue.{label}.p50_ms"] = 1000 * _median(durations)
    return m
