"""Spans around the program's layer entry points, installed from outside.

A traced rep patches each entry point listed in ENTRY_POINTS with a wrapper
that records a span: name, start, end, parent span and sentence id. Spans
stay in memory until the run ends. A function imported by name into another
module (``parser`` does ``from .autograd import backward``) is patched in
every ``jamoparse`` module that holds it, so the wrapper sits at each call
site; a method is patched on its class.
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: span name -> dotted path of the entry point, named where the program calls it.
ENTRY_POINTS = {
    "parser.train": "jamoparse.parser.train",
    "parser.training_pass": "jamoparse.parser.sentence_training_pass",
    "parser.greedy_parse": "jamoparse.parser.greedy_parse",
    "parser.scores": "jamoparse.parser.TransitionScorer.scores",
    "transition.costs": "jamoparse.transition.transition_costs",
    "autograd.backward": "jamoparse.parser.backward",
    "nn.clip": "jamoparse.parser.clip_gradients",
    "nn.adam_step": "jamoparse.nn.Adam.step",
    "nn.zero_grad": "jamoparse.nn.ParameterStore.zero_gradients",
    "nn.lstm_step": "jamoparse.nn.LSTMCell.step",
    "encoder.encode": "jamoparse.encoder.SentenceEncoder.encode",
    "encoder.word_repr": "jamoparse.encoder.SentenceEncoder.word_repr",
    "encoder.char_repr": "jamoparse.encoder.SentenceEncoder.char_repr",
    "hangul.decompose": "jamoparse.hangul.decompose",
    "model_io.load": "jamoparse.model_io.load_model",
    "model_io.save": "jamoparse.model_io.save_model",
    "data.read_conllu": "jamoparse.data.read_conllu",
    "data.write_conllu": "jamoparse.data.write_conllu",
    "data.read_embeddings": "jamoparse.data.read_embeddings",
}

#: Entry points every workload reaches; training workloads reach the rest too.
REQUIRED_ALWAYS = ("parser.greedy_parse", "parser.scores", "nn.lstm_step", "encoder.encode",
                   "encoder.word_repr", "encoder.char_repr", "hangul.decompose",
                   "model_io.load", "data.read_conllu", "data.write_conllu")
REQUIRED_TRAIN = ("parser.train", "parser.training_pass", "transition.costs",
                  "autograd.backward", "nn.clip", "nn.adam_step", "nn.zero_grad",
                  "model_io.save", "data.read_embeddings")

#: Metric -> the span names its value is computed from.
LAYER_SOURCES = {
    "hangul.decompose_calls_per_tok": ("hangul.decompose",),
    "hangul.decompose_ms_per_tok": ("hangul.decompose",),
    "encoder.encode_ms_per_tok": ("encoder.encode",),
    "encoder.word_repr_ms_per_tok": ("encoder.word_repr",),
    "encoder.char_repr_ms_per_tok": ("encoder.char_repr",),
    "encoder.word_repr_calls_per_tok": ("encoder.word_repr",),
    "encoder.sentence_ms_per_tok": ("encoder.encode", "encoder.word_repr"),
    "nn.lstm_step_calls_per_tok": ("nn.lstm_step",),
    "nn.lstm_step_ms_per_tok": ("nn.lstm_step",),
    "nn.adam_step_ms_per_update": ("nn.adam_step", "nn.zero_grad"),
    "nn.zero_grad_ms_per_update": ("nn.zero_grad", "nn.adam_step"),
    "nn.clip_ms_per_update": ("nn.clip", "nn.adam_step"),
    "autograd.backward_ms_per_tok": ("autograd.backward",),
    "autograd.graph_nodes_per_tok": ("autograd.backward",),
    "transition.costs_calls_per_tok": ("transition.costs",),
    "transition.costs_ms_per_tok": ("transition.costs",),
    "parser.training_pass_ms_per_tok": ("parser.training_pass",),
    "parser.scores_ms_per_transition": ("parser.scores",),
    "parser.scores_calls_per_tok": ("parser.scores",),
    "parser.decode_ms_per_tok": ("parser.greedy_parse",),
    "parser.update_ratio": ("parser.training_pass",),
    "parser.violations_per_tok": ("parser.training_pass",),
    "model_io.load_s": ("model_io.load",),
    "model_io.save_s": ("model_io.save",),
    "data.read_conllu_ms_per_sent": ("data.read_conllu",),
    "data.write_conllu_ms_per_sent": ("data.write_conllu",),
    "data.read_embeddings_s": ("data.read_embeddings",),
    "traced.uncovered_ms_per_tok": ("parser.train",),
}


def _resolve(path: str):
    """(owner, attribute name, object) for a dotted path, or None if absent."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        target = getattr(owner, parts[-1], None)
        return None if target is None else (owner, parts[-1], target)
    return None


def count_graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, sentence]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.sentence = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.sentence]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # hooks that count work where it happens

    def _new_sentence(self, args) -> None:
        self.sentence += 1

    def _training_pass_done(self, args, result) -> None:
        loss = result[0]
        self.counters["training_passes"] += 1
        if loss is not None:
            self.counters["passes_with_loss"] += 1
            # the loss is the sum node over one hinge term per violation
            self.counters["violations"] += len(loss.parents) if loss.parents else 1

    def _count_graph(self, args) -> None:
        with self.span("trace.graph_count"):
            self.counters["graph_nodes"] += count_graph_nodes(args[0])

    def _read_done(self, args, result) -> None:
        self.counters["read_conllu_sentences"] += len(result)

    def _write_start(self, args) -> None:
        self.counters["write_conllu_sentences"] += len(args[0])

    def install(self) -> None:
        hooks = {
            "parser.training_pass": (self._new_sentence, self._training_pass_done),
            "autograd.backward": (self._count_graph, None),
            "data.read_conllu": (None, self._read_done),
            "data.write_conllu": (self._write_start, None),
        }
        self.missing = []
        for name, path in ENTRY_POINTS.items():
            found = _resolve(path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(module, key) for module_name, module in list(sys.modules.items())
                         if module_name.split(".")[0] == "jamoparse"
                         for key, value in vars(module).items() if value is original]
            for site, key in sites:
                self._patched.append((site, key, getattr(site, key)))
                setattr(site, key, wrapper)

    def coverage(self, train: bool) -> tuple[set[str], list[str]]:
        """Entry points whose metrics may be reported, and what went wrong.

        An entry point missing from the program, or required on this
        workload and never called, is left out and reported as a problem.
        """
        required = set(REQUIRED_ALWAYS) | (set(REQUIRED_TRAIN) if train else set())
        called = {span[0] for span in self.spans}
        problems = ["entry point %s is missing from the program" % name for name in self.missing]
        problems += ["entry point %s was never called" % name
                     for name in sorted(required - called - set(self.missing))]
        available = {name for name in ENTRY_POINTS if name not in self.missing
                     and (name in called or name not in required)}
        return available, problems

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patched):
            setattr(site, key, original)
        self._patched.clear()


def summarize(spans: list[list]) -> dict:
    """Per (phase, span name): [calls, inclusive seconds, self seconds, durations].

    A span's phase is that of its nearest ``phase.*`` ancestor; self time is
    its duration minus the time its direct children cover.
    """
    child = [0.0] * len(spans)
    phase: list[str | None] = [None] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name.startswith("phase."):
            phase[i] = name[len("phase."):]
        elif parent >= 0:
            phase[i] = phase[parent]
        if parent >= 0:
            child[parent] += end - start
    stats: dict = defaultdict(lambda: [0, 0.0, 0.0, []])
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = stats[(phase[i], name)]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[i]
        entry[3].append(end - start)
    return stats


def layer_metrics(stats: dict, main: str, tokens: dict[str, int], updates_bytes: int,
                  counters: Counter, reached: set[str]) -> dict[str, float]:
    """Per-layer metrics from summarized spans.

    ``main`` is the workload's timed phase ("train" or "parse"); ``tokens``
    maps phase -> tokens processed in it over all traced reps. A layer the
    workload does not reach by design reads 0. Metrics whose entry point is
    not in ``reached`` are left out, never reported as 0.
    """

    def get(phase, name, field):
        return stats[(phase, name)][field] if (phase, name) in stats else 0

    def across(name, field):
        return sum(v[field] for (p, n), v in stats.items() if n == name)

    def durations(name):
        return [d for (p, n), v in stats.items() if n == name for d in v[3]]

    def ratio(num, den):
        return num / den if den else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    main_tok = tokens.get(main, 0)
    train_tok, parse_tok = tokens.get("train", 0), tokens.get("parse", 0)
    updates = get("train", "nn.adam_step", 0)
    ms = 1e3
    values = {
        "hangul.decompose_calls_per_tok": ratio(get(main, "hangul.decompose", 0), main_tok),
        "hangul.decompose_ms_per_tok": ratio(ms * get(main, "hangul.decompose", 1), main_tok),
        "encoder.encode_ms_per_tok": ratio(ms * get(main, "encoder.encode", 1), main_tok),
        "encoder.word_repr_ms_per_tok": ratio(ms * get(main, "encoder.word_repr", 1), main_tok),
        "encoder.char_repr_ms_per_tok": ratio(ms * get(main, "encoder.char_repr", 1), main_tok),
        "encoder.word_repr_calls_per_tok": ratio(get(main, "encoder.word_repr", 0), main_tok),
        "encoder.sentence_ms_per_tok": ratio(
            ms * (get(main, "encoder.encode", 1) - get(main, "encoder.word_repr", 1)), main_tok),
        "nn.lstm_step_calls_per_tok": ratio(get(main, "nn.lstm_step", 0), main_tok),
        "nn.lstm_step_ms_per_tok": ratio(ms * get(main, "nn.lstm_step", 1), main_tok),
        "nn.adam_step_ms_per_update": ratio(ms * get("train", "nn.adam_step", 2), updates),
        "nn.zero_grad_ms_per_update": ratio(ms * get("train", "nn.zero_grad", 1), updates),
        "nn.clip_ms_per_update": ratio(ms * get("train", "nn.clip", 1), updates),
        "nn.optimizer_bytes_per_update": float(updates_bytes) if updates else 0.0,
        "autograd.backward_ms_per_tok": ratio(ms * get("train", "autograd.backward", 1), train_tok),
        "autograd.graph_nodes_per_tok": ratio(counters["graph_nodes"], train_tok),
        "transition.costs_calls_per_tok": ratio(get("train", "transition.costs", 0), train_tok),
        "transition.costs_ms_per_tok": ratio(ms * get("train", "transition.costs", 1), train_tok),
        "parser.training_pass_ms_per_tok": ratio(
            ms * get("train", "parser.training_pass", 1), train_tok),
        "parser.scores_ms_per_transition": ratio(
            ms * get(main, "parser.scores", 1), get(main, "parser.scores", 0)),
        "parser.scores_calls_per_tok": ratio(get(main, "parser.scores", 0), main_tok),
        "parser.decode_ms_per_tok": ratio(ms * get("parse", "parser.greedy_parse", 2), parse_tok),
        "parser.update_ratio": ratio(counters["passes_with_loss"], counters["training_passes"]),
        "parser.violations_per_tok": ratio(counters["violations"], train_tok),
        "model_io.load_s": median(durations("model_io.load")),
        "model_io.save_s": median(durations("model_io.save")),
        "data.read_conllu_ms_per_sent": ratio(
            ms * across("data.read_conllu", 1), counters["read_conllu_sentences"]),
        "data.write_conllu_ms_per_sent": ratio(
            ms * across("data.write_conllu", 1), counters["write_conllu_sentences"]),
        "data.read_embeddings_s": median(durations("data.read_embeddings")),
        # main-phase time outside every layer span: the phase's own self time
        # plus, for training, the self time of parser.train
        "traced.uncovered_ms_per_tok": ratio(
            ms * (get(main, "phase." + main, 2) + get(main, "parser.train", 2)), main_tok),
    }
    return {name: value for name, value in values.items()
            if all(source in reached for source in LAYER_SOURCES.get(name, ()))}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_ms_per_tok"):
        return "ms/tok"
    if metric.endswith("_ms_per_update"):
        return "ms/update"
    if metric.endswith("_ms_per_transition"):
        return "ms/transition"
    if metric.endswith("_ms_per_sent"):
        return "ms/sent"
    if metric.endswith("_per_tok"):
        return "count/tok"
    if metric.endswith("_per_update"):
        return "bytes/update"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_count"):
        return "count"
    return "ratio"


def write_spans(spans: list[list], path) -> None:
    """Tab-separated name, start, end, parent index, sentence id; one span a line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("name\tstart\tend\tparent\tsentence\n")
        for name, start, end, parent, sentence in spans:
            handle.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (name, start, end, parent, sentence))
