"""The three workloads: what each generates and what one rep of it runs.

A rep replays one CLI invocation through the library calls that
``cli.cmd_train`` / ``cli.cmd_parse`` make, in the same order. Every rep of
a run sees the same files, so every rep must produce the same digests.
"""
from __future__ import annotations

import math
import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from jamoparse import data, hangul, model_io, parser
from jamoparse.encoder import UnitConfig
from jamoparse.parser import TrainSettings

from . import checks
from .gen import Corpus, CorpusSpec, Generator, write_conllu, write_embeddings

#: Default tier sizes (jamo/char/word/encoder) and scorer hidden size.
CONFIG = UnitConfig()
HIDDEN_DIM = 100
EMBEDDING_WORDS = 20000
#: Every run makes at least this many reps, whatever ``--seconds`` says.
MIN_REPS = 3
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "parse"
    why: str
    #: Word types the Zipfian corpora draw from.
    types: CorpusSpec
    #: Timed input: the training treebank, or the corpus to parse.
    main: CorpusSpec
    #: Train: held-out sentences parsed after training. Parse: the treebank
    #: that fixes the model's vocabulary (the model is not trained).
    extra: CorpusSpec

    @property
    def latency_sentences(self) -> int:
        return (self.extra if self.kind == "train" else self.main).sentences

    @property
    def tail_percentile(self) -> float:
        """Highest ladder percentile with at least ten sentences beyond it."""
        n = self.latency_sentences
        return next(p for p in TAIL_LADDER if n * (1 - p / 100) >= 10 - 1e-9)

    def describe(self) -> dict:
        return {"kind": self.kind, "types": asdict(self.types), "main": asdict(self.main),
                "extra": asdict(self.extra), "config": CONFIG.to_dict(),
                "hidden_dim": HIDDEN_DIM, "embedding_words": EMBEDDING_WORDS,
                "dtype": "float64", "optimizer": "adam", "min_reps": MIN_REPS}


_TREEBANK = dict(min_len=3, max_len=25, mean_len=11.0, zipf_s=1.1)
_PARSE_TYPES = CorpusSpec(sentences=0, types=5000, latin_frac=0.01, **_TREEBANK)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-bigvocab", kind="train",
        why="the only writer: forward, backward, clip and Adam over a 20k-word store "
            "on every update, where nn and autograd do most of their work",
        types=CorpusSpec(sentences=0, types=2000, **_TREEBANK),
        # short, so that a run holds about ten reps: ten timings of every
        # held-out sentence and ten training windows
        main=CorpusSpec(sentences=12, types=2000, **_TREEBANK),
        extra=CorpusSpec(sentences=40, types=2000, **_TREEBANK)),
    Workload(
        name="parse-zipf", kind="parse",
        why="read-only treebank-like traffic, most forms repeat, so the char tier "
            "dominates encode and a word-vector memo or graph-free parse shows",
        types=_PARSE_TYPES,
        main=CorpusSpec(sentences=200, types=5000, latin_frac=0.01, **_TREEBANK),
        extra=CorpusSpec(sentences=600, types=5000, latin_frac=0.01, **_TREEBANK)),
    Workload(
        name="parse-long-rare", kind="parse",
        why="40-80-token sentences of new, mostly out-of-vocabulary words: bypasses "
            "any per-form memo and stresses long sequences and UNK fallbacks",
        types=_PARSE_TYPES,
        main=CorpusSpec(sentences=40, min_len=40, max_len=80, mean_len=56.0, zipf_s=0.0,
                        syllables=(3, 4, 5, 6), latin_frac=0.05),
        extra=CorpusSpec(sentences=600, types=5000, latin_frac=0.01, **_TREEBANK)),
)}


def to_conllu_sentences(corpus: Corpus) -> list[data.ConlluSentence]:
    return [data.ConlluSentence([data.Token(f, h, l)
                                 for f, h, l in zip(s.forms, s.heads, s.labels)])
            for s in corpus.sentences]


def prepare(workload: Workload, seed: int, out: str) -> None:
    """Write the workload's inputs for ``seed`` into directory ``out``.

    Train: train.conllu, heldout.conllu (forms only), embeddings.txt.
    Parse: model.bin (seeded initialisation, vocabulary of a generated
    treebank plus the embedding words) and input.conllu (forms only).
    """
    gen = Generator(seed)
    types = gen.word_types(workload.types.types, workload.types.syllables,
                           workload.types.latin_frac)
    if workload.kind == "train":
        train = gen.corpus(workload.main, types)
        heldout = gen.corpus(workload.extra, types)
        rows = gen.embeddings(types, EMBEDDING_WORDS, CONFIG.dim_word, workload.types.syllables)
        write_conllu(train, os.path.join(out, "train.conllu"))
        write_conllu(heldout, os.path.join(out, "heldout.conllu"), gold=False)
        write_embeddings(rows, os.path.join(out, "embeddings.txt"))
        return
    treebank = gen.corpus(workload.extra, types)
    rows = gen.embeddings(treebank.types(), EMBEDDING_WORDS, CONFIG.dim_word,
                          workload.types.syllables)
    vectors = {word: np.array(vector) for word, vector in rows}
    # zero epochs: the public training entry point, returning the seeded init
    result = parser.train(to_conllu_sentences(treebank), None, CONFIG,
                          TrainSettings(epochs=0, seed=seed, hidden_dim=HIDDEN_DIM),
                          embedding_vectors=vectors)
    model_io.save_model(model_io.TrainedModel.from_training(result),
                        os.path.join(out, "model.bin"))
    corpus = gen.corpus(workload.main, types if workload.main.zipf_s > 0 else None)
    write_conllu(corpus, os.path.join(out, "input.conllu"), gold=False)


@dataclass
class Rep:
    """What one rep measured and checked."""

    traced: bool
    setup_s: float = 0.0
    timed_s: float = 0.0
    #: parse_sentence latency of each sentence, in file order.
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    #: Phase ("train", "parse") -> tokens processed in it; the phase named
    #: after the workload's kind is the timed one. Then facts for the traced
    #: metrics.
    phase_tokens: dict[str, int] = field(default_factory=dict)
    facts: dict[str, float] = field(default_factory=dict)


def _parse_all(model, sentences, tracer, rep: Rep, out: str) -> list:
    """Parse and write like ``cmd_parse``; returns (forms, prediction or None) pairs."""
    pairs = []
    for sentence in sentences:
        if tracer is not None:
            tracer.sentence += 1
        forms = sentence.forms
        start = time.perf_counter()
        try:
            predicted = model.parse_sentence(forms)
        except Exception as exc:  # a sentence that raises counts as failed
            predicted = None
            rep.problems.append("parse raised %s: %s" % (type(exc).__name__, exc))
        rep.latencies_ms.append(1e3 * (time.perf_counter() - start))
        pairs.append((forms, predicted))
    data.write_conllu([p for _, p in pairs if p is not None], out)
    return pairs


def check_parse(model, pairs, out: str, rep: Rep) -> None:
    labels = set(model.label_vocab.tokens)
    done = [p for _, p in pairs if p is not None]
    written = iter(checks.readback_problems(
        [[(t.form, t.head, t.label) for t in p.tokens] for p in done], out))
    rep.attempted += len(pairs)
    for forms, predicted in pairs:
        if predicted is None:
            rep.failed += 1
            continue
        tokens = predicted.tokens
        readback = next(written)
        problem = checks.tree_problem(forms, [t.form for t in tokens], [t.head for t in tokens],
                                      [t.label for t in tokens], labels) or readback
        if problem:
            rep.failed += 1
            rep.problems.append(problem)
    rep.digests["parse_output_sha256"] = checks.file_digest(out)


def _unk_rates(model, forms: list[str]) -> dict[str, float]:
    """Share of lookups that fall back to UNK, per vocabulary tier."""
    words = chars = jamo = 0
    n_chars = n_jamo = 0
    for form in forms:
        words += form not in model.word_vocab
        for char in form:
            n_chars += 1
            chars += char not in model.char_vocab
            triple = hangul.decompose(char)
            units = (char,) if triple is None else tuple(triple)
            n_jamo += len(units)
            jamo += sum(unit not in model.jamo_vocab for unit in units)
    return {"vocab.word_unk_rate": words / len(forms), "vocab.char_unk_rate": chars / n_chars,
            "vocab.jamo_unk_rate": jamo / n_jamo,
            "data.distinct_form_ratio": len(set(forms)) / len(forms)}


def _facts(model, forms: list[str], model_path: str) -> dict[str, float]:
    facts = _unk_rates(model, forms)
    facts["nn.param_count"] = float(model.store.count())
    facts["model_io.file_mb"] = os.path.getsize(model_path) / 1e6
    return facts


def train_rep(files: dict[str, str], tracer, scratch: str, seed: int) -> Rep:
    rep = Rep(traced=tracer is not None)
    phase = tracer.span if tracer is not None else (lambda name: nullcontext())
    with phase("phase.setup"):
        start = time.perf_counter()
        sentences = data.read_conllu(files["train"])
        issues = data.validate_treebank(sentences)
        projective = [s for s in sentences if data.is_projective(s)]
        _, vectors = data.read_embeddings(files["embeddings"], expected_dim=CONFIG.dim_word)
        rep.setup_s = time.perf_counter() - start
    if issues or len(projective) != len(sentences):
        rep.problems.append("generated treebank rejected: %s" % (issues[:3] or "non-projective"))
    tokens = sum(len(s) for s in projective)
    settings = TrainSettings(epochs=1, seed=seed, hidden_dim=HIDDEN_DIM, explore_from_epoch=1)
    model_path = os.path.join(scratch, "trained.bin")
    rep.attempted += len(projective)
    try:
        with phase("phase.train"):
            start = time.perf_counter()
            result = parser.train(projective, None, CONFIG, settings, embedding_vectors=vectors)
            rep.timed_s = time.perf_counter() - start
        rep.facts["nn.optimizer_bytes_per_update"] = float(
            sum(4 * p.value.nbytes for _, p in result.store.parameters()))
        with phase("phase.save"):
            model_io.save_model(model_io.TrainedModel.from_training(result), model_path)
        with phase("phase.check"):
            named = [(name, p.value) for name, p in result.store.parameters()]
            problem = checks.training_problem([h["loss"] for h in result.history], named)
            rep.digests["trained_params_sha256"] = checks.params_digest(named)
            rep.digests["model_file_sha256"] = checks.file_digest(model_path)
            loaded = model_io.load_model(model_path)
            resaved = os.path.join(scratch, "resaved.bin")
            model_io.save_model(loaded, resaved)
            if checks.file_digest(resaved) != rep.digests["model_file_sha256"]:
                problem = problem or "save -> load -> save is not byte-identical"
    except Exception as exc:  # the rep's training sentences all count as failed
        problem = "training raised %s: %s" % (type(exc).__name__, exc)
        loaded = None
    if problem:
        rep.failed += len(projective)
        rep.problems.append(problem)
    rep.phase_tokens["train"] = tokens
    if loaded is None:
        return rep
    out = os.path.join(scratch, "heldout.pred.conllu")
    with phase("phase.parse"):
        heldout = data.read_conllu(files["heldout"], allow_missing_heads=True)
        pairs = _parse_all(loaded, heldout, tracer, rep, out)
    with phase("phase.check"):
        check_parse(loaded, pairs, out, rep)
    rep.phase_tokens["parse"] = sum(len(s) for s in heldout)
    if not rep.traced:
        rep.facts.update(_facts(loaded, [f for s in heldout for f in s.forms], model_path))
        rep.facts["data.distinct_form_ratio"] = (
            len({f for s in projective for f in s.forms}) / tokens)
    return rep


def parse_rep(files: dict[str, str], tracer, scratch: str, seed: int) -> Rep:
    rep = Rep(traced=tracer is not None)
    phase = tracer.span if tracer is not None else (lambda name: nullcontext())
    out = os.path.join(scratch, "pred.conllu")
    with phase("phase.setup"):
        start = time.perf_counter()
        model = model_io.load_model(files["model"])
        sentences = data.read_conllu(files["input"], allow_missing_heads=True)
        rep.setup_s = time.perf_counter() - start
    with phase("phase.parse"):
        start = time.perf_counter()
        pairs = _parse_all(model, sentences, tracer, rep, out)
        rep.timed_s = time.perf_counter() - start
    with phase("phase.check"):
        check_parse(model, pairs, out, rep)
    rep.phase_tokens["parse"] = sum(len(s) for s in sentences)
    if not rep.traced:
        rep.facts.update(_facts(model, [f for s in sentences for f in s.forms], files["model"]))
    return rep


def run_rep(workload: Workload, files, tracer, scratch: str, seed: int) -> Rep:
    body = train_rep if workload.kind == "train" else parse_rep
    return body(files, tracer, scratch, seed)


def input_files(workload: Workload, directory: str) -> dict[str, str]:
    names = (("train", "train.conllu"), ("heldout", "heldout.conllu"),
             ("embeddings", "embeddings.txt")) if workload.kind == "train" else (
             ("model", "model.bin"), ("input", "input.conllu"))
    return {key: os.path.join(directory, name) for key, name in names}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]
