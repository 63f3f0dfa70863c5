"""Command-line entry points: train, parse, eval, decompose, stats."""
from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import data, hangul
from .encoder import UnitConfig
from .model_io import TrainedModel, load_model, save_model
from .nn import OPTIMIZERS
from .parser import ORACLES, TrainSettings, train


def _add_dims(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dim-jamo", type=int, default=UnitConfig.dim_jamo,
                     help="jamo tier size (0 disables)")
    sub.add_argument("--dim-char", type=int, default=UnitConfig.dim_char,
                     help="character tier size (0 disables)")
    sub.add_argument("--dim-word", type=int, default=UnitConfig.dim_word,
                     help="word tier size (0 disables)")
    sub.add_argument("--dim-encoder", type=int, default=UnitConfig.dim_encoder,
                     help="total context-vector size over both directions (even)")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jamoparse",
                                     description="Jamo-level compositional dependency parser")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("train", help="train a model on a CoNLL-U treebank")
    cmd.add_argument("--train", required=True, metavar="FILE", dest="train_path")
    cmd.add_argument("--dev", metavar="FILE", help="dev treebank for per-epoch model selection")
    cmd.add_argument("--model", required=True, metavar="FILE", help="output model path")
    _add_dims(cmd)
    cmd.add_argument("--epochs", type=int, default=TrainSettings.epochs)
    cmd.add_argument("--seed", type=int, default=TrainSettings.seed)
    cmd.add_argument("--embeddings", metavar="FILE", help="pre-trained word vectors (text)")
    cmd.add_argument("--no-expand-vocab", action="store_true",
                     help="do not add embedding-file words to the vocabulary")
    cmd.add_argument("--oracle", choices=ORACLES, default=TrainSettings.oracle)
    cmd.add_argument("--optimizer", choices=OPTIMIZERS, default=TrainSettings.optimizer)
    cmd.add_argument("--learning-rate", type=float, default=TrainSettings.learning_rate)
    cmd.add_argument("--hidden-dim", type=int, default=TrainSettings.hidden_dim,
                     help="scorer hidden layer size")
    cmd.add_argument("--float32", action="store_true", help="train in 32-bit floats")
    cmd.set_defaults(func=cmd_train)

    cmd = commands.add_parser("parse", help="parse a tokenized CoNLL-U file")
    cmd.add_argument("--model", required=True, metavar="FILE")
    cmd.add_argument("--input", required=True, metavar="FILE")
    cmd.add_argument("--output", required=True, metavar="FILE")
    cmd.set_defaults(func=cmd_parse)

    cmd = commands.add_parser("eval", help="score predictions against gold")
    cmd.add_argument("--gold", required=True, metavar="FILE")
    cmd.add_argument("--pred", required=True, metavar="FILE")
    cmd.add_argument("--exclude-punct", action="store_true",
                     help="skip all-punctuation tokens")
    cmd.set_defaults(func=cmd_eval)

    cmd = commands.add_parser("decompose", help="print per-character jamo triples")
    cmd.add_argument("text", nargs="?", help="text to decompose (or use --input)")
    cmd.add_argument("--input", metavar="FILE", help="read text from a UTF-8 file")
    cmd.add_argument("--output", metavar="FILE", help="write lines here instead of stdout")
    cmd.set_defaults(func=cmd_decompose)

    cmd = commands.add_parser("stats", help="corpus statistics of a treebank")
    cmd.add_argument("treebank", metavar="FILE")
    cmd.add_argument("--report", metavar="FILE", help="also write a human-readable table")
    cmd.set_defaults(func=cmd_stats)
    return parser


def cmd_train(args) -> int:
    train_sentences = data.read_conllu(args.train_path)
    usable = []
    skipped: Counter = Counter()
    for num, sentence in enumerate(train_sentences, start=1):
        warning = data.root_count_warning(sentence)
        if warning is not None:
            print("warning: sentence %d: %s" % (num, warning), file=sys.stderr)
        # a sentence training cannot use is reported once, in the skip counts below
        reason = data.untrainable_reason(sentence)
        if reason is None:
            usable.append(sentence)
        else:
            skipped[reason] += 1
    nonprojective = skipped.pop("non-projective", 0)
    if nonprojective:
        print("skipping %d non-projective training sentence(s)" % nonprojective, file=sys.stderr)
    for reason, count in sorted(skipped.items()):
        print("skipping %d malformed training sentence(s): %s" % (count, reason), file=sys.stderr)
    dev_sentences = data.read_conllu(args.dev) if args.dev else None
    config = UnitConfig(dim_jamo=args.dim_jamo, dim_char=args.dim_char,
                        dim_word=args.dim_word, dim_encoder=args.dim_encoder)
    settings = TrainSettings(epochs=args.epochs, seed=args.seed, optimizer=args.optimizer,
                             learning_rate=args.learning_rate, hidden_dim=args.hidden_dim,
                             oracle=args.oracle, float32=args.float32)
    vectors = None
    if args.embeddings:
        _, vectors = data.read_embeddings(args.embeddings, expected_dim=config.dim_word or None)
    result = train(usable, dev_sentences, config, settings,
                   embedding_vectors=vectors,
                   expand_vocabulary=not args.no_expand_vocab,
                   log=print)
    save_model(TrainedModel.from_training(result), args.model)
    return 0


def cmd_parse(args) -> int:
    """Parse every sentence; one with an empty FORM is written unparsed and exits 1."""
    model = load_model(args.model)
    sentences = data.read_conllu(args.input, allow_missing_heads=True)
    predicted = []
    status = 0
    for num, sentence in enumerate(sentences, start=1):
        if all(sentence.forms):
            predicted.append(model.parse_sentence(sentence.forms))
        else:
            print("error: sentence %d: empty form" % num, file=sys.stderr)
            predicted.append(data.ConlluSentence(
                [data.Token(form, None, None) for form in sentence.forms]))
            status = 1
    data.write_conllu(predicted, args.output)
    return status


def cmd_eval(args) -> int:
    gold = data.read_conllu(args.gold)
    pred = data.read_conllu(args.pred, allow_missing_heads=True)  # `_`: unparsed, scored wrong
    uas, las = data.evaluate(gold, pred, exclude_punct=args.exclude_punct)
    print("uas=%.2f las=%.2f" % (uas, las))
    return 0


def decompose_lines(text: str) -> list[str]:
    """One line per character: form + triple, or form + ATOMIC."""
    lines = []
    for char in text:
        triple = hangul.decompose(char)
        if triple is None:
            lines.append("%s\tATOMIC" % char)
        else:
            lines.append("%s\t%s\t%s\t%s" % (char, triple.head, triple.vowel, triple.tail))
    return lines


def cmd_decompose(args) -> int:
    if args.text is None and not args.input:
        print("decompose: provide TEXT or --input FILE", file=sys.stderr)
        return 2
    if args.text is not None:
        text = args.text
    else:
        with open(args.input, encoding="utf-8-sig") as handle:
            text = handle.read().rstrip("\n")
    lines = decompose_lines(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_stats(args) -> int:
    sentences = data.read_conllu(args.treebank)
    for issue in data.validate_treebank(sentences):
        print("warning: %s" % issue, file=sys.stderr)
    _, _, _, stats = data.build_vocabularies(sentences)
    print("trees=%d projective=%d nonprojective=%d"
          % (stats.n_trees, stats.n_projective, stats.n_nonprojective))
    print("word_types=%d" % stats.word_types)
    print("char_types=%d char_types_korean=%d"
          % (stats.char_types, stats.char_types_korean))
    print("jamo_types=%d jamo_types_korean=%d"
          % (stats.jamo_types, stats.jamo_types_korean))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(stats.report() + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
