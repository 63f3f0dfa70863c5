# -*- coding: utf-8 -*-
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jamoparse import hangul
from jamoparse.data import (AlignmentError, ConlluFormatError, ConlluSentence,
                            EmbeddingFormatError, Token, build_label_vocabulary,
                            build_vocabularies, check_tree, evaluate, is_projective,
                            load_embeddings,
                            read_conllu, read_embeddings, validate_treebank, write_conllu)
from jamoparse.vocab import UNK, Vocabulary


def sentence(*rows):
    return ConlluSentence([Token(form, head, label) for form, head, label in rows])


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.conllu"
    path.write_text("", encoding="utf-8")
    assert read_conllu(path) == []


def test_read_write_round_trip(tmp_path):
    crafted = [
        sentence(("나는", 2, "nsubj"), ("갔다", 0, "root")),
        sentence(("밥을", 2, "obj"), ("먹었다", 0, "root"), (".", 2, "punct")),
    ]
    path = tmp_path / "rt.conllu"
    write_conllu(crafted, path)
    loaded = read_conllu(path)
    assert len(loaded) == 2
    for orig, back in zip(crafted, loaded):
        assert back.forms == orig.forms
        assert [t.head for t in back.tokens] == [t.head for t in orig.tokens]
        assert [t.label for t in back.tokens] == [t.label for t in orig.tokens]
    # blank-line separation survives
    assert path.read_text(encoding="utf-8").count("\n\n") == 2


def test_read_skips_comments_and_subtoken_lines(tmp_path):
    path = tmp_path / "t.conllu"
    path.write_text(
        "# comment\n"
        "1-2\t나는요\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\t나는\t_\t_\t_\t_\t2\tnsubj\t_\t_\n"
        "1.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\t갔다\t_\t_\t_\t_\t0\troot\t_\t_\n",
        encoding="utf-8")
    loaded = read_conllu(path)
    assert len(loaded) == 1
    assert loaded[0].forms == ["나는", "갔다"]


@pytest.mark.parametrize("bad_id", ["-", "x.y", "1-", "-2", ".1", "1.", "1-2-3", "1.x", "a-b"])
def test_only_digit_ranges_and_empty_nodes_are_skipped(tmp_path, bad_id):
    path = tmp_path / "ids.conllu"
    path.write_text("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
                    "%s\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
                    "2\td\t_\t_\t_\t_\t1\tdep\t_\t_\n" % bad_id, encoding="utf-8")
    with pytest.raises(ConlluFormatError,
                       match="line 2: expected token id 2, got %s" % re.escape(repr(bad_id))):
        read_conllu(path)


@pytest.mark.parametrize("ids,line,expected,got", [
    (["1", "3", "2"], 2, 2, "'3'"),
    (["x", "2"], 1, 1, "'x'"),
    (["1", "1"], 2, 2, "'1'"),
    (["0", "1"], 1, 1, "'0'"),
])
def test_token_ids_must_count_up_from_one(tmp_path, ids, line, expected, got):
    path = tmp_path / "ids.conllu"
    path.write_text("".join("%s\tw\t_\t_\t_\t_\t0\troot\t_\t_\n" % i for i in ids),
                    encoding="utf-8")
    with pytest.raises(ConlluFormatError,
                       match="line %d: expected token id %d, got %s" % (line, expected, got)):
        read_conllu(path)


def test_token_ids_restart_in_each_sentence(tmp_path):
    path = tmp_path / "ids.conllu"
    path.write_text("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
                    "1\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
                    "2\tc\t_\t_\t_\t_\t1\tdep\t_\t_\n", encoding="utf-8")
    assert [s.forms for s in read_conllu(path)] == [["a"], ["b", "c"]]


def test_byte_order_mark_before_a_comment_is_dropped(tmp_path):
    path = tmp_path / "bom.conllu"
    path.write_text("\ufeff# sent_id = 1\n1\t나는\t_\t_\t_\t_\t0\troot\t_\t_\n",
                    encoding="utf-8")
    assert path.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert read_conllu(path)[0].forms == ["나는"]


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.conllu"
    path.write_text("1\tword\tmissing-columns\n", encoding="utf-8")
    with pytest.raises(ConlluFormatError, match="line 1"):
        read_conllu(path)


def test_non_integer_head_rejected(tmp_path):
    path = tmp_path / "bad.conllu"
    path.write_text("1\tword\t_\t_\t_\t_\tX\tdep\t_\t_\n", encoding="utf-8")
    with pytest.raises(ConlluFormatError, match="non-integer head"):
        read_conllu(path)
    path.write_text("1\tword\t_\t_\t_\t_\t_\tdep\t_\t_\n", encoding="utf-8")
    with pytest.raises(ConlluFormatError, match="missing head"):
        read_conllu(path)
    assert read_conllu(path, allow_missing_heads=True)[0].tokens[0].head is None


def test_validate_treebank_reports_not_raises():
    bad = [sentence(("a", 5, "dep"), ("b", 0, "root")),
           sentence(("a", 2, "dep"), ("b", 1, "dep"))]
    issues = validate_treebank(bad)
    assert any("out of range" in i for i in issues)
    assert any("root" in i for i in issues)


def test_validate_treebank_reports_check_tree_reasons_per_sentence():
    tb = [sentence(("a", 0, "root"), ("b", 1, "dep")),
          sentence(("a", 2, "dep"), ("b", 3, "dep"), ("c", 1, "dep"), ("d", 0, "root")),
          sentence(("a", 0, "root"), ("b", 1, None))]
    assert validate_treebank(tb) == ["sentence 2: cycle", "sentence 3: missing label"]
    assert validate_treebank([sentence(("a", 0, "root"), ("b", 0, "root"))]) == [
        "sentence 1: 2 tokens attached to root"]


class TestProjectivity:
    def test_chain_is_projective(self):
        assert is_projective(sentence(("a", 0, "r"), ("b", 1, "d"), ("c", 2, "d")))

    def test_textbook_crossing_pair(self):
        # arcs 1->3 and 2->4 cross
        s = sentence(("a", 3, "d"), ("b", 4, "d"), ("c", 0, "r"), ("d", 3, "d"))
        assert is_projective(s) is False

    def test_nested_arcs_are_projective(self):
        s = sentence(("a", 4, "d"), ("b", 3, "d"), ("c", 4, "d"), ("d", 0, "r"))
        assert is_projective(s)

    def test_root_arc_crossing(self):
        # token 2 heads token 4 while the root arc lands inside (1<2<3? no):
        # arcs: (0,3) root, (3,1), (4,2): span (2,4) crosses (0,3)? 0<2<3<4 yes
        s = sentence(("a", 3, "d"), ("b", 4, "d"), ("c", 0, "r"), ("d", 3, "d"))
        assert not is_projective(s)


    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.integers(-2, n + 2), min_size=n, max_size=n)))
    def test_matches_pairwise_definition(self, heads):
        # heads may leave the sentence, loop or cycle: only the arcs matter
        def pairwise(heads):
            arcs = [(min(h, pos), max(h, pos)) for pos, h in enumerate(heads, start=1)]
            return not any(lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1
                           for (lo1, hi1), (lo2, hi2) in combinations(arcs, 2))

        s = sentence(*[("w", h, "d") for h in heads])
        assert is_projective(s) is pairwise(heads)


class TestCheckTree:
    def test_trees_pass(self):
        assert check_tree(sentence(("a", 0, "r"), ("b", 1, "d"), ("c", 2, "d"))) is None
        # crossing arcs are still a tree; projectivity is a separate check
        assert check_tree(sentence(("a", 3, "d"), ("b", 4, "d"), ("c", 0, "r"),
                                   ("d", 3, "d"))) is None

    def test_several_root_attachments_are_a_tree(self):
        assert check_tree(sentence(("a", 0, "r"), ("b", 0, "r"))) is None

    def test_cycle(self):
        assert check_tree(sentence(("a", 2, "d"), ("b", 1, "d"), ("c", 0, "r"))) == "cycle"
        assert check_tree(sentence(("a", 0, "r"), ("b", 3, "d"), ("c", 4, "d"),
                                   ("d", 2, "d"))) == "cycle"

    def test_no_root_at_all_is_a_cycle(self):
        assert check_tree(sentence(("a", 2, "d"), ("b", 1, "d"))) == "cycle"

    def test_head_out_of_range(self):
        assert check_tree(sentence(("a", 9, "d"), ("b", 0, "r"))) == "head out of range"
        assert check_tree(sentence(("a", -1, "d"), ("b", 0, "r"))) == "head out of range"

    def test_self_loop(self):
        assert check_tree(sentence(("a", 0, "r"), ("b", 2, "d"))) == "self-loop"

    def test_missing_head(self):
        assert check_tree(sentence(("a", 0, "r"), ("b", None, "d"))) == "missing head"

    def test_missing_label(self):
        assert check_tree(sentence(("a", 0, "r"), ("b", 1, None))) == "missing label"

    def test_empty_form(self):
        assert check_tree(sentence(("a", 0, "r"), ("", 1, "d"))) == "empty form"


class TestVocabularies:
    def test_single_word_corpus(self):
        tb = [sentence(("갔다", 0, "root"))]
        jamo_v, char_v, word_v, stats = build_vocabularies(tb)
        assert stats.word_types == 1
        assert stats.char_types == 2
        assert stats.char_types_korean == 2
        # 갔 -> ㄱ ㅏ ㅆ, 다 -> ㄷ ㅏ: four distinct letters, ∅ is not a counted type
        assert stats.jamo_types == 4
        assert stats.jamo_types_korean == 4
        assert hangul.EMPTY in jamo_v
        assert UNK in jamo_v and UNK in char_v and UNK in word_v
        assert len(jamo_v) == 4 + 2
        assert word_v.count_of("갔다") == 1

    def test_atomic_characters_counted_at_jamo_tier(self):
        tb = [sentence(("a갔다@", 0, "root"))]
        jamo_v, char_v, _, stats = build_vocabularies(tb)
        assert stats.char_types == 4
        assert stats.char_types_korean == 2
        assert stats.jamo_types == 6  # 4 letters + 'a' + '@'
        assert stats.jamo_types_korean == 4
        assert "a" in jamo_v and "@" in jamo_v

    def test_ids_contiguous_and_stable(self):
        tb = [sentence(("나는", 2, "nsubj"), ("갔다", 0, "root"))]
        first = build_vocabularies(tb)
        second = build_vocabularies(tb)
        for a, b in zip(first[:3], second[:3]):
            assert a.tokens == b.tokens
            assert [a.id_of(t) for t in a.tokens] == list(range(len(a)))

    def test_type_counts_are_permutation_invariant(self):
        s1 = sentence(("나는", 2, "nsubj"), ("갔다", 0, "root"))
        s2 = sentence(("산을", 2, "obj"), ("갔다", 0, "root"))
        stats_a = build_vocabularies([s1, s2])[3]
        stats_b = build_vocabularies([s2, s1])[3]
        assert stats_a == stats_b

    def test_korean_jamo_bound(self):
        tb = [sentence((hangul.compose(hangul.decompose(chr(c))), 0, "root"))
              for c in range(0xAC00, 0xAC00 + 400, 7)]
        stats = build_vocabularies(tb)[3]
        assert stats.jamo_types_korean <= 51

    def test_label_vocabulary(self):
        tb = [sentence(("a", 2, "nsubj"), ("b", 0, "root"))]
        labels = build_label_vocabulary(tb)
        assert sorted(labels.tokens) == ["nsubj", "root"]
        with pytest.raises(KeyError):
            labels.id_of("missing")


class TestEmbeddings:
    def test_only_in_vocab_rows_change(self, tmp_path):
        vocab = Vocabulary.build("word", {"갔다": 2, "나는": 1})
        path = tmp_path / "vec.txt"
        path.write_text("갔다 1.0 2.0\nmissing 9.0 9.0\n", encoding="utf-8")
        dim, vectors = read_embeddings(path)
        assert dim == 2
        table = np.zeros((len(vocab), 2))
        overlap = load_embeddings(vectors, vocab, table)
        assert overlap == 1
        assert np.array_equal(table[vocab.id_of("갔다")], [1.0, 2.0])
        untouched = [i for i in range(len(vocab)) if i != vocab.id_of("갔다")]
        assert np.array_equal(table[untouched], np.zeros((len(vocab) - 1, 2)))

    def test_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("\ufeff나는 1.0 2.0\n", encoding="utf-8")
        _, vectors = read_embeddings(path)
        assert list(vectors) == ["나는"]

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("w " + " ".join(["0.1"] * 99) + "\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="dimension"):
            read_embeddings(path, expected_dim=100)

    def test_inconsistent_rows_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            read_embeddings(path)

    @pytest.mark.parametrize("value", ["one", "0x1p3", "1d0"])
    def test_malformed_value(self, tmp_path, value):
        # spellings float() refuses: hexadecimal and Fortran-style exponents
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 0.5 %s\n" % value, encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2: non-numeric"):
            read_embeddings(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 0.5 %s\n" % value, encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2: non-finite value"):
            read_embeddings(path)

    def test_overlap_matches_set_intersection_oracle(self, tmp_path):
        rng = np.random.default_rng(0)
        vocab_tokens = {"w%d" % i: 1 for i in range(30)}
        vocab = Vocabulary.build("word", vocab_tokens)
        file_tokens = ["w%d" % i for i in rng.choice(60, size=25, replace=False)]
        path = tmp_path / "vec.txt"
        path.write_text("".join("%s 0.5 0.5\n" % t for t in file_tokens), encoding="utf-8")
        _, vectors = read_embeddings(path)
        table = np.zeros((len(vocab), 2))
        overlap = load_embeddings(vectors, vocab, table)
        assert overlap == len(set(file_tokens) & set(vocab_tokens))

    def test_expansion_adds_new_tokens(self):
        vocab = Vocabulary.build("word", {"seen": 3})
        before = len(vocab)
        added = vocab.add_tokens(["new1", "seen", "new2"])
        assert added == 2
        assert len(vocab) == before + 2
        assert vocab.id_of("new1") == before  # appended, ids stay contiguous


class TestEvaluate:
    def test_perfect_prediction(self):
        gold = [sentence(("a", 2, "x"), ("b", 0, "root"))]
        assert evaluate(gold, gold) == (100.0, 100.0)

    def test_heads_right_labels_wrong(self):
        gold = [sentence(("a", 2, "x"), ("b", 0, "root"))]
        pred = [sentence(("a", 2, "y"), ("b", 0, "z"))]
        assert evaluate(gold, pred) == (100.0, 0.0)

    def test_crafted_counts(self):
        # 10 tokens, 7 correct heads, 5 of those also correctly labeled
        gold = [sentence(*[("w%d" % i, 0, "L") for i in range(10)])]
        rows = []
        for i in range(10):
            if i < 7:
                rows.append(("w%d" % i, 0, "L" if i < 5 else "wrong"))
            else:
                rows.append(("w%d" % i, 9, "L"))
        pred = [ConlluSentence([Token(f, h, l) for f, h, l in rows])]
        assert evaluate(gold, pred) == (70.0, 50.0)

    def test_las_never_exceeds_uas(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            gold = [ConlluSentence([Token("w%d" % i, int(rng.integers(0, n + 1)),
                                          "L%d" % rng.integers(3)) for i in range(n)])]
            pred = [ConlluSentence([Token("w%d" % i, int(rng.integers(0, n + 1)),
                                          "L%d" % rng.integers(3)) for i in range(n)])]
            uas, las = evaluate(gold, pred)
            assert las <= uas

    def test_alignment_errors(self):
        gold = [sentence(("a", 0, "root"))]
        with pytest.raises(AlignmentError):
            evaluate(gold, [])
        with pytest.raises(AlignmentError):
            evaluate(gold, [sentence(("a", 0, "root"), ("b", 1, "d"))])

    def test_punctuation_exclusion(self):
        gold = [sentence(("a", 2, "x"), (".", 0, "punct"))]
        pred = [sentence(("a", 2, "x"), (".", 1, "punct"))]
        assert evaluate(gold, pred) == (50.0, 50.0)
        assert evaluate(gold, pred, exclude_punct=True) == (100.0, 100.0)
