"""The generator is a pure function of its seed and emits valid treebanks."""
from jamoparse import data

from perfbench import gen
from perfbench.workloads import WORKLOADS

SMALL = gen.CorpusSpec(sentences=40, min_len=3, max_len=25, mean_len=11.0, types=300,
                       latin_frac=0.05)
LONG_RARE = gen.CorpusSpec(sentences=6, min_len=40, max_len=80, mean_len=56.0, zipf_s=0.0,
                           syllables=(3, 4, 5, 6), latin_frac=0.05)


def write_all(seed, directory):
    g = gen.Generator(seed)
    types = g.word_types(SMALL.types, SMALL.syllables, SMALL.latin_frac)
    gen.write_conllu(g.corpus(SMALL, types), directory / "tb.conllu")
    gen.write_conllu(g.corpus(LONG_RARE), directory / "in.conllu", gold=False)
    gen.write_embeddings(g.embeddings(types, 500, 8, SMALL.syllables), directory / "emb.txt")
    return {name: (directory / name).read_bytes() for name in ("tb.conllu", "in.conllu", "emb.txt")}


def test_same_seed_gives_byte_identical_files(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = write_all(7, tmp_path / "a")
    assert write_all(7, tmp_path / "b") == first
    other = write_all(8, tmp_path / "c")
    assert all(other[name] != first[name] for name in first)


def test_generated_trees_are_valid_projective_treebanks(tmp_path):
    g = gen.Generator(3)
    for spec in (SMALL, LONG_RARE, WORKLOADS["train-bigvocab"].main):
        path = tmp_path / "tb.conllu"
        gen.write_conllu(g.corpus(spec), path)
        sentences = data.read_conllu(path)
        assert len(sentences) == spec.sentences
        assert data.validate_treebank(sentences) == []
        assert all(data.is_projective(s) for s in sentences)
        assert all(spec.min_len <= len(s) <= spec.max_len for s in sentences)


def test_seed_changes_content_but_not_shape():
    a = gen.Generator(1).corpus(SMALL)
    b = gen.Generator(2).corpus(SMALL)
    assert [len(s) for s in a.sentences] == [len(s) for s in b.sentences]
    assert [len(f) for s in a.sentences for f in s.forms] == \
        [len(f) for s in b.sentences for f in s.forms]
    assert [s.forms for s in a.sentences] != [s.forms for s in b.sentences]


def test_words_are_hangul_with_the_requested_latin_share():
    corpus = gen.Generator(5).corpus(LONG_RARE)
    chars = [c for s in corpus.sentences for f in s.forms for c in f]
    latin = sum(c in gen.LATIN for c in chars)
    assert all(c in gen.LATIN or 0xAC00 <= ord(c) <= 0xD7A3 for c in chars)
    assert 0.02 < latin / len(chars) < 0.08
    forms = [f for s in corpus.sentences for f in s.forms]
    assert len(set(forms)) == len(forms)  # every long-rare token is a new word
