# -*- coding: utf-8 -*-
import pytest
from hypothesis import given, strategies as st

from jamoparse import hangul
from jamoparse.hangul import (ALPHABET, EMPTY, HEAD_LETTERS, InvalidJamoError, JamoTriple,
                              TAIL_LETTERS, VOWEL_LETTERS, canonicalize, compose, decompose,
                              decompose_text)


def test_figure_examples():
    assert decompose("산") == JamoTriple("ㅅ", "ㅏ", "ㄴ")
    assert decompose("을") == JamoTriple("ㅇ", "ㅡ", "ㄹ")
    assert decompose("갔") == JamoTriple("ㄱ", "ㅏ", "ㅆ")
    assert decompose("다") == JamoTriple("ㄷ", "ㅏ", EMPTY)


def test_block_start_is_all_zero_indices():
    assert decompose("가") == JamoTriple("ㄱ", "ㅏ", EMPTY)
    assert compose(JamoTriple("ㄱ", "ㅏ", EMPTY)) == "가" == chr(0xAC00)


def test_non_hangul_is_atomic():
    assert decompose("a") is None
    assert decompose("@") is None
    assert decompose("正") is None
    assert decompose("ㄱ") is None  # bare letters are not syllables


@pytest.mark.parametrize("text", ["", "가나"])
def test_decompose_needs_exactly_one_character(text):
    with pytest.raises(ValueError, match="single character"):
        decompose(text)


def test_compose_known_code_points():
    assert compose(JamoTriple("ㅅ", "ㅏ", "ㄴ")) == "산"
    # frozen from the exhaustive round-trip oracle below
    assert compose(JamoTriple("ㄱ", "ㅏ", "ㅆ")) == chr(0xAC14)


def test_round_trip_all_syllables():
    seen = set()
    for code in range(hangul.SYLLABLE_FIRST, hangul.SYLLABLE_LAST + 1):
        char = chr(code)
        triple = decompose(char)
        assert triple is not None
        assert compose(triple) == char
        seen.add(triple)
    assert len(seen) == 11172  # injectivity


def test_partition_counting():
    assert len(HEAD_LETTERS) == 19
    assert len(VOWEL_LETTERS) == 21
    assert len(TAIL_LETTERS) == 27
    assert len(ALPHABET) == 51
    assert 19 * 21 * 28 == 11172
    assert EMPTY not in ALPHABET


def test_every_combination_composes_in_block():
    for head in HEAD_LETTERS:
        for vowel in VOWEL_LETTERS:
            for tail in (EMPTY,) + TAIL_LETTERS:
                code = ord(compose(JamoTriple(head, vowel, tail)))
                assert hangul.SYLLABLE_FIRST <= code <= hangul.SYLLABLE_LAST


def test_compose_rejects_wrong_role():
    with pytest.raises(InvalidJamoError):
        compose(JamoTriple("ㅏ", "ㅏ", EMPTY))  # vowel in head slot
    with pytest.raises(InvalidJamoError):
        compose(JamoTriple("ㄱ", "ㄱ", EMPTY))  # consonant in vowel slot
    with pytest.raises(InvalidJamoError):
        compose(JamoTriple("ㄸ", "ㅏ", "ㄸ"))  # ㄸ never ends a syllable
    with pytest.raises(InvalidJamoError):
        compose(JamoTriple("ㄱ", "ㅏ", "x"))


def test_canonicalize_merges_positions():
    head_giyeok = chr(0x1100)  # conjoining head ㄱ
    tail_giyeok = chr(0x11A8)  # conjoining tail ㄱ
    assert canonicalize(head_giyeok) == canonicalize(tail_giyeok) == "ㄱ"
    assert canonicalize(chr(0x1161)) == "ㅏ"
    assert canonicalize("ㅏ") == "ㅏ"
    assert canonicalize(EMPTY) == EMPTY


def test_canonicalize_idempotent_and_total_count():
    canonical = set()
    for i in range(19):
        canonical.add(canonicalize(chr(0x1100 + i)))
    for i in range(21):
        canonical.add(canonicalize(chr(0x1161 + i)))
    for i in range(27):
        canonical.add(canonicalize(chr(0x11A8 + i)))
    assert len(canonical) == 51
    for letter in canonical:
        assert canonicalize(letter) == letter


def test_canonicalize_rejects_non_jamo():
    with pytest.raises(InvalidJamoError):
        canonicalize("a")
    with pytest.raises(InvalidJamoError):
        canonicalize("산")


def test_decompose_text_mixed():
    units = decompose_text("갔다")
    assert units == [JamoTriple("ㄱ", "ㅏ", "ㅆ"), JamoTriple("ㄷ", "ㅏ", EMPTY)]
    units = decompose_text("a산")
    assert units[0] == "a"
    assert units[1] == JamoTriple("ㅅ", "ㅏ", "ㄴ")
    assert decompose_text("") == []


@given(st.text(max_size=40))
def test_decompose_text_passthrough(text):
    units = decompose_text(text)
    assert len(units) == len(text)
    rebuilt = "".join(u if isinstance(u, str) else compose(u) for u in units)
    assert rebuilt == text


@given(st.integers(min_value=hangul.SYLLABLE_FIRST, max_value=hangul.SYLLABLE_LAST))
def test_round_trip_property(code):
    assert compose(decompose(chr(code))) == chr(code)
