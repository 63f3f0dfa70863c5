# -*- coding: utf-8 -*-
"""Hangul syllable decomposition into jamo letters and exact composition back.

Every precomposed syllable in U+AC00..U+D7A3 factors uniquely into a head
consonant (초성), a vowel (중성), and an optional tail consonant (종성).
The factorisation is pure code-point arithmetic; no dictionary is involved.
Letters are identified by their position-neutral compatibility forms, so a
consonant shape appearing in both head and tail position is one letter.
"""
from __future__ import annotations

from dataclasses import dataclass

SYLLABLE_FIRST = 0xAC00
SYLLABLE_LAST = 0xD7A3

HEAD_COUNT = 19
VOWEL_COUNT = 21
TAIL_COUNT = 27  # non-empty tails; the tail slot itself has 28 states

#: Marker for the empty tail slot. Never equal to any letter.
EMPTY = "∅"

# 초성 (head consonants), in syllable-block order
HEAD_LETTERS = tuple("ㄱㄲㄴㄷㄸㄹㅁㅂㅃㅅㅆㅇㅈㅉㅊㅋㅌㅍㅎ")
# 중성 (vowels)
VOWEL_LETTERS = tuple("ㅏㅐㅑㅒㅓㅔㅕㅖㅗㅘㅙㅚㅛㅜㅝㅞㅟㅠㅡㅢㅣ")
# 종성 (tail consonants); tail index t in 1..27 maps to TAIL_LETTERS[t - 1]
TAIL_LETTERS = tuple("ㄱㄲㄳㄴㄵㄶㄷㄹㄺㄻㄼㄽㄾㄿㅀㅁㅂㅄㅅㅆㅇㅈㅊㅋㅌㅍㅎ")

#: All 51 canonical letters (30 consonants + 21 vowels), code-point order.
ALPHABET = tuple(sorted(set(HEAD_LETTERS) | set(VOWEL_LETTERS) | set(TAIL_LETTERS)))

_HEAD_INDEX = {letter: i for i, letter in enumerate(HEAD_LETTERS)}
_VOWEL_INDEX = {letter: i for i, letter in enumerate(VOWEL_LETTERS)}
_TAIL_INDEX = {letter: i for i, letter in enumerate(TAIL_LETTERS)}
_CANONICAL = frozenset(ALPHABET)

# Conjoining jamo blocks (position-specific code points)
_CONJOINING_HEAD_FIRST = 0x1100
_CONJOINING_VOWEL_FIRST = 0x1161
_CONJOINING_TAIL_FIRST = 0x11A8  # tail index 1


class InvalidJamoError(ValueError):
    """A letter outside the role-set it was used in."""


@dataclass(frozen=True)
class JamoTriple:
    """Head consonant, vowel, and tail consonant of one syllable.

    ``tail`` is :data:`EMPTY` for open syllables such as 다.
    """

    head: str
    vowel: str
    tail: str

    def __iter__(self):
        yield self.head
        yield self.vowel
        yield self.tail

    @property
    def has_tail(self) -> bool:
        return self.tail != EMPTY

    def letters(self) -> tuple[str, ...]:
        """The non-empty letters of the triple."""
        if self.has_tail:
            return (self.head, self.vowel, self.tail)
        return (self.head, self.vowel)


def is_syllable(char: str) -> bool:
    """True iff ``char`` is a precomposed Hangul syllable."""
    return len(char) == 1 and SYLLABLE_FIRST <= ord(char) <= SYLLABLE_LAST


def decompose(char: str) -> JamoTriple | None:
    """Split one character into its jamo triple.

    Returns None for anything outside the syllable block; callers treat
    such characters as atomic. Raises ValueError unless ``char`` is
    exactly one character.
    """
    if len(char) != 1:
        raise ValueError("decompose expects a single character, got %r" % (char,))
    code = ord(char)
    if not SYLLABLE_FIRST <= code <= SYLLABLE_LAST:
        return None
    offset = code - SYLLABLE_FIRST
    tail = offset % 28
    vowel = ((offset - tail) % 588) // 28
    head = offset // 588
    return JamoTriple(
        HEAD_LETTERS[head],
        VOWEL_LETTERS[vowel],
        TAIL_LETTERS[tail - 1] if tail else EMPTY,
    )


def compose(triple: JamoTriple) -> str:
    """Exact inverse of :func:`decompose`.

    Raises InvalidJamoError if any slot holds a letter outside its role-set.
    """
    try:
        head = _HEAD_INDEX[triple.head]
    except KeyError:
        raise InvalidJamoError("not a head consonant: %r" % (triple.head,)) from None
    try:
        vowel = _VOWEL_INDEX[triple.vowel]
    except KeyError:
        raise InvalidJamoError("not a vowel: %r" % (triple.vowel,)) from None
    if triple.tail == EMPTY:
        tail = 0
    else:
        try:
            tail = _TAIL_INDEX[triple.tail] + 1
        except KeyError:
            raise InvalidJamoError("not a tail consonant: %r" % (triple.tail,)) from None
    return chr(SYLLABLE_FIRST + 588 * head + 28 * vowel + tail)


def canonicalize(letter: str) -> str:
    """Map a position-specific (conjoining) jamo to its canonical letter.

    Canonical letters and the empty-tail marker map to themselves, so the
    function is idempotent. Anything else raises InvalidJamoError.
    """
    if letter == EMPTY:
        return EMPTY
    if letter in _CANONICAL:
        return letter
    if len(letter) != 1:
        raise InvalidJamoError("not a jamo letter: %r" % (letter,))
    code = ord(letter)
    if _CONJOINING_HEAD_FIRST <= code < _CONJOINING_HEAD_FIRST + HEAD_COUNT:
        return HEAD_LETTERS[code - _CONJOINING_HEAD_FIRST]
    if _CONJOINING_VOWEL_FIRST <= code < _CONJOINING_VOWEL_FIRST + VOWEL_COUNT:
        return VOWEL_LETTERS[code - _CONJOINING_VOWEL_FIRST]
    if _CONJOINING_TAIL_FIRST <= code < _CONJOINING_TAIL_FIRST + TAIL_COUNT:
        return TAIL_LETTERS[code - _CONJOINING_TAIL_FIRST]
    raise InvalidJamoError("not a jamo letter: %r" % (letter,))


def decompose_text(text: str) -> list[JamoTriple | str]:
    """Per-character decomposition of arbitrary text.

    Hangul syllables become JamoTriple; every other character (Latin,
    digits, CJK ideographs, punctuation, ...) passes through unchanged as
    an atomic string. Order is preserved.
    """
    out: list[JamoTriple | str] = []
    for char in text:
        triple = decompose(char)
        out.append(char if triple is None else triple)
    return out
