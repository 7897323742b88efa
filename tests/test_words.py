import pytest

from wignerfluct.words import (
    DetLetter,
    IDENTITY_LETTER,
    parse_word,
    s_transform,
)


def test_parse_simple_word():
    mono = parse_word("x1 a0 x2 a1")
    assert mono.degree == 2
    assert mono.wigner_labels == ("1", "2")
    assert mono.det_letters == (DetLetter.base(0), DetLetter.base(1))


def test_parse_flags():
    mono = parse_word("x1 a0*t")
    ((j, star, transpose),) = mono.det_letters[0].factors
    assert (j, star, transpose) == (0, True, True)


def test_trailing_identity_letter():
    mono = parse_word("x1 a0 x1")
    assert mono.degree == 2
    assert mono.det_letters[1] is IDENTITY_LETTER or mono.det_letters[1].is_identity


def test_leading_det_prefix_wraps():
    # a word is read inside a trace, so a deterministic prefix rotates to the end
    mono = parse_word("a0 x1 a1")
    assert mono.degree == 1
    assert mono.det_letters[0].factors == DetLetter.base(1).fuse(DetLetter.base(0)).factors


def test_adjacent_letters_fuse():
    mono = parse_word("x1 a0 a1 x1 a0")
    assert mono.degree == 2
    assert mono.det_letters[0].factors == (
        DetLetter.base(0).fuse(DetLetter.base(1)).factors
    )


def test_wigner_star_drops():
    assert parse_word("x1* a0") == parse_word("x1 a0")


def test_pure_det_word():
    mono = parse_word("a0 a1t")
    assert mono.degree == 0
    assert mono.scalar_letter.factors == (
        DetLetter.base(0).fuse(DetLetter.base(1, transpose=True)).factors
    )


def test_letter_transpose_star():
    letter = DetLetter.base(0).fuse(DetLetter.base(1, star=True))
    t = letter.transpose()
    assert t.factors == ((1, True, True), (0, False, True))


def test_s_transform_degree_two():
    mono = parse_word("x1 a0 x2 a1")
    s = s_transform(mono)
    # x2 a0^t x1 a1^t
    assert s.wigner_labels == ("2", "1")
    assert s.det_letters == (
        DetLetter.base(0, transpose=True),
        DetLetter.base(1, transpose=True),
    )


def test_s_transform_rejects_scalar():
    with pytest.raises(ValueError):
        s_transform(parse_word("a0"))


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_word("y1")
    with pytest.raises(ValueError):
        parse_word("x1t a0")
    # int() reads "0_1" as 1 and "1_0" as 10
    for word in ("x1 a0_1", "a1_0"):
        with pytest.raises(ValueError, match="digits"):
            parse_word(word)


@pytest.mark.parametrize("token", ["a1**", "a1*t*", "x1**"])
def test_parse_rejects_two_stars(token):
    # a1** means A and a1*t* means A^t: neither may be read as one star
    with pytest.raises(ValueError, match="two stars"):
        parse_word("x1 " + token)


def test_parse_one_star_before_or_after_t():
    for token in ("a1*t", "a1t*"):
        ((_, letter),) = parse_word("x1 " + token).pairs
        assert letter.factors == ((1, True, True),)
