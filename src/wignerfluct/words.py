"""Words in Wigner and deterministic letters.

A canonical monomial alternates Wigner letters and deterministic letters,
``x_{w1} a_{v1} ... x_{wm} a_{vm}``.  Deterministic letters may carry star
(adjoint) and transpose flags, and may be products of several base matrices
(adjacent deterministic letters fuse under canonicalization, which is
legitimate because every word is evaluated inside a trace).
"""

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class DetLetter:
    """A deterministic letter: an ordered product of flagged base matrices.

    Each factor is ``(base_index, star, transpose)``.  The empty product is
    the identity letter.
    """

    factors: tuple = ()

    @classmethod
    def base(cls, j, star=False, transpose=False):
        return cls(((j, bool(star), bool(transpose)),))

    @property
    def is_identity(self):
        return not self.factors

    def transpose(self):
        return DetLetter(tuple((j, s, not t) for j, s, t in reversed(self.factors)))

    def fuse(self, other):
        """The product letter self * other."""
        return DetLetter(self.factors + other.factors)

    def __str__(self):
        if self.is_identity:
            return "1"
        bits = []
        for j, s, t in self.factors:
            bits.append("a%d%s%s" % (j, "*" if s else "", "t" if t else ""))
        return "".join(bits)


IDENTITY_LETTER = DetLetter()


@dataclass(frozen=True)
class Monomial:
    """Canonical word x_{w1} a_{v1} ... x_{wm} a_{vm}.

    ``pairs`` holds (wigner_id, DetLetter) couples.  A degree-0 monomial is a
    pure deterministic word held in ``scalar_letter`` (identity for the
    scalar 1).
    """

    pairs: tuple = ()
    scalar_letter: DetLetter = IDENTITY_LETTER

    def __post_init__(self):
        if self.pairs and not self.scalar_letter.is_identity:
            raise ValueError("scalar_letter is only used for degree-0 monomials")

    @property
    def degree(self):
        return len(self.pairs)

    @property
    def wigner_labels(self):
        return tuple(w for w, _ in self.pairs)

    @property
    def det_letters(self):
        return tuple(a for _, a in self.pairs)

    def __str__(self):
        if not self.pairs:
            return str(self.scalar_letter)
        return " ".join("x%s %s" % (w, a) for w, a in self.pairs)


def canonicalize(tokens):
    """Canonical monomial from a raw token list.

    Tokens are ``("x", wid)``, ``("x*", wid)`` or ``("a", DetLetter)``.
    Stars on Wigner letters drop (the matrices are Hermitian), adjacent
    deterministic letters fuse, identity letters are inserted between and
    after Wigner letters, and the word is rotated cyclically to start with a
    Wigner letter.
    """
    flat = []
    for kind, val in tokens:
        if kind in ("x", "x*"):
            flat.append(("x", val))
        elif kind == "a":
            if not isinstance(val, DetLetter):
                raise TypeError("deterministic token must carry a DetLetter")
            flat.append(("a", val))
        else:
            raise ValueError("unknown token kind %r" % (kind,))

    xs = [i for i, (k, _) in enumerate(flat) if k == "x"]
    if not xs:
        letter = IDENTITY_LETTER
        for _, a in flat:
            letter = letter.fuse(a)
        return Monomial((), letter)

    # Rotate so the word starts with its first Wigner letter; the leading
    # deterministic prefix wraps around to the end (cyclic under the trace).
    flat = flat[xs[0]:] + flat[: xs[0]]

    pairs = []
    i = 0
    while i < len(flat):
        w = flat[i][1]
        i += 1
        letter = IDENTITY_LETTER
        while i < len(flat) and flat[i][0] == "a":
            letter = letter.fuse(flat[i][1])
            i += 1
        pairs.append((w, letter))
    return Monomial(tuple(pairs))


def s_transform(mono):
    """The reversal-with-transposes x_n a_{n-1}^t x_{n-1} ... a_1^t x_1 a_n^t."""
    n = mono.degree
    if n == 0:
        raise ValueError("s_transform requires degree >= 1")
    ws = [w for w, _ in mono.pairs]
    letters = [a for _, a in mono.pairs]
    new_pairs = []
    for i in range(n - 1, 0, -1):
        new_pairs.append((ws[i], letters[i - 1].transpose()))
    new_pairs.append((ws[0], letters[n - 1].transpose()))
    return Monomial(tuple(new_pairs))


_TOKEN_RE = re.compile(r"^(x|a)([A-Za-z0-9_]+?)(\*?)(t?)(\*?)$")


def parse_word(text):
    """Parse a word string like ``"x1 a0 x2 a1*t"`` into a canonical Monomial.

    ``xID`` is a Wigner letter (ID is the ensemble id), ``aK`` the K-th
    deterministic matrix of the family, K written in the digits 0-9, with
    optional ``*`` (adjoint) and ``t`` (transpose) suffixes, at most one of
    each, and ``1`` (or ``I``) the identity letter.
    """
    tokens = []
    for tok in text.split():
        if tok in ("1", "I"):
            tokens.append(("a", IDENTITY_LETTER))
            continue
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError("cannot parse word token %r" % tok)
        kind, ident, star1, tflag, star2 = m.groups()
        if star1 and star2:
            raise ValueError("word token %r has two stars; write at most one" % tok)
        star = bool(star1 or star2)
        if kind == "x":
            if tflag:
                raise ValueError("transpose flag is not supported on Wigner letters")
            tokens.append(("x*" if star else "x", ident))
        else:
            # int() would also read "0_1" as 1
            if not ident.isdigit():
                raise ValueError("deterministic index must be digits 0-9 in %r" % tok)
            tokens.append(("a", DetLetter.base(int(ident), star=star, transpose=bool(tflag))))
    return canonicalize(tokens)
