"""Finite binary strings (programs, outputs, expansion prefixes)."""

from __future__ import annotations

from functools import total_ordering


@total_ordering
class BitString:
    """Immutable finite word over {0,1}; the empty string is permitted."""

    __slots__ = ("bits",)

    def __init__(self, bits: str = ""):
        if bits.strip("01"):
            raise ValueError(f"not a binary string: {bits!r}")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *a):
        raise AttributeError("BitString is immutable")

    def __len__(self):
        return len(self.bits)

    def __eq__(self, other):
        return isinstance(other, BitString) and self.bits == other.bits

    def __lt__(self, other):
        # canonical order: by length, then lexicographically
        return (len(self.bits), self.bits) < (len(other.bits), other.bits)

    def __hash__(self):
        return hash(self.bits)

    def __add__(self, other: "BitString") -> "BitString":
        return BitString(self.bits + other.bits)

    def __repr__(self):
        return f"BitString({self.bits!r})"

    def render(self) -> str:
        """ASCII form used in snapshot files; the empty string renders '-'."""
        return self.bits if self.bits else "-"

    @classmethod
    def from_render(cls, text: str) -> "BitString":
        return cls("" if text == "-" else text)

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        return cls(format(value, f"0{width}b") if width else "")


LAMBDA = BitString("")


def successor(s: BitString) -> BitString:
    """Next string in canonical (length, lex) order."""
    v = int(s.bits, 2) + 1 if s.bits else 0
    if s.bits and v < (1 << len(s)):
        return BitString.from_int(v, len(s))
    return BitString("0" * (len(s) + 1))
