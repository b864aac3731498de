"""Parser for the paper's textual pattern language.

Cost functions "boil down to describing the algorithms' data access in
a kind of pattern language" (Section 7).  This module makes the language
executable as text, so pattern descriptions can live in configuration or
documentation and be parsed against a set of named regions::

    parse_pattern("s_trav+(U) ⊙ r_trav(H) ⊕ s_trav+(V) ⊙ r_acc(1000, H)",
                  {"U": U, "H": H, "V": V})

Grammar (whitespace-insensitive)::

    pattern   := concurrent (("⊕" | "+") concurrent)*
    concurrent:= atom (("⊙" | "*") atom)*
    atom      := basic | "(" pattern ")"
    basic     := name "(" args ")"
    name      := s_trav[+|-] | r_trav | rs_trav[+|-] | rr_trav
               | r_acc | nest

Arguments follow the paper's signatures: ``s_trav(R[, u])``,
``rs_trav(r, uni|bi, R[, u])``, ``rr_trav(r, R[, u])``,
``r_acc(r, R[, u])``, ``nest(R, m, local, seq|rand[, uni|bi])``.
``⊙`` binds tighter than ``⊕``, as in the paper.
"""

from __future__ import annotations

import re

from .patterns import (
    BI,
    RANDOM,
    SEQUENTIAL,
    UNI,
    Conc,
    Nest,
    Pattern,
    RAcc,
    RRTrav,
    RSTrav,
    RTrav,
    Seq,
    STrav,
)
from .regions import DataRegion

__all__ = ["parse_pattern", "PatternSyntaxError", "TokenStream"]


class PatternSyntaxError(ValueError):
    """Raised for malformed pattern text."""


_TOKEN = re.compile(r"""
    (?P<seq>⊕|(?<![\w+])\+(?![\w+]))
  | (?P<conc>⊙|\*)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.\[\]]*[+-]?)
  | (?P<number>\d+)
  | (?P<space>\s+)
""", re.VERBOSE)


class TokenStream:
    """Tokenized text and a cursor over it: the lexing skeleton of a
    recursive-descent parser, shared with the query frontend
    (:mod:`repro.session.frontend`).  ``token`` is one regex of named
    alternatives, each a token kind (``space`` is skipped; ``end`` is
    appended); ``error`` is the exception class every failure raises."""

    def __init__(self, text: str, token: re.Pattern,
                 error: type[Exception]) -> None:
        self.error = error
        self.tokens: list[tuple[str, str]] = []
        self.pos = 0
        pos = 0
        while pos < len(text):
            match = token.match(text, pos)
            if not match:
                raise error(
                    f"unexpected character {text[pos]!r} at offset {pos}")
            pos = match.end()
            kind = match.lastgroup
            if kind != "space":
                self.tokens.append((kind, match.group()))
        self.tokens.append(("end", ""))

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> str:
        actual_kind, value = self.tokens[self.pos]
        if actual_kind != kind:
            raise self.error(
                f"expected {kind}, found {value!r} (token {self.pos})")
        self.pos += 1
        return value

    def parse(self, rule):
        """``rule()``'s result, provided it consumed the whole text."""
        result = rule()
        if self.peek()[0] != "end":
            raise self.error(
                f"trailing input from token {self.pos}: {self.peek()[1]!r}")
        return result


class _Parser(TokenStream):
    def __init__(self, text: str, regions: dict[str, DataRegion]) -> None:
        super().__init__(text, _TOKEN, PatternSyntaxError)
        self.regions = regions

    # ------------------------------------------------------------------
    def sequence(self) -> Pattern:
        parts = [self.concurrent()]
        while self.peek()[0] == "seq":
            self.take("seq")
            parts.append(self.concurrent())
        return parts[0] if len(parts) == 1 else Seq.of(*parts)

    def concurrent(self) -> Pattern:
        parts = [self.atom()]
        while self.peek()[0] == "conc":
            self.take("conc")
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else Conc.of(*parts)

    def atom(self) -> Pattern:
        kind, value = self.peek()
        if kind == "lpar":
            self.take("lpar")
            inner = self.sequence()
            self.take("rpar")
            return inner
        if kind == "word":
            return self.basic()
        raise PatternSyntaxError(f"expected a pattern, found {value!r}")

    # ------------------------------------------------------------------
    def basic(self) -> Pattern:
        name = self.take("word")
        self.take("lpar")
        args = self.arguments()
        self.take("rpar")
        return self.build(name, args)

    def arguments(self) -> list[str]:
        args: list[str] = []
        while self.peek()[0] in ("word", "number"):
            args.append(self.tokens[self.pos][1])
            self.pos += 1
            if self.peek()[0] == "comma":
                self.take("comma")
        return args

    # ------------------------------------------------------------------
    def region(self, token: str) -> DataRegion:
        try:
            return self.regions[token]
        except KeyError:
            raise PatternSyntaxError(f"unknown region {token!r}") from None

    def number(self, token: str, what: str) -> int:
        if not token.isdigit():
            raise PatternSyntaxError(f"expected {what}, found {token!r}")
        return int(token)

    def build(self, name: str, args: list[str]) -> Pattern:
        base = name.rstrip("+-")
        seq_latency = not name.endswith("-")

        if base == "s_trav":
            if not 1 <= len(args) <= 2:
                raise PatternSyntaxError("s_trav takes (R[, u])")
            u = self.number(args[1], "u") if len(args) == 2 else None
            return STrav(self.region(args[0]), u=u, seq_latency=seq_latency)

        if base == "r_trav":
            if not 1 <= len(args) <= 2:
                raise PatternSyntaxError("r_trav takes (R[, u])")
            u = self.number(args[1], "u") if len(args) == 2 else None
            return RTrav(self.region(args[0]), u=u)

        if base == "rs_trav":
            if not 3 <= len(args) <= 4:
                raise PatternSyntaxError("rs_trav takes (r, uni|bi, R[, u])")
            direction = args[1]
            if direction not in (UNI, BI):
                raise PatternSyntaxError(
                    f"rs_trav direction must be uni or bi, got {direction!r}")
            u = self.number(args[3], "u") if len(args) == 4 else None
            return RSTrav(self.region(args[2]), u=u,
                          r=self.number(args[0], "r"),
                          direction=direction, seq_latency=seq_latency)

        if base == "rr_trav":
            if not 2 <= len(args) <= 3:
                raise PatternSyntaxError("rr_trav takes (r, R[, u])")
            u = self.number(args[2], "u") if len(args) == 3 else None
            return RRTrav(self.region(args[1]), u=u,
                          r=self.number(args[0], "r"))

        if base == "r_acc":
            if not 2 <= len(args) <= 3:
                raise PatternSyntaxError("r_acc takes (r, R[, u])")
            u = self.number(args[2], "u") if len(args) == 3 else None
            return RAcc(self.region(args[1]), u=u,
                        r=self.number(args[0], "r"))

        if base == "nest":
            if not 4 <= len(args) <= 5:
                raise PatternSyntaxError(
                    "nest takes (R, m, local, seq|rand[, uni|bi])")
            order = args[3]
            if order not in (SEQUENTIAL, RANDOM):
                raise PatternSyntaxError(
                    f"nest order must be seq or rand, got {order!r}")
            direction = args[4] if len(args) == 5 else UNI
            if direction not in (UNI, BI):
                raise PatternSyntaxError(
                    f"nest direction must be uni or bi, got {direction!r}")
            return Nest(self.region(args[0]),
                        m=self.number(args[1], "m"),
                        local=args[2], order=order, direction=direction)

        raise PatternSyntaxError(f"unknown basic pattern {name!r}")


def parse_pattern(text: str, regions: dict[str, DataRegion]) -> Pattern:
    """Parse a pattern in the paper's notation against named regions."""
    if not text.strip():
        raise PatternSyntaxError("empty pattern")
    parser = _Parser(text, regions)
    return parser.parse(parser.sequence)
