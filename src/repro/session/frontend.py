"""Text frontend: a small query language over the logical algebra.

The pattern language is executable as text (:mod:`repro.core.parser`);
this module extends the same approach — that module's token stream
under a recursive-descent parser resolving names against registries —
to *queries*, so a query can live as a string in a configuration file
or benchmark and still compile through the optimizer::

    parse_query("aggregate(join(filter(orders, even, sel=0.5), "
                "customers), groups=64)",
                tables={"orders": ..., "customers": ...},
                functions={"even": lambda v: v % 2 == 0})

Grammar (whitespace-insensitive)::

    query  := expr
    expr   := call | NAME            -- a bare NAME is a registered table
    call   := op "(" args ")"
    op     := filter | join | sort | aggregate (aliases: agg, group,
              group_by)

Operator signatures mirror the logical algebra's oracle hints:

* ``filter(child, pred [, sel=S])`` — ``pred`` names a registered
  predicate; ``sel`` is the oracle selectivity (default 0.5).
* ``join(left, right [, match=M])`` — oracle match fraction (default 1).
* ``sort(child)`` — request a sorted result (ORDER BY).
* ``aggregate(child [, groups=G] [, key=K])`` — group-count with oracle
  group count ``G`` (a whole number, default 64); ``key`` names a
  registered key extractor (positional grouping, see
  :class:`repro.query.logical.Aggregate`).

A keyword may be given once, under one of its spellings: ``sel`` and
``selectivity`` (or ``match`` and ``match_fraction``) name one argument.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping

from ..core.parser import TokenStream
from ..query.logical import Aggregate, Filter, Join, LogicalOp, Sort

__all__ = ["parse_query", "QuerySyntaxError"]


class QuerySyntaxError(ValueError):
    """Raised for malformed query text or unknown names."""


_TOKEN = re.compile(r"""
    (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<equals>=)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<space>\s+)
""", re.VERBOSE)

_AGGREGATE_NAMES = ("aggregate", "agg", "group", "group_by")


class _QueryParser(TokenStream):
    def __init__(self, text: str, tables: Mapping[str, LogicalOp],
                 functions: Mapping[str, Callable]) -> None:
        super().__init__(text, _TOKEN, QuerySyntaxError)
        self.tables = tables
        self.functions = functions
        #: Every table and predicate/key name the parse resolved.
        self.table_names: set[str] = set()
        self.function_names: set[str] = set()

    # ------------------------------------------------------------------
    def expr(self) -> LogicalOp:
        kind, value = self.peek()
        if kind != "word":
            raise QuerySyntaxError(
                f"expected a table or operator, found {value!r}")
        name = self.take("word")
        if self.peek()[0] == "lpar":
            return self.call(name)
        return self.table(name)

    def call(self, name: str) -> LogicalOp:
        op = name.lower()
        self.take("lpar")
        if op == "filter":
            node = self._filter()
        elif op == "join":
            node = self._join()
        elif op == "sort":
            node = Sort(self.expr())
        elif op in _AGGREGATE_NAMES:
            node = self._aggregate()
        else:
            raise QuerySyntaxError(
                f"unknown operator {name!r} (expected filter, join, sort "
                f"or aggregate)")
        self.take("rpar")
        return node

    # ------------------------------------------------------------------
    def _filter(self) -> LogicalOp:
        child = self.expr()
        self.take("comma")
        predicate = self.function(self.take("word"))
        kwargs = self.keywords({"sel": "sel", "selectivity": "sel"})
        sel = self.number(kwargs.get("sel", "0.5"), "sel")
        return Filter(child, predicate, selectivity=sel)

    def _join(self) -> LogicalOp:
        left = self.expr()
        self.take("comma")
        right = self.expr()
        kwargs = self.keywords({"match": "match", "match_fraction": "match"})
        match = self.number(kwargs.get("match", "1.0"), "match")
        return Join(left, right, match_fraction=match)

    def _aggregate(self) -> LogicalOp:
        child = self.expr()
        kwargs = self.keywords({"groups": "groups", "key": "key"})
        groups = self.number(kwargs.get("groups", "64"), "groups")
        if groups != int(groups):
            raise QuerySyntaxError(
                f"expected a whole number for groups, found "
                f"{kwargs['groups']!r}")
        key_of = self.function(kwargs["key"]) if "key" in kwargs else None
        return Aggregate(child, groups=int(groups), key_of=key_of)

    # ------------------------------------------------------------------
    def keywords(self, allowed: Mapping[str, str]) -> dict[str, str]:
        """Trailing ``name=value`` arguments (values stay raw text),
        keyed by the canonical name ``allowed`` maps each spelling to;
        one argument given twice, under any spelling, is an error."""
        kwargs: dict[str, str] = {}
        while self.peek()[0] == "comma":
            self.take("comma")
            name = self.take("word")
            if name not in allowed:
                raise QuerySyntaxError(
                    f"unknown keyword {name!r} (expected one of "
                    f"{', '.join(sorted(allowed))})")
            canonical = allowed[name]
            if canonical in kwargs:
                raise QuerySyntaxError(
                    f"duplicate keyword {name!r} ({canonical} is already "
                    f"given)")
            self.take("equals")
            kind, value = self.peek()
            if kind not in ("number", "word"):
                raise QuerySyntaxError(
                    f"expected a value for {name}=, found {value!r}")
            kwargs[canonical] = self.take(kind)
        return kwargs

    def number(self, token: str, what: str) -> float:
        try:
            return float(token)
        except ValueError:
            raise QuerySyntaxError(
                f"expected a number for {what}, found {token!r}") from None

    def _lookup(self, registry: Mapping, name: str, what: str):
        try:
            return registry[name]
        except KeyError:
            known = ", ".join(sorted(registry)) or "none registered"
            raise QuerySyntaxError(
                f"unknown {what} {name!r} (known: {known})") from None

    def table(self, name: str) -> LogicalOp:
        node = self._lookup(self.tables, name, "table")
        self.table_names.add(name)
        return node

    def function(self, name: str) -> Callable:
        fn = self._lookup(self.functions, name, "predicate/key function")
        self.function_names.add(name)
        return fn


def parse_names(text: str, tables: Mapping[str, LogicalOp],
                functions: Mapping[str, Callable] | None = None
                ) -> tuple[LogicalOp, set[str], set[str]]:
    """:func:`parse_query`, plus the table names and the predicate/key
    names the parse resolved — what a remembered parse depends on."""
    if not text.strip():
        raise QuerySyntaxError("empty query")
    parser = _QueryParser(text, tables, functions or {})
    logical = parser.parse(parser.expr)
    return logical, parser.table_names, parser.function_names


def parse_query(text: str, tables: Mapping[str, LogicalOp],
                functions: Mapping[str, Callable] | None = None) -> LogicalOp:
    """Parse query text into a logical tree against named tables and
    predicate/key functions."""
    return parse_names(text, tables, functions)[0]
