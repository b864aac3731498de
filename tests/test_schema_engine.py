"""The schema engine's own vocabulary (:func:`repro.obs.schema.check`,
:func:`repro.obs.schema.spec`) — the shapes it is used for are pinned
by ``test_schema_corpus.py``."""

import pytest

from repro.obs.schema import check, check_file, spec


@pytest.mark.parametrize("bad", [
    "integer",                          # not a scalar token
    "number>=5",                        # bounds are a fixed vocabulary
    ("listof", "str"),                  # not a compound kind
    {"rows": ("list", {"n": "flaot"})},  # nested, inside a list item
    ("union", {"kind": {"a": {"x": "strr"}}}),
    ("object", {"x": "number"}, "not a rule"),
    ["list", "str"],                    # a compound is a tuple
    (),
    None,
])
def test_an_unknown_token_fails_where_the_spec_is_defined(bad):
    with pytest.raises(ValueError, match="unknown spec token"):
        spec(bad)


def test_a_known_spec_is_returned_as_the_same_data():
    shape = {"n": "int>=0", "tags?": ("list", "str+"),
             "mode": ("one_of", "a", "b")}
    assert spec(shape) is shape


@pytest.mark.parametrize("token", [
    "number", "number>=0", "number>0", "int", "int>=0", "int>=1",
    "number|str"])
def test_a_bool_is_never_a_number_or_an_int(token):
    assert check(token, True, "x") == [f"x must be {_wanted(token)}"]
    assert check(token, False, "x")
    assert check(token, 1, "x") == []


def _wanted(token):
    return check(token, None, "x")[0].removeprefix("x must be ")


def test_scalar_bounds():
    assert check("number>=0", 0.0, "x") == []
    assert check("number>0", 0.0, "x") == ["x must be a positive number"]
    assert check("int>=1", 0, "x") == ["x must be a positive int"]
    assert check("int", 1.0, "x") == ["x must be an int"]
    assert check("str+", "", "x") == ["x must be a non-empty string"]
    assert check("str", "", "x") == []
    assert check("number|str", None, "x")
    assert check("any", None, "x") == []


def test_problems_carry_nested_paths():
    shape = {"rows": ("list+", {"cells": ("list", ("tuple", "str", "int")),
                                "by": ("map", {"n": "int"})})}
    data = {"rows": [{"cells": [["a", 1]], "by": {}},
                     {"cells": [["a", 1], ["b", "2"]],
                      "by": {"k": {"n": 1.5}}}]}
    assert check(shape, data) == [
        "rows[1].cells[1][1] must be an int",
        "rows[1].by.k.n must be an int",
    ]
    assert check(shape, data, "report") == [
        "report.rows[1].cells[1][1] must be an int",
        "report.rows[1].by.k.n must be an int",
    ]


def test_object_keys_required_optional_and_unknown():
    shape = {"id": "int", "note?": "str", "size": "any"}
    assert check(shape, {"id": 1, "size": None, "extra": object()}) == []
    assert check(shape, {"id": 1, "size": 0, "note": None}) == []
    assert check(shape, {"note": 3}) == [
        "id is missing", "note must be a string", "size is missing"]
    assert check(shape, {"id": None, "size": 1}) == ["id must be an int"]
    assert check(shape, [], "row") == ["row must be an object"]
    assert check(shape, []) == ["payload must be an object"]


def test_lists_tuples_maps_and_constants():
    assert check(("list", "int"), (), "x") == ["x must be a list"]
    assert check(("list+", "int"), [], "x") == ["x must be a non-empty list"]
    assert check(("tuple", "str", "int"), ["a"], "x") == [
        "x must be a list of 2 entries"]
    assert check(("map", "str"), {1: "a"}, "x") == [
        "x key 1 must be a string"]
    assert check(("one_of", "t", "p"), "g", "x.s") == [
        "x.s must be 't' or 'p', got 'g'"]
    assert check(("one_of", 1), [], "v") == ["v must be 1, got []"]


def test_a_union_selects_the_shape_by_its_tag():
    shape = ("union", {"kind": {"a": {"n": "int"}, "b": {"s": "str"}}})
    assert check(shape, {"kind": "a", "n": 1}) == []
    assert check(shape, {"kind": "b", "s": 1}, "events[2]") == [
        "events[2].s must be a string"]
    # at the top level the tag stands in for the missing path
    assert check(shape, {"kind": "b", "s": 1}) == ["b.s must be a string"]
    assert check(shape, {"kind": "c"}) == ["kind must be 'a' or 'b', got 'c'"]
    assert check(shape, {"kind": ["a"]}, "e") == [
        "e.kind must be 'a' or 'b', got ['a']"]
    assert check(shape, "a", "e") == ["e must be an object"]


def test_rule_hooks_see_the_object_and_its_path():
    def ordered(data, where):
        if data.get("low", 0) > data.get("high", 0):
            yield f"{where} low above high"

    shape = {"ranges": ("list", ("object", {"unit": "str+"}, ordered))}
    assert check(shape, {"ranges": [{"unit": "ns", "low": 1, "high": 2},
                                    {"unit": "ns", "low": 3, "high": 2}]}
                 ) == ["ranges[1] low above high"]
    # hooks run on a dict even when its fields do not conform (so they
    # must tolerate what the spec rejects) ...
    assert check(shape, {"ranges": [{"low": 3, "high": 2}]}) == [
        "ranges[0].unit is missing",
        "ranges[0] low above high"]
    # ... and never on a non-object
    assert check(shape, {"ranges": [7]}) == ["ranges[0] must be an object"]


def test_check_file_reads_parses_validates_or_reports_unreadable(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"n": 1}')
    assert check_file(path, lambda data: [f"saw {data['n']}"]) == ["saw 1"]
    assert check_file(path, len, parse=str.split) == 2
    path.write_text("{")
    for unreadable in (path, tmp_path / "absent.json", tmp_path):
        (problem,) = check_file(unreadable, lambda data: [])
        assert problem.startswith("unreadable: ")
