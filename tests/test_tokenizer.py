import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexiscope.tokenizer import split_identifier

identifiers = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,30}", fullmatch=True)


def _reference_split(name):
    """The split as written first: cut at separators and digit runs, then into camel-case pieces."""
    return [
        match.group(0).lower()
        for piece in re.split(r"[_$0-9]+", name)
        for match in re.finditer(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+", piece)
    ]


@given(identifiers | st.text() | st.text(alphabet="aZbY_$09 -\u00e9\u212a"))
def test_split_agrees_with_reference(name):
    assert split_identifier(name) == _reference_split(name)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("setValue", ["set", "value"]),
        ("a", ["a"]),
        ("XMLHttpRequest", ["xml", "http", "request"]),
        ("MAX_VALUE2", ["max", "value"]),
        ("wheelCount", ["wheel", "count"]),
        ("getXMLParser", ["get", "xml", "parser"]),
        ("parseHTML", ["parse", "html"]),
        ("IOError", ["io", "error"]),
        ("value2car", ["value", "car"]),
        ("_foo$bar_", ["foo", "bar"]),
        ("aXb", ["a", "xb"]),
        ("HTMLParser", ["html", "parser"]),
        ("getX", ["get", "x"]),
        ("$", []),
        ("__42__", []),
        ("snake_case_name", ["snake", "case", "name"]),
    ],
)
def test_split_golden(name, expected):
    assert split_identifier(name) == expected


@given(identifiers)
def test_reconstruction(name):
    tokens = split_identifier(name)
    assert "".join(tokens) == re.sub(r"[_$0-9]", "", name).lower()


@given(identifiers)
def test_tokens_are_lowercase_alphabetic(name):
    for token in split_identifier(name):
        assert re.fullmatch(r"[a-z]+", token)


@given(identifiers)
def test_idempotence(name):
    for token in split_identifier(name):
        assert split_identifier(token) == [token]
