import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexiscope.tokenizer import split_identifier

identifiers = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,30}", fullmatch=True)


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
