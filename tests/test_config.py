"""Flat key=value configs: parsing, typing, layering, echo stability."""

import math

import pytest

from bayesdict.config import (
    REQUIRED,
    format_value,
    parse_config_text,
    parse_value,
    render_config,
    resolve,
)
from bayesdict.errors import ConfigParseError


def test_parse_text_basics():
    text = """
    # benchmark setup
    engine = gibbs

    iters=300
    snr_grid = 10 20 30
    """
    out = parse_config_text(text)
    assert out == {"engine": "gibbs", "iters": "300",
                   "snr_grid": "10 20 30"}


def test_parse_text_errors():
    with pytest.raises(ConfigParseError, match="line|:2"):
        parse_config_text("a = 1\nnot-a-pair\n", source="f.cfg")
    with pytest.raises(ConfigParseError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigParseError, match="empty key"):
        parse_config_text("= 3\n")


def test_value_kinds():
    assert parse_value("int", "42", "k") == 42
    assert parse_value("float", "1e-6", "k") == 1e-6
    assert parse_value("float", "inf", "k") == math.inf
    assert parse_value("bool", "true", "k") is True
    assert parse_value("bool", "0", "k") is False
    assert parse_value("str", "hello there", "k") == "hello there"
    assert parse_value("int_list", "1 2 3", "k") == [1, 2, 3]
    assert parse_value("float_list", "0.5 30", "k") == [0.5, 30.0]
    assert parse_value("sparsity_list", "3 3-6 5", "k") == [3, (3, 6), 5]


def test_value_kind_errors():
    with pytest.raises(ConfigParseError):
        parse_value("int", "3.5", "k")
    with pytest.raises(ConfigParseError):
        parse_value("float", "nan", "k")
    with pytest.raises(ConfigParseError, match="^k: not a number: 'abc'$"):
        parse_value("float", "abc", "k")
    with pytest.raises(ConfigParseError):
        parse_value("bool", "maybe", "k")
    with pytest.raises(ConfigParseError):
        parse_value("sparsity_list", "6-3", "k")
    with pytest.raises(ConfigParseError):
        parse_value("int_list", "1 two", "k")


def test_format_parse_round_trip():
    cases = [
        ("int", 300),
        ("float", 1e-06),
        ("float", 100000000.0),
        ("float", math.inf),
        ("float", 0.1),
        ("bool", True),
        ("bool", False),
        ("str", "gibbs"),
        ("int_list", [1000, 2000]),
        ("float_list", [10.0, 30.0]),
        ("sparsity_list", [3, (3, 6)]),
    ]
    for kind, value in cases:
        assert parse_value(kind, format_value(value), "k") == value


def test_resolve_layering_and_unknown_keys():
    schema = {
        "engine": ("str", "gibbs"),
        "iters": ("int", "300"),
        "seed": ("int", "0"),
    }
    out = resolve(schema, {"iters": "100"}, {"seed": 7}, "f.cfg")
    assert out == {"engine": "gibbs", "iters": 100, "seed": 7}

    # flags beat file values
    out = resolve(schema, {"iters": "100"}, {"iters": 50}, "f.cfg")
    assert out["iters"] == 50

    # None flags fall through to the file value
    out = resolve(schema, {"iters": "100"}, {"iters": None}, "f.cfg")
    assert out["iters"] == 100

    with pytest.raises(ConfigParseError, match="unknown key"):
        resolve(schema, {"itres": "100"}, {}, "f.cfg")


def test_resolve_required_keys():
    schema = {"input": ("str", REQUIRED), "gain": ("float", "1.15")}
    with pytest.raises(ConfigParseError, match="missing required"):
        resolve(schema, {}, {}, "f.cfg")
    out = resolve(schema, {"input": "x.pgm"}, {}, "f.cfg")
    assert out == {"input": "x.pgm", "gain": 1.15}


def test_render_config_sorted_and_reparseable():
    resolved = {"b_key": 2, "a_key": 1.5, "c_key": True, "d": [3, (4, 6)]}
    text = render_config(resolved)
    lines = text.strip().split("\n")
    assert lines == ["a_key = 1.5", "b_key = 2", "c_key = true",
                     "d = 3 4-6"]
    reparsed = parse_config_text(text)
    assert reparsed["a_key"] == "1.5"
    assert reparsed["d"] == "3 4-6"


def test_render_is_idempotent_through_parse():
    """Echo -> parse -> echo is a fixed point, which replay relies on."""
    schema = {
        "beta": ("float", "1.0"),
        "engine": ("str", "gibbs"),
        "iters": ("int", "300"),
        "k_grid": ("sparsity_list", "3"),
        "snr_grid": ("float_list", "30.0"),
    }
    first = resolve(schema, {"k_grid": "3-6 4", "beta": "1e8"}, {})
    echo1 = render_config(first)
    second = resolve(schema, parse_config_text(echo1), {})
    echo2 = render_config(second)
    assert echo1 == echo2
