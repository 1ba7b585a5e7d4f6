"""The table of value kinds that the stages read back from disk
(``artifacts.KINDS``) and the one check that reads a mapping by it."""

import math

import pytest

from miscuq.artifacts import KINDS, MALFORMED, check

# each probe value by a name for it
PROBES = {"true": True, "1.5": 1.5, "text_1": "1", "inf": math.inf, "text_nan": "nan",
          "decimal_text": "0.5", "hex": "0x1p+0", "hex_out_of_range": "0x1p+2000",
          "one": 1, "zero": 0, "mapping": {}}
TEXT = {"text_1", "text_nan", "decimal_text", "hex", "hex_out_of_range"}
# the probes each kind of one value accepts, by name
ACCEPTED = {
    "an integer": {"one", "zero"},
    "an integer >= 1": {"one"},
    "a finite number": {"1.5", "one", "zero"},
    "a positive finite number": {"1.5", "one"},
    "a name": TEXT,
    "a mapping": {"mapping"},
    "a hex float": {"hex"},
    # float.hex writes 1.0 as 0x1.0000000000000p+0
    "a hex float as float.hex writes it": set(),
}


def accepts(kind, value) -> bool:
    try:
        check({"key": value}, {"key": kind})
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("kind", ACCEPTED)
def test_each_kind_of_one_value(kind):
    assert {name for name, value in PROBES.items() if accepts(kind, value)} == ACCEPTED[kind]


@pytest.mark.parametrize("kind", [k for k, spec in KINDS.items() if isinstance(spec, tuple)])
def test_each_kind_of_list_or_mapping(kind):
    container, item = KINDS[kind]

    def wrap(value):
        return {"k": value} if container is dict else [value]

    assert {name for name, value in PROBES.items() if accepts(kind, wrap(value))} == \
        ACCEPTED[item]
    assert accepts(kind, container())
    assert not accepts(kind, "x")
    assert not accepts(kind, {} if container is list else [])


def test_every_kind_is_tested():
    assert set(KINDS) == set(ACCEPTED) | {k for k, s in KINDS.items() if isinstance(s, tuple)}


def test_hex_float_keys_round_trip():
    assert accepts("a hex float as float.hex writes it", (1.0).hex())
    assert accepts("a hex float as float.hex writes it", (-0.0).hex())
    assert not accepts("a hex float as float.hex writes it", "0x1.0000000000000P+0")


def test_hex_floats_read_as_their_doubles():
    doc = {"x": "-0x1.8p+1", "xs": ["0x0.0p+0", "-0x0.0p+0"], "by": {"a": (0.1).hex()}}
    got = check(doc, {"x": "a hex float", "xs": "a list of hex floats",
                      "by": "a mapping of hex floats"})
    assert got == {"x": -3.0, "xs": [0.0, -0.0], "by": {"a": 0.1}}
    assert math.copysign(1.0, got["xs"][1]) == -1.0
    assert check({"x": "-0x0.0000000000001p-1022"}, {"x": "a hex float"}) == {"x": -5e-324}


def test_other_values_pass_unchanged():
    doc = {"n": 3, "names": ["a", "b"], "extra": None}
    assert check(doc, {"n": "an integer", "names": "a list of names"}) == {
        "n": 3, "names": ["a", "b"]}


@pytest.mark.parametrize("doc, kinds, message", [
    ({"v": "0.5"}, {"v": "a hex float"}, "v: expected a hex float, got '0.5' (not 0x hex text)"),
    ({"v": "nan"}, {"v": "a hex float"}, "v: expected a hex float, got 'nan' (non-finite)"),
    ({"v": 1.5}, {"v": "a hex float"}, "v: expected a hex float, got 1.5 (not text)"),
    ({"v": True}, {"v": "an integer"}, "v: expected an integer, got True"),
    ({"v": ["0x1p+0", "1"]}, {"v": "a list of hex floats"},
     "v: expected a hex float at [1], got '1' (not 0x hex text)"),
    ({"v": {"u_2": "inf"}}, {"v": "a mapping of hex floats"},
     "v: expected a hex float at ['u_2'], got 'inf' (non-finite)"),
    ({"v": "abc"}, {"v": "a list of names"}, "v: expected a list of names, got 'abc'"),
    ({"v": 1}, {"v": "an integer", "w": "a name"}, "missing keys ['w']"),
    ([1], {"v": "an integer"}, "expected a JSON mapping, got list"),
])
def test_refusal_names_key_kind_and_value(doc, kinds, message):
    with pytest.raises(ValueError) as err:
        check(doc, kinds)
    assert str(err.value) == message
    assert isinstance(err.value, MALFORMED)


def test_refusal_names_the_place():
    with pytest.raises(ValueError, match=r"^entries\[2\]\.alpha: expected an integer >= 1, got 0$"):
        check({"alpha": 0}, {"alpha": "an integer >= 1"}, "entries[2].")
