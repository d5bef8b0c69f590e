import json
from datetime import datetime, timedelta

import pytest
from hypothesis import given, strategies as st

from helpers import oracle_parse_timestamp_ms
from logcompass.events import parse_events
from logcompass.timeutil import format_timestamp_s, parse_timestamp_ms, parse_timestamps_ms


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1970-01-01T00:00:00Z", 0),
        ("1970-01-01T00:00:01Z", 1000),
        ("2021-03-01T10:00:00Z", 1614592800000),
        ("2021-03-01T10:00:00", 1614592800000),  # naive means UTC
        ("2021-03-01T10:00:00.5Z", 1614592800500),
        ("2021-03-01T10:00:00.123456Z", 1614592800123),  # truncated to ms
        ("2021-03-01T11:00:00+01:00", 1614592800000),
        ("2021-03-01 10:00:00", 1614592800000),  # space separator
        ("2021-03-01T10:00:00.987654321Z", 1614592800987),  # any fraction length
        ("20210301T100000Z", 1614592800000),  # basic format
        ("2021-W09-1T10:00:00Z", 1614592800000),  # week date
        ("1969-12-31T23:59:59.9995Z", -1),  # truncation rounds toward the past
    ],
)
def test_parse_timestamp(text, expected):
    assert parse_timestamp_ms(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "yesterday", "2021-13-01T00:00:00Z", "2021-03-01T25:00:00Z", "2021-03-01T10:61:00Z", "123abc",
     "2021-03-01T10:00:00z"],
)
def test_parse_timestamp_rejects(text):
    with pytest.raises(ValueError):
        parse_timestamp_ms(text)


def test_format_timestamp():
    assert format_timestamp_s(0) == "1970-01-01T00:00:00Z"
    assert format_timestamp_s(1614592800000) == "2021-03-01T10:00:00Z"


_MS_YEAR_1 = (datetime(1, 1, 1) - datetime(1970, 1, 1)) // timedelta(milliseconds=1)
_MS_YEAR_9999 = (datetime(9999, 12, 31, 23, 59, 59, 999_000) - datetime(1970, 1, 1)) // timedelta(milliseconds=1)


@given(st.integers(_MS_YEAR_1, _MS_YEAR_9999))
def test_format_timestamp_matches_datetime(ms):
    want = (datetime(1970, 1, 1) + timedelta(milliseconds=ms)).replace(microsecond=0).isoformat() + "Z"
    assert format_timestamp_s(ms) == want


def test_format_parse_round_trip():
    for ms in (0, 1614592800000, 4102444799000):
        assert parse_timestamp_ms(format_timestamp_s(ms)) == ms


# Strings the old hand-written fast path accepted and fromisoformat rejects:
# a one-digit second read as :00, non-ASCII digits in the time or the
# fraction, and a week or basic date misaligned into the first ten
# characters. A date with Z and no time was accepted through the old
# Z-to-+00:00 rewrite.
FALSE_ACCEPTS = [
    "2021-03-01T10:00:0",
    "2021-03-01T1\u0663:00:00Z",
    "2021-03-01T10:00:00.\u0665Z",
    "2021W03401T10:00:00.5Z",
    "2021-03-01Z",
]


@pytest.mark.parametrize("text", FALSE_ACCEPTS)
def test_old_false_accepts_are_rejected(text):
    oracle_parse_timestamp_ms(text)  # the old parser took these
    with pytest.raises(ValueError):
        parse_timestamp_ms(text)


@pytest.mark.parametrize("text", FALSE_ACCEPTS)
def test_old_false_accepts_are_diagnostics(text):
    line_a = f"{text},u1,a1\n"
    line_b = json.dumps({"ts": text, "user": "u1", "item": "a1"}) + "\n"
    for line, fmt in [(line_a, "a"), (line_b, "b")]:
        events, diags = parse_events([line], fmt)
        assert len(events) == 0
        assert [str(d) for d in diags] == [f"line 1: bad timestamp {text!r}"]


@st.composite
def iso_timestamps(draw):
    """Valid timestamps: 0-9 fraction digits, T or space, Z, an offset or naive."""
    dt = draw(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)))
    text = dt.strftime("%Y-%m-%d") if dt.year >= 1000 else f"{dt.year:04d}-{dt:%m-%d}"
    text += draw(st.sampled_from("T ")) + f"{dt:%H:%M:%S}"
    digits = draw(st.integers(0, 9))
    if digits:
        text += "." + draw(st.text("0123456789", min_size=digits, max_size=digits))
    zone = draw(st.sampled_from(["naive", "Z", "offset"]))
    if zone == "Z":
        text += "Z"
    elif zone == "offset":
        minutes = draw(st.integers(-(23 * 60 + 59), 23 * 60 + 59))
        sign = "-" if minutes < 0 else "+"
        text += f"{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"
    return text


@given(iso_timestamps())
def test_valid_timestamps_match_oracle(text):
    assert parse_timestamp_ms(text) == oracle_parse_timestamp_ms(text)


_MUTATION_CHARS = "0123456789:-.+ TZWz,_a\u0663\u0665\u0966\u00a0"


@st.composite
def mutated_timestamps(draw):
    """A valid timestamp with one to three characters replaced, inserted or deleted."""
    chars = list(draw(iso_timestamps()))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        i = draw(st.integers(0, len(chars)))
        c = draw(st.sampled_from(_MUTATION_CHARS))
        if op == "insert":
            chars.insert(i, c)
        elif i < len(chars):
            if op == "replace":
                chars[i] = c
            else:
                del chars[i]
    return "".join(chars)


@given(mutated_timestamps())
def test_never_accepts_what_the_oracle_rejects(text):
    try:
        got = parse_timestamp_ms(text)
    except ValueError:
        return
    assert oracle_parse_timestamp_ms(text) == got


def test_parse_timestamps_ms_matches_parse_timestamp_ms():
    naive = ["2021-03-01T10:00:00", "1969-12-31T23:59:59.9999", "0001-01-01T00:00:00"]
    aware = ["2021-03-01T10:00:00Z", "2021-03-01T11:00:00+01:00", "9999-12-31T23:59:59-23:59"]
    for texts in (naive, aware, []):
        assert parse_timestamps_ms(texts) == [parse_timestamp_ms(t) for t in texts]
    with pytest.raises(TypeError):
        parse_timestamps_ms([naive[0], aware[0]])
    with pytest.raises(TypeError):
        parse_timestamps_ms([aware[0], naive[0]])
    with pytest.raises(ValueError):
        parse_timestamps_ms([naive[0], "2021-13-01"])
