"""The JSON emitter: its bytes equal `json.dumps(envelope, indent=2, sort_keys=True)`."""

import csv
import io
import json
import math
import sys

import pytest

from rqclattice import cli


def reference(envelope) -> str:
    return json.dumps(envelope, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [
    "plaquettes --k 1",
    "plaquettes --k 2",
    "plaquettes --k 2 --q 7 --nonzero-only",
    "plaquettes --k 3 --q 2",
    "plaquettes --k 3 --nonzero-only",
    "plaquettes --k 4",
    "plaquettes --k 4 --q 3",
    "plaquettes --k 4 --nonzero-only",
    "plaquettes --k 4 --q 2 --nonzero-only",
    "plaquettes --k 2 --key 21 12 --q 5",
    "plaquettes --k 3 --key 213 213 --nonzero-only",
    "weingarten --k 4 --d 3",
    "weingarten --k 3 --d 2",
    "weingarten --k 2",
    "bounds --n 16 --q 2 --k 2 --t 4 --epsilon 0.01",
    "bounds --n 100 --q 2 --k 10",
    "bounds --n 10 --q 3 --k 3 --epsilon 0.01",
    "verify --k 2 --q 2",
    "framepotential exact-transfer --n 4 --q 2 --t 2 --k 2",
    "framepotential exact-transfer --n 4 --q 2 --t 2 --k 2 --backend float",
    "framepotential exact-direct --n 4 --q 2 --t 2 --k 2 --bc periodic",
    "framepotential montecarlo --n 4 --q 2 --t 2 --k 2 --samples 20 --seed 1",
    "geometry --n 4 --t 2 --bc periodic",
])
def test_every_subcommand_envelope(capsys, monkeypatch, argv):
    envelopes = []
    emit = cli._emit

    def recording(envelope, *args, **kwargs):
        envelopes.append(envelope)
        return emit(envelope, *args, **kwargs)

    monkeypatch.setattr(cli, "_emit", recording)
    assert cli.main(argv.split()) == 0
    out = capsys.readouterr().out
    (envelope,) = envelopes
    assert cli._dumps(envelope) == reference(envelope)
    assert out == reference(envelope) + "\n"


def envelope(result, **parameters):
    return cli._envelope("synthetic", parameters, result, {"method": "test"})


ROWS = [
    {"quote": 'say "hi"', "backslash": "a\\b\\\\c", "newline": "one\ntwo\r\n\tend"},
    {"text": "Wg(σ, d) ≤ ½ — 𝔽", "control": "\x00\x1f\x7f", "braces": "},\n      {"},
    {"yes": True, "no": False, "none": None, "zero": 0, "big": 10**40, "neg": -7},
    {"float": 0.1, "tiny": 5e-324, "huge": 1e300, "neg_zero": -0.0, "whole": 2.0,
     "inf": math.inf, "ninf": -math.inf, "nan": math.nan},
    {"z": 1, "a": 2, "M": 3, "é": 4, "": 5},
    {1: "int key", 2: "another"},
]


# more rows than one piece of `_emit` holds, the last piece a short one
MANY_ROWS = [{"i": i, "text": f"row {i}", "odd": i % 2 == 1} for i in range(2 * cli._CHUNK_ROWS + 3)]


@pytest.mark.parametrize("result", [
    ROWS,
    ROWS[:1],
    MANY_ROWS,
    ROWS * cli._CHUNK_ROWS,
    [{"only": "field"}] * 3,
    [],
    [{}],
    [{"a": 1}, {}],
    [{"nested": {"b": [1, 2]}}],
    [{"a": 1}, {"list": [1, "x"]}],
    [{"tuple": (1, 2)}],
    ["not", "rows"],
    [["a", 1]],
    [[]],
    ({"a": 1},),
    {"ok": True, "sections": [{"a": 1}]},
    "scalar",
    None,
    17,
])
def test_synthetic_results(result):
    env = envelope(result, text='"result": null\n}', k=2)
    assert cli._dumps(env) == reference(env)


def test_result_not_last_key_takes_the_indented_dump():
    env = dict(envelope([{"a": 1}]), zzz="after result")
    assert cli._dumps(env) == reference(env)


def _plaquette_envelope(monkeypatch, argv):
    """The envelope a plaquettes command hands to `_emit`."""
    envelopes = []
    monkeypatch.setattr(cli, "_emit", lambda envelope, *args: envelopes.append(envelope))
    assert cli.main(argv.split()) == 0
    monkeypatch.undo()
    return envelopes[0]


def test_plaquette_rows_are_spliced_per_class(monkeypatch):
    env = _plaquette_envelope(monkeypatch, "plaquettes --k 4 --q 3")
    rows = env["result"]
    assert type(rows) is cli._KeyedRows and len(rows) == 24**2
    assert len(rows.fields) == 43  # classes of S_4 keys under simultaneous conjugation
    # only the envelope around the rows goes through the pure-Python encoder
    make = json.encoder._make_iterencode
    encoded = []

    def recording(*args, **kwargs):
        iterencode = make(*args, **kwargs)

        def run(obj, level):
            encoded.append(obj)
            return iterencode(obj, level)

        return run

    expected = reference(env)
    monkeypatch.setattr(json.encoder, "_make_iterencode", recording)
    assert cli._dumps(env) == expected
    assert [obj["result"] for obj in encoded] == [None]


def csv_reference(rows) -> str:
    """`csv.DictWriter` on the materialised rows, fields in order of first appearance."""
    rows = list(rows)
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(dict.fromkeys(name for row in rows for name in row)))
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("argv", list(dict.fromkeys(["plaquettes --k 3 --q 2"] + [
    f"plaquettes --k {k}{options}" for k in (1, 2, 3, 4)
    for options in ("", " --q 3", " --nonzero-only", " --q 2 --nonzero-only")
])))
def test_plaquette_csv_is_that_of_the_row_list(monkeypatch, capsys, argv):
    env = _plaquette_envelope(monkeypatch, argv)
    assert cli.main(f"{argv} --format csv".split()) == 0
    assert capsys.readouterr().out == csv_reference(env["result"])


def test_keyed_rows_read_as_their_list():
    names = ["12", "21"]
    fields = [{"across": 0, "weight": "1", "tag": 'a "b"'}, None, {"in_left": 1, "value_at_q": None}]
    rows = cli._KeyedRows(names, [(0, 0, 0), (1, 0, 2), (0, 1, 2)], fields)
    as_list = [
        {"key_left": "12", "key_right": "12", **fields[0]},
        {"key_left": "21", "key_right": "12", **fields[2]},
        {"key_left": "12", "key_right": "21", **fields[2]},
    ]
    assert list(rows) == as_list and len(rows) == 3 and rows
    assert not cli._KeyedRows(names, [], fields)
    for result in (rows, cli._KeyedRows(names, [], fields), cli._KeyedRows([], [], [])):
        env = envelope(result, k=2)
        assert cli._dumps(env) == reference(env)
    # more cells than one piece holds
    many = cli._KeyedRows(names, [(i % 2, i // 2 % 2, i % 3 // 2 * 2) for i in range(cli._CHUNK_ROWS + 1)],
                          fields)
    assert len(list(many)) == len(many) == cli._CHUNK_ROWS + 1
    env = envelope(many, k=2)
    assert cli._dumps(env) == reference(env)
    # rows with no field before, or none after, the keys
    env = envelope(cli._KeyedRows(names, [(1, 1, 0)], [{"aaa": 1}]))
    assert cli._dumps(env) == reference(env)
    env = envelope(cli._KeyedRows(names, [(1, 1, 0)], [{"zzz": 1}]))
    assert cli._dumps(env) == reference(env)


@pytest.mark.parametrize("field, match", [
    ({"key_left": 1}, "between"), ({"key_m": 1}, "between"), ({"key_right": 1}, "between"),
    ({"a": [1, 2]}, "scalar"), ({"z": {"b": 1}}, "scalar"),
])
def test_keyed_rows_refuse_what_the_splice_cannot_write(field, match):
    with pytest.raises(ValueError, match=match):
        cli._KeyedRows(["1"], [(0, 0, 0)], [None, field])


class _Pieces:
    """A stdout that keeps each write."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return len(text)


@pytest.mark.parametrize("rows", [
    MANY_ROWS,
    # a field first seen in the last piece still heads the CSV
    [{"a": i} for i in range(2 * cli._CHUNK_ROWS)] + [{"b": "late", "a": -1}],
])
def test_emit_writes_a_list_result_piece_by_piece(monkeypatch, rows):
    env = envelope(rows)
    stdout = _Pieces()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli._emit(env, "json")
    assert "".join(stdout.pieces) == reference(env) + "\n"
    stdout.pieces.clear()
    cli._emit(env, "csv")
    assert "".join(stdout.pieces) == csv_reference(rows)
    assert len(stdout.pieces) > len(rows) // cli._CHUNK_ROWS
    assert max(piece.count("\r\n") for piece in stdout.pieces) <= cli._CHUNK_ROWS + 1  # and the header


def test_plaquette_dump_is_written_piece_by_piece(monkeypatch):
    env = _plaquette_envelope(monkeypatch, "plaquettes --k 4 --q 2")
    stdout = _Pieces()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli._emit(env, "json")
    assert "".join(stdout.pieces) == reference(env) + "\n"
    # full pieces of rows, a short last one, then the closing bracket and newline
    counts = [piece.count('"key_left"') for piece in stdout.pieces]
    assert counts[-2:] == [0, 0] and sum(counts) == 576
    assert set(counts[:-3]) == {cli._CHUNK_ROWS} and 0 < counts[-3] <= cli._CHUNK_ROWS
