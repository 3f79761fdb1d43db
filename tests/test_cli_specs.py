"""CLI inputs decoded by the strict specs: the optimiser's design spec and
the ordering choices.

A malformed ``repro optimize`` spec exits 2 with one ``error:`` line that
names the field (never a traceback, never a silently ignored key), and an
ordering the engine no longer offers is an argparse error.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

TREE = """toplevel "sys";
"P1" lambda=1;
"S1" lambda=1 dorm=0;
"E1" lambda=0.5;
"E2" lambda=0.5;
"U1" wsp "P1" "S1";
"U2" and "E1" "E2";
"sys" or "U1" "U2";
"""

SPEC = {
    "tree": "design.dft",
    "budget": 1.0,
    "choices": [
        {"kind": "spares", "gate": "U1", "counts": [1], "costs": [0.0]},
        {"kind": "repair", "event": "E1", "rates": [None, 2.0], "costs": [0.0, 1.0]},
    ],
}


def _spec(tmp_path, **changes):
    spec = json.loads(json.dumps(SPEC))
    for key, value in changes.items():
        if value is None:
            del spec[key]
        else:
            spec[key] = value
    (tmp_path / "design.dft").write_text(TREE, encoding="utf-8")
    path = tmp_path / "design.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"choices": None}, "'choices' is missing"),
        ({"budget": "1"}, "'budget' must be a number"),
        ({"budget": None, "budgit": 1}, "budgit"),
        ({"choices": [{"kind": "spare", "gate": "U1", "counts": [1], "costs": [0.0]}]},
         "'choices[0].kind' must be one of ['repair', 'spares']"),
        ({"choices": [{"kind": "spares", "gate": "U1", "counts": 1, "costs": [0.0]}]},
         "'choices[0].counts' must be a list"),
        ({"choices": [{"kind": ["spares"], "gate": "U1", "counts": [1], "costs": [0.0]}]},
         "'choices[0].kind' must be one of"),
    ],
    ids=[
        "no-choices", "string-budget", "misspelt-budget", "unknown-kind", "counts-not-a-list",
        "list-kind",
    ],
)
def test_malformed_design_spec_exits_2_naming_the_field(tmp_path, capsys, changes, named):
    assert main(["optimize", _spec(tmp_path, **changes), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert named in captured.err
    assert "Traceback" not in captured.err


def test_well_formed_design_spec_runs(tmp_path, capsys):
    assert main(["optimize", _spec(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["budget"] == 1.0
    assert [choice["name"] for choice in payload["best"]["design"]] == [
        "spares:U1", "repair:E1"
    ]


def test_invalid_json_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "design.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["optimize", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_smallest_ordering_is_an_argparse_error(tmp_path, capsys):
    tree = tmp_path / "tree.dft"
    tree.write_text(TREE, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", str(tree), "--ordering", "smallest"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'smallest'" in capsys.readouterr().err
