import json

import pytest

from isomon import cli
from isomon.cli import main
from isomon.jsonio import element_from_obj


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_element(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_eval(capsys):
    rc, out, _ = run(capsys, "eval", "e[3] b a^3")
    assert rc == 0
    assert json.loads(out) == {"kind": "nat", "shift": 2, "exceptions": [1, 3]}


def test_eval_identity(capsys):
    rc, out, _ = run(capsys, "eval", "I")
    assert rc == 0
    assert json.loads(out) == {"kind": "nat", "shift": 0, "exceptions": []}


def test_eval_syntax_error(capsys):
    rc, _, err = run(capsys, "eval", "e[1]")
    assert rc == 1
    assert "offset" in err


def test_compose_nat(tmp_path, capsys):
    left = write_element(tmp_path, "l.json", {"kind": "nat", "shift": 1, "exceptions": []})
    right = write_element(tmp_path, "r.json", {"kind": "nat", "shift": -1, "exceptions": [1]})
    rc, out, _ = run(capsys, "compose", left, right)
    assert rc == 0
    assert json.loads(out) == {"kind": "nat", "shift": 0, "exceptions": []}


def test_compose_int(tmp_path, capsys):
    left = write_element(tmp_path, "l.json",
                         {"kind": "int", "a": 1, "reflect": False, "exceptions": [0]})
    right = write_element(tmp_path, "r.json",
                          {"kind": "int", "a": 0, "reflect": False, "exceptions": [1, 2]})
    rc, out, _ = run(capsys, "compose", left, right)
    assert rc == 0
    assert json.loads(out) == {"kind": "int", "a": 1, "reflect": False,
                               "exceptions": [0, 1]}


def test_compose_kind_mismatch(tmp_path, capsys):
    left = write_element(tmp_path, "l.json", {"kind": "nat", "shift": 0, "exceptions": []})
    right = write_element(tmp_path, "r.json",
                          {"kind": "int", "a": 0, "reflect": False, "exceptions": []})
    rc, _, err = run(capsys, "compose", left, right)
    assert rc == 1
    assert "kind" in err


def test_decompose(tmp_path, capsys):
    elem = write_element(tmp_path, "g.json",
                         {"kind": "nat", "shift": 2, "exceptions": [1, 3]})
    rc, out, _ = run(capsys, "decompose", elem)
    assert rc == 0 and out.strip() == "e[3] b a^3"
    rc, out, _ = run(capsys, "decompose", "--k", "2", elem)
    assert rc == 0 and out.strip() == "b e[2] a^3"


def test_decompose_not_in_filtration(tmp_path, capsys):
    elem = write_element(tmp_path, "g.json",
                         {"kind": "nat", "shift": 0, "exceptions": [5]})
    rc, _, err = run(capsys, "decompose", "--k", "2", elem)
    assert rc == 1 and "filtration" in err


def test_sigma(tmp_path, capsys):
    nat = write_element(tmp_path, "n.json", {"kind": "nat", "shift": 2, "exceptions": [1, 3]})
    rc, out, _ = run(capsys, "sigma", nat)
    assert rc == 0 and json.loads(out) == 2
    zee = write_element(tmp_path, "z.json",
                        {"kind": "int", "a": 2, "reflect": True, "exceptions": [0]})
    rc, out, _ = run(capsys, "sigma", zee)
    assert rc == 0 and json.loads(out) == {"a": 2, "reflect": True}


def test_hclass(capsys):
    rc, out, _ = run(capsys, "hclass", "--exceptions", "0,3")
    assert rc == 0
    assert json.loads(out) == {"group": "Z2", "center": {"doubled": 3}}
    rc, out, _ = run(capsys, "hclass", "--exceptions", "0,2,3")
    assert json.loads(out) == {"group": "Trivial"}
    rc, out, _ = run(capsys, "hclass", "--exceptions", "")
    assert json.loads(out) == {"group": "FullUnits"}
    rc, out, _ = run(capsys, "hclass", "--exceptions", " -1 , +3 ")
    assert json.loads(out) == {"group": "Z2", "center": {"doubled": 2}}
    # a leading "-" would be read as an option; the "=" form keeps it a value
    rc, out, _ = run(capsys, "hclass", "--exceptions=-1,3")
    assert rc == 0 and json.loads(out) == {"group": "Z2", "center": {"doubled": 2}}


@pytest.mark.parametrize("text", ["\u0661,\u0662", "1_0, 3", "3\u00a0", "1,,3"])
def test_hclass_refuses_non_decimal_exceptions(capsys, text):
    rc, out, err = run(capsys, "hclass", "--exceptions", text)
    assert rc == 1 and out == ""
    assert err.startswith("isomon: --exceptions:")


@pytest.mark.parametrize("text, values", [("3,3,0", [3, 3, 0]), ("3,0", [3, 0]),
                                          ("1,1", [1, 1])],
                         ids=["repeat-and-descend", "descend", "repeat"])
def test_hclass_exceptions_must_be_strictly_increasing(capsys, text, values):
    rc, out, err = run(capsys, "hclass", "--exceptions", text)
    assert rc == 1 and out == ""
    assert err == ("isomon: --exceptions: expected strictly increasing integers, "
                   f"got {values!r}\n")
    rc, out, _ = run(capsys, "hclass", "--exceptions", "0,3")
    assert rc == 0 and json.loads(out) == {"group": "Z2", "center": {"doubled": 3}}


@pytest.mark.parametrize("text", ["\u0663", "1_0", "\uff13", "3\u00a0"])
@pytest.mark.parametrize("argv", [
    ("order", "--a", "{}"),
    ("decompose", "--k", "{}", "{elem}"),
    ("extend", "--n", "{}", "{elem}"),
    ("check", "--suite", "refute-fg", "--bound", "{}"),
    ("check", "--suite", "refute-fg", "--shift-bound", "{}"),
    ("check", "--suite", "refute-fg", "--jobs", "{}"),
], ids=["a", "k", "n", "bound", "shift-bound", "jobs"])
def test_integer_options_take_only_ascii_decimals(tmp_path, capsys, argv, text):
    elem = write_element(tmp_path, "g.json", {"kind": "nat", "shift": 0, "exceptions": []})
    with pytest.raises(SystemExit) as err:
        main([arg.format(text, elem=elem) for arg in argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"invalid int value: {text!r}" in captured.err


def test_order(capsys):
    rc, out, _ = run(capsys, "order", "--a", "3", "--reflect")
    assert rc == 0 and out.strip() == "2"
    rc, out, _ = run(capsys, "order", "--a", "5")
    assert out.strip() == "infinite"
    rc, out, _ = run(capsys, "order", "--a", "0")
    assert out.strip() == "1"
    rc, out, _ = run(capsys, "order", "--a", " +3\t", "--reflect")
    assert rc == 0 and out.strip() == "2"


def test_extend(tmp_path, capsys):
    elem = write_element(tmp_path, "g.json",
                         {"kind": "nat", "shift": 2, "exceptions": [1, 3]})
    rc, out, _ = run(capsys, "extend", "--n", "-1", elem)
    assert rc == 0
    assert json.loads(out) == {"neg": [-1, 0], "pos": [4, 2], "middle": [[2, 4]]}
    rc, _, err = run(capsys, "extend", "--n", "1", elem)
    assert rc == 1


def test_refute_fg(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([
        {"kind": "nat", "shift": 1, "exceptions": []},
        {"kind": "nat", "shift": -1, "exceptions": [1]},
        {"kind": "nat", "shift": 0, "exceptions": [2]},
        {"kind": "nat", "shift": 0, "exceptions": [3]},
    ]))
    rc, out, _ = run(capsys, "refute-fg", str(gens))
    assert rc == 0
    assert json.loads(out) == {
        "element": {"kind": "nat", "shift": 0, "exceptions": [2, 3, 4]},
        "bound_k": 3, "certificate": 4}


@pytest.mark.parametrize("content", [
    5, None, {"kind": "nat", "shift": 1, "exceptions": []},
], ids=["int", "null", "element"])
def test_refute_fg_rejects_a_file_that_is_not_a_list(tmp_path, capsys, content):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(content))
    rc, out, err = run(capsys, "refute-fg", str(gens))
    assert rc == 1 and out == ""
    assert err == "isomon: generators file must hold a JSON array of elements\n"


def test_missing_file(capsys):
    rc, _, err = run(capsys, "sigma", "/nonexistent/g.json")
    assert rc == 1 and err


def test_check_json(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "lemma-3.3",
                     "--bound", "3", "--shift-bound", "1", "--format", "json")
    assert rc == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["suite"] == "lemma-3.3"
    assert reports[0]["pass"] is True
    assert reports[0]["instances"] > 0
    assert "wall_time" not in reports[0]


def test_check_text(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "bicyclic-oracle")
    assert rc == 0
    assert out.startswith("PASS bicyclic-oracle")
    assert "1/1 suite runs passed" in out


def test_check_text_prints_counters_and_counterexamples(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "cor-2.12", "--bound", "1",
                     "--shift-bound", "0", "--format", "text")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL cor-2.12 [nat B=1 S=0] instances=9 failures=1 ")
    assert lines[1:] == [
        "  z2_identities=2",
        "  z2_reflections=0",
        '  counterexample: {"check": "two-element image not realized over this '
        'universe", "counters": {"z2_identities": 2, "z2_reflections": 0}}',
        "0/1 suite runs passed"]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_check_rejects_jobs_below_one(capsys, jobs):
    rc, out, err = run(capsys, "check", "--suite", "refute-fg", "--jobs", jobs)
    assert rc == 1 and out == ""
    assert err.startswith("isomon: --jobs must be at least 1")


@pytest.mark.parametrize("obj", [
    {"kind": "int", "a": 0, "reflect": "false", "exceptions": []},
    {"kind": "int", "a": True, "reflect": False, "exceptions": []},
    {"kind": "nat", "shift": 2.7, "exceptions": []},
    {"kind": "nat", "shift": 0, "exceptions": [1.9]},
    {"kind": "nat", "shift": True, "exceptions": []},
    {"kind": "nat", "shift": "3", "exceptions": []},
    {"kind": "nat", "shift": 0, "exceptions": ["3"]},
], ids=["reflect-string", "a-bool", "shift-float", "exception-float",
        "shift-bool", "shift-string", "exception-string"])
def test_element_wire_format_is_strict(tmp_path, capsys, obj):
    rc, out, err = run(capsys, "sigma", write_element(tmp_path, "g.json", obj))
    assert rc == 1 and out == ""
    assert err.startswith("isomon: expected a JSON ")


@pytest.mark.parametrize("exceptions", [[3, 3, 2], [2, 1], [1, 1]],
                         ids=["repeat-and-descend", "descend", "repeat"])
def test_exceptions_must_be_strictly_increasing(tmp_path, capsys, exceptions):
    message = f"exceptions: expected strictly increasing integers, got {exceptions!r}"
    for i, obj in enumerate(({"kind": "nat", "shift": 0, "exceptions": exceptions},
                             {"kind": "int", "a": 0, "reflect": False,
                              "exceptions": exceptions})):
        with pytest.raises(ValueError) as err:
            element_from_obj(obj)
        assert str(err.value) == message
        path = write_element(tmp_path, f"g{i}.json", obj)
        rc, out, err = run(capsys, "compose", path, path)
        assert rc == 1 and out == ""
        assert err == f"isomon: {message}\n"


@pytest.mark.parametrize("exceptions", ["", {}, "12", 5],
                         ids=["empty-string", "object", "digit-string", "int"])
def test_element_from_obj_refuses_exceptions_that_are_not_an_array(exceptions):
    for obj in ({"kind": "nat", "shift": 2, "exceptions": exceptions},
                {"kind": "int", "a": 0, "reflect": False, "exceptions": exceptions}):
        with pytest.raises(ValueError, match="^exceptions: expected a JSON array, got "):
            element_from_obj(obj)


def test_compose_refuses_exceptions_that_are_not_an_array(tmp_path, capsys):
    good = write_element(tmp_path, "g.json", {"kind": "nat", "shift": 2, "exceptions": []})
    for i, bad in enumerate(("", {})):
        path = write_element(tmp_path, f"bad{i}.json",
                             {"kind": "nat", "shift": 2, "exceptions": bad})
        for argv in ((path, good), (good, path)):
            rc, out, err = run(capsys, "compose", *argv)
            assert rc == 1 and out == ""
            assert err == f"isomon: exceptions: expected a JSON array, got {bad!r}\n"


NAT = {"kind": "nat", "shift": 1, "exceptions": []}


@pytest.mark.parametrize("command, content, message", [
    ("sigma", {"kind": "rat", "shift": 0, "exceptions": []}, "unknown element kind 'rat'"),
    ("sigma", {"kind": "nat", "exceptions": []}, "malformed element object: 'shift'"),
    ("sigma", {"kind": "int", "a": 0, "exceptions": []},
     "malformed element object: 'reflect'"),
    ("sigma", [NAT], f"expected a JSON object, got {[NAT]!r}"),
    ("sigma", "nat", "expected a JSON object, got 'nat'"),
    ("refute-fg", [NAT, 5], "expected a JSON object, got 5"),
], ids=["unknown-kind", "nat-without-shift", "int-without-reflect", "array",
        "string", "generator-int"])
def test_malformed_elements_are_refused(tmp_path, capsys, command, content, message):
    rc, out, err = run(capsys, command, write_element(tmp_path, "g.json", content))
    assert rc == 1 and out == ""
    assert err == f"isomon: {message}\n"


@pytest.mark.parametrize("command", ["compose", "refute-fg"])
def test_deeply_nested_json_is_refused(tmp_path, capsys, command):
    # deep enough that the decoder runs out of recursion depth
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    paths = [str(deep)] * (2 if command == "compose" else 1)
    rc, out, err = run(capsys, command, *paths)
    assert rc == 1 and out == ""
    assert err == f"isomon: {deep}: JSON nested too deeply to decode\n"


def test_check_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "--suite", "nope"])
    assert err.value.code == 2


def _outcome(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exit_:
        rc = exit_.code
    return rc, capsys.readouterr().out


def test_parser_is_built_once_and_keeps_no_state_between_calls(monkeypatch, capsys):
    calls = [
        ["eval", "e[3] b a^3"],
        ["check", "--suite", "lemma-3.3", "--bound", "3", "--shift-bound", "1",
         "--format", "json"],
        ["order", "--a", "3", "--reflect"],
        ["check", "--suite", "refute-fg", "--jobs", "0"],
        ["check", "--suite", "nope"],
        ["hclass", "--exceptions", "0,3"],
        ["check", "--suite", "bicyclic-oracle", "--format", "json"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))

    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in calls]
    cli._parser.cache_clear()

    assert len(built) == 1
    assert reused == fresh
    assert [rc for rc, _ in reused] == [0, 0, 0, 1, 2, 0, 0]
    assert [r["suite"] for r in json.loads(reused[-1][1])] == ["bicyclic-oracle"]
