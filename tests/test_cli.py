import contextlib
import io
import json
import os
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from dyckfrieze.cli import MAX_VECTOR_ENTRIES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complete(capsys):
    code, out, _ = run(capsys, "complete", "--vector", "2,3,4,1")
    assert code == 0
    assert json.loads(out) == {"col1": [2, 3, 4, 1], "col2": [2, 3, 1, 2]}


def test_complete_rank_one(capsys):
    code, out, _ = run(capsys, "complete", "--vector", "1")
    assert code == 0
    assert json.loads(out)["col2"] == [2]


def test_complete_invalid_vector(capsys):
    code, out, err = run(capsys, "complete", "--vector", "2,2")
    assert code == 1
    assert out == ""
    assert "NonExactDivision" in err


def test_complete_unparsable_vector(capsys):
    code, _, err = run(capsys, "complete", "--vector", "2,x")
    assert code == 1
    assert "error" in err


def test_cycle(capsys):
    code, out, _ = run(capsys, "cycle", "--vector", "1,2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 3
    assert payload["heads"] == [1, 3, 2]
    assert payload["diamonds"][0] == {"col1": [1, 2, 3], "col2": [3, 5, 2]}


def test_frieze_ascii(capsys):
    code, out, _ = run(capsys, "frieze", "--vector", "1,2,3", "--render", "ascii")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 7
    assert lines[0].split() == ["0"] * 12


def test_frieze_json_from_quiddity(capsys):
    code, out, _ = run(capsys, "frieze", "--quiddity", "2,3,1,2,3,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["quiddity"] == [2, 3, 1, 2, 3, 1]
    assert payload["rows"][3] == [5, 2, 1, 5, 2, 1]


def test_frieze_rejects_non_quiddity(capsys):
    code, _, err = run(capsys, "frieze", "--quiddity", "1,1,1,1")
    assert code == 1
    assert "FailsToClose" in err


def test_frieze_requires_one_input(capsys):
    code, _, err = run(capsys, "frieze", "--vector", "1", "--quiddity", "1,2,1,2")
    assert code == 1


def test_dyck_conversions(capsys):
    code, out, _ = run(capsys, "dyck", "--vector", "2,3,4,1", "--to", "path")
    assert (code, out.strip()) == (0, "UUDUDUDDUD")
    code, out, _ = run(capsys, "dyck", "--word", "UDUDUUDD", "--to", "lambda")
    assert (code, out.strip()) == (0, "2,2,1")
    code, out, _ = run(capsys, "dyck", "--word", "UUDUDUDDUD", "--to", "v")
    assert (code, out.strip()) == (0, "2,2,2,1")
    code, out, _ = run(capsys, "dyck", "--word", "uudd", "--to", "path")
    assert (code, out.strip()) == (0, "UUDD")


def test_dyck_rejects_bad_word(capsys):
    code, _, err = run(capsys, "dyck", "--word", "UDDU", "--to", "path")
    assert code == 1
    assert "PrefixViolation" in err


def test_dyck_rejects_non_diamond_vector(capsys):
    code, _, err = run(capsys, "dyck", "--vector", "2,2", "--to", "path")
    assert code == 1
    assert "NonExactDivision" in err
    code, _, err = run(capsys, "triangulate", "--vector", "2,2")
    assert code == 1


def test_triangulate(capsys):
    code, out, _ = run(capsys, "triangulate", "--word", "UDUDUUDD")
    assert (code, out.strip()) == (0, "N=6; 1-5,2-4,2-5")
    code, out, _ = run(capsys, "triangulate", "--vector", "2,3,4,1")
    assert (code, out.strip()) == (0, "N=7; 0-4,1-4,2-4,4-6")


def test_enumerate_json_and_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1")
    assert code == 0
    assert json.loads(out) == [[1], [2]]
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "text")
    lines = out.strip().split("\n")
    assert len(lines) == 14
    assert lines[0] == "1,1,1"
    assert lines[-1] == "4,3,2"


def test_enumerate_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "enumerate", "--n", "11")
    assert code == 1
    assert "cap" in err
    monkeypatch.setenv("DYCKFRIEZE_MAX_N", "2")
    code, _, err = run(capsys, "enumerate", "--n", "3")
    assert code == 1
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--max-n", "3")
    assert code == 0


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    names = [c["name"] for c in payload["checks"]]
    assert "enumeration_count" in names
    assert all(c["pass"] for c in payload["checks"])


def test_output_is_deterministic(capsys):
    first = run(capsys, "frieze", "--vector", "1,1", "--render", "ascii")
    second = run(capsys, "frieze", "--vector", "1,1", "--render", "ascii")
    assert first == second
    first = run(capsys, "enumerate", "--n", "4")
    second = run(capsys, "enumerate", "--n", "4")
    assert first == second


def test_unknown_command_is_input_error(capsys):
    code, _, err = run(capsys, "nonsense")
    assert code == 1


def test_big_integers_stay_out_of_messages(capsys):
    # the numerator 1 + 7...7 * 3...3 has about 8,000 digits, past the
    # 4,300 that str() accepts
    sevens, threes = "7" * 4000, "3" * 4000
    code, out, err = run(capsys, "complete", "--vector", f"1,{sevens},{threes}")
    assert (code, out) == (1, "")
    assert "NonExactDivision" in err and "digits>" in err
    assert "Traceback" not in err
    code, out, err = run(capsys, "frieze", "--quiddity", ",".join(["9" * 12] * 400))
    assert (code, out) == (1, "")
    assert "FailsToClose" in err


def test_vector_entry_cap(capsys):
    at_cap = ",".join(["1"] * MAX_VECTOR_ENTRIES)
    over_cap = at_cap + ",1"
    for command, flag in [
        ("complete", "--vector"),
        ("cycle", "--vector"),
        ("frieze", "--vector"),
        ("frieze", "--quiddity"),
        ("dyck", "--vector"),
        ("triangulate", "--vector"),
    ]:
        code, out, err = run(capsys, command, flag, over_cap)
        assert (code, out) == (1, ""), command
        assert f"cap of {MAX_VECTOR_ENTRIES}" in err
    code, out, _ = run(capsys, "complete", "--vector", at_cap)
    assert code == 0
    assert json.loads(out)["col2"] == list(range(2, MAX_VECTOR_ENTRIES + 2))


# Flags of each subcommand; argparse must reject the junk ones.
FLAGS = {
    "complete": ["--vector"],
    "cycle": ["--vector"],
    "frieze": ["--vector", "--quiddity", "--render"],
    "dyck": ["--vector", "--word", "--to"],
    "triangulate": ["--vector", "--word"],
    "enumerate": ["--n", "--format", "--max-n"],
    "verify": ["--n", "--max-n"],
}
JUNK = ["--bogus", "-x", "--", "", "-h"]
CONTRACT_MAX_N = 5
integer_lists = st.lists(st.integers(-2, 6), max_size=9).map(
    lambda v: ",".join(map(str, v))
)
# Entries of up to 4,500 digits, on both sides of the 4,300-digit limit
# of str <-> int conversion, so that computed values past it reach messages.
long_integer_lists = st.lists(
    st.builds(
        lambda digit, length: digit * length,
        st.sampled_from("123456789"),
        st.sampled_from([1, 12, 2200, 4000, 4300, 4301, 4500]),
    )
    | st.sampled_from(["1", "2"]),
    min_size=3,
    max_size=5,
).map(",".join)
# Well-formed values per flag, so that some runs succeed.  --max-n lifts the
# rank cap by design; it stays within the environment's cap here so that
# every run is short.
WELL_FORMED = {
    "--vector": st.sampled_from(["1", "2", "1,1", "1,2,3", "2,3,4,1"])
    | integer_lists
    | long_integer_lists,
    "--quiddity": st.sampled_from(["1,1,1", "1,2,1,2", "2,3,1,2,3,1"])
    | integer_lists
    | long_integer_lists,
    "--word": st.sampled_from(["UD", "uudd", "UDUDUUDD"])
    | st.text("UDud", max_size=16),
    "--render": st.sampled_from(["json", "ascii"]),
    "--to": st.sampled_from(["path", "v", "lambda"]),
    "--format": st.sampled_from(["json", "text"]),
    "--n": st.integers(-3, 12).map(str),
    "--max-n": st.integers(-3, CONTRACT_MAX_N).map(str),
}


def _value(flag):
    if flag == "--max-n":
        return WELL_FORMED[flag]
    return WELL_FORMED.get(flag, st.nothing()) | st.text(max_size=12)


@st.composite
def argument_lists(draw):
    command = draw(st.sampled_from([*FLAGS, "nonsense", ""]))
    flags = FLAGS.get(command, JUNK)
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
        argv += [flag, draw(_value(flag))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


@given(argument_lists())
@settings(max_examples=300, deadline=None)
def test_cli_contract_on_arbitrary_arguments(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch.dict(os.environ, {"DYCKFRIEZE_MAX_N": str(CONTRACT_MAX_N)}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse --help
                code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert elapsed < 5, (argv, elapsed)
