"""Property test of the report contract of ``spd batch``.

Manifests are drawn from the command table: random subsets of each
command's keys, each holding a string (a valid or broken matrix, a subspace
spec, a number or junk), an int, a float (NaN and infinities included), a
list or null.  Whatever the entries, the process writes exactly one JSON
document (strict JSON: no NaN or Infinity), one report per entry, every exit
code is in {0, 2, 3, 4}, and the process exits with the first non-zero entry
code.

The same holds for argv: a drawn command line (positionals and ``--flags``
from the table, some missing, some junk, some unknown) prints exactly one
strict-JSON report and exits with a code in {0, 2, 3, 4}, and so do the
module entry points ``python -m spdgeom`` and ``python -m spdgeom.cli``.

Matrices and lts dimensions stay at n <= 4 to keep the examples fast; the
large case, `spd lts diag --n 64`, is a test of its own in test_cli.py.
"""

import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import reject_json_constant
from spdgeom.cli import COMMANDS, main

CONTRACT_CODES = {0, 2, 3, 4}

MATRICES = [
    "[[2,1],[1,2]]",
    "[[1,2],[2,1]]",
    "[[1,2],[3,4]]",
    "[[1]]",
    "[[0]]",
    "[[2,0,0],[0,3,1],[0,1,2]]",
    "[[4,1,0,0],[1,3,0,0],[0,0,2,1],[0,0,1,2]]",
    "[[1,0],[0",
    "[[1,1e400],[1e400,1]]",
    "[[%s]]" % ("9" * 400),  # an integer too large for a float
    "/nonexistent/m.json",
    "a\x00b",  # a path no file can have
]
SPECS = [
    "diag",
    "block:1,1",
    "block:2,2",
    "block:1,x",
    "antiblock:1,2",
    "antiblock:2,2",
    "antiblock:0,2",
    "file:/nonexistent/sub.json",
    "file:a\x00b",
    "spiral",
]
# Values that convert to each option type.  A numeric 0 means the default
# for tol and max_iter; the string "0" and a negative tolerance are domain
# errors.  Ints stay small: lts builds its subspace at n = the drawn value.
# Non-finite numbers (a manifest's 1e400 or NaN) are parse errors.
NON_FINITE = [math.inf, -math.inf, math.nan]
OPTIONS = {
    float: ["0.5", "1e-8", "0", 1e-6, 3, 0, -1.0, "inf", *NON_FINITE],
    int: ["2", "0", 1, 3, 0, *NON_FINITE],
    bool: [True, False, 1, math.nan],
    str: ["json", "csv"],
}
JUNK = st.one_of(
    st.sampled_from(["abc", ""]),
    st.integers(-2, 4),
    st.floats(-2.0, 4.0),
    st.sampled_from(NON_FINITE),
    st.lists(st.one_of(st.integers(-2, 4), st.sampled_from(NON_FINITE)), max_size=3),
    st.none(),
)


def _values(cmd, key):
    """Values of every type, but mostly ones that fit the key, so that whole
    runs also succeed and fail in the library."""
    if key in cmd.matrices:
        fitting = st.sampled_from(MATRICES)
    elif key == cmd.subspace:
        fitting = st.sampled_from(SPECS)
    else:
        fitting = st.sampled_from(OPTIONS[cmd.options[key].type])
    return st.sampled_from([fitting, fitting, fitting, JUNK]).flatmap(lambda v: v)


@st.composite
def entries(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    cmd = COMMANDS[name]
    keys = [*cmd.matrices, *([cmd.subspace] if cmd.subspace else []), *cmd.options]
    # Each key is left out about one time in four.
    present = [key for key in keys if draw(st.sampled_from([True, True, True, False]))]
    return {"command": name, **{key: draw(_values(cmd, key)) for key in present}}


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(manifest=st.lists(entries(), min_size=1, max_size=4))
def test_batch_report_contract(manifest, capsys, tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code = main(["batch", str(path)])
    reports = json.loads(capsys.readouterr().out, parse_constant=reject_json_constant)
    assert isinstance(reports, list) and len(reports) == len(manifest)
    codes = [rep["exit_code"] for rep in reports]
    assert set(codes) <= CONTRACT_CODES
    assert [rep["command"] for rep in reports] == [e["command"] for e in manifest]
    assert code == next((c for c in codes if c != 0), 0)



# Argv words: every value above, as the string a shell would pass.
WORDS = st.one_of(
    st.sampled_from(MATRICES + SPECS),
    st.sampled_from([str(v) for values in OPTIONS.values() for v in values]),
    st.sampled_from(["abc", "", "-1", "--", "--bogus", "1e400", "nan"]),
    st.integers(-2, 4).map(str),
)


def _word(cmd, key):
    """Mostly a value that fits the argument, sometimes any word."""
    if key in cmd.matrices:
        fitting = st.sampled_from(MATRICES)
    elif key == cmd.subspace:
        fitting = st.sampled_from(SPECS)
    else:
        fitting = st.sampled_from([str(v) for v in OPTIONS[cmd.options[key].type]])
    return st.sampled_from([fitting, fitting, fitting, WORDS]).flatmap(lambda v: v)


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    cmd = COMMANDS[name]
    argv = [name]
    for key in [*cmd.matrices, *([cmd.subspace] if cmd.subspace else [])]:
        if draw(st.sampled_from([True, True, True, False])):
            argv.append(draw(_word(cmd, key)))
    for key, opt in cmd.options.items():
        if draw(st.sampled_from([True, False])):
            argv.append("--" + key.replace("_", "-"))
            if opt.type is not bool:
                argv.append(draw(_word(cmd, key)))
    if draw(st.sampled_from([False, False, False, True])):
        argv.insert(draw(st.integers(1, len(argv))), draw(WORDS))
    return argv


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=argvs())
def test_argv_report_contract(argv, capsys):
    code = main(argv)
    report = json.loads(capsys.readouterr().out, parse_constant=reject_json_constant)
    assert isinstance(report, dict)
    assert code in CONTRACT_CODES
    assert report["exit_code"] == code


@pytest.mark.parametrize("module", ["spdgeom", "spdgeom.cli"])
@pytest.mark.parametrize(
    "b, code", [("[[2,1],[1,2]]", 0), ("[[1,0],[0", 2)], ids=["valid", "malformed"]
)
def test_module_entry_points_run_the_command(module, b, code):
    # Each once imported the package, ran nothing and exited 0 with no output.
    proc = subprocess.run(
        [sys.executable, "-m", module, "dist", "[[1,0],[0,1]]", b],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    report = json.loads(proc.stdout, parse_constant=reject_json_constant)
    assert isinstance(report, dict)
    assert report["command"] == "dist"
    assert report["exit_code"] == code
    if code == 0:
        assert abs(report["outputs"]["distance"] - math.log(3.0)) <= 1e-12
