"""`dirac-linear` exit codes on fuzzed flags and config files: every run
ends with 0, 1 (runtime error) or 2 (usage error), and a failing run
prints exactly one `error:` line."""

import contextlib
import io
import os
import signal
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclinear.cli import main

# settings that reach the solvers, and up to two of them, or energy,
# replaced by an edge value; at m = 2e4 the scan steps resolve no level
SANE = {"m": ["1.0", "0.7", "2e4"], "lambda": ["0.2", "0.5"], "s": ["0.2", "0.5", "0.75", "1"],
        "k": ["-1", "-2", "1"], "zero_index": ["1", "2"], "rmax": ["20", "25"]}
EDGES = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "1e12", "abc", "", "1.6"]
SETTINGS = st.tuples(
    st.fixed_dictionaries({"n": st.sampled_from(["100", "500"])},
                          optional={key: st.sampled_from(v) for key, v in SANE.items()}),
    st.dictionaries(st.sampled_from([*SANE, "energy"]), st.sampled_from(EDGES), max_size=2),
).map(lambda pair: {**pair[0], **pair[1]})
SWEEP = st.tuples(st.sampled_from(["s", "lambda", "m"]), st.sampled_from(EDGES + ["0.3"]),
                  st.sampled_from(EDGES + ["0.6"]), st.sampled_from(["-1", "1", "2", "3", "x"]))


@contextlib.contextmanager
def time_limit(seconds):
    """Fail a run that is still going after `seconds`, instead of hanging."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run(argv):
    """(exit code, stderr, whether argparse exited) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            time_limit(60):
        try:
            return main(argv), err.getvalue(), False
        except SystemExit as exc:
            return exc.code, err.getvalue(), True


# a warning would print on stderr next to the error line
@pytest.mark.filterwarnings("error")
@settings(max_examples=50)
@given(command=st.sampled_from(["solve", "profile", "lifetime", "sweep"]),
       values=SETTINGS, in_file=st.booleans(), out=st.booleans(), sweep=SWEEP)
def test_fuzzed_settings_end_with_a_documented_exit_code(command, values, in_file, out,
                                                         sweep):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        if in_file:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{key}={value}\n" for key, value in values.items())
            argv += ["--config", path]
        else:
            for key, value in values.items():
                argv += ["--" + key.replace("_", "-"), value]
        if command == "sweep":
            param, lo, hi, steps = sweep
            argv += ["--param", param, "--range", lo, hi, "--steps", steps]
        if out or command in ("profile", "sweep"):
            argv += ["--out", os.path.join(tmp, "out.csv")]
        code, err, from_argparse = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert err == "", (argv, err)
    elif from_argparse:  # usage lines, then one "prog: error: ..." line
        assert code == 2 and sum("error:" in line for line in err.splitlines()) == 1, \
            (argv, err)
    else:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
