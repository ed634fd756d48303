import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circ2crn
from circ2crn import cli, pipeline
from circ2crn.cli import main
from circ2crn.crn import Reaction, parse_crn, serialize_crn
from circ2crn.errors import ParseError
from circ2crn.pipeline import RunConfig, frequency_response, verify_circuit
from circ2crn.circuit import parse_netlist

from conftest import RC_LOWPASS, RL_DC, RL_SINE, circuit_block, rl_ladder, rlc_netlists

# the worked example of the README, as written there
README_HP = ("V vin 1 0 FOURIER 0 1 1 0    # vin(t) = sin(t)\n"
             "R r1  1 2 1\nL l1  2 0 1\nOUT 2\n")
# the two-source netlist of the CI example, as written there
TWO_CIR = ("V vin 1 0 FOURIER 0 1 1 0\nI ib  0 2 DC 0.5\nR r1  1 2 1\nL l1  2 0 1\n"
           "R r2  2 0 2\nOUT 2\n")
SINGULAR = "V a 1 0 DC 1\nV b 1 0 DC 2\nR r 1 0 1\nOUT 1\n"
# one source, so `freq` compiles it: nodes 2 and 3 reach ground only through
# the current source, which makes the pencil singular
SINGULAR_ONE_SOURCE = "I a 0 2 DC 1\nR r 2 3 1\nOUT 2\n"


def rc_ladder(k: int) -> str:
    """k sections of 1 MOhm series / 1 nF shunt: well conditioned, tiny det."""
    sections = "".join(
        f"R r{i} {i} {i + 1} 1e6\nC c{i} {i + 1} 0 1e-9\n" for i in range(1, k + 1)
    )
    return f"V vin 1 0 DC 1\n{sections}OUT {k + 1}\n"


@pytest.fixture(autouse=True)
def _quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _error_lines(capsys) -> list[str]:
    """The `error:` lines on stderr; an uncaught exception fails the test instead."""
    return [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_capped(*args) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter whose address space is capped at 2 GiB,
    so an oversized allocation fails at once, whatever the host allows."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(circ2crn.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "circ2crn.cli", *args], env=env,
                          capture_output=True, text=True, preexec_fn=cap)


class TestCompile:
    def test_rl_writes_deterministic_crn(self, tmp_path):
        netlist = _write(tmp_path, "rl.cir", RL_DC)
        out1, out2 = str(tmp_path / "a.crn"), str(tmp_path / "b.crn")
        assert main(["compile", netlist, "-o", out1]) == 0
        assert main(["compile", netlist, "-o", out2]) == 0
        text = open(out1).read()
        assert text == open(out2).read()
        assert "# circuit reactions" in text
        assert len(circuit_block(text).strip().splitlines()) == 12
        assert "# meta h 0.01" in text

    def test_fourier_source_appends_input_block(self, tmp_path):
        netlist = _write(tmp_path, "rls.cir", RL_SINE)
        out = str(tmp_path / "s.crn")
        assert main(["compile", netlist, "-o", out]) == 0
        text = open(out).read()
        assert len(circuit_block(text).strip().splitlines()) == 12
        assert "# input reactions vin" in text

    def test_malformed_netlist_exits_1(self, tmp_path, capsys):
        netlist = _write(tmp_path, "bad.cir", "R broken 1 0\nOUT 1\n")
        assert main(["compile", netlist]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_singular_pencil_exits_2(self, tmp_path, capsys):
        netlist = _write(tmp_path, "sing.cir", SINGULAR)
        assert main(["compile", netlist]) == 2
        assert "singular" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("command,text,extra", [
        ("compile", SINGULAR, []),
        ("verify", SINGULAR, ["-T", "5", "--tol", "0.1"]),
        ("freq", SINGULAR_ONE_SOURCE, ["--omega", "1"]),
    ], ids=["compile", "verify", "freq"])
    def test_singular_pencil_prints_one_error_line(self, tmp_path, capsys, command, text,
                                                   extra):
        netlist = _write(tmp_path, "sing.cir", text)
        assert main([command, netlist, *extra]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: singular pencil: pivot ")
        assert line.count("singular pencil") == 1

    def test_output_round_trips_through_parse_crn(self, tmp_path):
        netlist = _write(tmp_path, "rls.cir", RL_SINE)
        out = str(tmp_path / "s.crn")
        assert main(["compile", netlist, "-o", out]) == 0
        text = open(out).read()
        assert text.splitlines()[0] == "# crn"
        assert serialize_crn(parse_crn(text)) == text

    @pytest.mark.parametrize("k", [40, 60])
    def test_large_rc_ladder_is_not_a_singular_pencil(self, tmp_path, k):
        netlist = _write(tmp_path, "ladder.cir", rc_ladder(k))
        assert main(["compile", netlist, "-o", str(tmp_path / "l.crn")]) == 0
        # the genuinely singular pencil still exits 2
        assert main(["compile", _write(tmp_path, "sing.cir", SINGULAR)]) == 2

    def test_names_with_other_punctuation_round_trip(self, tmp_path):
        netlist = _write(tmp_path, "p.cir", RL_SINE.replace(" 2", " {a}-b.$"))
        out, csv_path = str(tmp_path / "p.crn"), str(tmp_path / "p.csv")
        assert main(["compile", netlist, "-o", out]) == 0
        text = open(out).read()
        assert serialize_crn(parse_crn(text)) == text
        assert main(["simulate", out, "-T", "0.01", "-o", csv_path]) == 0
        header, *rows = open(csv_path).read().splitlines()
        assert "v{a}-b.$" in header.split(",")
        assert {len(row.split(",")) for row in rows} == {len(header.split(","))}

    @pytest.mark.parametrize("text,column", [
        # node 2_p's voltage v2_p would share a CSV column with v2's plus rail
        ("V vin 1 0 DC 1\nR r1 1 2 1\nC c1 2 0 1\nR r2 2 2_p 1\nC c2 2_p 0 1\nOUT 2\n",
         "v2_p"),
        # a source's difference column would repeat the time column
        (RL_DC.replace("vin", "t"), "t"),
    ], ids=["node_voltage_is_a_rail", "source_named_t"])
    def test_repeated_csv_column_exits_1(self, tmp_path, capsys, text, column):
        netlist = _write(tmp_path, "clash.cir", text)
        assert main(["compile", netlist, "-o", str(tmp_path / "c.crn")]) == 1
        [line] = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert line.startswith("error: ") and f"{column!r}" in line
        assert not (tmp_path / "c.crn").exists()

    def test_compile_and_simulate_build_no_reaction_objects(self, tmp_path, monkeypatch):
        # both commands work on the reaction table from emission to field
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Reaction object was built")

        monkeypatch.setattr(Reaction, "__init__", refuse)
        with pytest.raises(AssertionError):
            Reaction((), ("x",), 1.0)
        netlist = _write(tmp_path, "ladder.cir", rl_ladder(20))
        out = str(tmp_path / "ladder.crn")
        assert main(["compile", netlist, "-o", out]) == 0
        assert main(["simulate", out, "-T", "0.0005", "-o", str(tmp_path / "l.csv")]) == 0

    @pytest.mark.parametrize("flags,message", [
        (["-h", "nan"], "h must be positive and finite"),
        (["-h", "inf"], "h must be positive and finite"),
        (["--gamma", "nan"], "gamma must be finite and nonnegative, or 'auto'"),
    ])
    def test_non_finite_parameters_exit_1(self, tmp_path, capsys, flags, message):
        netlist = _write(tmp_path, "rc.cir", RC_LOWPASS)
        assert main(["compile", netlist, *flags]) == 1
        assert _error_lines(capsys) == [f"error: {message}"]

    @pytest.mark.parametrize("text,flags,message", [
        ("R r1 1 0 1e-320\nC c1 1 0 1\nOUT 1\n", [],
         "resistor r1 = 1e-320 is too small: its conductance 1/R overflows"),
        (RL_SINE, ["-h", "1e-310"], "the circuit's rates overflow at h=1e-310"),
        ("V v 1 0 DC 1\nR r1 1 2 1e308\nR r2 2 0 1e-308\nC c1 2 0 1e-308\nOUT 2\n", [],
         "the circuit's rates overflow: its component values are too far apart"),
        # direct mode: gamma = 1/h overflows to inf
        (RC_LOWPASS, ["-h", "1e-310"], "h=1e-310 is too small: gamma = 1/h overflows"),
        # each conductance or capacitance is finite, and their sum at a node is not
        ("R r1 1 0 1e-308\nR r2 1 0 1e-308\nC c1 1 0 1\nOUT 1\n", [],
         "the conductances at node 1 (r1, r2) overflow when summed"),
        ("V v 1 0 DC 1\nR r1 1 2 1\nC c1 2 0 1e308\nC c2 2 0 1e308\nOUT 2\n", [],
         "the capacitances at node 2 (c1, c2) overflow when summed"),
    ], ids=["tiny_resistor", "tiny_step", "huge_ratio", "direct_infinite_gamma",
            "summed_conductances", "summed_capacitances"])
    def test_an_overflow_exits_1_with_one_error_line(self, tmp_path, capsys, text, flags,
                                                     message):
        # the message names the input at fault, and numpy warns of no overflow
        netlist = _write(tmp_path, "o.cir", text)
        assert main(["compile", netlist, *flags]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            f"error: {message}"]

    def test_gamma_flag(self, tmp_path):
        netlist = _write(tmp_path, "rl.cir", RL_DC)
        out = str(tmp_path / "g0.crn")
        assert main(["compile", netlist, "--gamma", "0", "-o", out]) == 0
        text = open(out).read()
        assert "->{" in text
        assert " 0\n" not in circuit_block(text)  # no annihilations emitted


class TestPinnedBytes:
    """SHA-256 digests of command outputs, pinned, so a change to how the
    .crn is written or read cannot move a byte of them."""

    @pytest.mark.parametrize("text,digest", [
        (README_HP, "0c11cfffdeb3de4583dae592d0f90e6b13929850564e1c6d443dffe1cf7be3b2"),
        (rl_ladder(60), "7911668d3a1e6244bfa0ef7d207e28992466d4f952d74914ff9b4d80b2318e92"),
        # two sources: the union of a circuit block and two input blocks
        (TWO_CIR, "596e556008a4ae82d36acb7881e557fe9a9aef755936d661ed78e59a27a99932"),
    ], ids=["readme_hp", "rl_ladder_60", "two_sources"])
    def test_compile_writes_the_pinned_file(self, tmp_path, text, digest):
        out = tmp_path / "out.crn"
        assert main(["compile", _write(tmp_path, "in.cir", text), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_simulate_writes_the_pinned_csv(self, tmp_path):
        crn, csv_path = tmp_path / "l.crn", tmp_path / "l.csv"
        assert main(["compile", _write(tmp_path, "l.cir", rl_ladder(20)), "-o", str(crn)]) == 0
        assert main(["simulate", str(crn), "-T", "0.05", "-o", str(csv_path)]) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "b1a823c3744feefb900fd04368d639032906f202508908647cba37974e5f0461")

    def test_simulate_of_a_table_the_helper_splits_writes_the_pinned_csv(self, ladder_20):
        # 2 001 rows of 129 values, formatted half here and half by the
        # forked helper on a host with two CPUs, serially on one
        crn, csv_path = ladder_20
        assert main(["simulate", crn, "-T", "1", "-o", csv_path]) == 0
        assert hashlib.sha256(Path(csv_path).read_bytes()).hexdigest() == (
            "2c184d69a86c2d51dd8a98b3226fe22f5d7ac65949f341eb9a12e16f98c12f37")

    @pytest.mark.parametrize("text,digest", [
        ("species A B C\ninit A 1\ninit B 0.5\nA + B ->{3} C\n",
         "698197a40f4b95391d621882c238d42cd454ee5e9d31ee33b5ef255761ae9fc1"),
        ("species A\ninit A 2\nA + A ->{3} A\n",
         "d73160badbc63d29d3f97aa1ec73a986d61feca361a652ffcd3b669d4f84713f"),
        ("species A B\ninit A 1\ninit B 0.25\n",
         "540af4395edeed84e9235a50e82760da0ef1f7ea12e1b190f8789dc8638453dd"),
        ("# crn\n", "ca5891f8f01605036e38c2041e8c85fe2a4238b13a57c3cbd68b540cb5aebab9"),
    ], ids=["bimolecular", "dimer", "no_reactions", "no_species"])
    def test_simulate_of_hand_written_networks_writes_the_pinned_csv(self, tmp_path, text,
                                                                     digest):
        # shapes compile never emits: a product of two species, a square,
        # no reactions and no species, over 2001 rows (four checked blocks)
        csv_path = tmp_path / "h.csv"
        assert main(["simulate", _write(tmp_path, "h.crn", text), "-T", "2", "--dt", "0.001",
                     "-o", str(csv_path)]) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


def _split_at_any_size(monkeypatch) -> None:
    """Two CPUs, and every helper's threshold at its least, so compile,
    simulate's reader and its CSV all run their helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for name in ("_SPLIT_VALUES", "_SPLIT_REACTIONS", "_SPLIT_BYTES"):
        monkeypatch.setattr(cli, name, 1)


class TestPinnedBytesSplit(TestPinnedBytes):
    """The same digests when every output is written, and every .crn read,
    by two processes."""

    @pytest.fixture(autouse=True)
    def _split(self, monkeypatch):
        _split_at_any_size(monkeypatch)


@pytest.fixture(scope="module")
def ladder_20(tmp_path_factory):
    """(.crn, .csv) paths: the compiled k = 20 RL ladder and where its CSV goes."""
    tmp = tmp_path_factory.mktemp("ladder_20")
    crn = str(tmp / "l.crn")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["compile", _write(tmp, "l.cir", rl_ladder(20)), "-o", crn]) == 0
    return crn, str(tmp / "l.csv")


def _serial_csv(crn: str, T: float, dt: float) -> str:
    with open(crn) as fh:
        return pipeline.simulate_crn(parse_crn(fh), T, dt).to_csv()


def _fork_counter(monkeypatch) -> list:
    """The list that each os.fork call appends to."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _refuse(*args, **kwargs):
    raise OSError(errno.EAGAIN, "refused by the test")


class TestSplitCsv:
    """simulate writes the bytes of Trajectory.to_csv whether or not a forked
    helper formats the later half of the rows."""

    DT = 0.01 / 20  # --dt auto at the compiled ladder's h

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_stdout_gets_the_serial_bytes(self, ladder_20, monkeypatch, capsys):
        calls = _fork_counter(monkeypatch)
        assert main(["simulate", ladder_20[0], "-T", "1"]) == 0
        assert capsys.readouterr().out == _serial_csv(ladder_20[0], 1.0, self.DT)
        assert calls == [1]

    @pytest.mark.parametrize("steps,forks", [(65534, []), (65535, [1])],
                             ids=["below_2_16_values", "at_2_16_values"])
    def test_the_helper_starts_at_2_16_values(self, tmp_path, monkeypatch, steps, forks):
        # one column, so the table holds one value per row; dt = 2^-10 keeps
        # T/dt exact
        crn = _write(tmp_path, "d.crn", "species A\ninit A 2\nA + A ->{3} A\n")
        dt, T = 2.0 ** -10, steps * 2.0 ** -10
        csv_path = tmp_path / "d.csv"
        calls = _fork_counter(monkeypatch)
        assert main(["simulate", crn, "-T", repr(T), "--dt", repr(dt),
                     "-o", str(csv_path)]) == 0
        text = csv_path.read_text()
        assert text.count("\n") == steps + 2
        assert text == _serial_csv(crn, T, dt)
        assert calls == forks

    @pytest.mark.parametrize("forced", ["one_cpu", "fork_fails", "spill_fails"])
    def test_every_serial_fallback_writes_the_same_bytes(self, ladder_20, monkeypatch, forced):
        # a helper that fails is TestNoHelperOutlivesTheCommand's case
        calls = _fork_counter(monkeypatch)
        if forced == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif forced == "fork_fails":
            monkeypatch.setattr(os, "fork", _refuse)
        elif forced == "spill_fails":
            monkeypatch.setattr(tempfile, "TemporaryFile", _refuse)
        crn, csv_path = ladder_20
        assert main(["simulate", crn, "-T", "1", "-o", csv_path]) == 0
        assert Path(csv_path).read_text() == _serial_csv(crn, 1.0, self.DT)
        assert calls == []


# Runs a command in a fresh interpreter, which has no children of its own,
# on two CPUs: argv[1] is the JSON of [command line, output path, expected
# output, whether the forked helper fails, cli thresholds to set]; prints
# [exit code, stderr, output equal, forks, no child left].
_NO_CHILD_LEFT = """
import contextlib, io, json, os, sys
from circ2crn import cli

argv, out, want, fail, low = json.loads(sys.argv[1])
os.sched_getaffinity = lambda pid: {0, 1}
for name, value in low.items():
    setattr(cli, name, value)
forks, fork = [], os.fork

def counted():
    forks.append(1)
    pid = fork()
    if pid == 0 and fail:
        os._exit(1)
    return pid

os.fork = counted
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main(argv)
same = os.path.isfile(out) and open(out).read() == open(want).read()
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(json.dumps([code, err.getvalue(), same, len(forks), reaped]))
"""


def _without_children(argv, out, want, fail, low=None):
    """_NO_CHILD_LEFT's result for the command line argv."""
    env = dict(os.environ, PYTHONPATH=str(Path(circ2crn.__file__).parents[1]))
    spec = json.dumps([argv, out, str(want), fail, low or {}])
    done = subprocess.run([sys.executable, "-c", _NO_CHILD_LEFT, spec], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stderr == ""
    return json.loads(done.stdout)


def _one_error_line(err: str) -> str:
    """The one line of err, an `error:` line; there is no traceback."""
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ")
    return line


class TestNoHelperOutlivesTheCommand:
    @pytest.mark.parametrize("out,fail", [("out.csv", "0"), ("/dev/full", "0"),
                                          ("out.csv", "1")],
                             ids=["helper", "write_fails", "helper_fails"])
    def test_the_helper_is_reaped(self, ladder_20, tmp_path, out, fail):
        if out == "/dev/full" and not os.path.exists(out):
            pytest.skip("no /dev/full")
        want = tmp_path / "want.csv"
        want.write_text(_serial_csv(ladder_20[0], 1.0, TestSplitCsv.DT))
        out = out if out.startswith("/") else str(tmp_path / out)
        code, err, same, forks, reaped = _without_children(
            ["simulate", ladder_20[0], "-T", "1", "-o", out], out, want, fail == "1")
        assert reaped and forks == 1
        if out == "/dev/full":
            assert code == 1
            _one_error_line(err)
        else:
            assert code == 0 and same and err == ""

    @pytest.mark.parametrize("out,fail", [("out", False), ("/dev/full", False), ("out", True)],
                             ids=["helper", "write_fails", "helper_fails"])
    def test_the_compile_helper_is_reaped(self, tmp_path, out, fail):
        if out == "/dev/full" and not os.path.exists(out):
            pytest.skip("no /dev/full")
        netlist = _write(tmp_path, "l.cir", rl_ladder(20))
        want = tmp_path / "want.crn"
        assert main(["compile", netlist, "-o", str(want)]) == 0  # below the threshold
        out = out if out.startswith("/") else str(tmp_path / "out.crn")
        code, err, same, forks, reaped = _without_children(
            ["compile", netlist, "-o", out], out, want, fail, {"_SPLIT_REACTIONS": 2})
        assert reaped and forks == 1
        if out == "/dev/full":
            assert code == 1
            _one_error_line(err)
        else:
            assert code == 0 and same and err == ""

    @pytest.mark.parametrize("case", ["helper", "bad_line", "helper_fails"])
    def test_the_read_helper_is_reaped(self, ladder_20, tmp_path, case):
        # a 0.001 horizon keeps the CSV below its own helper's threshold; the
        # bad line is the fourth, so the helper still runs when it is refused
        crn = ladder_20[0]
        if case == "bad_line":
            lines = Path(crn).read_text().splitlines(keepends=True)
            crn = _write(tmp_path, "bad.crn", "".join(lines[:3] + ["bogus\n"] + lines[3:]))
        want = tmp_path / "want.csv"
        want.write_text(_serial_csv(ladder_20[0], 0.001, TestSplitCsv.DT))
        out = str(tmp_path / "out.csv")
        code, err, same, forks, reaped = _without_children(
            ["simulate", crn, "-T", "0.001", "-o", out], out, want, case == "helper_fails",
            {"_SPLIT_BYTES": 1024})
        assert reaped and forks == 1
        if case == "bad_line":
            assert code == 1 and _one_error_line(err) == "error: line 4: unrecognized line 'bogus'"
        else:
            assert code == 0 and same and err == ""


def _read_serially(path):
    with open(path) as fh:
        return parse_crn(fh)


def _network_or_error(read, path):
    """read(path) as a tuple of the network's parts, or its ParseError's text."""
    try:
        net = read(path)
    except ParseError as exc:
        return str(exc)
    return net.species, net.table, dict(net.init), dict(net.meta), net.diffs, net.blocks


def _compiled_text(netlist: str) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return serialize_crn(pipeline.compile_circuit(parse_netlist(netlist), RunConfig()).crn)


@st.composite
def edited_crn_texts(draw) -> str:
    """A compiled network's .crn text with lines put in at random places:
    lines whose reading depends on what comes before them (species, init,
    diff), annotations, and lines that fail."""
    lines = _compiled_text(draw(rlc_netlists())).splitlines(keepends=True)
    species = lines[1 + sum(ln.startswith("# meta") for ln in lines)].split()[1:]
    name = st.sampled_from(species) | st.sampled_from(["zz", "t", "v1_p"])
    outs = [ln.split()[2] for ln in lines if ln.startswith("# diff")]
    extra = st.one_of(
        st.builds("species {}\n".format, name),
        st.builds("init {} {}\n".format, name, st.sampled_from(["0", "1.5", "-1", "x"])),
        st.builds("# meta {} {}\n".format, st.sampled_from(["h", "k"]),
                  st.sampled_from(["0.02", "a b"])),
        st.builds("# diff {} {} {}\n".format, name, name, name),
        st.builds("# diff {} {} {}\n".format, st.sampled_from(outs + ["dd"]), name, name),
        st.sampled_from(["# circuit reactions\n", "# input reactions s\n", "\n", "# note\n",
                         "bogus\n", "a + ->{1} b\n"]),
        st.builds("{0} ->{{2.5}} {0} + {1}\n".format, name, name),
        st.builds("{0} ->{{{1}}} {0}\n".format, name, st.sampled_from(["-1", "inf", "1"])),
    )
    for line in draw(st.lists(extra, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "".join(lines)


class TestSplitRead:
    """simulate's reader returns parse_crn's network, or raises its
    ParseError, whether or not a forked helper reads the later part."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "_SPLIT_BYTES", 1024)

    @pytest.fixture
    def parses(self, monkeypatch) -> list:
        """The list that each call of parse_crn in this process appends to."""
        calls, parse = [], cli.parse_crn

        def counted(source):
            calls.append(1)
            return parse(source)

        monkeypatch.setattr(cli, "parse_crn", counted)
        return calls

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(text=edited_crn_texts())
    def test_every_edit_reads_as_the_serial_reader_reads_it(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "edited.crn"
        path.write_text(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_SPLIT_BYTES", 1)
            calls = _fork_counter(patch)
            got = _network_or_error(cli._read_crn, path)
        assert got == _network_or_error(_read_serially, path)
        assert calls == [1]

    def test_a_compiled_network_is_joined_without_the_serial_reader(self, ladder_20, parses,
                                                                     monkeypatch):
        calls = _fork_counter(monkeypatch)
        assert _network_or_error(cli._read_crn, ladder_20[0]) == _network_or_error(
            _read_serially, ladder_20[0])
        assert calls == [1] and parses == [1]

    def test_annotations_of_the_earlier_part_are_joined(self, ladder_20, tmp_path, parses):
        # a diff and a meta key that the later part sets again, before the
        # first reaction, so the earlier part holds them
        lines = Path(ladder_20[0]).read_text().splitlines(keepends=True)
        species = next(ln for ln in lines if ln.startswith("species ")).split()[1:]
        at = lines.index(next(ln for ln in lines if "->{" in ln))
        lines[at:at] = [f"# diff dd {species[0]} {species[1]}\n", "# meta h 0.5\n"]
        path = _write(tmp_path, "early.crn", "".join(lines) + "# meta h 0.25\n")
        got = _network_or_error(cli._read_crn, path)
        assert got == _network_or_error(_read_serially, path)
        assert got[4][0][0] == "dd" and got[3]["h"] == "0.25" and parses == [1]

    @pytest.mark.parametrize("size,forks", [(0, [1]), (1, [])], ids=["at", "below"])
    def test_the_helper_starts_at_the_threshold(self, ladder_20, monkeypatch, size, forks):
        monkeypatch.setattr(cli, "_SPLIT_BYTES", os.path.getsize(ladder_20[0]) + size)
        calls = _fork_counter(monkeypatch)
        assert cli._read_crn(ladder_20[0]) == _read_serially(ladder_20[0])
        assert calls == forks

    @pytest.mark.parametrize("where", ["earlier", "later"])
    def test_a_bad_line_is_the_serial_readers_error(self, ladder_20, tmp_path, where):
        lines = Path(ladder_20[0]).read_text().splitlines(keepends=True)
        at = 5 if where == "earlier" else len(lines) - 5
        path = _write(tmp_path, "bad.crn", "".join(lines[:at] + ["x ->{1} x\n"] + lines[at:]))
        with pytest.raises(ParseError) as exc:
            cli._read_crn(path)
        assert str(exc.value) == f"line {at + 1}: undeclared species 'x'"

    @pytest.mark.parametrize("line", ["init {0} 1\n", "species zz\n", ""],
                             ids=["init", "species", "repeated_diff_output"])
    def test_a_later_line_read_against_earlier_ones_takes_the_serial_reader(
            self, ladder_20, tmp_path, parses, line):
        # the later part sets an init or declares a species, or its first
        # diff repeats the output of a diff in the earlier part: the serial
        # reader reads them against the earlier lines, and refuses the last
        lines = Path(ladder_20[0]).read_text().splitlines(keepends=True)
        species = next(ln for ln in lines if ln.startswith("species ")).split()[1:]
        first_diff = next(ln for ln in lines if ln.startswith("# diff "))
        if line:
            lines.insert(lines.index(first_diff), line.format(species[0]))
        else:
            at = lines.index(next(ln for ln in lines if "->{" in ln))
            out = first_diff.split()[2]
            lines.insert(at, f"# diff {out} {species[0]} {species[1]}\n")
        path = _write(tmp_path, "late.crn", "".join(lines))
        got = _network_or_error(cli._read_crn, path)
        assert got == _network_or_error(_read_serially, path)
        assert isinstance(got, str) == (not line)
        assert parses == [1, 1]

    @pytest.mark.parametrize("forced", ["one_cpu", "fork_fails", "spill_fails", "helper_fails",
                                        "fifo"])
    def test_every_serial_fallback_reads_the_same_network(self, ladder_20, tmp_path, parses,
                                                          monkeypatch, forced):
        path = ladder_20[0]
        calls = _fork_counter(monkeypatch)
        if forced == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif forced == "fork_fails":
            monkeypatch.setattr(os, "fork", _refuse)
        elif forced == "spill_fails":
            monkeypatch.setattr(tempfile, "TemporaryFile", _refuse)
        elif forced == "helper_fails":
            fork = os.fork

            def failing():
                pid = fork()
                if pid == 0:
                    os._exit(1)
                return pid

            monkeypatch.setattr(os, "fork", failing)
        elif forced == "fifo":
            path = str(tmp_path / "fifo.crn")
            os.mkfifo(path)
            writer = threading.Thread(target=Path(path).write_text,
                                      args=(Path(ladder_20[0]).read_text(),))
            writer.start()
        got = _network_or_error(cli._read_crn, path)
        if forced == "fifo":
            writer.join()
        assert got == _network_or_error(_read_serially, ladder_20[0])
        # the earlier part is read here before a failed helper is seen
        failed = forced == "helper_fails"
        assert parses == ([1, 1] if failed else [1])
        assert calls == ([1] if failed else [])


class TestSplitCrn:
    """compile writes the bytes of serialize_crn whether or not a forked
    helper writes the later half of the reactions."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture(scope="class")
    def ladder(self, tmp_path_factory):
        """(netlist path, its serial .crn text) of the k = 20 RL ladder."""
        tmp = tmp_path_factory.mktemp("split_crn")
        netlist = rl_ladder(20)
        return _write(tmp, "l.cir", netlist), _compiled_text(netlist)

    @pytest.mark.parametrize("more,forks", [(0, [1]), (1, [])], ids=["at", "below"])
    def test_the_helper_starts_at_the_threshold(self, ladder, tmp_path, monkeypatch, more,
                                                forks):
        monkeypatch.setattr(cli, "_SPLIT_REACTIONS", len(parse_crn(ladder[1]).table) + more)
        calls = _fork_counter(monkeypatch)
        out = tmp_path / "l.crn"
        assert main(["compile", ladder[0], "-o", str(out)]) == 0
        assert out.read_text() == ladder[1]
        assert calls == forks

    def test_stdout_gets_the_serial_bytes(self, ladder, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_SPLIT_REACTIONS", 2)
        calls = _fork_counter(monkeypatch)
        assert main(["compile", ladder[0]]) == 0
        assert capsys.readouterr().out == ladder[1]
        assert calls == [1]

    @pytest.mark.parametrize("forced", ["one_cpu", "fork_fails", "spill_fails"])
    def test_every_serial_fallback_writes_the_same_bytes(self, ladder, tmp_path, monkeypatch,
                                                         forced):
        # a helper that fails is TestNoHelperOutlivesTheCommand's case
        monkeypatch.setattr(cli, "_SPLIT_REACTIONS", 2)
        calls = _fork_counter(monkeypatch)
        if forced == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif forced == "fork_fails":
            monkeypatch.setattr(os, "fork", _refuse)
        elif forced == "spill_fails":
            monkeypatch.setattr(tempfile, "TemporaryFile", _refuse)
        out = tmp_path / "l.crn"
        assert main(["compile", ladder[0], "-o", str(out)]) == 0
        assert out.read_text() == ladder[1]
        assert calls == []


def _traced_peak(argv) -> int:
    """The peak bytes tracemalloc traces while the CLI runs argv."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_compile_and_simulate_peak_below_five_times_the_file(self, tmp_path):
        # compile writes and simulate reads the .crn a piece at a time, so
        # neither holds its whole text, nor a line list or an object array
        # the size of the file (the 2.9 MB file of a k = 120 ladder)
        crn_path = tmp_path / "l.crn"
        compile_peak = _traced_peak(["compile", _write(tmp_path, "l.cir", rl_ladder(120)),
                                     "-o", str(crn_path)])
        simulate_peak = _traced_peak(["simulate", str(crn_path), "-T", "0.0005",
                                      "-o", str(tmp_path / "l.csv")])
        size = crn_path.stat().st_size
        assert compile_peak <= 5 * size, compile_peak / size
        assert simulate_peak <= 5 * size, simulate_peak / size


class TestSimulate:
    def _compiled(self, tmp_path, source=RL_DC, extra=()):
        netlist = _write(tmp_path, "c.cir", source)
        out = str(tmp_path / "c.crn")
        assert main(["compile", netlist, "-o", out, *extra]) == 0
        return out

    def test_csv_has_species_and_difference_columns(self, tmp_path):
        crn = self._compiled(tmp_path)
        csv_path = str(tmp_path / "t.csv")
        assert main(["simulate", crn, "-T", "5", "-o", csv_path]) == 0
        lines = open(csv_path).read().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert "v2_p" in header and "v2_m" in header and "v2" in header
        # species concentrations stay nonnegative throughout
        rail_cols = [i for i, nm in enumerate(header) if nm.endswith(("_p", "_m"))]
        data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        assert np.min(data[:, rail_cols]) >= -1e-9

    def test_empty_crn_gives_time_only_csv(self, tmp_path):
        crn = _write(tmp_path, "empty.crn", "# crn\n")
        csv_path = str(tmp_path / "e.csv")
        assert main(["simulate", crn, "-T", "1", "--dt", "0.1", "-o", csv_path]) == 0
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "t"
        assert len(lines) == 12

    def test_empty_crn_with_horizon_below_dt_exits_1(self, tmp_path, capsys):
        crn = _write(tmp_path, "empty.crn", "# crn\n")
        assert main(["simulate", crn, "-T", "0.05", "--dt", "0.1"]) == 1
        assert _error_lines(capsys) == ["error: need 0 < dt <= T, both finite"]

    @pytest.mark.parametrize("flags", [["-T", "inf", "--dt", "0.001"],
                                       ["-T", "1", "--dt", "nan"]])
    def test_non_finite_run_parameters_exit_1(self, tmp_path, capsys, flags):
        crn = self._compiled(tmp_path, RL_SINE)
        assert main(["simulate", crn, *flags, "-o", str(tmp_path / "x.csv")]) == 1
        assert _error_lines(capsys) == ["error: need 0 < dt <= T, both finite"]

    def test_gamma_zero_blows_up_exit_3(self, tmp_path, capsys):
        crn = self._compiled(tmp_path, extra=("--gamma", "0"))
        assert main(["simulate", crn, "-T", "40", "-o", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert "blew up at t=" in err
        blowup_t = float(err.split("t=")[1].split()[0])
        assert blowup_t < 30.0

    @pytest.mark.parametrize("source", ["init", "inity", "speciesA"])
    def test_keyword_prefixed_source_names(self, tmp_path, source):
        crn = self._compiled(tmp_path, RL_SINE.replace("vin", source))
        assert main(["simulate", crn, "-T", "0.1", "-o", str(tmp_path / "k.csv")]) == 0

    def test_dt_above_rule_warns_on_stderr(self, tmp_path):
        # a fresh interpreter, so the warning is not captured by the test run
        crn = self._compiled(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(circ2crn.__file__).parents[1]))

        def stderr_of(dt):
            cmd = [sys.executable, "-m", "circ2crn.cli", "simulate", crn, "-T", "0.05",
                   "--dt", dt, "-o", str(tmp_path / "w.csv")]
            done = subprocess.run(cmd, env=env, capture_output=True, text=True)
            assert done.returncode == 0
            return done.stderr

        assert "exceeds" not in stderr_of("0.0005")
        assert "dt=0.01 exceeds h/20" in stderr_of("0.01")

    def test_dt_auto_requires_meta(self, tmp_path):
        crn = _write(tmp_path, "plain.crn",
                     "species X\ninit X 1\nX ->{1} X + X\n")
        assert main(["simulate", crn, "-T", "1"]) == 1
        assert main(["simulate", crn, "-T", "1", "--dt", "0.01",
                     "-o", str(tmp_path / "ok.csv")]) == 0

    @pytest.mark.parametrize("h", ["nan", "0", "-0.01"])
    def test_dt_auto_rejects_a_bad_meta_h(self, tmp_path, capsys, h):
        text = open(self._compiled(tmp_path)).read()
        crn = _write(tmp_path, "bad_h.crn", text.replace("# meta h 0.01", f"# meta h {h}"))
        assert main(["simulate", crn, "-T", "1"]) == 1
        assert _error_lines(capsys) == ["error: h must be positive and finite"]

    @pytest.mark.parametrize("h", ["nan", "0", "-0.01"])
    def test_explicit_dt_rejects_a_bad_meta_h(self, tmp_path, capsys, h):
        # the dt-rule check needs h: a bad one is an error, not a skipped warning
        text = open(self._compiled(tmp_path)).read()
        crn = _write(tmp_path, "bad_h.crn", text.replace("# meta h 0.01", f"# meta h {h}"))
        assert main(["simulate", crn, "-T", "1", "--dt", "0.5"]) == 1
        assert _error_lines(capsys) == ["error: h must be positive and finite"]

    @pytest.mark.parametrize("dt", [[], ["--dt", "0.5"]], ids=["auto", "explicit"])
    def test_a_non_numeric_meta_h_exits_1(self, tmp_path, capsys, dt):
        text = open(self._compiled(tmp_path)).read()
        crn = _write(tmp_path, "bad_h.crn", text.replace("# meta h 0.01", "# meta h abc"))
        assert main(["simulate", crn, "-T", "1", *dt]) == 1
        assert _error_lines(capsys) == ["error: '# meta h abc' is not a number"]

    @pytest.mark.parametrize("line", ["X ->{inf} 0", "X ->{nan} 0", "init X nan"])
    def test_non_finite_numbers_exit_1(self, tmp_path, capsys, line):
        crn = _write(tmp_path, "bad.crn", f"species X\n{line}\n")
        assert main(["simulate", crn, "-T", "1", "--dt", "0.01"]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_a_ternary_reaction_exits_1(self, tmp_path, capsys):
        # the .crn format carries it; the mass-action field refuses it
        crn = _write(tmp_path, "t.crn", "species X Y Z\nX + Y + Z ->{1} 0\n")
        assert main(["simulate", crn, "-T", "1", "--dt", "0.01"]) == 1
        assert _error_lines(capsys) == ["error: mass action supported up to binary reactions"]

    def test_plot_svg(self, tmp_path):
        crn = self._compiled(tmp_path)
        svg_path = str(tmp_path / "p.svg")
        assert main(["simulate", crn, "-T", "5", "-o", str(tmp_path / "p.csv"),
                     "--plot", svg_path]) == 0
        svg = open(svg_path).read()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") >= 2  # one per plotted column

    def test_plot_svg_escapes_title_and_legend(self, tmp_path):
        # the title is the .crn path and the legend the species names, both raw text
        crn = _write(tmp_path, "a&b<1>.crn", "# meta h 0.01\nspecies x&y<2>\ninit x&y<2> 1\n")
        svg_path = str(tmp_path / "p.svg")
        assert main(["simulate", crn, "-T", "0.01", "-o", str(tmp_path / "p.csv"),
                     "--plot", svg_path]) == 0
        texts = [el.text for el in ET.parse(svg_path).getroot()
                 if el.tag.endswith("text")]
        assert crn in texts
        assert "x&y<2>" in texts

    def test_plot_svg_replaces_the_characters_xml_forbids(self, tmp_path):
        # a species name and a path may hold a control character, which no
        # XML document may; it is drawn as U+FFFD
        crn = _write(tmp_path, "a\x01b.crn", "# meta h 0.01\nspecies x\x01y\ninit x\x01y 1\n")
        svg_path = str(tmp_path / "p.svg")
        assert main(["simulate", crn, "-T", "0.01", "-o", str(tmp_path / "p.csv"),
                     "--plot", svg_path]) == 0
        texts = [el.text for el in ET.parse(svg_path).getroot()
                 if el.tag.endswith("text")]
        assert crn.replace("\x01", "\ufffd") in texts
        assert "x\ufffdy" in texts


class TestVerify:
    def test_rl_passes_default_tolerance(self, tmp_path, capsys):
        netlist = _write(tmp_path, "rl.cir", RL_DC)
        assert main(["verify", netlist, "-T", "10", "--tol", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_impossible_tolerance_reports_fail(self, tmp_path, capsys):
        netlist = _write(tmp_path, "rl.cir", RL_DC)
        assert main(["verify", netlist, "-T", "10", "--tol", "1e-9"]) == 4
        out = capsys.readouterr().out
        assert "FAIL" in out and "sup_error=" in out

    def test_study_table_decreases(self, tmp_path, capsys):
        netlist = _write(tmp_path, "rl.cir", RL_DC)
        assert main(["verify", netlist, "-T", "5", "--tol", "1",
                     "--study", "0.04,0.02"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "h,sup_error"
        errs = [float(line.split(",")[1]) for line in lines[1:]]
        assert errs[0] > errs[1]

    def test_study_rows_equal_verify_against_the_same_oracle(self, tmp_path, capsys):
        # each row is verify at its own h, whatever the other h values; at
        # h = 0.03 the oracle step h/100 is not (h/20)/5 bit for bit
        netlist = _write(tmp_path, "rls.cir", RL_SINE)
        net = parse_netlist(RL_SINE)
        rows = {}
        for study in ("0.04,0.02", "0.03,0.02", "0.02"):
            assert main(["verify", netlist, "-T", "2", "--tol", "1",
                         "--study", study]) == 0
            for line in capsys.readouterr().out.splitlines()[1:]:
                h_tok, err_tok = line.split(",")
                rows.setdefault(h_tok, set()).add(err_tok)
        assert sorted(rows) == ["0.02", "0.029999999999999999", "0.040000000000000001"]
        for h_tok, errs in rows.items():
            cfg = RunConfig(h=float(h_tok), T=2.0, transient_discard=0.0)
            assert [float(err) for err in errs] == [verify_circuit(net, cfg)]

    def test_study_rows_of_a_non_whole_ratio_are_pinned(self, tmp_path, capsys):
        # at h = 0.03 the oracle steps by 0.03/100, five steps per grid row
        netlist = _write(tmp_path, "hp.cir", RL_SINE)
        assert main(["verify", netlist, "-T", "10", "--tol", "0.05",
                     "--study", "0.03,0.02"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "h,sup_error",
            "0.029999999999999999,0.033287348981702491",
            "0.02,0.022265888171905918",
        ]

    @pytest.mark.parametrize("text, args, rows", [
        # direct mode (E invertible), whose tables hold 512 powers
        (RC_LOWPASS, ["-T", "10", "--study", "0.02,0.01"],
         ["0.02,3.6784878780116159e-05", "0.01,1.8393205713840288e-05"]),
        # a k = 8 RL ladder, whose tables of 20 x 20 maps hold 163 powers
        (rl_ladder(8), ["-T", "2", "--study", "0.02"], ["0.02,0.017033758932168901"]),
    ], ids=["direct_rc", "ladder_8"])
    def test_study_rows_of_direct_mode_and_of_short_tables_are_pinned(self, tmp_path, capsys,
                                                                      text, args, rows):
        netlist = _write(tmp_path, "net.cir", text)
        assert main(["verify", netlist, "--tol", "1"] + args) == 0
        assert capsys.readouterr().out.splitlines() == ["h,sup_error"] + rows

    @pytest.mark.parametrize("study", ["nan", "0.02,nan"])
    def test_a_non_finite_study_h_names_h(self, tmp_path, capsys, study):
        netlist = _write(tmp_path, "hp.cir", RL_SINE)
        assert main(["verify", netlist, "-T", "1", "--tol", "1", "--study", study]) == 1
        assert capsys.readouterr() == ("", "error: h must be positive and finite\n")

    @pytest.mark.parametrize("study", ["", ","])
    def test_empty_study_list_exits_1(self, tmp_path, capsys, study):
        netlist = _write(tmp_path, "rl.cir", RL_DC)
        assert main(["verify", netlist, "-T", "1", "--tol", "1", "--study", study]) == 1
        out, err = capsys.readouterr()
        assert out == ""  # no plain verify line
        assert err.splitlines()[-1] == "error: hs must be nonempty"

    def test_singular_exits_2(self, tmp_path):
        netlist = _write(tmp_path, "sing.cir", SINGULAR)
        assert main(["verify", netlist, "-T", "5", "--tol", "0.1"]) == 2

    @pytest.mark.parametrize("args", [
        ["-T", "0.0001"],  # at h = 0.01 the grid step is 5e-4
        ["-T", "0.00005"],
        ["-T", "0.001", "--study", "0.04,0.01"],  # 0.002 at h = 0.04
    ])
    def test_horizon_below_the_grid_step_exits_1(self, tmp_path, capsys, args):
        netlist = _write(tmp_path, "hp.cir", RL_SINE)
        assert main(["verify", netlist, *args, "--tol", "1"]) == 1
        assert _error_lines(capsys) == ["error: need 0 < dt <= T, both finite"]

    def test_infinite_horizon_exits_1(self, tmp_path, capsys):
        netlist = _write(tmp_path, "hp.cir", RL_SINE)
        assert main(["verify", netlist, "-T", "inf", "--tol", "0.05"]) == 1
        assert _error_lines(capsys) == ["error: T must be positive and finite"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_1_before_compiling(self, tmp_path, capsys, tol):
        # a singular pencil would exit 2 if the circuit were compiled first
        netlist = _write(tmp_path, "sing.cir", SINGULAR)
        assert main(["verify", netlist, "-T", "5", "--tol", tol]) == 1
        assert _error_lines(capsys) == ["error: --tol must be finite and nonnegative"]


class TestFreq:
    def test_cutoff_row(self, tmp_path):
        netlist = _write(tmp_path, "rl.cir", RL_SINE)
        out = str(tmp_path / "f.csv")
        assert main(["freq", netlist, "--omega", "1", "-o", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "omega,gain,phase_deg"
        _, gain, phase = (float(tok) for tok in lines[1].split(","))
        assert 0.677 <= gain <= 0.737
        assert 42.0 <= phase <= 48.0

    def test_two_sources_rejected(self, tmp_path):
        text = "V a 1 0 DC 1\nI b 0 2 DC 1\nR r1 1 2 1\nR r2 2 0 1\nOUT 2\n"
        netlist = _write(tmp_path, "two.cir", text)
        assert main(["freq", netlist, "--omega", "1"]) == 1

    @pytest.mark.parametrize("omega", ["nan", "inf", "1,nan"])
    def test_non_finite_omega_exits_1(self, tmp_path, capsys, omega):
        netlist = _write(tmp_path, "rl.cir", RL_SINE)
        assert main(["freq", netlist, "--omega", omega]) == 1
        assert _error_lines(capsys) == ["error: omega must be positive and finite"]

    def test_empty_omega_list_exits_1(self, tmp_path, capsys):
        netlist = _write(tmp_path, "rl.cir", RL_SINE)
        assert main(["freq", netlist, "--omega", ","]) == 1
        assert _error_lines(capsys) == ["error: omegas must be nonempty"]

    @pytest.mark.parametrize("omega, line", [
        ("1e-300", "omega=1e-300: T=1.3823e+301 needs 2.764601535e+304 grid rows at dt=0.0005, "
                   "above the cap of 1e+09"),
        ("1e-320", "omega=9.99989e-321: need 0 < dt <= T, both finite"),
        ("1,1e-300", "omega=1e-300: T=1.3823e+301 needs 2.764601535e+304 grid rows at dt=0.0005, "
                     "above the cap of 1e+09"),
        ("1e-12", "omega=1e-12: T=1.3823e+13 needs 2.764601535e+16 grid rows at dt=0.0005, "
                  "above the cap of 1e+09"),
    ], ids=["tiny", "infinite_horizon", "after_a_good_one", "petabytes"])
    def test_a_grid_over_the_row_cap_exits_1(self, tmp_path, capsys, omega, line):
        netlist = _write(tmp_path, "rl.cir", RL_SINE)
        assert main(["freq", netlist, "--omega", omega]) == 1
        assert _error_lines(capsys) == [f"error: {line}"]

    def test_a_grid_step_past_the_horizon_exits_1_before_compiling(self, tmp_path, capsys,
                                                                   monkeypatch):
        # at h = 2000 the grid step is 100, past the horizon T = 50
        def no_compile(*args):
            raise AssertionError("compiled a grid that steps past its horizon")

        monkeypatch.setattr(pipeline, "compile_circuit", no_compile)
        netlist = _write(tmp_path, "rl.cir", RL_SINE)
        assert main(["freq", netlist, "--omega", "1", "-h", "2000"]) == 1
        assert _error_lines(capsys) == ["error: omega=1: need 0 < dt <= T, both finite"]

    def test_a_window_of_one_sample_exits_1(self, tmp_path, capsys):
        # at h = 1000 the grid step is 50: the window (20, 50) holds one row
        netlist = _write(tmp_path, "rl.cir", RL_SINE)
        assert main(["freq", netlist, "--omega", "1", "-h", "1000"]) == 1
        assert _error_lines(capsys) == ["error: window (20, 50), sample count 1, does not "
                                        "determine a sinusoid of omega=1"]

    def test_a_fit_window_over_the_entry_cap_exits_1_at_once(self, tmp_path):
        # 5.5e8 fit values (4.1 GiB) fit under the row cap but not under the
        # sweep's store, and are refused before anything is allocated for them
        netlist = _write(tmp_path, "rl.cir", RL_SINE)
        done = _run_capped("freq", netlist, "--omega", "1e-4")
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert [ln for ln in done.stderr.splitlines() if ln.startswith("error:")] == [
            "error: omega=0.0001 needs 552920310 fit values at h=0.01, "
            "above the cap of 4194304"]


class TestFrequencyResponseExamples:
    """The low and high frequency gain examples, run at settings where the
    h approximation error does not mask the analytic value."""

    def test_well_below_cutoff(self):
        net = parse_netlist(RL_SINE)
        cfg = RunConfig(h=0.01, T=140.0, transient_discard=10.0)
        [(_, gain, _)] = frequency_response(net, [0.1], cfg)
        assert gain <= 0.15
        assert gain == pytest.approx(0.1 / np.sqrt(1.01), abs=5e-3)

    def test_well_above_cutoff(self):
        # h w must stay small for the gain to approach the analytic 0.995
        net = parse_netlist(RL_SINE)
        cfg = RunConfig(h=0.002, T=15.0, transient_discard=10.0)
        [(_, gain, _)] = frequency_response(net, [10.0], cfg)
        assert gain >= 0.99


class TestImpossibleHorizon:
    """A horizon whose grid no machine can hold (each request below is many
    PiB, beyond the 128 TiB user address space of x86-64) exits 1 with one
    `error:` line, the row cap's, before anything is compiled, allocated or
    stepped.  A table under the row cap that holds more than
    `dae.MAX_TABLE_VALUES` values exits 1 with the table cap's one `error:`
    line, before it is allocated; a MemoryError exits 1 the same way."""

    @pytest.mark.parametrize("args", [
        ["simulate", "{crn}", "-T", "1e12"],
        ["verify", "{cir}", "-T", "1e12", "--tol", "1"],
        ["freq", "{cir}", "--omega", "1e-12"],
    ])
    def test_exits_1_with_one_error_line(self, tmp_path, args):
        cir = _write(tmp_path, "hp.cir", RL_SINE)
        crn = str(tmp_path / "hp.crn")
        assert main(["compile", cir, "-o", crn]) == 0
        done = _run_capped(*(a.format(cir=cir, crn=crn) for a in args))
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        [line] = [ln for ln in done.stderr.splitlines() if ln.startswith("error:")]
        if args[0] == "freq":
            assert line == ("error: omega=1e-12: T=1.3823e+13 needs 2.764601535e+16 grid rows at "
                            "dt=0.0005, above the cap of 1e+09")
        else:
            assert line == ("error: T=1e+12 needs 2e+15 grid rows at dt=0.0005, "
                            "above the cap of 1e+09")

    def test_a_table_under_the_row_cap_that_cannot_be_allocated_exits_1(self, tmp_path):
        # 8e8 rows, under the row cap, but the table is far above the
        # table cap (and above 2 GiB)
        cir = _write(tmp_path, "hp.cir", RL_SINE)
        crn = str(tmp_path / "hp.crn")
        assert main(["compile", cir, "-o", crn]) == 0
        done = _run_capped("simulate", crn, "-T", "4e5")
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert [ln for ln in done.stderr.splitlines() if ln.startswith("error:")] == [
            "error: a table of 800000001 rows and 15 columns holds 1.2e+10 values, "
            "above the cap of 134217728"]

    def test_a_memory_error_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate the network")

        monkeypatch.setattr(cli, "compile_circuit", exhausted)
        cir = _write(tmp_path, "hp.cir", RL_SINE)
        assert main(["compile", cir]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            "error: Unable to allocate the network"]

    def test_an_internal_value_error_is_not_a_refusal(self, tmp_path, monkeypatch):
        # only the package's errors, OSError and MemoryError are refusals (exit 1);
        # any other exception is a fault and leaves main with its traceback
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "compile_circuit", broken)
        cir = _write(tmp_path, "hp.cir", RL_SINE)
        with pytest.raises(ValueError, match="^internal$") as info:
            main(["compile", cir])
        assert type(info.value) is ValueError


# Values every numeric option is tried with besides a valid one; the two
# that are no number come last, as hypothesis draws the first ones more often
BAD_NUMBERS = ["nan", "inf", "-1", "0", "1e-310", "1e309", "abc", ""]
# Each command's options and their valid values, coarse so that every run
# ends well under a second.  A required option is absent only as one of its
# bad values, and so is freq's -h: its default 0.01 steps a 10^5-row grid,
# which takes seconds.
COMMAND_OPTIONS = {
    "compile": {"-h": ["0.5"], "--gamma": ["auto", "0.5"], "-o": []},
    "simulate": {"-T": ["1"], "--dt": ["auto", "0.025"], "-o": []},
    "verify": {"-h": ["0.5"], "-T": ["1"], "--tol": ["0.05"], "--study": ["0.5,0.05"]},
    "freq": {"--omega": ["2", "1,2"], "-h": ["0.5"], "-o": []},
}
# the comma-list options, and their bad values besides BAD_NUMBERS
LISTS = {"--study", "--omega"}
BAD_LISTS = [",", "1,nan"]
REQUIRED = {"-T", "--tol", "--omega"}
INPUTS = {
    "hp.cir": RL_SINE,
    "sing.cir": SINGULAR_ONE_SOURCE,
    "empty": "",
    "bad.txt": "R broken 1 0\nOUT 1\n",
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """The input files by name: a netlist, its .crn (compiled at h = 0.5), a
    singular netlist, an empty and a malformed file; "missing" names no file,
    and "nodir/out" an output path whose directory does not exist."""
    root = tmp_path_factory.mktemp("cli_inputs")
    paths = {name: _write(root, name, text) for name, text in INPUTS.items()}
    paths["hp.crn"] = str(root / "hp.crn")
    assert main(["compile", paths["hp.cir"], "-h", "0.5", "-o", paths["hp.crn"]]) == 0
    paths["missing"] = str(root / "missing.cir")
    paths["nodir/out"] = str(root / "nodir" / "out")
    return paths


@st.composite
def command_lines(draw):
    """A command (or an unknown one), an input file or none, each of the
    command's options absent, valid or bad, and maybe an unknown flag.  Each
    draw picks the command's own input, and a good option value, as often
    as anything else, so that many lines get past the parser."""
    command = draw(st.sampled_from([*COMMAND_OPTIONS] * 3 + ["nope"]))
    argv = [command]
    own = "hp.crn" if command == "simulate" else "hp.cir"
    target = draw(st.one_of(st.just(own),
                            st.sampled_from([*INPUTS, "hp.crn", "missing", None])))
    if target is not None:
        argv.append(target)
    for flag, valid in COMMAND_OPTIONS.get(command, COMMAND_OPTIONS["compile"]).items():
        if flag == "-o":
            good, bad = [None], ["nodir/out"]
        else:
            bad = BAD_NUMBERS + (BAD_LISTS if flag in LISTS else [])
            good = valid if (command, flag) == ("freq", "-h") else [None, *valid]
            if flag in REQUIRED:
                good, bad = valid, [None, *bad]
        value = draw(st.one_of(st.sampled_from(good), st.sampled_from(bad)))
        if value is not None:
            argv += [flag, value]
    if draw(st.sampled_from([False] * 7 + [True])):
        argv.append("--bogus")
    return argv


class TestCommandLine:
    @pytest.mark.parametrize("args,line", [
        (["verify", "{cir}", "-T", "10", "--tol", "abc"],
         "error: argument --tol: invalid float value: 'abc'"),
        (["compile"], "error: the following arguments are required: netlist"),
        (["freq", "{cir}", "--omega", "1,abc"],
         "error: argument --omega: invalid float_list value: '1,abc'"),
        (["simulate", "{cir}", "-T", "1", "--dt", "fast"],
         "error: argument --dt: invalid float_or_auto value: 'fast'"),
        (["compile", "{cir}", "--gamma", ""],
         "error: argument --gamma: invalid float_or_auto value: ''"),
        # argparse's list of the choices that follows is spelled differently
        # across Python versions
        (["nope", "{cir}"], "error: argument command: invalid choice: 'nope'"),
        (["compile", "{cir}", "--bogus"], "error: unrecognized arguments: --bogus"),
    ], ids=["tol", "no_netlist", "omega", "dt", "gamma", "unknown_command", "unknown_flag"])
    def test_a_malformed_command_line_exits_1_with_its_usage(self, tmp_path, capsys, args,
                                                             line):
        cir = _write(tmp_path, "hp.cir", RL_SINE)
        assert main([a.format(cir=cir) for a in args]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: circ2crn")
        [error] = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert error.startswith(line)

    @settings(max_examples=200, deadline=None)
    @given(argv=command_lines())
    def test_every_command_line_exits_with_a_defined_code(self, cli_inputs, argv):
        # main returns 0-4 and lets no exception out, so no traceback; a
        # refusal, a singular pencil and a blow-up each print one error line,
        # and exit 2 is the pencil's
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([cli_inputs.get(a, a) for a in argv])
        assert code in (0, 1, 2, 3, 4)
        errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
        if code in (1, 2, 3):
            assert len(errors) == 1, errors
        if code == 2:
            assert errors[0].startswith("error: singular pencil: ")


class TestStartup:
    def test_import_leaves_out_the_network_and_xml_stacks(self):
        # nor multiprocessing: simulate's helper is a bare os.fork
        code = ("import sys, circ2crn.cli; "
                "print(sorted({'urllib.request', 'xml.sax', 'multiprocessing', "
                "'concurrent.futures'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(circ2crn.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"

    def test_plot_escape_matches_the_xml_library(self):
        from xml.sax.saxutils import escape as xml_escape

        from circ2crn.plot import escape

        for text in ["", "plain", "a&b<1>.crn", "&amp;&lt;", ">>&<<", "x&y<2>\"'"]:
            assert escape(text) == xml_escape(text)

    def test_parser_is_built_once(self, tmp_path, capsys):
        from circ2crn.cli import _build_parser

        parser = _build_parser()
        netlist = _write(tmp_path, "rl.cir", RL_DC)
        assert main(["verify", netlist, "-T", "1", "--tol", "0.05"]) == 0
        assert main(["compile", netlist]) == 0
        assert _build_parser() is parser

    @pytest.mark.parametrize("exit_code", [0, 1])
    def test_main_leaves_the_warning_filters_of_its_caller(self, tmp_path, capsys, exit_code):
        netlist = _write(tmp_path, "rl.cir", RL_DC if exit_code == 0 else "R r1 1\n")
        before = list(warnings.filters)
        assert main(["compile", netlist]) == exit_code
        assert warnings.filters == before
