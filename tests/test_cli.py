import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import circ2crn
from circ2crn.cli import main
from circ2crn.crn import parse_crn, serialize_crn
from circ2crn.pipeline import RunConfig, frequency_response, verify_circuit
from circ2crn.circuit import parse_netlist

from conftest import RC_LOWPASS, RL_DC, RL_SINE, circuit_block

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

    @pytest.mark.parametrize("flags,message", [
        (["-h", "nan"], "h must be positive and finite"),
        (["-h", "inf"], "h must be positive and finite"),
        (["--gamma", "nan"], "gamma must be finite and nonnegative, or 'auto'"),
    ])
    def test_non_finite_parameters_exit_1(self, tmp_path, capsys, flags, message):
        netlist = _write(tmp_path, "rc.cir", RC_LOWPASS)
        assert main(["compile", netlist, *flags]) == 1
        assert _error_lines(capsys) == [f"error: {message}"]

    def test_gamma_flag(self, tmp_path):
        netlist = _write(tmp_path, "rl.cir", RL_DC)
        out = str(tmp_path / "g0.crn")
        assert main(["compile", netlist, "--gamma", "0", "-o", out]) == 0
        text = open(out).read()
        assert "->{" in text
        assert " 0\n" not in circuit_block(text)  # no annihilations emitted


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

    @pytest.mark.parametrize("line", ["X ->{inf} 0", "X ->{nan} 0", "init X nan"])
    def test_non_finite_numbers_exit_1(self, tmp_path, capsys, line):
        crn = _write(tmp_path, "bad.crn", f"species X\n{line}\n")
        assert main(["simulate", crn, "-T", "1", "--dt", "0.01"]) == 1
        assert "line 2" in capsys.readouterr().err

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
        netlist = _write(tmp_path, "rls.cir", RL_SINE)
        assert main(["verify", netlist, "-T", "2", "--tol", "1",
                     "--study", "0.04,0.02"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        net = parse_netlist(RL_SINE)
        for h_tok, err_tok in rows:
            h = float(h_tok)
            cfg = RunConfig(h=h, T=2.0, transient_discard=0.0)
            assert float(err_tok) == verify_circuit(net, cfg, h_ref=0.02 / 100.0)

    def test_singular_exits_2(self, tmp_path):
        netlist = _write(tmp_path, "sing.cir", SINGULAR)
        assert main(["verify", netlist, "-T", "5", "--tol", "0.1"]) == 2

    def test_infinite_horizon_exits_1(self, tmp_path, capsys):
        netlist = _write(tmp_path, "hp.cir", RL_SINE)
        assert main(["verify", netlist, "-T", "inf", "--tol", "0.05"]) == 1
        assert _error_lines(capsys) == ["error: need finite T > transient_discard >= 0"]

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
