"""The benchmark's workloads: seeded inputs, ops, oracle checks and replays.

Each workload turns its seed into netlists (the program sees only those
files), runs CLI commands in-process through `circ2crn.cli.main`, and
checks every output against an oracle of its own.  An op is one command,
or the fixed command pair of `compile_ladder`.
"""

from __future__ import annotations

import contextlib
import io
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from circ2crn.circuit import build_dae, parse_netlist
from circ2crn.cli import main as cli_main
from circ2crn.crn import parse_crn
from circ2crn.dae import reference_solve

import oracles
import tracing
from oracles import CheckFailed

H = 0.01  # the CLI's default Euler step, used by every command here
DT = H / 20.0  # the CLI's `--dt auto`
# Component values are drawn log-uniformly from this range.  It is kept
# narrow so that error-type metrics stay comparable from seed to seed.
VALUE_RANGE = (0.8, 1.25)


@dataclass(frozen=True)
class Command:
    name: str  # compile | simulate | verify | freq
    path: str
    out: str | None = None
    T: float | None = None
    tol: float | None = None
    omegas: tuple[float, ...] = ()

    def argv(self) -> list[str]:
        argv = [self.name, self.path]
        if self.T is not None:
            argv += ["-T", repr(self.T)]
        if self.tol is not None:
            argv += ["--tol", repr(self.tol)]
        if self.omegas:
            argv += ["--omega", ",".join(repr(w) for w in self.omegas)]
        if self.out is not None:
            argv += ["-o", self.out]
        return argv

    @property
    def replica_out(self) -> str | None:
        return None if self.out is None else self.out + ".replica"


@dataclass(frozen=True)
class Op:
    key: str  # which distinct input the op runs on
    commands: tuple[Command, ...]


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str


def run_cli(cmd: Command) -> Outcome:
    """One CLI command in this process, with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(cmd.argv())
        except Exception:  # an uncaught crash is a failed op, not a dead run
            traceback.print_exc()
            code = -1
    return Outcome(code, out.getvalue(), err.getvalue())


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def artifact(cmd: Command, outcome: Outcome) -> str:
    """What a command produces: its output file, or else its stdout."""
    return _read(cmd.out) if cmd.out is not None else outcome.stdout


def replay_op(tr: tracing.Tracer, op: Op) -> list[str]:
    """Run the traced replica of each command of an op; return the artifacts.

    A replica reads what an earlier replica of the same op wrote, as the
    command reads what the earlier command wrote.  Like `run_cli`, it
    captures stderr, where the program's warnings go.
    """
    written: dict[str, str] = {}
    got = []
    with contextlib.redirect_stderr(io.StringIO()):
        for cmd in op.commands:
            got.append(_replay(tr, cmd, written.get(cmd.path, cmd.path)))
            if cmd.out is not None:
                written[cmd.out] = cmd.replica_out
    return got


def _replay(tr, cmd, path):
    if cmd.name == "compile":
        return tracing.replay_compile_cmd(tr, path, cmd.replica_out)
    if cmd.name == "simulate":
        return tracing.replay_simulate_cmd(tr, path, cmd.T, cmd.replica_out)
    if cmd.name == "verify":
        return tracing.replay_verify_cmd(tr, path, cmd.T, cmd.tol)
    if cmd.name == "freq":
        return tracing.replay_freq_cmd(tr, path, cmd.omegas)
    raise ValueError(f"no replica for {cmd.name!r}")


def same_artifact(cmd: Command, got: str, want: str) -> bool:
    """Replica output equals the command's: `.crn` by content, else bytes."""
    if cmd.name == "compile":
        return tracing.crn_content(got) == tracing.crn_content(want)
    return got == want


def require_success(outcomes) -> None:
    for o in outcomes:
        if o.code != 0:
            raise CheckFailed(f"command exited {o.code}: {o.stderr.strip()[-300:]}")


class Workload:
    """Base: a seeded input set, the ops of one round-robin cycle, checks."""

    name = ""
    why = ""
    # Deviations below this read as this value: the check cannot resolve
    # them, and they scatter over decades from seed to seed.
    resolution = 0.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(workdir)
        self.key_counts: dict[str, tuple[int, int]] = {}  # key -> (species, reactions)

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}")

    @staticmethod
    def values(rng: random.Random, n: int) -> list[float]:
        lo, hi = np.log(VALUE_RANGE[0]), np.log(VALUE_RANGE[1])
        return [round(float(np.exp(rng.uniform(lo, hi))), 6) for _ in range(n)]

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def write(self, name: str, text: str) -> None:
        with open(self.path(name), "w") as fh:
            fh.write(text)

    def count_compiled(self, key: str, cir: str) -> None:
        """Species and reactions of the `.crn` that `compile` emits for cir."""
        out = cir + ".crn"
        require_success([run_cli(Command("compile", cir, out=out))])
        net = parse_crn(_read(out))
        self.key_counts[key] = (len(net.species), len(net.reactions))

    def counts(self) -> tuple[int, int]:
        """(reactions, species) summed over the distinct inputs."""
        return (sum(r for _, r in self.key_counts.values()),
                sum(s for s, _ in self.key_counts.values()))

    def inputs(self) -> dict[str, str]:
        """Every generated input file, name -> text (for reproducibility)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Write the inputs and build whatever the checks need."""
        for name, text in self.inputs().items():
            self.write(name, text)

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, outcomes) -> float:
        raise NotImplementedError


class VerifyFixtures(Workload):
    name = "verify_fixtures"
    why = "certification path: RK4 step loop plus BDF-1 oracle on the four acceptance circuits"
    T = 10.0
    TOL = 0.05
    KEYS = ("RL_DC", "RL_SINE", "TWO_CAP", "RC_LOWPASS")

    def inputs(self):
        rng = self.rng()
        r, l = self.values(rng, 2)
        texts = {"RL_DC.cir": f"V vin 1 0 DC 1\nR r1 1 2 {r!r}\nL l1 2 0 {l!r}\nOUT 2\n"}
        r, l = self.values(rng, 2)
        texts["RL_SINE.cir"] = oracles.ladder_netlist([r], [l])
        c1, c2, r = self.values(rng, 3)
        texts["TWO_CAP.cir"] = (f"I is 0 1 DC 1\nC c1 1 0 {c1!r}\nC c2 1 2 {c2!r}\n"
                                f"R r1 2 0 {r!r}\nOUT 2\n")
        r, c = self.values(rng, 2)
        texts["RC_LOWPASS.cir"] = f"V vin 1 0 DC 1\nR r1 1 2 {r!r}\nC c1 2 0 {c!r}\nOUT 2\n"
        return texts

    def prepare(self):
        super().prepare()
        for key in self.KEYS:
            self.count_compiled(key, self.path(f"{key}.cir"))

    def cycle(self):
        return [Op(key, (Command("verify", self.path(f"{key}.cir"), T=self.T, tol=self.TOL),))
                for key in self.KEYS]

    def check(self, op, outcomes):
        return oracles.check_verify(outcomes[0].code, outcomes[0].stdout, self.TOL)


class CompileLadder(Workload):
    name = "compile_ladder"
    why = "write and read paths at scale: compile, serialize, parse and field build of RL ladders k=20/60/120, one RK4 step"
    KS = (20, 60, 120)
    TOL = 1e-9
    resolution = 1e-12

    def inputs(self):
        rng = self.rng()
        self.sections = {}
        texts = {}
        for k in self.KS:
            rs, ls = self.values(rng, k), self.values(rng, k)
            self.sections[k] = (rs, ls)
            texts[f"ladder_{k}.cir"] = oracles.ladder_netlist(rs, ls)
        return texts

    def prepare(self):
        super().prepare()
        self.oracles = {k: oracles.RailOracle(*self.sections[k], H) for k in self.KS}
        self.checked: dict[str, tuple[tuple[str, str], float]] = {}

    def cycle(self):
        ops = []
        for k in self.KS:
            cir = self.path(f"ladder_{k}.cir")
            crn, csv = cir[:-4] + ".crn", cir[:-4] + ".csv"
            ops.append(Op(f"k={k}", (Command("compile", cir, out=crn),
                                     Command("simulate", crn, T=DT, out=csv))))
        return ops

    def check(self, op, outcomes):
        require_success(outcomes)
        texts = (_read(op.commands[0].out), _read(op.commands[1].out))
        if op.key in self.checked:
            seen, err = self.checked[op.key]
            if texts != seen:
                raise CheckFailed(f"{op.key}: output differs from the checked one")
            return err
        k = int(op.key[2:])
        net = parse_crn(texts[0])
        rng = random.Random(f"{self.name}/{self.seed}/{op.key}")
        point = np.array([rng.random() for _ in net.species])
        err = max(oracles.check_field(net, self.oracles[k], point, self.TOL),
                  oracles.check_one_step(texts[1], net, self.oracles[k], DT, self.TOL))
        self.checked[op.key] = (texts, err)
        self.key_counts[op.key] = (len(net.species), len(net.reactions))
        return err


class SimulateLadder(Workload):
    name = "simulate_ladder"
    why = "field-bound RK4: 2000 steps on a k=20 ladder (3.3k reactions) plus a 5 MB CSV"
    K = 20
    T = 1.0
    TOL = 0.05

    def inputs(self):
        rng = self.rng()
        self.netlist = oracles.ladder_netlist(self.values(rng, self.K), self.values(rng, self.K))
        return {f"ladder_{self.K}.cir": self.netlist}

    def prepare(self):
        super().prepare()
        cir = self.path(f"ladder_{self.K}.cir")
        self.count_compiled(f"k={self.K}", cir)
        self.crn = cir + ".crn"
        sys, inp = build_dae(parse_netlist(self.netlist))
        self.reference = reference_solve(sys, inp, np.zeros(sys.n), self.T, H / 100.0)
        self.checked: tuple[str, float] | None = None

    def cycle(self):
        return [Op(f"k={self.K}", (Command("simulate", self.crn, T=self.T,
                                           out=self.path("ladder.csv")),))]

    def check(self, op, outcomes):
        require_success(outcomes)
        text = _read(op.commands[0].out)
        if self.checked is not None:
            if text != self.checked[0]:
                raise CheckFailed("CSV differs from the checked one")
            return self.checked[1]
        err = oracles.check_trajectory(text, f"v{self.K + 1}", self.reference, self.TOL)
        self.checked = (text, err)
        return err


class FreqSweep(Workload):
    name = "freq_sweep"
    why = "one structure compiled and simulated per drive frequency; the only run of frequency_response and fit_sinusoid"
    TOL = 1e-5
    resolution = 1e-7
    OMEGA_RANGE = (0.5, 4.0)

    def inputs(self):
        rng = self.rng()
        self.r, self.l = self.values(rng, 2)
        self.omegas = tuple(round(rng.uniform(*self.OMEGA_RANGE), 6) for _ in range(2))
        return {"rl_sine.cir": oracles.ladder_netlist([self.r], [self.l])}

    def prepare(self):
        super().prepare()
        cir = self.path("rl_sine.cir")
        self.count_compiled("rl_sine", cir)
        E, A, B, _ = oracles.ladder_pencil([self.r], [self.l])
        self.expected = [(w, oracles.shifted_response(E, A, B, 0, H, w)) for w in self.omegas]

    def cycle(self):
        return [Op("rl_sine", (Command("freq", self.path("rl_sine.cir"), omegas=self.omegas),))]

    def check(self, op, outcomes):
        require_success(outcomes)
        return oracles.check_freq(outcomes[0].stdout, self.expected, self.TOL)


WORKLOADS = {w.name: w for w in (VerifyFixtures, CompileLadder, SimulateLadder, FreqSweep)}
