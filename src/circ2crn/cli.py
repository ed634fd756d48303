"""Command-line driver.

    circ2crn compile  <netlist> [-h H] [--gamma G|auto] [-o out.crn]
    circ2crn simulate <crn> -T T [--dt DT|auto] [-o out.csv] [--plot out.svg]
    circ2crn verify   <netlist> [-h H] -T T --tol TOL [--study H1,H2,...]
    circ2crn freq     <netlist> --omega W1,W2,... [-h H] [-o out.csv]

Exit codes: 0 success, 1 refused input (a ParseError or ValidationError,
a malformed command line among them, or an OSError or MemoryError),
2 singular pencil, 3 non-finite simulation state, 4 verify FAIL (error
above --tol).  Any other exception is a fault and shows its traceback.
Note: -h is the Euler step size; use --help for usage.

On two CPUs or more, a command may fork one helper process at a time
(_helper), which writes its share to an unlinked temporary file and leaves
by os._exit: compile hands it the later half of the reaction lines of a
network of at least _SPLIT_REACTIONS reactions, and simulate the later
part of a .crn file of at least _SPLIT_BYTES bytes (_read_crn) and the
later half of the rows of a CSV of at least _SPLIT_VALUES values.  When
the helper cannot be started or fails, or its part of the network cannot
be joined, the command does that share itself, so every output byte,
network and ParseError is the serial one.  The helper is reaped before the
command goes on, and killed first when the command fails.
"""

from __future__ import annotations

import argparse
import codecs
import io
import os
import pickle
import signal
import stat
import sys as _sys
import tempfile
import warnings
from contextlib import closing, contextmanager
from functools import cache, partial
from itertools import islice

from .circuit import parse_netlist
from .crn import Crn, crn_lines, join_parts, parse_crn, species_lines
from .dae import Trajectory
from .errors import Circ2CrnError, NonFiniteState, SingularMatrix, ValidationError
from .pipeline import (
    RunConfig,
    compile_circuit,
    convergence_study,
    freq_to_csv,
    frequency_response,
    simulate_crn,
    study_to_csv,
    verify_circuit,
)
from .plot import render_svg
from .sim import check_dt


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage error is a refusal: it prints the usage
    and raises ValidationError instead of exiting 2, the singular-pencil code."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        raise ValidationError(message)


def float_or_auto(text: str) -> float | str:
    """'auto' as it is, else the number."""
    return text if text == "auto" else float(text)


def float_list(text: str) -> list[float]:
    """The numbers of a comma list; empty items are skipped."""
    return [float(tok) for tok in text.split(",") if tok]


def _add_step_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("-h", "--step", dest="h", type=float, default=0.01,
                   metavar="H", help="backward-Euler step parameter (default 0.01)")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it
    unchanged."""
    parser = _Parser(prog="circ2crn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", add_help=False,
                       help="translate a netlist into a .crn file")
    p.add_argument("netlist")
    _add_step_option(p)
    p.add_argument("--gamma", type=float_or_auto, default="auto",
                   help="annihilation rate, or 'auto' for 1/h")
    p.add_argument("-o", "--output", default=None, metavar="OUT.CRN")
    p.add_argument("--help", action="help")

    p = sub.add_parser("simulate", add_help=False,
                       help="integrate a .crn under mass-action kinetics")
    p.add_argument("crn")
    p.add_argument("-T", dest="T", type=float, required=True,
                   help="time horizon")
    p.add_argument("--dt", type=float_or_auto, default="auto",
                   help="RK4 step, or 'auto' for h/20 from file metadata")
    p.add_argument("-o", "--output", default=None, metavar="OUT.CSV")
    p.add_argument("--plot", default=None, metavar="OUT.SVG")
    p.add_argument("--help", action="help")

    p = sub.add_parser("verify", add_help=False,
                       help="check the emitted CRN against the DAE oracle")
    p.add_argument("netlist")
    _add_step_option(p)
    p.add_argument("-T", dest="T", type=float, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--study", type=float_list, default=None, metavar="H1,H2,...",
                   help="print verify's sup error at each of these h values, "
                        "which replace -h")
    p.add_argument("--help", action="help")

    p = sub.add_parser("freq", add_help=False,
                       help="measure gain and phase over drive frequencies")
    p.add_argument("netlist")
    p.add_argument("--omega", type=float_list, required=True, metavar="W1,W2,...")
    _add_step_option(p)
    p.add_argument("-o", "--output", default=None, metavar="OUT.CSV")
    p.add_argument("--help", action="help")
    return parser


def _write(chunks, path: str | None) -> None:
    """Write each text of chunks in turn to path, or else to stdout."""
    if path is None:
        _sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


# a table of at least this many values is formatted by two processes: half
# its formatting (about 13 ms at 0.4 us a value) is several times the cost
# of a fork and reap (about 3 ms on a 2-core x86 host)
_SPLIT_VALUES = 1 << 16
# a network of at least this many reactions is written by two processes: the
# k = 120 ladder's 58 569 are (36 -> 26 ms), while the k = 60 ladder's
# 14 700 gained nothing
_SPLIT_REACTIONS = 1 << 15
# a .crn file of at least this many bytes is read by two processes: the
# k = 60 ladder's 711 KB is (25 -> 21 ms), the k = 20 ladder's 82 KB is not
_SPLIT_BYTES = 1 << 18


def _two_cpus() -> bool:
    """Whether this process may run on two CPUs or more."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


@contextmanager
def _helper(work, mode: str):
    """One forked helper process that runs work(spill) on an unlinked spill
    file opened in mode, then leaves by os._exit: 0 once work returned and
    the file is flushed, 1 on any exception, with no flush of inherited
    stdio buffers and no atexit hooks.

    The body gets a function that waits for the helper and returns the
    spill file, rewound, when the helper exited 0, else None; or it gets
    None when the spill file or the fork cannot be made.  On leaving, a
    helper still running is killed, the helper is reaped and the spill file
    is closed.
    """
    try:
        spill = tempfile.TemporaryFile(mode)
    except OSError:
        yield None
        return
    with spill:
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns of fork in a process with threads (BLAS
                # pools); the helper calls no BLAS and leaves by os._exit
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            yield None
            return
        if pid == 0:
            code = 1
            try:
                work(spill)
                spill.flush()
                code = 0
            finally:
                os._exit(code)
        reaped = False

        def wait():
            nonlocal reaped
            _, status = os.waitpid(pid, 0)
            reaped = True
            if status != 0:
                return None
            spill.seek(0)
            return spill

        try:
            yield wait
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _split_text(first, later):
    """The texts of the iterable first, then those of the iterable later.

    One forked helper (see _helper) writes later's texts to a spill file
    while first's are handed out, and the spill file's text follows them;
    when the helper cannot be started or fails, later's texts are made here
    instead.  Neither iterable may have been started.
    """
    with _helper(lambda spill: spill.writelines(later), "w+") as wait:
        yield from first
        spill = None if wait is None else wait()
        yield from later if spill is None else iter(partial(spill.read, 1 << 20), "")


def _csv_chunks(traj: Trajectory):
    """The text of traj.to_csv() in pieces; the later half of the rows of a
    table of at least _SPLIT_VALUES values goes to a helper (_split_text)
    when this process may run on two CPUs."""
    if traj.values.size < _SPLIT_VALUES or not _two_cpus():
        return traj.csv_lines()
    mid = len(traj.times) // 2
    later = Trajectory(traj.times[mid:], traj.names, traj.values[mid:])
    return _split_text(islice(traj.csv_lines(), mid + 1), islice(later.csv_lines(), 1, None))


def _crn_chunks(net: Crn):
    """The text of serialize_crn(net) in pieces; the later half of the
    reactions of a network of at least _SPLIT_REACTIONS reactions goes to a
    helper (_split_text) when this process may run on two CPUs."""
    if len(net.table) < _SPLIT_REACTIONS or not _two_cpus():
        return crn_lines(net)
    mid = len(net.table) // 2
    return _split_text(crn_lines(net, None, mid), crn_lines(net, mid))


class _Span(io.RawIOBase):
    """Bytes lo .. hi - 1 of an open file, read by os.pread, which leaves
    the file's offset, shared with a forked process, where it is."""

    def __init__(self, fd: int, lo: int, hi: int):
        super().__init__()
        self._fd, self._at, self._hi = fd, lo, hi

    def readable(self):
        return True

    def readinto(self, buf):
        data = os.pread(self._fd, min(len(buf), self._hi - self._at), self._at)
        buf[: len(data)] = data
        self._at += len(data)
        return len(data)


def _text(fh, lo: int, hi: int):
    """Bytes lo .. hi - 1 of the open text file fh as a text file, decoded
    as fh decodes them."""
    return io.TextIOWrapper(io.BufferedReader(_Span(fh.fileno(), lo, hi)),
                            encoding=fh.encoding, errors=fh.errors)


class _After:
    """A text file read after a text: its first read gives the text."""

    def __init__(self, text: str, fh):
        self._text, self._fh = text, fh

    def read(self, size: int) -> str:
        text, self._text = self._text, ""
        return text or self._fh.read(size)


def _cut(fh) -> int | None:
    """The offset just past the first newline at or after the middle of the
    open text file fh, when fh is a regular UTF-8 file of at least
    _SPLIT_BYTES bytes that holds one there; else None."""
    st = os.fstat(fh.fileno())
    if (not stat.S_ISREG(st.st_mode) or st.st_size < _SPLIT_BYTES
            or codecs.lookup(fh.encoding).name != "utf-8"):
        return None
    at = st.st_size // 2
    while piece := os.pread(fh.fileno(), 1 << 12, at):
        if (nl := piece.find(b"\n")) >= 0:
            return at + nl + 1
        at += len(piece)
    return None


def _read_later(fh, cut: int, spill) -> None:
    """Pickle to spill, in the order of Crn's fields, the parts of the
    network that the species lines of fh's bytes before cut, followed by
    its bytes from cut on, read as."""
    net = parse_crn(_After(species_lines(_text(fh, 0, cut)),
                           _text(fh, cut, os.fstat(fh.fileno()).st_size)))
    pickle.dump((net.species, net.table, dict(net.init), dict(net.meta), net.diffs,
                 net.blocks), spill, pickle.HIGHEST_PROTOCOL)


def _read_crn(path: str) -> Crn:
    """The network that parse_crn reads from the .crn file at path.

    When the file is cut (_cut) and this process may run on two CPUs, one
    forked helper (see _helper) reads the species lines of the earlier
    part followed by the later part, while the earlier part is read here
    in _BLOCK pieces, and the two are joined (crn.join_parts).  A
    ParseError of the earlier part is the serial reader's, which reads the
    same lines first.  Whenever the helper cannot be started or fails, as
    on a bad line of the later part, or the join is refused, the whole file
    is read serially, so the network and every ParseError are the serial
    reader's.
    """
    with open(path) as fh:
        cut = _cut(fh) if _two_cpus() else None
        if cut is None:
            return parse_crn(fh)
        with _helper(partial(_read_later, fh, cut), "w+b") as wait:
            if wait is None:
                return parse_crn(fh)
            earlier = parse_crn(_text(fh, 0, cut))
            spill = wait()
            if spill is not None:
                net = join_parts(earlier, Crn(*pickle.load(spill)))
                if net is not None:
                    return net
        return parse_crn(fh)


def _cmd_compile(args) -> int:
    with open(args.netlist) as fh:
        net = parse_netlist(fh.read())
    compiled = compile_circuit(net, RunConfig(h=args.h, gamma=args.gamma))
    with closing(_crn_chunks(compiled.crn)) as chunks:
        _write(chunks, args.output)
    return 0


def _cmd_simulate(args) -> int:
    net = _read_crn(args.crn)
    cfg = None
    if "h" in net.meta:
        try:
            h = float(net.meta["h"])
        except ValueError:
            raise ValidationError(f"'# meta h {net.meta['h']}' is not a number") from None
        # RunConfig rejects a '# meta h' that is not positive and finite
        cfg = RunConfig(h=h)
    if args.dt == "auto":
        if cfg is None:
            raise ValidationError(
                "--dt auto needs '# meta h ...' in the .crn file; pass --dt"
            )
        dt = cfg.resolve_dt()
    else:
        dt = args.dt
        if cfg is not None:
            check_dt(dt, cfg.h)
    traj = simulate_crn(net, args.T, dt)
    with closing(_csv_chunks(traj)) as chunks:
        _write(chunks, args.output)
    if args.plot is not None:
        columns = [d[0] for d in net.diffs] if net.diffs else list(traj.names)
        _write([render_svg(traj, columns, title=args.crn)], args.plot)
    return 0


def _cmd_verify(args) -> int:
    if not 0.0 <= args.tol < float("inf"):  # NaN fails too
        raise ValidationError("--tol must be finite and nonnegative")
    with open(args.netlist) as fh:
        net = parse_netlist(fh.read())
    cfg = RunConfig(h=args.h, T=args.T)
    if args.study is not None:
        _sys.stdout.write(study_to_csv(convergence_study(net, cfg, args.study)))
        return 0
    err = verify_circuit(net, cfg)
    passed = err <= args.tol
    print(f"sup_error={err:.6g} tol={args.tol:g} {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 4


def _cmd_freq(args) -> int:
    with open(args.netlist) as fh:
        net = parse_netlist(fh.read())
    rows = frequency_response(net, args.omega, RunConfig(h=args.h))
    _write([freq_to_csv(rows)], args.output)
    return 0


_DISPATCH = {
    "compile": _cmd_compile,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "freq": _cmd_freq,
}


def main(argv=None) -> int:
    with warnings.catch_warnings():  # the caller's filters come back unchanged
        warnings.simplefilter("always", RuntimeWarning)
        try:
            args = _build_parser().parse_args(argv)
            return _DISPATCH[args.command](args)
        except SingularMatrix as exc:
            print(f"error: singular pencil: {exc}", file=_sys.stderr)
            return 2
        except NonFiniteState as exc:
            print(f"error: state blew up at t={exc.time:g}", file=_sys.stderr)
            return 3
        except (Circ2CrnError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=_sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
