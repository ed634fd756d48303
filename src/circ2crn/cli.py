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
"""

from __future__ import annotations

import argparse
import sys as _sys
import warnings
from functools import cache

from .circuit import parse_netlist
from .crn import crn_lines, parse_crn
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


def _cmd_compile(args) -> int:
    with open(args.netlist) as fh:
        net = parse_netlist(fh.read())
    compiled = compile_circuit(net, RunConfig(h=args.h, gamma=args.gamma))
    _write(crn_lines(compiled.crn), args.output)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.crn) as fh:
        net = parse_crn(fh)
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
    _write(traj.csv_lines(), args.output)
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
