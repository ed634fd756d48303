"""Command-line driver.

    circ2crn compile  <netlist> [-h H] [--gamma G|auto] [-o out.crn]
    circ2crn simulate <crn> -T T [--dt DT|auto] [-o out.csv] [--plot out.svg]
    circ2crn verify   <netlist> [-h H] -T T --tol TOL [--study H1,H2,...]
    circ2crn freq     <netlist> --omega W1,W2,... [-h H] [-o out.csv]

Exit codes: 0 success, 1 parse/validation error, 2 singular pencil,
3 non-finite simulation state, 4 verify FAIL (error above --tol).
Note: -h is the Euler step size; use --help for usage.
"""

from __future__ import annotations

import argparse
import sys as _sys
import warnings

from .circuit import parse_netlist
from .crn import parse_crn, serialize_crn
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


def _add_step_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("-h", "--step", dest="h", type=float, default=0.01,
                   metavar="H", help="backward-Euler step parameter (default 0.01)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="circ2crn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", add_help=False,
                       help="translate a netlist into a .crn file")
    p.add_argument("netlist")
    _add_step_option(p)
    p.add_argument("--gamma", default="auto",
                   help="annihilation rate, or 'auto' for 1/h")
    p.add_argument("-o", "--output", default=None, metavar="OUT.CRN")
    p.add_argument("--help", action="help")

    p = sub.add_parser("simulate", add_help=False,
                       help="integrate a .crn under mass-action kinetics")
    p.add_argument("crn")
    p.add_argument("-T", dest="T", type=float, required=True,
                   help="time horizon")
    p.add_argument("--dt", default="auto",
                   help="RK4 step, or 'auto' for h/20 from file metadata")
    p.add_argument("-o", "--output", default=None, metavar="OUT.CSV")
    p.add_argument("--plot", default=None, metavar="OUT.SVG")
    p.add_argument("--help", action="help")

    p = sub.add_parser("verify", add_help=False,
                       help="co-simulate the CRN against the DAE oracle")
    p.add_argument("netlist")
    _add_step_option(p)
    p.add_argument("-T", dest="T", type=float, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--study", default=None, metavar="H1,H2,...",
                   help="run a convergence study over these h values")
    p.add_argument("--help", action="help")

    p = sub.add_parser("freq", add_help=False,
                       help="measure gain and phase over drive frequencies")
    p.add_argument("netlist")
    p.add_argument("--omega", required=True, metavar="W1,W2,...")
    _add_step_option(p)
    p.add_argument("-o", "--output", default=None, metavar="OUT.CSV")
    p.add_argument("--help", action="help")
    return parser


def _write(text: str, path: str | None) -> None:
    if path is None:
        _sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_compile(args) -> int:
    with open(args.netlist) as fh:
        net = parse_netlist(fh.read())
    gamma = args.gamma if args.gamma == "auto" else float(args.gamma)
    cfg = RunConfig(h=args.h, gamma=gamma)
    compiled = compile_circuit(net, cfg)
    _write(serialize_crn(compiled.crn), args.output)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.crn) as fh:
        net = parse_crn(fh.read())
    if args.dt == "auto":
        if "h" not in net.meta:
            raise ValidationError(
                "--dt auto needs '# meta h ...' in the .crn file; pass --dt"
            )
        dt = RunConfig(h=float(net.meta["h"])).resolve_dt()
    else:
        dt = float(args.dt)
        if "h" in net.meta:
            check_dt(dt, float(net.meta["h"]))
    traj = simulate_crn(net, args.T, dt)
    _write(traj.to_csv(), args.output)
    if args.plot is not None:
        columns = [d[0] for d in net.diffs] if net.diffs else list(traj.names)
        _write(render_svg(traj, columns, title=args.crn), args.plot)
    return 0


def _cmd_verify(args) -> int:
    if not 0.0 <= args.tol < float("inf"):  # NaN fails too
        raise ValueError("--tol must be finite and nonnegative")
    with open(args.netlist) as fh:
        net = parse_netlist(fh.read())
    cfg = RunConfig(h=args.h, T=args.T, transient_discard=0.0)
    if args.study:
        hs = [float(tok) for tok in args.study.split(",") if tok]
        _sys.stdout.write(study_to_csv(convergence_study(net, cfg, hs)))
        return 0
    err = verify_circuit(net, cfg)
    passed = err <= args.tol
    print(f"sup_error={err:.6g} tol={args.tol:g} {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 4


def _cmd_freq(args) -> int:
    with open(args.netlist) as fh:
        net = parse_netlist(fh.read())
    omegas = [float(tok) for tok in args.omega.split(",") if tok]
    cfg = RunConfig(h=args.h)
    rows = frequency_response(net, omegas, cfg)
    _write(freq_to_csv(rows), args.output)
    return 0


_DISPATCH = {
    "compile": _cmd_compile,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "freq": _cmd_freq,
}


def main(argv=None) -> int:
    warnings.simplefilter("always", RuntimeWarning)
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except SingularMatrix as exc:
        print(f"error: singular pencil: {exc}", file=_sys.stderr)
        return 2
    except NonFiniteState as exc:
        print(f"error: state blew up at t={exc.time:g}", file=_sys.stderr)
        return 3
    except (Circ2CrnError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
