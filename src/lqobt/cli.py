"""Command-line driver: synthesize, reduce, and analyze systems.

Subcommands
-----------
``synth``
    Generate a stable benchmark system and write it as Matrix Market
    files plus a manifest.
``hsv``
    Write normalized Hankel singular values of a system, both the exact
    ones (``HSV_f.csv``) and the singular values of the assembled sample
    matrix (``HSV_r.csv``), one ``Index,HSV_f`` pair per row.
``reduce``
    Reduce a system by intrusive balanced truncation or by the
    data-driven method (time or frequency domain) and write the reduced
    model plus a JSON report.
``simulate``
    Integrate a full model and two reduced models under the benchmark
    excitation ``u(t) = 5 (cos(5 pi t) + sin(12 pi t) exp(-0.4 t))`` over
    ``t in [0, 5]`` and write a six-column error table.
``h2-sweep``
    Sweep the H2 model-reduction error over node counts (at fixed order)
    or over reduction orders (at fixed node count).

All commands are deterministic for fixed flags and seed; reruns produce
byte-identical output files. Numbers are printed with full round-trip
precision.
"""

import argparse
import json
import math
import os

import numpy as np

from .databt import lqo_qbt_auto
from .errors import UnstableSystemError
from .gramians import (
    compute_gramians,
    h2_error,
    h2_norm,
    hankel_singular_values,
    intrusive_bt,
)
from .model import load_system, save_system, select_channels
from .quadrature import clenshaw_curtis, log_trapezoid

__all__ = ["main"]


def _parse_pair(text, name):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{name} must be given as low:high, got {text!r}")
    return float(parts[0]), float(parts[1])


def _int_at_least(low):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return parse


def _order_range(text):
    """An argparse type: the orders ``LO..HI`` of ``LO:HI``, 1 <= LO <= HI."""
    lo, _, hi = text.partition(":")
    if not (lo.isdigit() and hi.isdigit() and 1 <= int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(
            f"needs LO:HI with 1 <= LO <= HI, got {text!r}")
    return list(range(int(lo), int(hi) + 1))


def _make_rule(kind, interval, n):
    a, b = interval
    if kind == "trapezoid":
        return log_trapezoid(a, b, n)
    if kind == "clenshaw-curtis":
        return clenshaw_curtis(a, b, n)
    raise ValueError(f"unknown quadrature rule {kind!r}")


def _rules_from_args(args, domain):
    """Build the two quadrature rules requested on the command line.

    In the frequency domain the observability-side nodes are shifted by
    half the step of the finest log lattice holding the trapezoid nodes of
    both counts, so the two node sets interleave instead of colliding
    (divided differences need distinct points)."""
    interval = _parse_pair(args.interval, "--interval")
    n_p = args.np
    n_q = args.nq if args.nq is not None else n_p
    rule_p = _make_rule(args.rule, interval, n_p)
    if domain == "freq":
        a, b = interval
        shift = (b / a) ** (0.5 / max(math.lcm(n_p - 1, n_q - 1), 1))
        rule_q = _make_rule(args.rule, (a * shift, b * shift), n_q)
    else:
        rule_q = _make_rule(args.rule, interval, n_q)
    return rule_p, rule_q


def _load(args):
    sys_ = load_system(args.system)
    if args.select:
        i, q = (int(v) for v in args.select.split(":"))
        sys_ = select_channels(sys_, i, q)
    return sys_


def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            cells = [
                str(v) if isinstance(v, (int, np.integer)) else repr(float(v))
                for v in row
            ]
            f.write(",".join(cells) + "\n")


def _input_signal(t):
    return 5.0 * (np.cos(5.0 * np.pi * t)
                  + np.sin(12.0 * np.pi * t) * np.exp(-0.4 * t))


def cmd_synth(args):
    from .synth import synthesize_system

    sys_ = synthesize_system(
        args.n, m=args.inputs, p=args.outputs,
        damping=_parse_pair(args.damping, "--damping"),
        freq=_parse_pair(args.freq, "--freq"),
        gain_decay=args.decay,
        seed=args.seed,
    )
    path = save_system(sys_, args.out, name=args.name)
    print(path)
    return 0


def cmd_hsv(args):
    sys_ = _load(args)
    hsv_f = hankel_singular_values(compute_gramians(sys_))
    rule_p, rule_q = _rules_from_args(args, args.domain)
    hsv_r, _ = lqo_qbt_auto(sys_, rule_p, rule_q, [], domain=args.domain)
    r = args.order if args.order is not None else min(hsv_f.size, hsv_r.size)
    os.makedirs(args.out, exist_ok=True)
    for fname, values in (("HSV_f.csv", hsv_f), ("HSV_r.csv", hsv_r)):
        normalized = values[:r] / values[0]
        _write_csv(
            os.path.join(args.out, fname),
            "Index,HSV_f",
            ((i + 1, v) for i, v in enumerate(normalized)),
        )
    print(args.out)
    return 0


def cmd_reduce(args):
    sys_ = _load(args)
    if args.method == "bt":
        rom = intrusive_bt(sys_, args.order)
        n_p = n_q = None
    else:
        # the method decides the domain; the node stagger depends on it
        domain = "freq" if args.method == "qbt-freq" else "time"
        rule_p, rule_q = _rules_from_args(args, domain)
        _, (rom,) = lqo_qbt_auto(sys_, rule_p, rule_q, [args.order],
                                 domain=domain)
        n_p, n_q = rule_p.nodes.size, rule_q.nodes.size

    path = save_system(rom, args.out, name=args.name)
    try:
        err = h2_error(sys_, rom)
        stable = True
    except UnstableSystemError:
        err = None
        stable = False
    report = {
        "method": args.method,
        "order": args.order,
        "n_p": n_p,
        "n_q": n_q,
        "rom_stable": stable,
        "h2_error_absolute": None if err is None else repr(err),
        "h2_error_relative": None if err is None else repr(err / h2_norm(sys_)),
    }
    with open(os.path.join(args.out, "report.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)
    return 0


def cmd_simulate(args):
    sys_ = _load(args)
    rom_qbt = load_system(args.qbt)
    rom_bt = load_system(args.bt)
    for rom in (rom_qbt, rom_bt):
        if rom.m != sys_.m or rom.p != sys_.p:
            raise ValueError("reduced models must match the full model's "
                             "input and output counts")
    times = np.linspace(0.0, 5.0, args.steps + 1)
    ones = np.ones(sys_.m)

    def u(t):
        return _input_signal(t) * ones

    q = args.channel
    if q >= sys_.p:
        args.error(f"argument --channel: {q} is not below the output count {sys_.p}")
    y_f = sys_.simulate(u, times).outputs[:, q]
    y_q = rom_qbt.simulate(u, times).outputs[:, q]
    y_b = rom_bt.simulate(u, times).outputs[:, q]
    rows = zip(times, y_f, y_q, y_b, np.abs(y_f - y_q), np.abs(y_f - y_b))
    _write_csv(
        args.out,
        "Time,FOM_Output,QBT_Output,BT_Output,Abs_Error_QBT,Abs_Error_BT",
        rows,
    )
    print(args.out)
    return 0


def _safe_error(sys_, rom):
    try:
        return h2_error(sys_, rom)
    except UnstableSystemError:
        return float("nan")


def cmd_h2_sweep(args):
    sys_ = _load(args)
    gram = compute_gramians(sys_)

    if args.nodes:
        counts = [int(v) for v in args.nodes.split(",")]
        bt_err = _safe_error(sys_, intrusive_bt(sys_, args.order, gram))

        rows = []
        for n in counts:
            sub = argparse.Namespace(**vars(args))
            sub.np, sub.nq = n, n
            rule_p, rule_q = _rules_from_args(sub, args.domain)
            _, (rom,) = lqo_qbt_auto(sys_, rule_p, rule_q, [args.order],
                                     domain=args.domain)
            rows.append((n, bt_err, _safe_error(sys_, rom)))
        _write_csv(args.out, "N,BT_Error,QBT_Error", rows)
    else:
        orders = args.orders
        rule_p, rule_q = _rules_from_args(args, args.domain)
        _, roms = lqo_qbt_auto(sys_, rule_p, rule_q, orders, domain=args.domain)
        rows = [(r, _safe_error(sys_, intrusive_bt(sys_, r, gram)),
                 _safe_error(sys_, rom)) for r, rom in zip(orders, roms)]
        _write_csv(args.out, "Truncation_Index,H2_BT_Error,H2_r_Error", rows)
    print(args.out)
    return 0


def _add_quadrature_flags(sub):
    sub.add_argument("--np", type=int, default=400,
                     help="controllability-side node count (default 400)")
    sub.add_argument("--nq", type=int, default=None,
                     help="observability-side node count (default: same as --np)")
    sub.add_argument("--interval", default="1e-1:1e2",
                     help="quadrature interval low:high (default 1e-1:1e2)")
    sub.add_argument("--rule", choices=["trapezoid", "clenshaw-curtis"],
                     default="trapezoid")


def _add_system_flags(sub):
    sub.add_argument("--system", required=True,
                     help="path to a system manifest")
    sub.add_argument("--select", default=None, metavar="IN:OUT",
                     help="restrict to one input and one output channel "
                          "(zero-based)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lqobt",
        description="Balanced truncation of systems with quadratic outputs, "
                    "intrusive and data-driven.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synth", help="generate a stable benchmark system")
    s.add_argument("-n", type=int, required=True, help="state dimension")
    s.add_argument("--inputs", type=int, default=1)
    s.add_argument("--outputs", type=int, default=1)
    s.add_argument("--damping", default="1e-3:1e-1",
                   help="decay-rate range low:high (default 1e-3:1e-1)")
    s.add_argument("--freq", default="1e-1:1e2",
                   help="rotation-frequency range low:high (default 1e-1:1e2)")
    s.add_argument("--decay", type=float, default=1.0,
                   help="per-block gain decay in (0, 1] (default 1: flat)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--name", default="system")
    s.set_defaults(func=cmd_synth)

    s = subs.add_parser("hsv", help="write normalized Hankel singular values")
    _add_system_flags(s)
    _add_quadrature_flags(s)
    s.add_argument("--domain", choices=["time", "freq"], default="time")
    s.add_argument("--order", type=_int_at_least(1), default=None,
                   help="number of leading values to keep (default: all)")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_hsv)

    s = subs.add_parser("reduce", help="reduce a system")
    _add_system_flags(s)
    _add_quadrature_flags(s)
    s.add_argument("--method", choices=["bt", "qbt-time", "qbt-freq"],
                   required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--name", default="rom")
    s.set_defaults(func=cmd_reduce)

    s = subs.add_parser("simulate",
                        help="compare time responses of full and reduced models")
    _add_system_flags(s)
    s.add_argument("--qbt", required=True,
                   help="manifest of the data-driven reduced model")
    s.add_argument("--bt", required=True,
                   help="manifest of the intrusive reduced model")
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--channel", type=_int_at_least(0), default=0,
                   help="output channel to tabulate (zero-based)")
    s.add_argument("--out", required=True, help="output CSV path")
    # the channel's upper bound is known once the system is loaded
    s.set_defaults(func=cmd_simulate, error=s.error)

    s = subs.add_parser("h2-sweep", help="sweep the H2 reduction error")
    _add_system_flags(s)
    _add_quadrature_flags(s)
    s.add_argument("--domain", choices=["time", "freq"], default="time")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--nodes", default=None,
                       help="comma-separated node counts (error vs N)")
    group.add_argument("--orders", type=_order_range, default=None,
                       metavar="LO:HI",
                       help="inclusive order range, 1 <= LO <= HI (error vs r)")
    s.add_argument("--order", type=int, default=10,
                   help="reduction order for the node sweep (default 10)")
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(func=cmd_h2_sweep)

    args = parser.parse_args(argv)
    return args.func(args)
