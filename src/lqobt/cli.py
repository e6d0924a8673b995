"""Command-line driver: synthesize, reduce, and analyze systems.

Subcommands
-----------
``synth``
    Generate a stable benchmark system and write it as Matrix Market
    files plus a manifest.
``hsv``
    Write normalized Hankel singular values of a system, both the exact
    ones (``HSV_f.csv``) and the singular values of the assembled sample
    matrix (``HSV_r.csv``), one ``Index,HSV_f`` or ``Index,HSV_r`` pair
    per row, up to the resolvable rank (values above ``1e-13`` of the
    largest).
``reduce``
    Reduce a system by intrusive balanced truncation or by the
    data-driven method (time or frequency domain) and write the reduced
    model plus a JSON report.
``simulate``
    Simulate a full model and two reduced models under the benchmark
    excitation ``u(t) = 5 (cos(5 pi t) + sin(12 pi t) exp(-0.4 t))`` over
    ``t in [0, 5]`` (exact propagation under a cubic interpolant of the
    input, :meth:`lqobt.model.LqoSystem.simulate`) and write a six-column
    error table.
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
import sys

import numpy as np

from .databt import _check_freq_rules, lqo_qbt_auto
from .errors import FrequencyCollisionError, OrderError
from .gramians import (
    compute_gramians,
    h2_error,
    h2_norm,
    hankel_singular_values,
    intrusive_bt,
)
from .model import load_system, save_system, select_channels
from .numcore import _resolvable_rank
from .quadrature import clenshaw_curtis, log_trapezoid

__all__ = ["main"]

RULES = {"trapezoid": log_trapezoid, "clenshaw-curtis": clenshaw_curtis}


def _positive_range(strict):
    """An argparse type: the finite floats ``(low, high)`` of ``low:high``
    with ``0 < low < high`` if `strict` (a quadrature interval), else
    ``0 < low <= high``."""
    def parse(text):
        try:
            low, high = map(float, text.split(":"))
        except ValueError:
            low = high = math.nan
        if not 0 < low <= high < math.inf or (strict and low == high):
            raise argparse.ArgumentTypeError(
                f"needs low:high with 0 < low {'<' if strict else '<='} high, "
                f"got {text!r}")
        return low, high

    return parse


def _channel_pair(text):
    """An argparse type: the zero-based channels ``(IN, OUT)`` of
    ``IN:OUT``; their bound is checked once the system is loaded."""
    inp, _, out = text.partition(":")
    if not (inp.isdigit() and out.isdigit()):
        raise argparse.ArgumentTypeError(
            f"needs IN:OUT with zero-based channel indices, got {text!r}")
    return int(inp), int(out)


def _int_at_least(low):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return parse


def _unit_fraction(text):
    """An argparse type: a float in (0, 1]."""
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _order_range(text):
    """An argparse type: the orders ``LO..HI`` of ``LO:HI``, 1 <= LO <= HI."""
    lo, _, hi = text.partition(":")
    if not (lo.isdigit() and hi.isdigit() and 1 <= int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(
            f"needs LO:HI with 1 <= LO <= HI, got {text!r}")
    return list(range(int(lo), int(hi) + 1))


def _node_counts(text):
    """An argparse type: comma-separated node counts, each at least 2, as
    a rule needs."""
    counts = text.split(",")
    if not all(v.isdigit() and int(v) >= 2 for v in counts):
        raise argparse.ArgumentTypeError(
            f"needs comma-separated integers of at least 2, got {text!r}")
    return [int(v) for v in counts]


def _rules_from_args(args, domain, n_p, n_q=None):
    """The two quadrature rules of `n_p` (default 400) and `n_q` (default
    `n_p`) nodes that ``--rule`` and ``--interval`` ask for.

    In the frequency domain the observability-side nodes are shifted, in
    log, by half the smallest log-distance between the two unshifted node
    sets, pairs within ``1e-12`` counting as one node, so the two sets
    interleave instead of colliding (divided differences need distinct
    points). For trapezoid nodes that is half the step of the finest log
    lattice holding both counts. Clenshaw-Curtis nodes crowd the ends of
    the interval, where the shifted nodes can still come within the
    collision bound of the others (on ``1e-4:1e4``, at 78 and 79 nodes
    and from 478 a side). Rules whose nodes collide are a usage error
    naming ``--rule`` and the node counts, found from the rules before
    any sample is taken."""
    n_p = 400 if n_p is None else n_p
    n_q = n_p if n_q is None else n_q
    a, b = args.interval
    rule = RULES[args.rule]
    if domain != "freq":
        return rule(a, b, n_p), rule(a, b, n_q)
    gaps = np.abs(np.log(rule(a, b, n_q).nodes)[:, None]
                  - np.log(rule(a, b, n_p).nodes))
    shift = math.exp(0.5 * gaps[gaps > 1e-12].min())
    rules = rule(a, b, n_p), rule(a * shift, b * shift, n_q)
    try:
        _check_freq_rules(*rules)
    except FrequencyCollisionError as exc:
        args.error(f"argument --rule: {args.rule} nodes at {n_p} and {n_q} "
                   f"a side on {a:g}:{b:g}: {exc}")
    return rules


def _load(args, order=None):
    """The system of ``--system``, restricted to ``--select``. A path that
    cannot be read, and an `order` ``(flag, r)`` above the system order,
    are usage errors naming their flag."""
    try:
        sys_ = load_system(args.system)
    except OSError as exc:
        args.error(f"argument --system: cannot read {args.system!r}: "
                   f"{exc.strerror or exc}")
    if args.select:
        i, q = args.select
        if i >= sys_.m or q >= sys_.p:
            args.error(f"argument --select: {i}:{q} is not below the input "
                       f"and output counts {sys_.m}:{sys_.p}")
        sys_ = select_channels(sys_, i, q)
    if order is not None and order[1] > sys_.n:
        args.error(f"argument {order[0]}: order {order[1]} exceeds the "
                   f"system order {sys_.n}")
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
        damping=args.damping, freq=args.freq, gain_decay=args.decay,
        seed=args.seed,
    )
    path = save_system(sys_, args.out, name=args.name)
    print(path)
    return 0


def cmd_hsv(args):
    sys_ = _load(args)
    # the data route first, so that a refusal there costs no Gramians
    rule_p, rule_q = _rules_from_args(args, args.domain, args.np, args.nq)
    hsv_r, _ = lqo_qbt_auto(sys_, rule_p, rule_q, [], domain=args.domain)
    hsv_f = hankel_singular_values(compute_gramians(sys_))
    r = args.order if args.order is not None else min(hsv_f.size, hsv_r.size)
    os.makedirs(args.out, exist_ok=True)
    for column, values in (("HSV_f", hsv_f), ("HSV_r", hsv_r)):
        fname = f"{column}.csv"
        rank = _resolvable_rank(values)  # the values past it are round-off
        if args.order is not None and r > rank:
            print(f"{fname}: --order {r} exceeds the resolvable rank {rank}",
                  file=sys.stderr)
        normalized = values[:min(r, rank)] / values[0]
        _write_csv(
            os.path.join(args.out, fname),
            f"Index,{column}",
            ((i + 1, v) for i, v in enumerate(normalized)),
        )
    print(args.out)
    return 0


def cmd_reduce(args):
    sys_ = _load(args, ("--order", args.order))
    if args.method == "bt":
        rom = intrusive_bt(sys_, args.order)
        n_p = n_q = None
    else:
        # the method decides the domain; the node stagger depends on it
        domain = "freq" if args.method == "qbt-freq" else "time"
        rule_p, rule_q = _rules_from_args(args, domain, args.np, args.nq)
        _, (rom,) = lqo_qbt_auto(sys_, rule_p, rule_q, [args.order],
                                 domain=domain)
        n_p, n_q = rule_p.nodes.size, rule_q.nodes.size

    path = save_system(rom, args.out, name=args.name)
    # an H2 error needs both models stable; the full one need not be
    err = h2_error(sys_, rom) if sys_.is_stable and rom.is_stable else None
    report = {
        "method": args.method,
        "order": args.order,
        "n_p": n_p,
        "n_q": n_q,
        "rom_stable": rom.is_stable,
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
    roms = [load_system(args.qbt), load_system(args.bt)]
    for flag, rom in zip(("--qbt", "--bt"), roms):
        if (rom.m, rom.p) != (sys_.m, sys_.p):
            args.error(f"argument {flag}: the reduced model's input and output "
                       f"counts {rom.m}:{rom.p} differ from the full model's "
                       f"{sys_.m}:{sys_.p}")
    # any step count runs; below a few hundred steps the cubic interpolant
    # of the input, not the propagation, limits the accuracy
    times = np.linspace(0.0, 5.0, args.steps + 1)
    ones = np.ones(sys_.m)

    def u(t):
        return _input_signal(t) * ones

    q = args.channel
    if q >= sys_.p:
        args.error(f"argument --channel: {q} is not below the output count {sys_.p}")
    y_f, y_q, y_b = (s.simulate(u, times).outputs[:, q] for s in (sys_, *roms))
    rows = zip(times, y_f, y_q, y_b, np.abs(y_f - y_q), np.abs(y_f - y_b))
    _write_csv(
        args.out,
        "Time,FOM_Output,QBT_Output,BT_Output,Abs_Error_QBT,Abs_Error_BT",
        rows,
    )
    print(args.out)
    return 0


def _safe_error(sys_, rom):
    return h2_error(sys_, rom) if sys_.is_stable and rom.is_stable else math.nan


def cmd_h2_sweep(args):
    # a node sweep sets both node counts itself
    given = [f"--{name}" for name in ("np", "nq") if getattr(args, name) is not None]
    if args.nodes is not None and given:
        args.error(f"argument {given[0]}: not allowed with argument --nodes")
    sys_ = _load(args, ("--order", args.order) if args.nodes is not None
                 else ("--orders", args.orders[-1]))
    if args.nodes is not None:
        # every node count's rules are checked before any is sampled, and
        # every count is reduced, or refused, before the intrusive
        # reference is paid for
        rules = [_rules_from_args(args, args.domain, n) for n in args.nodes]
        roms = [lqo_qbt_auto(sys_, *pair, [args.order], domain=args.domain)[1][0]
                for pair in rules]
        bt_err = _safe_error(sys_, intrusive_bt(sys_, args.order))
        rows = [(n, bt_err, _safe_error(sys_, rom))
                for n, rom in zip(args.nodes, roms)]
        _write_csv(args.out, "N,BT_Error,QBT_Error", rows)
    else:
        orders = args.orders
        rule_p, rule_q = _rules_from_args(args, args.domain, args.np, args.nq)
        _, roms = lqo_qbt_auto(sys_, rule_p, rule_q, orders, domain=args.domain)
        rows = [(r, _safe_error(sys_, intrusive_bt(sys_, r)),
                 _safe_error(sys_, rom)) for r, rom in zip(orders, roms)]
        _write_csv(args.out, "Truncation_Index,H2_BT_Error,H2_r_Error", rows)
    print(args.out)
    return 0


def _add_quadrature_flags(sub):
    sub.add_argument("--np", type=_int_at_least(2), default=None,
                     help="controllability-side node count (default 400)")
    sub.add_argument("--nq", type=_int_at_least(2), default=None,
                     help="observability-side node count (default: same as --np)")
    sub.add_argument("--interval", type=_positive_range(True), default="1e-1:1e2",
                     help="quadrature interval low:high (default 1e-1:1e2)")
    sub.add_argument("--rule", choices=list(RULES), default="trapezoid")


def _add_system_flags(sub):
    sub.add_argument("--system", required=True,
                     help="path to a system manifest")
    sub.add_argument("--select", type=_channel_pair, default=None,
                     metavar="IN:OUT",
                     help="restrict to one input and one output channel "
                          "(zero-based)")
    # channel bounds are known once the system is loaded
    sub.set_defaults(error=sub.error)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lqobt",
        description="Balanced truncation of systems with quadratic outputs, "
                    "intrusive and data-driven.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synth", help="generate a stable benchmark system")
    s.add_argument("-n", type=_int_at_least(1), required=True,
                   help="state dimension")
    s.add_argument("--inputs", type=_int_at_least(1), default=1)
    s.add_argument("--outputs", type=_int_at_least(1), default=1)
    s.add_argument("--damping", type=_positive_range(False), default="1e-3:1e-1",
                   help="decay-rate range low:high (default 1e-3:1e-1)")
    s.add_argument("--freq", type=_positive_range(False), default="1e-1:1e2",
                   help="rotation-frequency range low:high (default 1e-1:1e2)")
    s.add_argument("--decay", type=_unit_fraction, default=1.0,
                   help="per-block gain decay in (0, 1] (default 1: flat)")
    s.add_argument("--seed", type=_int_at_least(0), default=0)
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
    s.add_argument("--order", type=_int_at_least(1), required=True)
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
    s.add_argument("--steps", type=_int_at_least(1), default=2000)
    s.add_argument("--channel", type=_int_at_least(0), default=0,
                   help="output channel to tabulate (zero-based)")
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(func=cmd_simulate)

    s = subs.add_parser("h2-sweep", help="sweep the H2 reduction error")
    _add_system_flags(s)
    _add_quadrature_flags(s)
    s.add_argument("--domain", choices=["time", "freq"], default="time")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--nodes", type=_node_counts, default=None,
                       metavar="N1,N2,...",
                       help="comma-separated node counts, each at least 2 "
                            "(error vs N)")
    group.add_argument("--orders", type=_order_range, default=None,
                       metavar="LO:HI",
                       help="inclusive order range, 1 <= LO <= HI (error vs r)")
    s.add_argument("--order", type=_int_at_least(1), default=10,
                   help="reduction order for the node sweep (default 10)")
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(func=cmd_h2_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrderError as exc:
        # the resolvable rank is known only once the data is reduced, which
        # reduce and h2-sweep do before they write anything
        flag = "--orders" if getattr(args, "orders", None) else "--order"
        args.error(f"argument {flag}: {exc}")
