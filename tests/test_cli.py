"""End-to-end tests for the command-line interface.

Every test drives the real argument parser through ``main`` so flag
wiring, file formats, and determinism are exercised exactly as a shell
user would see them.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import tf_agree
from lqobt import (
    LqoSystem,
    ReducedLqoSystem,
    compute_gramians,
    h2_error,
    h2_norm,
    hankel_singular_values,
    load_system,
    log_trapezoid,
    lqo_qbt_auto,
    save_system,
    select_channels,
    synthesize_system,
)
from lqobt import cli
from lqobt.cli import main


def _synth(tmp_path, sub="sys", n=6, extra=()):
    out = str(tmp_path / sub)
    rc = main([
        "synth", "-n", str(n), "--damping", "0.2:2.0", "--freq", "0.5:20",
        "--seed", "3", "--out", out, *extra,
    ])
    assert rc == 0
    return os.path.join(out, "system.manifest")


def _read_csv(path):
    with open(path) as f:
        header = f.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    return header, rows


def _read_report(manifest):
    with open(os.path.join(os.path.dirname(manifest), "report.json")) as f:
        return json.load(f)


def test_synth_writes_loadable_system(tmp_path):
    manifest = _synth(tmp_path, n=5)
    sys_ = load_system(manifest)
    want = synthesize_system(5, damping=(0.2, 2.0), freq=(0.5, 20.0), seed=3)
    assert np.array_equal(sys_.A, want.A)
    assert np.array_equal(sys_.B, want.B)
    assert np.array_equal(sys_.C, want.C)
    assert np.array_equal(sys_.Ms[0], want.Ms[0])
    decayed = load_system(_synth(tmp_path, "decayed", n=5, extra=("--decay", "0.5")))
    want = synthesize_system(5, damping=(0.2, 2.0), freq=(0.5, 20.0),
                             gain_decay=0.5, seed=3)
    assert np.array_equal(decayed.B, want.B)
    assert not np.array_equal(decayed.B, sys_.B)


def test_synth_reruns_are_byte_identical(tmp_path):
    first = _synth(tmp_path, "one")
    second = _synth(tmp_path, "two")
    for fname in ("A.mtx", "B.mtx", "C.mtx", "M_0.mtx", "system.manifest"):
        a = open(os.path.join(os.path.dirname(first), fname), "rb").read()
        b = open(os.path.join(os.path.dirname(second), fname), "rb").read()
        assert a == b, fname


def test_synth_prints_manifest_path(tmp_path, capsys):
    manifest = _synth(tmp_path)
    assert capsys.readouterr().out.strip() == manifest


def test_hsv_writes_normalized_tables(tmp_path):
    manifest = _synth(tmp_path, n=6)
    out = str(tmp_path / "hsv")
    rc = main([
        "hsv", "--system", manifest, "--np", "60",
        "--interval", "1e-2:1e2", "--out", out,
    ])
    assert rc == 0
    sys_ = load_system(manifest)
    want = hankel_singular_values(compute_gramians(sys_))
    for column in ("HSV_f", "HSV_r"):
        header, rows = _read_csv(os.path.join(out, f"{column}.csv"))
        assert header == f"Index,{column}"
        assert [r[0] for r in rows] == [str(i + 1) for i in range(6)]
        values = np.array([float(r[1]) for r in rows])
        assert values[0] == 1.0
        assert np.all(np.diff(values) <= 0.0)
    _, rows = _read_csv(os.path.join(out, "HSV_f.csv"))
    got = np.array([float(r[1]) for r in rows])
    assert np.allclose(got, want / want[0], rtol=1e-12)


def test_hsv_order_flag_limits_rows(tmp_path):
    manifest = _synth(tmp_path, n=6)
    out = str(tmp_path / "hsv")
    main(["hsv", "--system", manifest, "--np", "40", "--order", "3",
          "--out", out])
    for fname in ("HSV_f.csv", "HSV_r.csv"):
        _, rows = _read_csv(os.path.join(out, fname))
        assert len(rows) == 3


def test_hsv_order_past_the_resolvable_rank_writes_no_round_off(tmp_path, capsys):
    # an n=6 system resolves 6 values; the other 34 sample-matrix values
    # are round-off, which no table may list
    manifest = _synth(tmp_path, n=6)
    out = str(tmp_path / "hsv")
    main(["hsv", "--system", manifest, "--np", "40", "--order", "100",
          "--out", out])
    err = capsys.readouterr().err
    for fname in ("HSV_f.csv", "HSV_r.csv"):
        _, rows = _read_csv(os.path.join(out, fname))
        values = np.array([float(r[1]) for r in rows])
        assert len(rows) == 6 and values.min() > 1e-13
        assert f"{fname}: --order 100 exceeds the resolvable rank 6" in err


def test_reduce_bt_full_order_reproduces_system(tmp_path):
    manifest = _synth(tmp_path, n=4)
    out = str(tmp_path / "rom")
    rc = main(["reduce", "--system", manifest, "--method", "bt",
               "--order", "4", "--out", out])
    assert rc == 0
    rom_manifest = os.path.join(out, "rom.manifest")
    rom = load_system(rom_manifest)
    assert rom.n == 4
    report = _read_report(rom_manifest)
    assert report["method"] == "bt"
    assert report["order"] == 4
    assert report["n_p"] is None and report["n_q"] is None
    assert report["rom_stable"] is True
    sys_ = load_system(manifest)
    norm = h2_norm(sys_)
    assert float(report["h2_error_absolute"]) <= 1e-7 * norm
    assert float(report["h2_error_relative"]) <= 1e-7


def test_reduce_qbt_time_full_rank_is_exact(tmp_path):
    manifest = _synth(tmp_path, n=4)
    out = str(tmp_path / "rom")
    main(["reduce", "--system", manifest, "--method", "qbt-time",
          "--order", "4", "--np", "40", "--interval", "1e-2:1e2",
          "--out", out])
    report = _read_report(os.path.join(out, "rom.manifest"))
    assert report["n_p"] == 40 and report["n_q"] == 40
    assert report["rom_stable"] is True
    assert float(report["h2_error_relative"]) <= 1e-6
    rom = load_system(os.path.join(out, "rom.manifest"))
    sys_ = load_system(manifest)
    points = np.array([0.4j, 1.5j, 0.2 + 2.0j])
    tf_agree(sys_, rom, points, 1e-6)


def test_unstable_qbt_rom_is_reported_not_scored(tmp_path, monkeypatch):
    # data-driven reduction can return an unstable model, whose H2 error
    # does not exist: reduce records it as unstable with null errors, and
    # h2-sweep writes nan in its row
    def unstable_roms(sys_, rule_p, rule_q, orders, domain="time"):
        roms = [
            ReducedLqoSystem(np.eye(r), np.ones((r, sys_.m)),
                             np.ones((sys_.p, r)), [np.eye(r)] * sys_.p,
                             provenance=f"{domain}-qbt")
            for r in orders
        ]
        return np.ones(max(orders, default=0)), roms

    monkeypatch.setattr(cli, "lqo_qbt_auto", unstable_roms)
    manifest = _synth(tmp_path, n=4)
    out = str(tmp_path / "rom")
    rc = main(["reduce", "--system", manifest, "--method", "qbt-time",
               "--order", "2", "--np", "10", "--out", out])
    assert rc == 0
    report = _read_report(os.path.join(out, "rom.manifest"))
    assert report["rom_stable"] is False
    assert report["h2_error_absolute"] is None
    assert report["h2_error_relative"] is None

    sweep = str(tmp_path / "sweep.csv")
    main(["h2-sweep", "--system", manifest, "--orders", "1:2", "--np", "10",
          "--out", sweep])
    _, rows = _read_csv(sweep)
    assert [r[0] for r in rows] == ["1", "2"]
    assert [r[2] for r in rows] == ["nan", "nan"]
    assert all(np.isfinite(float(r[1])) for r in rows)


def test_reduce_qbt_freq_staggers_nodes_by_default(tmp_path):
    # would raise a node-collision error if --method did not force the
    # frequency-domain half-step shift
    manifest = _synth(tmp_path, n=4)
    out = str(tmp_path / "rom")
    rc = main(["reduce", "--system", manifest, "--method", "qbt-freq",
               "--order", "2", "--np", "16", "--interval", "1e-1:1e2",
               "--out", out])
    assert rc == 0
    report = _read_report(os.path.join(out, "rom.manifest"))
    assert report["method"] == "qbt-freq"
    assert report["n_p"] == 16 and report["n_q"] == 16
    if report["rom_stable"]:
        assert np.isfinite(float(report["h2_error_relative"]))


def test_freq_stagger_separates_unequal_node_counts(tmp_path):
    # the q side is shifted by half the common log-lattice step, so the
    # node sets stay apart at every pair of counts, equal or not
    worst = np.inf
    args = argparse.Namespace(interval=(1e-1, 1e2), rule="trapezoid")
    for n_p in range(2, 120):
        for n_q in range(2, 120):
            rule_p, rule_q = cli._rules_from_args(args, "freq", n_p, n_q)
            gaps = np.log(rule_q.nodes)[:, None] - np.log(rule_p.nodes)
            worst = min(worst, np.abs(gaps).min())
    # half a step of the finest lattice, lcm(117, 118) steps over 1e3
    assert worst >= 0.5 * np.log(1e3) / (117 * 118) * (1 - 1e-9)
    manifest = _synth(tmp_path, n=4)
    out = str(tmp_path / "rom")
    rc = main(["reduce", "--system", manifest, "--method", "qbt-freq",
               "--order", "2", "--np", "10", "--nq", "19", "--out", out])
    assert rc == 0
    report = _read_report(os.path.join(out, "rom.manifest"))
    assert report["n_p"] == 10 and report["n_q"] == 19


def test_simulate_table_schema_and_errors(tmp_path):
    manifest = _synth(tmp_path, n=4)
    bt_dir = str(tmp_path / "bt")
    qbt_dir = str(tmp_path / "qbt")
    main(["reduce", "--system", manifest, "--method", "bt",
          "--order", "2", "--out", bt_dir])
    main(["reduce", "--system", manifest, "--method", "qbt-time",
          "--order", "2", "--np", "40", "--interval", "1e-2:1e2",
          "--out", qbt_dir])
    sim = str(tmp_path / "sim.csv")
    rc = main(["simulate", "--system", manifest,
               "--qbt", os.path.join(qbt_dir, "rom.manifest"),
               "--bt", os.path.join(bt_dir, "rom.manifest"),
               "--steps", "40", "--out", sim])
    assert rc == 0
    header, rows = _read_csv(sim)
    assert header == ("Time,FOM_Output,QBT_Output,BT_Output,"
                      "Abs_Error_QBT,Abs_Error_BT")
    assert len(rows) == 41
    table = np.array([[float(v) for v in r] for r in rows])
    assert np.array_equal(table[:, 0], np.linspace(0.0, 5.0, 41))
    # repr round-trips doubles, so the error columns must match exactly
    assert np.array_equal(table[:, 4], np.abs(table[:, 1] - table[:, 2]))
    assert np.array_equal(table[:, 5], np.abs(table[:, 1] - table[:, 3]))

    again = str(tmp_path / "sim2.csv")
    main(["simulate", "--system", manifest,
          "--qbt", os.path.join(qbt_dir, "rom.manifest"),
          "--bt", os.path.join(bt_dir, "rom.manifest"),
          "--steps", "40", "--out", again])
    assert open(sim, "rb").read() == open(again, "rb").read()


def test_simulate_rejects_channel_count_mismatch(tmp_path, capsys):
    # a reduced model whose input or output count differs from the full
    # model's is a usage error (exit 2) naming its flag, and nothing is
    # written
    manifest = _synth(tmp_path, n=4)
    wide = _synth(tmp_path, "wide", n=4, extra=("--inputs", "2"))
    roms = {}
    for name, system in (("fit", manifest), ("wide", wide)):
        main(["reduce", "--system", system, "--method", "bt", "--order", "2",
              "--out", str(tmp_path / name)])
        roms[name] = os.path.join(tmp_path / name, "rom.manifest")
    out = tmp_path / "x.csv"
    capsys.readouterr()
    for flag, qbt, bt in (("--qbt", "wide", "fit"), ("--bt", "fit", "wide")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--system", manifest, "--qbt", roms[qbt],
                  "--bt", roms[bt], "--steps", "10", "--out", str(out)])
        assert exc.value.code == 2
        assert (f"argument {flag}: the reduced model's input and output "
                "counts 2:1 differ from the full model's 1:1"
                in capsys.readouterr().err)
        assert not out.exists()


def test_simulate_runs_a_coarse_grid(tmp_path):
    # CI's smoke system at 100 steps on [0, 5]: its -3 +- 100i modes turn
    # 5 rad a step, which exact propagation follows, so the table is
    # written in full and finite
    out = str(tmp_path / "fom")
    main(["synth", "-n", "20", "--damping", "0.1:3.0", "--decay", "0.85",
          "--seed", "21", "--out", out])
    manifest = os.path.join(out, "system.manifest")
    main(["reduce", "--system", manifest, "--method", "bt", "--order", "6",
          "--out", str(tmp_path / "bt")])
    rom = os.path.join(tmp_path / "bt", "rom.manifest")
    sim = str(tmp_path / "sim.csv")
    assert main(["simulate", "--system", manifest, "--qbt", rom, "--bt", rom,
                 "--steps", "100", "--out", sim]) == 0
    _, rows = _read_csv(sim)
    assert len(rows) == 101
    assert np.isfinite(np.array(rows, dtype=float)).all()


def test_h2_sweep_over_node_counts(tmp_path):
    manifest = _synth(tmp_path, n=4)
    out = str(tmp_path / "sweep.csv")
    rc = main(["h2-sweep", "--system", manifest, "--nodes", "10,20",
               "--order", "2", "--interval", "1e-2:1e2", "--out", out])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == "N,BT_Error,QBT_Error"
    assert [r[0] for r in rows] == ["10", "20"]
    table = np.array([[float(v) for v in r] for r in rows])
    assert np.all(np.isfinite(table))
    assert np.all(table[:, 1:] > 0.0)
    # the intrusive reference does not depend on the node count
    assert table[0, 1] == table[1, 1]


def test_h2_sweep_matches_single_runs(tmp_path):
    # the node counts run one after another on one system and share its
    # cache of node exponentials; each error must equal a run on a fresh
    # system
    manifest = _synth(tmp_path, n=4)
    out = str(tmp_path / "sweep.csv")
    counts = (10, 20, 30)
    rc = main(["h2-sweep", "--system", manifest,
               "--nodes", ",".join(map(str, counts)), "--order", "2",
               "--interval", "1e-2:1e2", "--out", out])
    assert rc == 0
    _, rows = _read_csv(out)
    want = []
    for n in counts:
        sys_ = load_system(manifest)
        rule = log_trapezoid(1e-2, 1e2, n)
        _, (rom,) = lqo_qbt_auto(sys_, rule, rule, [2])
        want.append(repr(h2_error(sys_, rom)))
    assert [r[2] for r in rows] == want


def test_h2_sweep_over_orders(tmp_path):
    manifest = _synth(tmp_path, n=4)
    out = str(tmp_path / "sweep.csv")
    rc = main(["h2-sweep", "--system", manifest, "--orders", "1:3",
               "--np", "80", "--interval", "1e-2:1e2", "--out", out])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == "Truncation_Index,H2_BT_Error,H2_r_Error"
    assert [r[0] for r in rows] == ["1", "2", "3"]
    table = np.array([[float(v) for v in r] for r in rows])
    assert np.all(np.isfinite(table))
    assert np.all(table[:, 1:] >= 0.0)


def test_h2_sweep_malformed_node_counts_are_usage_errors(tmp_path, capsys):
    # an empty list, a trailing comma and a count a rule cannot take are
    # argparse errors (exit 2) that name the flag, and nothing is written
    manifest = _synth(tmp_path, n=4)
    out = str(tmp_path / "sweep.csv")
    capsys.readouterr()
    for nodes in ("", "5,", "10,x", "1", "10,-3"):
        with pytest.raises(SystemExit) as exc:
            main(["h2-sweep", "--system", manifest, "--nodes", nodes,
                  "--order", "2", "--out", out])
        assert exc.value.code == 2
        assert ("argument --nodes: needs comma-separated integers of at "
                f"least 2, got {nodes!r}") in capsys.readouterr().err
        assert not os.path.exists(out)


def test_select_restricts_to_one_channel_pair(tmp_path):
    manifest = _synth(tmp_path, n=4, extra=("--inputs", "2", "--outputs", "2"))
    out = str(tmp_path / "hsv")
    main(["hsv", "--system", manifest, "--select", "1:0", "--np", "30",
          "--interval", "1e-2:1e2", "--out", out])
    sub = select_channels(load_system(manifest), 1, 0)
    want = hankel_singular_values(compute_gramians(sub))
    _, rows = _read_csv(os.path.join(out, "HSV_f.csv"))
    got = np.array([float(r[1]) for r in rows])
    assert np.allclose(got, want / want[0], rtol=1e-12)


def test_refused_node_counts_cost_no_gramians(tmp_path, capsys, monkeypatch):
    # a node sweep reduces every count before its BT error, so a count
    # that cannot resolve the order solves no Lyapunov equation
    def uncalled(*args, **kwargs):
        raise AssertionError("intrusive reference computed before the refusal")

    monkeypatch.setattr(cli, "compute_gramians", uncalled)
    monkeypatch.setattr(cli, "intrusive_bt", uncalled)
    manifest = _synth(tmp_path, n=4)
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["h2-sweep", "--nodes", "10,2", "--order", "3",
              "--system", manifest, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --order: order 3 outside [1, 2]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_matrix_market_io_unloaded():
    # scipy.io is imported by save_system and load_system, where the
    # Matrix Market files are read and written; it costs every process
    # that loads it about 45 ms
    code = "import sys, lqobt.cli; print('scipy.io' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_malformed_pair_flags_raise(tmp_path, capsys):
    # a range flag that is not low:high is a usage error naming the flag
    with pytest.raises(SystemExit) as exc:
        main(["synth", "-n", "4", "--damping", "bogus",
              "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    assert "argument --damping: needs low:high" in capsys.readouterr().err
    manifest = _synth(tmp_path, n=4)
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--system", manifest, "--method", "qbt-time",
              "--order", "2", "--interval", "everything",
              "--out", str(tmp_path / "rom")])
    assert exc.value.code == 2
    assert "argument --interval: needs low:high" in capsys.readouterr().err


def test_parser_rejects_unknown_choices(tmp_path):
    manifest = _synth(tmp_path, n=4)
    with pytest.raises(SystemExit):
        main(["reduce", "--system", manifest, "--method", "magic",
              "--order", "2", "--out", str(tmp_path / "rom")])
    with pytest.raises(SystemExit):
        main(["hsv", "--system", manifest, "--rule", "simpson",
              "--out", str(tmp_path / "hsv")])
    with pytest.raises(SystemExit):
        main([])


def test_reduce_rejects_domain_flag(tmp_path, capsys):
    # --method decides the domain, so a --domain that reduce would ignore
    # is an argparse error
    manifest = _synth(tmp_path, n=4)
    out = tmp_path / "rom"
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--system", manifest, "--method", "qbt-time",
              "--order", "2", "--np", "16", "--domain", "freq",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --domain freq" in capsys.readouterr().err
    assert not out.exists()


def test_reduce_rejects_bad_order(tmp_path):
    manifest = _synth(tmp_path, n=4)
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--system", manifest, "--method", "bt",
              "--order", "0", "--out", str(tmp_path / "rom")])
    assert exc.value.code == 2
    assert not (tmp_path / "rom").exists()


def test_out_of_range_integers_are_usage_errors(tmp_path, capsys):
    # a count, order or seed below its least value, a gain decay outside
    # (0, 1], an empty order range, a range that is not 0 < low <= high
    # (low < high for an interval), a malformed channel pair, a channel
    # the system does not have, an order above the system's and one above
    # the rank the data resolve are argparse errors (exit 2) that name the
    # flag, and nothing is written
    manifest = _synth(tmp_path, n=4)
    rom_dir = str(tmp_path / "rom")
    main(["reduce", "--system", manifest, "--method", "bt", "--order", "2",
          "--out", rom_dir])
    rom = os.path.join(rom_dir, "rom.manifest")
    out = str(tmp_path / "out")
    hsv = ["hsv", "--system", manifest, "--np", "16", "--out", out]
    reduce = ["reduce", "--system", manifest, "--method", "qbt-time",
              "--order", "2", "--np", "16", "--out", out]
    simulate = ["simulate", "--system", manifest, "--qbt", rom, "--bt", rom,
                "--steps", "10", "--out", out]
    sweep = ["h2-sweep", "--system", manifest, "--nodes", "16", "--out", out]
    synth = ["synth", "-n", "4", "--out", out]
    cases = [
        (reduce + ["--np", "1"], "argument --np: must be at least 2"),
        (hsv + ["--nq", "1"], "argument --nq: must be at least 2"),
        (reduce + ["--order", "0"], "argument --order: must be at least 1"),
        (sweep + ["--order", "0"], "argument --order: must be at least 1"),
        (simulate + ["--steps", "0"], "argument --steps: must be at least 1"),
        (["synth", "-n", "0", "--out", out], "argument -n: must be at least 1"),
        (synth + ["--inputs", "0"], "argument --inputs: must be at least 1"),
        (synth + ["--outputs", "0"], "argument --outputs: must be at least 1"),
        (reduce + ["--interval", "1e-2"], "argument --interval: needs low:high"),
        (reduce + ["--interval", "1:1"], "argument --interval: needs low:high"),
        (hsv + ["--interval", "0:1"], "argument --interval: needs low:high"),
        (synth + ["--damping", "2:1"], "argument --damping: needs low:high"),
        (synth + ["--freq", "1:inf"], "argument --freq: needs low:high"),
        (synth + ["--decay", "0"], "argument --decay: must be in (0, 1]"),
        (synth + ["--decay", "1.5"], "argument --decay: must be in (0, 1]"),
        (synth + ["--decay", "nan"], "argument --decay: must be in (0, 1]"),
        (synth + ["--decay", "inf"], "argument --decay: must be in (0, 1]"),
        (synth + ["--seed", "-1"], "argument --seed: must be at least 0"),
        (reduce + ["--select", "0"], "argument --select: needs IN:OUT"),
        (reduce + ["--select", "x"], "argument --select: needs IN:OUT"),
        (reduce + ["--select", "3:0"],
         "argument --select: 3:0 is not below the input and output counts 1:1"),
        (simulate + ["--select", "0:1"],
         "argument --select: 0:1 is not below the input and output counts 1:1"),
        (hsv + ["--order", "-3"], "argument --order: must be at least 1"),
        (hsv + ["--order", "0"], "argument --order: must be at least 1"),
        (["h2-sweep", "--system", manifest, "--orders", "5:3", "--np", "16",
          "--out", out], "argument --orders: needs LO:HI with 1 <= LO <= HI"),
        (["h2-sweep", "--system", manifest, "--orders", "0:3", "--np", "16",
          "--out", out], "argument --orders: needs LO:HI with 1 <= LO <= HI"),
        (["h2-sweep", "--system", manifest, "--orders", "1:2:3", "--np", "16",
          "--out", out], "argument --orders: needs LO:HI with 1 <= LO <= HI"),
        (simulate + ["--channel", "-1"], "argument --channel: must be at least 0"),
        (simulate + ["--channel", "1"],
         "argument --channel: 1 is not below the output count 1"),
        # an order above the system order, once the system is loaded
        (reduce + ["--order", "5"], "argument --order: order 5 exceeds the system order 4"),
        (["reduce", "--system", manifest, "--method", "bt", "--order", "5",
          "--out", out], "argument --order: order 5 exceeds the system order 4"),
        (sweep + ["--order", "5"], "argument --order: order 5 exceeds the system order 4"),
        (["h2-sweep", "--system", manifest, "--orders", "3:5", "--np", "16",
          "--out", out], "argument --orders: order 5 exceeds the system order 4"),
        # an order within the system order but past the resolvable rank of
        # the data, known once they are reduced
        (reduce + ["--order", "3", "--np", "2"],
         "argument --order: order 3 outside [1, 2] (resolvable rank)"),
        (sweep + ["--order", "3", "--nodes", "2"],
         "argument --order: order 3 outside [1, 2] (resolvable rank)"),
        (["h2-sweep", "--system", manifest, "--orders", "1:3", "--np", "2",
          "--out", out], "argument --orders: order 3 outside [1, 2] (resolvable rank)"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)


def test_reduce_labels_a_stable_rom_of_an_unstable_system(tmp_path):
    # the time route reduces a system with two slowly growing, weakly
    # coupled states to a stable model; only the full model is unstable,
    # so the report calls the model stable and, as an H2 error needs both
    # models stable, leaves both errors null
    sys_ = synthesize_system(8, damping=(0.1, 3.0), gain_decay=0.5, seed=3)
    A, B, C = sys_.A.copy(), sys_.B.copy(), sys_.C.copy()
    A[-2, -2] = A[-1, -1] = 0.001
    B[-2:] *= 1e-3
    C[:, -2:] *= 1e-3
    fom = LqoSystem(A, B, C, sys_.Ms)
    assert not fom.is_stable
    manifest = save_system(fom, str(tmp_path / "fom"))
    out = str(tmp_path / "rom")
    assert main(["reduce", "--system", manifest, "--method", "qbt-time",
                 "--order", "2", "--np", "40", "--interval", "1e-2:1e1",
                 "--out", out]) == 0
    report = _read_report(os.path.join(out, "rom.manifest"))
    assert load_system(os.path.join(out, "rom.manifest")).is_stable
    assert report["rom_stable"] is True
    assert report["h2_error_absolute"] is None
    assert report["h2_error_relative"] is None
