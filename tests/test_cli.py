"""End-to-end tests for the command-line interface.

Every test drives the real argument parser through ``main`` so flag
wiring, file formats, and determinism are exercised exactly as a shell
user would see them.
"""

import argparse
import json
import os

import numpy as np
import pytest

from conftest import UncallableSampler, tf_agree
from lqobt import (
    ReducedLqoSystem,
    compute_gramians,
    h2_error,
    h2_norm,
    hankel_singular_values,
    load_system,
    log_trapezoid,
    lqo_qbt_auto,
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
    for fname in ("HSV_f.csv", "HSV_r.csv"):
        header, rows = _read_csv(os.path.join(out, fname))
        assert header == "Index,HSV_f"
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
    for n_p in range(2, 120):
        for n_q in range(2, 120):
            args = argparse.Namespace(interval="1e-1:1e2", np=n_p, nq=n_q,
                                      rule="trapezoid")
            rule_p, rule_q = cli._rules_from_args(args, "freq")
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


def test_simulate_rejects_channel_count_mismatch(tmp_path):
    manifest = _synth(tmp_path, n=4)
    wide = _synth(tmp_path, "wide", n=4, extra=("--inputs", "2"))
    rom_dir = str(tmp_path / "rom")
    main(["reduce", "--system", wide, "--method", "bt", "--order", "2",
          "--out", rom_dir])
    rom_manifest = os.path.join(rom_dir, "rom.manifest")
    with pytest.raises(ValueError, match="input and output counts"):
        main(["simulate", "--system", manifest, "--qbt", rom_manifest,
              "--bt", rom_manifest, "--steps", "10",
              "--out", str(tmp_path / "x.csv")])


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


def test_freq_domain_size_guard(tmp_path):
    manifest = _synth(tmp_path, n=4)
    with pytest.raises(ValueError, match="lower --np"):
        main(["hsv", "--system", manifest, "--domain", "freq",
              "--np", "1200", "--out", str(tmp_path / "hsv")])


def test_reduce_freq_size_guard_names_a_flag_reduce_accepts(tmp_path):
    # reduce takes no --domain, so the advice must also name its method
    manifest = _synth(tmp_path, n=4)
    out = tmp_path / "rom"
    with pytest.raises(ValueError, match="lower --np.*--method qbt-time"):
        main(["reduce", "--system", manifest, "--method", "qbt-freq",
              "--order", "2", "--np", "1200", "--out", str(out)])
    assert not out.exists()


def test_default_node_count_passes_the_freq_size_guard(tmp_path, monkeypatch):
    # with the default --np the frequency route gets past its size guard
    # to sampling, which this sampler refuses
    def guarded(sys_, rule_p, rule_q, orders, domain):
        return lqo_qbt_auto(UncallableSampler(), rule_p, rule_q, orders, domain)

    monkeypatch.setattr(cli, "lqo_qbt_auto", guarded)
    manifest = _synth(tmp_path, n=4)
    with pytest.raises(AssertionError, match="sampled despite"):
        main(["hsv", "--system", manifest, "--domain", "freq",
              "--out", str(tmp_path / "hsv")])


def test_malformed_pair_flags_raise(tmp_path):
    with pytest.raises(ValueError, match="low:high"):
        main(["synth", "-n", "4", "--damping", "bogus",
              "--out", str(tmp_path / "s")])
    manifest = _synth(tmp_path, n=4)
    with pytest.raises(ValueError, match="low:high"):
        main(["reduce", "--system", manifest, "--method", "qbt-time",
              "--order", "2", "--interval", "everything",
              "--out", str(tmp_path / "rom")])


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
    with pytest.raises(ValueError):
        main(["reduce", "--system", manifest, "--method", "bt",
              "--order", "0", "--out", str(tmp_path / "rom")])


def test_out_of_range_integers_are_usage_errors(tmp_path, capsys):
    # a negative or zero count, an empty order range and a channel the
    # system does not have are argparse errors (exit 2) that name the
    # flag, and nothing is written
    manifest = _synth(tmp_path, n=4)
    rom_dir = str(tmp_path / "rom")
    main(["reduce", "--system", manifest, "--method", "bt", "--order", "2",
          "--out", rom_dir])
    rom = os.path.join(rom_dir, "rom.manifest")
    out = str(tmp_path / "out")
    hsv = ["hsv", "--system", manifest, "--np", "16", "--out", out]
    simulate = ["simulate", "--system", manifest, "--qbt", rom, "--bt", rom,
                "--steps", "10", "--out", out]
    cases = [
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
    ]
    capsys.readouterr()
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)
