import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (direction_sums, par_mean_batch, par_pair_batch, rhom_lower_batch,
                      rhom_relation_batch, unit_distance_batch)
from ffplane import bounds, cli, fourier, geometry
from ffplane.bounds import CHECK_NAMES
from ffplane.cli import (
    COMMANDS,
    _line_encoder,
    _median,
    _report_writer,
    build_parser,
    main,
)
from ffplane.errors import PointSetFormatError
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import (
    full_plane,
    gen_example_line_ap,
    gen_random_set,
    load_point_set,
    parse_sets,
    save_point_set,
)
from ffplane.report import CSV_COLUMNS, ReportBatch, csv_lines


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def json_lines(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines() if line]


def test_count_par_t_full_plane(capsys):
    rc, out, _ = run_cli(capsys, [
        "count", "--q", "3", "--t", "1", "--quantity", "par_t",
        "--set", "full,full,full,full"])
    assert rc == 0
    obj = json_lines(out)[0]
    assert obj["value"] == 324
    assert obj["prng"] == "splitmix64"
    assert obj["config"]["q"] == 3
    assert "elapsed_ms" in obj


def test_count_broadcasts_single_set_token(capsys):
    rc, out, _ = run_cli(capsys, [
        "count", "--q", "3", "--t", "1", "--quantity", "n_t", "--set", "full"])
    assert rc == 0
    assert json_lines(out)[0]["value"] == 36


def test_repeated_set_tokens_build_one_set():
    ctx = PrimeFieldCtx(7)
    sets = parse_sets(ctx, "random:0.5:3,full, random:0.5:3 ,full", 4, 0)
    assert sets[0] is sets[2] and sets[1] is sets[3] and sets[0] != sets[1]
    for token in ("full", "line-ap:0:-1:3", "random:0.5:3"):
        sets = parse_sets(ctx, token, 4, 0)
        assert all(s is sets[0] for s in sets)
    # Unseeded, slot k draws seed + k, so the slots stay distinct sets.
    unseeded = parse_sets(ctx, "random:0.5,random:0.5", 2, 9)
    assert unseeded[0] is not unseeded[1]
    assert unseeded == [gen_random_set(ctx, 0.5, 9), gen_random_set(ctx, 0.5, 10)]


@pytest.mark.parametrize("q,default_seed", [(3, 0), (61, 9), (211, 2**64 - 10)])
def test_stacked_tokens_are_each_tokens_set(tmp_path, monkeypatch, q, default_seed):
    ctx = PrimeFieldCtx(q)
    path = tmp_path / "set.json"
    save_point_set(gen_random_set(ctx, 0.3, 77), str(path))
    tokens = ["random:0.5:3", "random:0:4", "random:1", "full", " random:0.5:3 ",
              "line-ap:0:1:2", "random:0.5", f"file:{path}", "random:1", "random:0.5:2"]
    calls = []

    def counted(ctx, density, seed):
        calls.append((density, seed))
        return gen_random_set(ctx, density, seed)

    monkeypatch.setattr(geometry, "gen_random_set", counted)
    sets = parse_sets(ctx, ",".join(tokens), len(tokens), default_seed)
    # One stacked pass draws every distinct random set: the seeded tokens
    # once each, an unseeded random:D once per slot, at seed + slot.
    assert calls == [((0.5, 0.0, 1.0, 0.5, 1.0, 0.5),
                      (3, 4, default_seed + 2, default_seed + 6, default_seed + 8, 2))]
    expected = [
        gen_random_set(ctx, 0.5, 3), gen_random_set(ctx, 0.0, 4),
        gen_random_set(ctx, 1.0, default_seed + 2), full_plane(ctx),
        gen_random_set(ctx, 0.5, 3), gen_example_line_ap(ctx, [0, 1]),
        gen_random_set(ctx, 0.5, default_seed + 6), load_point_set(str(path)),
        gen_random_set(ctx, 1.0, default_seed + 8), gen_random_set(ctx, 0.5, 2),
    ]
    assert sets == expected
    assert len(sets[1]) == 0 and sets[2] == full_plane(ctx)
    assert sets[0] is sets[4]
    assert sets[2] is not sets[8] and sets[6] is not sets[9]


def test_set_tokens_are_checked_in_slot_order():
    ctx = PrimeFieldCtx(7)
    with pytest.raises(PointSetFormatError, match="line-ap"):
        parse_sets(ctx, "random:0.5:1,line-ap:0:1,random:2", 3, 0)
    with pytest.raises(PointSetFormatError, match="density"):
        parse_sets(ctx, "full,random:2,line-ap:0:1", 3, 0)


# Each command with its --set slot count; --seed 7 gives unseeded tokens
# their default seed.
_SET_COMMANDS = [
    (["count", "--q", "13", "--quantity", "par_t", "--t", "1"], 4),
    (["bench", "--q", "13", "--quantity", "n_t", "--t", "1", "--runs", "1"], 2),
    (["vc", "--q", "13", "--t", "1"], 1),
    (["witness", "--q", "13", "--t", "1"], 1),
    (["gen", "--q", "13"], 1),
    (["fourier", "--q", "13"], 1),
]


@pytest.mark.parametrize("command,nslots", _SET_COMMANDS, ids=[c[0] for c, _ in _SET_COMMANDS])
def test_every_command_parses_its_sets_through_geometry(capsys, monkeypatch, command, nslots):
    specs, draws = [], []

    def parse(ctx, spec, n, default_seed):
        specs.append((spec, n, default_seed))
        return parse_sets(ctx, spec, n, default_seed)

    def draw(ctx, densities, seeds):
        draws.append((densities, seeds))
        return gen_random_set(ctx, densities, seeds)

    monkeypatch.setattr(geometry, "parse_sets", parse)
    monkeypatch.setattr(geometry, "gen_random_set", draw)
    rc, _, _ = run_cli(capsys, command + ["--set", "random:0.5", "--seed", "7"])
    assert rc == 0
    assert specs == [("random:0.5", nslots, 7)]
    # One stacked draw: an unseeded token is one set per slot.
    assert draws == [((0.5,) * nslots, tuple(range(7, 7 + nslots)))]


@pytest.mark.parametrize("command,nslots", _SET_COMMANDS, ids=[c[0] for c, _ in _SET_COMMANDS])
def test_set_spec_errors_are_the_same_for_every_command(capsys, command, nslots):
    for spec, message in [
            ("random:2", "density must lie in [0, 1]"),
            ("", f"expected {nslots} set slots, got 0"),
            ("full," * (nslots + 1), f"expected {nslots} set slots, got {nslots + 1}")]:
        assert run_cli(capsys, command + ["--set", spec]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["vc", "witness", "gen", "fourier"])
def test_single_slot_spec_splits_at_commas(capsys, command):
    base = [c for c, _ in _SET_COMMANDS if c[0] == command][0]
    # Empty pieces are dropped, so these name the one set "full".
    _, want, _ = run_cli(capsys, base + ["--set", "full"])
    for spec in ("full,", ",full", " , full ,"):
        rc, out, err = run_cli(capsys, base + ["--set", spec])
        assert (rc, err) == (0, "")
        assert out.replace(json.dumps(spec), '"full"') == want
    rc, out, err = run_cli(capsys, base + ["--set", "random:0.5,full"])
    assert (rc, out, err) == (2, "", "error: expected 1 set slots, got 2\n")


@pytest.mark.parametrize("token", ["full", "line-ap:0:1:3", "random:0.5:3", "random:0.5"])
@pytest.mark.parametrize("quantity", ["par_t", "par", "rhom_t", "degenerate"])
def test_broadcast_token_prints_the_spelled_out_line(capsys, token, quantity):
    lines = []
    for spec in (token, ",".join([token] * 4)):
        argv = ["count", "--q", "11", "--quantity", quantity, "--set", spec, "--seed", "5"]
        rc, out, _ = run_cli(capsys, argv + ([] if quantity == "par" else ["--t", "2"]))
        assert rc == 0
        obj = json_lines(out)[0]
        del obj["elapsed_ms"], obj["config"]["set"]
        lines.append(obj)
    assert lines[0] == lines[1]


@pytest.mark.parametrize("argv,fragment", [
    (["count", "--q", "4", "--t", "1", "--quantity", "par_t", "--set", "full"],
     "odd prime"),
    (["count", "--q", "5", "--quantity", "par_t", "--set", "full"],
     "--t is required"),
    (["count", "--q", "5", "--t", "0", "--quantity", "rhom_t", "--set", "full"],
     "t != 0"),
    (["count", "--q", "5", "--t", "1", "--quantity", "par_t",
      "--set", "full,full"], "set slots"),
    (["count", "--q", "5", "--t", "1", "--quantity", "par_t", "--set", "bogus"],
     "bad set spec"),
    (["count", "--q", "5", "--t", "1", "--quantity", "rhom_t",
      "--method", "fourier", "--set", "full"], "par_t only"),
    (["count", "--q", "5", "--t", "1", "--quantity", "degenerate",
      "--method", "fourier", "--set", "full"], "par_t only"),
    (["vc", "--q", "7", "--t", "1", "--set", "full", "--cap", "-1"],
     "--cap must be nonnegative"),
    (["bench", "--q", "5", "--t", "1", "--runs", "0"], "--runs must be at least 1"),
    (["bounds", "--q", "5", "--check", "unit-distance", "--trials", "-2"],
     "--trials must be at least 1"),
    (["bench", "--q", "5", "--t", "1", "--methods", ","],
     "--methods must name at least one method"),
    (["gen", "--q", "7", "--set", "random:0.5:18446744073709551616"],
     "the seed of set 'random:0.5:18446744073709551616' in slot 0 must lie in"),
    (["gen", "--q", "7", "--set", "random:0.5:-3"], "must lie in [0, 2^64)"),
    (["count", "--q", "5", "--t", "1", "--quantity", "par_t",
      "--set", "random:0.5", "--seed", "18446744073709551613"],
     "the seed of set 'random:0.5' in slot 3 must lie in [0, 2^64)"),
    (["gen", "--q", "7", "--seed", "18446744073709551616"],
     "--seed must lie in [0, 2^64), got 18446744073709551616"),
    (["bounds", "--q", "5", "--trials", "1", "--seed", "-1"], "--seed must lie in"),
    (["vc", "--q", "7", "--t", "1", "--set", "full", "--seed", "-1"],
     "--seed must lie in"),
    (["witness", "--q", "7", "--t", "1", "--set", "full", "--seed", "-1"],
     "--seed must lie in"),
    (["fourier", "--q", "5", "--circle", "1", "--seed", "-1"], "--seed must lie in"),
    (["bench", "--q", "5", "--t", "1", "--seed", "-1"], "--seed must lie in"),
    (["gen", "--q", "7", "--set", "full", "--out", "/nonexistent/dir/x.json"],
     "error: cannot write '/nonexistent/dir/x.json'"),
    (["bounds", "--q", "5", "--t", "2", "--all-t", "--trials", "1"],
     "--t and --all-t cannot be combined"),
    # Each command takes only the formats it writes.
    (["count", "--q", "5", "--t", "1", "--quantity", "par_t", "--set", "full",
      "--format", "csv"], "argument --format: invalid choice: 'csv'"),
    (["vc", "--q", "7", "--t", "1", "--set", "full", "--format", "human"],
     "argument --format: invalid choice: 'human'"),
    (["witness", "--q", "7", "--t", "1", "--set", "full", "--format", "csv"],
     "argument --format: invalid choice: 'csv'"),
    (["fourier", "--q", "5", "--circle", "1", "--format", "human"],
     "argument --format: invalid choice: 'human'"),
    # gen prints text, or JSON with --json; it has no --format.
    (["gen", "--q", "7", "--format", "csv"], "unrecognized arguments: --format csv"),
    (["bounds", "--q", "5", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    # Arguments a command would otherwise ignore while its config echo
    # records them.
    (["fourier", "--q", "5", "--circle", "1", "--decay", "--set", "full"],
     "--decay reports a circle; --set does not apply"),
    (["fourier", "--q", "5", "--circle", "1", "--decay", "--method", "oracle"],
     "--method oracle does not apply"),
    (["count", "--q", "5", "--t", "1", "--quantity", "par_t", "--set", "full",
      "--exclude-degenerate"], "--exclude-degenerate applies to rhom_t only"),
    (["count", "--q", "5", "--t", "1", "--quantity", "degenerate", "--set", "full",
      "--exclude-degenerate"], "--exclude-degenerate applies to rhom_t only"),
    # vc, witness and bounds refuse a radius that reduces to 0 mod q.
    (["vc", "--q", "7", "--t", "0", "--set", "full"], "error: --t must be nonzero"),
    (["witness", "--q", "7", "--t", "14", "--set", "full"], "error: --t must be nonzero"),
    (["bounds", "--q", "5", "--t", "-5", "--trials", "1"], "error: --t must be nonzero"),
    # A radius for a quantity without one, and --json beside --out.
    (["count", "--q", "5", "--t", "3", "--quantity", "par", "--set", "full"],
     "error: --t does not apply to quantity par"),
    (["bench", "--q", "5", "--t", "1", "--quantity", "par", "--runs", "1"],
     "error: --t does not apply to quantity par"),
    (["gen", "--q", "5", "--set", "full", "--out", "/nonexistent/dir/x.txt", "--json"],
     "error: --json and --out cannot be combined"),
    # An empty --out names a path, not stdout.
    (["gen", "--q", "5", "--set", "full", "--out", ""], "error: cannot write ''"),
])
def test_usage_errors_exit_2(capsys, argv, fragment):
    rc, out, err = _outcome(capsys, argv)
    assert rc == 2
    assert fragment in err
    assert out == ""


def test_seeds_at_the_ends_of_their_range_are_kept(capsys):
    top = 2**64 - 1
    _, by_token, _ = run_cli(capsys, ["gen", "--q", "7", "--set", f"random:0.5:{top}"])
    _, by_slot, _ = run_cli(capsys, [
        "gen", "--q", "7", "--set", "random:0.5", "--seed", str(top)])
    _, zero, _ = run_cli(capsys, ["gen", "--q", "7", "--set", "random:0.5:0"])
    assert by_token == by_slot != zero
    rc, _, _ = run_cli(capsys, [
        "count", "--q", "5", "--t", "1", "--quantity", "par_t",
        "--set", "random:0.5", "--seed", str(top - 3)])
    assert rc == 0


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--nonsense"])
    assert exc.value.code == 2


def test_gen_count_round_trip(tmp_path, capsys):
    path = tmp_path / "set.txt"
    rc, _, _ = run_cli(capsys, [
        "gen", "--q", "7", "--set", "random:0.5:99", "--out", str(path)])
    assert rc == 0
    rc, out1, _ = run_cli(capsys, [
        "count", "--q", "7", "--t", "1", "--quantity", "par_t",
        "--set", f"file:{path}"])
    rc2, out2, _ = run_cli(capsys, [
        "count", "--q", "7", "--t", "1", "--quantity", "par_t",
        "--set", "random:0.5:99"])
    assert rc == rc2 == 0
    assert json_lines(out1)[0]["value"] == json_lines(out2)[0]["value"]


def test_gen_json_round_trip(tmp_path, capsys):
    path = tmp_path / "set.json"
    run_cli(capsys, ["gen", "--q", "5", "--set", "line-ap:0:1:2",
                     "--out", str(path)])
    rc, out, _ = run_cli(capsys, [
        "count", "--q", "5", "--t", "1", "--quantity", "n_t",
        "--set", f"file:{path},file:{path}"])
    assert rc == 0
    assert json_lines(out)[0]["set_sizes"] == [10, 10]


def test_file_q_mismatch_is_usage_error(tmp_path, capsys):
    path = tmp_path / "set.txt"
    run_cli(capsys, ["gen", "--q", "5", "--set", "full", "--out", str(path)])
    rc, _, err = run_cli(capsys, [
        "count", "--q", "7", "--t", "1", "--quantity", "par_t",
        "--set", f"file:{path}"])
    assert rc == 2 and "q=5" in err


# Each file in text and JSON form: one that is not UTF-8, and one whose
# header names a q whose q x q array (~888 PiB) must never be built.
_BAD_SET_FILES = {
    "not-utf8": ((b"\xffq 13\n0 0\n", b'\xff{"q": 13, "points": [[0, 0]]}'),
                 "cannot load {path!r}: 'utf-8' codec can't decode byte 0xff in "
                 "position 0: invalid start byte"),
    "huge-q": ((b"q 1000000007\n0 0\n", b'{"q": 1000000007, "points": [[0, 0]]}'),
               "set file {path!r} has q=1000000007, expected 13"),
}


@pytest.mark.parametrize("kind", _BAD_SET_FILES)
@pytest.mark.parametrize("form", ["txt", "json"])
@pytest.mark.parametrize("command", [["vc", "--q", "13", "--t", "1"],
                                     ["count", "--q", "13", "--t", "1", "--quantity", "n_t"]])
def test_bad_set_files_are_usage_errors(tmp_path, capsys, kind, form, command):
    data, message = _BAD_SET_FILES[kind]
    path = str(tmp_path / f"set.{form}")
    Path(path).write_bytes(data[form == "json"])
    rc, out, err = run_cli(capsys, command + ["--set", f"file:{path}"])
    assert (rc, out, err) == (2, "", f"error: {message.format(path=path)}\n")


def test_bounds_reports_and_summary(capsys):
    rc, out, _ = run_cli(capsys, [
        "bounds", "--q", "7", "--check", "par-vs-mean",
        "--trials", "5", "--seed", "42"])
    assert rc == 0
    lines = json_lines(out)
    reports = [l for l in lines if not l.get("summary")]
    summaries = [l for l in lines if l.get("summary")]
    assert len(reports) == 5 and len(summaries) == 1
    assert summaries[0]["violations"] == 0
    assert summaries[0]["min_slack"] >= 0
    assert all(r["holds"] for r in reports)


def test_bounds_writes_each_batch_as_it_is_formatted(capsys, monkeypatch):
    argv = ["bounds", "--q", "13", "--check", "par-pairs", "--all-t", "--trials", "3"]
    _, whole, _ = run_cli(capsys, argv)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(argv) == 0
    # One write per trial's 66 pair lines, then the summary.
    assert [text.count("\n") for text in writes] == [66, 66, 66, 1]
    assert "".join(writes) == whole


def test_bounds_csv_writes_each_batch_as_it_is_formatted(capsys, monkeypatch):
    argv = ["bounds", "--q", "13", "--check", "par-pairs", "--all-t", "--trials", "3",
            "--format", "csv"]
    _, whole, _ = run_cli(capsys, argv)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(argv) == 0
    # The header, then one write per trial's 66 pair rows.
    assert writes[0] == "name,lhs,rhs,holds,ratio,slack\n"
    assert [text.count("\n") for text in writes[1:]] == [66, 66, 66]
    assert "".join(writes) == whole


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_bounds_builds_no_bound_report(capsys, monkeypatch, fmt):
    def refuse(self, k):
        raise AssertionError("a BoundReport was built")

    argv = ["bounds", "--q", "7", "--check", "all", "--all-t", "--trials", "2",
            "--format", fmt]
    _, want, _ = run_cli(capsys, argv)
    monkeypatch.setattr(ReportBatch, "report", refuse)
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0 and out == want
    rc, _, _ = run_cli(capsys, ["fourier", "--q", "7", "--circle", "1", "--decay"])
    assert rc == 0


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_bounds_builds_each_block_once(capsys, monkeypatch, fmt):
    """The stream and its summaries come from one pass over each check's
    batches: every block's batches of a check are built once."""
    argv = ["bounds", "--q", "7", "--check", "all", "--all-t", "--trials", "3", "--format", fmt]
    _, want, _ = run_cli(capsys, argv)
    built = []
    real = bounds._block_batches
    monkeypatch.setattr(bounds, "_block_batches",
                        lambda q, name, tags, *a: built.append((name, len(tags)))
                        or real(q, name, tags, *a))
    # Two trials' sets a block at q = 7: blocks of 2 and 1 trials.
    monkeypatch.setattr(geometry, "INDEX_CHUNK", 2 * 4 * 49)
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0 and out == want
    assert built == [(name, n) for name in CHECK_NAMES[:-1] for n in (2, 1)]


def test_violated_asserted_check_exits_1_and_is_counted(capsys, monkeypatch):
    profiles = bounds.par_and_n_t_profiles

    def inflated(ctx, quads):
        par, n_t = profiles(ctx, quads)
        par = par.copy()
        par[:, 1] = 10**12
        return par, n_t

    monkeypatch.setattr(bounds, "par_and_n_t_profiles", inflated)
    argv = ["bounds", "--q", "7", "--check", "par-pairs", "--all-t",
            "--trials", "2", "--seed", "0"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 1
    *reports, summary = json_lines(out)
    violated = [r for r in reports if not r["holds"]]
    # Every pair with t = 1 and no other, in both trials.
    assert sorted((r["inputs"]["trial"], r["inputs"]["t"], r["inputs"]["t2"])
                  for r in violated) == [(k, 1, t2) for k in (0, 1) for t2 in range(2, 7)]
    assert summary["violations"] == len(violated) == 10
    assert summary["instances"] == len(reports) == 30
    assert all(line == json.dumps(json.loads(line), sort_keys=True)
               for line in out.splitlines())
    rc, out, _ = run_cli(capsys, argv + ["--format", "human"])
    assert rc == 1 and "30 instances, 10 violations" in out


# check -> (module, the count its sweep reads at a pinned radius, that
# count's stand-in built from the real one), making the check's report fail.
# A par check's sweep reads its Par_t profiles from par_and_n_t_profiles, a
# rhombus check's sweep its Rhom_t from rhombus_sums, and circle-decay its
# maxima from fourier._decay_maxima, the cache that stands before the
# transforms.
def _inflated_profiles(real):
    def stand_in(ctx, quads):
        par, n_t = real(ctx, quads)
        par = par.copy()
        par[:, 1] += 10**12
        return par, n_t
    return stand_in


_INFLATED_COUNTS = {
    "unit-distance": (bounds, "count_unit_distances", lambda real: lambda *a, **k:
                      SimpleNamespace(value=real(*a, **k).value + 10**9)),
    "par-vs-mean": (bounds, "par_and_n_t_profiles", _inflated_profiles),
    "rhom-vs-par": (bounds, "rhombus_sums", lambda real: lambda *a:
                    (lambda rhom, *rest: (rhom + 10**9, *rest))(*real(*a))),
    "circle-decay": (fourier, "_decay_maxima", lambda real: lambda *a: tuple(
        tuple(None if v is None else 100 * v for v in column) for column in real(*a))),
}


@pytest.mark.parametrize("check", list(_INFLATED_COUNTS))
def test_each_asserted_check_exits_1_on_a_violation(capsys, monkeypatch, check):
    """A violated report of an asserted check exits 1 and is counted; with
    the check's asserted flag in bounds.CHECKS cleared, the same stream
    exits 0."""
    argv = ["bounds", "--q", "7", "--check", check, "--t", "1", "--trials", "1"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0 and json_lines(out)[-1]["violations"] == 0
    module, name, stand_in = _INFLATED_COUNTS[check]
    monkeypatch.setattr(module, name, stand_in(getattr(module, name)))
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 1
    report, summary = json_lines(out)
    radius = report["inputs"]["j" if check == "circle-decay" else "t"]
    assert (report["name"], report["holds"], radius) == (check, False, 1)
    assert (summary["check"], summary["instances"], summary["violations"]) == (check, 1, 1)
    assert bounds.CHECKS[check].asserted
    monkeypatch.setitem(bounds.CHECKS, check, bounds.CHECKS[check]._replace(asserted=False))
    rc, recorded, _ = run_cli(capsys, argv)
    assert rc == 0 and recorded == out


def test_violated_recorded_check_exits_0(capsys, monkeypatch):
    rhombus_sums = bounds.rhombus_sums

    def no_rhombi(*args):
        rhom, *rest = rhombus_sums(*args)
        return (0 * rhom, *rest)

    monkeypatch.setattr(bounds, "rhombus_sums", no_rhombi)
    rc, out, _ = run_cli(capsys, ["bounds", "--q", "3", "--check", "rhom-lower",
                                  "--all-t", "--trials", "1", "--density", "1"])
    assert rc == 0
    *reports, summary = json_lines(out)
    # Full planes at q = 3: prod = 9^4 >= q^7, so Rhom_t = 0 fails the verdict.
    assert [(r["inputs"]["t"], r["extra"]["hypothesis"], r["holds"]) for r in reports] == [
        (1, True, False), (2, True, False)]
    assert summary["violations"] == 2


def test_bounds_stream_is_reproducible(capsys):
    argv = ["bounds", "--q", "5", "--check", "unit-distance",
            "--trials", "4", "--seed", "7", "--density", "auto"]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_count_stream_deterministic_modulo_elapsed(capsys):
    argv = ["count", "--q", "7", "--t", "1", "--quantity", "rhom_t",
            "--set", "random:0.5:3"]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    a, b = json_lines(out1)[0], json_lines(out2)[0]
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


@pytest.mark.parametrize("argv", [
    ["count", "--q", "13", "--t", "3", "--quantity", "rhom_t",
     "--set", "random:0.5:1,random:0.5:1,random:0.5:2,random:0.5:2"],
    ["bounds", "--q", "13", "--check", "all", "--all-t", "--trials", "2", "--seed", "4"],
    ["witness", "--q", "31", "--t", "1", "--set", "random:0.5:3"],
    ["fourier", "--q", "13", "--circle", "2", "--decay"],
], ids=lambda argv: argv[0])
def test_a_command_prints_alike_after_a_command_at_another_q(capsys, argv):
    # The per-field caches outlive a call: one argv, run again in the same
    # process after a command at another q, prints the same stream apart
    # from elapsed_ms.
    def stream():
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0 and out
        return [{k: v for k, v in obj.items() if k != "elapsed_ms"} for obj in json_lines(out)]

    first = stream()
    between = ["bounds", "--q", "7", "--check", "all", "--all-t", "--trials", "1"]
    assert run_cli(capsys, between)[0] == 0
    assert stream() == first


def test_bounds_all_checks_run(capsys):
    rc, out, _ = run_cli(capsys, [
        "bounds", "--q", "5", "--check", "all", "--trials", "2", "--seed", "3"])
    assert rc == 0
    checks = {l["check"] for l in json_lines(out) if l.get("summary")}
    assert checks == {"unit-distance", "par-vs-mean", "par-pairs",
                      "rhom-vs-par", "rhom-lower", "circle-decay"}


@pytest.mark.parametrize("extra", [[], ["--all-t", "--density", "auto"], ["--t", "3"]])
def test_bounds_all_is_the_single_checks_joined(capsys, extra):
    def stream(check):
        rc, out, _ = run_cli(capsys, ["bounds", "--q", "7", "--trials", "3",
                                      "--seed", "5", "--check", check] + extra)
        assert rc == 0
        lines = json_lines(out)
        for obj in lines:
            obj["config"].pop("check")
        return lines

    assert stream("all") == [obj for check in CHECK_NAMES for obj in stream(check)]


def test_malformed_json_set_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"q": 5, "points": [[null, 1]]}')
    rc, out, err = run_cli(capsys, ["count", "--q", "5", "--t", "1", "--quantity",
                                    "n_t", "--set", f"file:{path}"])
    assert rc == 2 and out == "" and err.startswith("error:")


def test_fourier_dump_circle(capsys):
    rc, out, _ = run_cli(capsys, ["fourier", "--q", "3", "--circle", "1"])
    assert rc == 0
    obj = json_lines(out)[0]
    coeffs = {(m1, m2): complex(re, im) for m1, m2, re, im in obj["coeffs"]}
    assert len(coeffs) == 9
    assert abs(coeffs[(0, 0)] - 4 / 9) < 1e-9
    assert abs(coeffs[(1, 0)] - 1 / 9) < 1e-9


def test_fourier_decay_report(capsys):
    rc, out, _ = run_cli(capsys, [
        "fourier", "--q", "7", "--circle", "1", "--decay"])
    assert rc == 0
    assert json_lines(out)[0]["holds"]


def test_fourier_requires_one_source(capsys):
    rc, _, err = run_cli(capsys, ["fourier", "--q", "7"])
    assert rc == 2 and "exactly one" in err


def test_vc_subcommand(capsys):
    rc, out, _ = run_cli(capsys, ["vc", "--q", "7", "--t", "1", "--set", "full"])
    assert rc == 0
    obj = json_lines(out)[0]
    assert obj["vc_dim"] == 3
    assert len(obj["shattered_example"]) == 3


def _check_vc_full_plane(capsys, q, seconds):
    start = time.perf_counter()
    rc, out, _ = run_cli(capsys, ["vc", "--q", str(q), "--t", "1", "--set", "full"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    obj = json_lines(out)[0]
    assert obj["vc_dim"] == 3 and obj["size"] == q * q
    assert len(obj["shattered_example"]) == 3
    assert elapsed < seconds


def test_vc_full_plane_q31_is_exhaustive_within_a_minute(capsys):
    _check_vc_full_plane(capsys, 31, 60)


def test_vc_full_plane_q101_is_exhaustive_within_20s(capsys):
    _check_vc_full_plane(capsys, 101, 20)


def test_witness_subcommand(capsys):
    rc, out, _ = run_cli(capsys, [
        "witness", "--q", "11", "--t", "1", "--set", "full"])
    assert rc == 0
    obj = json_lines(out)[0]
    assert obj["valid"] is True and obj["violations"] == []
    assert set(obj["witness"]) == {"x1", "x2", "x3", "y12", "y13", "y23",
                                   "y123", "y1", "y2", "y3", "y0"}


def test_witness_failure_is_reported_not_fatal(capsys):
    rc, out, _ = run_cli(capsys, [
        "witness", "--q", "11", "--t", "1", "--set", "random:0.05:3"])
    assert rc == 0
    obj = json_lines(out)[0]
    assert "failure" in obj
    assert obj["failure"]["step"]


def test_bench_json_and_csv(capsys):
    rc, out, _ = run_cli(capsys, [
        "bench", "--q", "5", "--t", "1", "--quantity", "par_t",
        "--methods", "oracle,fast,fourier", "--runs", "2", "--seed", "1"])
    assert rc == 0
    obj = json_lines(out)[0]
    values = {r["method"]: r["value"] for r in obj["results"]}
    assert len(set(values.values())) == 1
    rc, out, _ = run_cli(capsys, [
        "bench", "--q", "5", "--t", "1", "--methods", "oracle,fast",
        "--runs", "1", "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[0] == "method,value,median_ms"
    # One row per method: the value as an int, the median as its JSON literal.
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [m for m, _, _ in rows] == ["oracle", "fast"] and rows[0][1] == rows[1][1]
    assert all(str(int(v)) == v and json.dumps(float(ms)) == ms for _, v, ms in rows)


def test_bench_full_plane_value(capsys):
    # Par_t on four full planes is q^4 * |S_t|
    rc, out, _ = run_cli(capsys, [
        "bench", "--q", "5", "--t", "1", "--set", "full",
        "--methods", "oracle,fast", "--runs", "1"])
    assert rc == 0
    obj = json_lines(out)[0]
    assert all(r["value"] == 5**4 * 4 for r in obj["results"])


def test_bench_empty_sets(capsys):
    rc, out, _ = run_cli(capsys, [
        "bench", "--q", "7", "--t", "1", "--set", "random:0",
        "--methods", "oracle,fast,fourier", "--runs", "1"])
    assert rc == 0
    obj = json_lines(out)[0]
    assert all(r["value"] == 0 for r in obj["results"])
    assert obj["set_sizes"] == [0, 0, 0, 0]


def test_fourier_past_its_error_bound_exits_1(capsys):
    rc, out, err = run_cli(capsys, [
        "count", "--q", "41", "--t", "1", "--quantity", "par_t",
        "--method", "fourier", "--set", "full"])
    assert rc == 1
    assert "tolerance failure" in err
    assert out == ""


@pytest.mark.parametrize("quantity,methods", [
    ("n_t", "oracle,fast"), ("par_t", "oracle,fast,fourier"),
    ("par", "oracle,fast"), ("rhom_t", "oracle,fast"), ("degenerate", "oracle,fast")])
def test_bench_covers_every_quantity(capsys, quantity, methods):
    rc, out, _ = run_cli(capsys, [
        "bench", "--q", "5", "--quantity", quantity, "--methods", methods,
        "--set", "random:0.5", "--runs", "1", "--seed", "3"]
        + ([] if quantity == "par" else ["--t", "1"]))
    assert rc == 0
    obj = json_lines(out)[0]
    assert obj["quantity"] == quantity
    assert len(obj["set_sizes"]) == (2 if quantity == "n_t" else 4)
    assert [r["method"] for r in obj["results"]] == methods.split(",")


def test_bench_fourier_allowed_at_cap_boundary(capsys):
    rc, out, _ = run_cli(capsys, [
        "bench", "--q", "31", "--t", "1", "--methods", "fast,fourier",
        "--set", "random:0.05", "--runs", "1", "--seed", "2"])
    assert rc == 0
    obj = json_lines(out)[0]
    values = {r["method"]: r["value"] for r in obj["results"]}
    assert values["fast"] == values["fourier"]


@pytest.mark.parametrize("times", [
    [2.5], [3.1, 0.2], [0.3, 9.75, 1.125], [1e-3, 7.0, 7.0, 0.1],
    [4.2, 1.7, 8.9, 3.3, 0.6], [0.1 * k for k in range(10, 0, -1)],
])
def test_bench_median_matches_statistics_median(times):
    # Odd counts take the middle value, even ones the mean of the middle
    # two; both must be the very float statistics.median returns.
    assert _median(times) == statistics.median(times)
    assert _median(list(reversed(times))) == statistics.median(times)


def test_cli_import_leaves_statistics_unloaded():
    src = str(Path(cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import ffplane.cli; "
            "print(sorted(m for m in ('statistics', 'fractions', 'decimal') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_stdout_ends_a_command_quietly(fmt):
    # Forty trials write far more than a pipe holds, so the command is still
    # writing when its reader goes: exit 141, as under SIGPIPE, and no
    # traceback.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "ffplane.cli", "bounds", "--q", "13", "--check", "all",
            "--all-t", "--trials", "40", "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_line_ap_longer_than_q_exits_2_before_building(capsys):
    start = time.perf_counter()
    rc, _, err = run_cli(capsys, ["gen", "--q", "7", "--set", f"line-ap:0:1:{10**12}"])
    assert rc == 2
    assert "X must consist of distinct residues" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("obj", [
    {}, {"holds": True, "inputs": {"z": 1, "a": [2.5, None]}, "name": "x"},
    {"check": "a", "summary": True}, {"config": 1, "lhs": 2}, {"prng": "other"},
    {"confid": 0, "d": 1}, {"configs": "", "é": "ü"},
])
def test_report_line_is_sorted_json_with_config_and_prng(obj):
    config = {"set": "full", "q": 7, "nested": {"b": 1, "a": 2}}
    payload = {**obj, "config": config, "prng": "splitmix64"}
    assert _line_encoder(config)(obj) == json.dumps(payload, sort_keys=True) + "\n"


# -- report lines from each check's layout -------------------------------------

_CONFIG = {"set": "full", "q": 7, "nested": {"b": 1, "a": 2}, "t": None, "x": 0.5}


def _encoded(rep):
    payload = {**rep.to_json_obj(), "config": _CONFIG, "prng": "splitmix64"}
    return json.dumps(payload, sort_keys=True) + "\n"


# q = 5 and 13 are 1 mod 4, so circle-decay at j = 0 reports isotropic_max.
@pytest.mark.parametrize("q", [3, 5, 7, 13, 31])
@pytest.mark.parametrize("density", [0.0, 1.0, None, 0.01])
@pytest.mark.parametrize("all_t,t", [(True, None), (False, 2)])
def test_report_writer_prints_the_encoded_line(q, density, all_t, t):
    batches = bounds.sweep(PrimeFieldCtx(q), CHECK_NAMES, 2, density, 3,
                           all_t=all_t, t=t).batches
    reports = [rep for batch in batches for rep in batch.reports()]
    assert {rep.name for rep in reports} == set(CHECK_NAMES)
    if q % 4 == 1 and t is None:
        assert "isotropic_max" in reports[-q].extra
    write = _report_writer(_CONFIG)
    lines = "".join(write(batch) for batch in batches).splitlines(keepends=True)
    assert lines == [_encoded(rep) for rep in reports]


_TAG = {"trial": 1, "seed": 2**64 - 1}
_BIG = 2**53 + 1

# One-row batches from builder inputs no sweep makes: ints past 2^53, empty
# sets, a signed zero.  The par-pairs sizes multiply to 7 * 2^60.
_EXTREMES = [
    unit_distance_batch(7, [1], [2**60 + 1], [2**40, 2**40 + 3], **_TAG),
    par_mean_batch(7, [3], [_BIG], 3 * 2**62 + 5, [2**20, 3, 2**20, 1], **_TAG),
    par_pair_batch(7, [(1, 6)], [2**62 + 3], [_BIG], [2**30, 1, 2**30, 7], **_TAG),
    rhom_relation_batch(7, [2], [direction_sums([(2**40, 2**20, _BIG), (0, 5, 0)])],
                                [2**30, 2**30, 1, 1], **_TAG),
    rhom_lower_batch(7, [2], [_BIG], [2**20, 2**20, 2**20, 2**20], **_TAG),
    unit_distance_batch(7, [1], [0], [0, 0], **_TAG),
    rhom_lower_batch(7, [2], [0], [0, 0, 0, 0], **_TAG),
    ReportBatch("circle-decay", {"q": 5}, {"strict_rhs": 0.125}, {"j": [0]},
                {"holds_strict": [True], "isotropic_max": [-0.0],
                 "max_all_nonzero_modes": [0.5], "ratio_to_strict": [0.25]},
                [0.5], [0.5], [1.0], [0.0], [True]),
]


# The "-True" in the ids keeps these cases' names stable.
@pytest.mark.parametrize("batch", _EXTREMES,
                         ids=[f"rep{k}-True" for k in range(len(_EXTREMES))])
def test_report_writer_prints_the_encoded_line_of_any_report(batch):
    assert len(batch) == 1
    assert _report_writer(_CONFIG)(batch) == _encoded(batch.report(0))


def test_report_writer_writes_an_infinite_ratio_as_null():
    """lhs > 0 = rhs, which no builder call makes, gives an infinite ratio;
    to_json_obj (the library's form) and the csv rows write it as null."""
    batch = unit_distance_batch(7, [1], [3], [0, 5], **_TAG)
    obj = batch.report(0).to_json_obj()
    assert obj["ratio"] is None and obj["lhs"] == 3.0 and obj["rhs"] == 0.0
    assert csv_lines(batch) == "unit-distance,3.0,0.0,false,null,-3.0\n"


def _csv_row(rep):
    """A report's csv row by the json module: its to_json_obj values, a
    string as is and anything else as its JSON literal."""
    obj = rep.to_json_obj()
    return ",".join(obj[col] if isinstance(obj[col], str) else json.dumps(obj[col])
                    for col in CSV_COLUMNS) + "\n"


@pytest.mark.parametrize("q", [3, 5, 13])
@pytest.mark.parametrize("density", [0.0, 1.0, None])
@pytest.mark.parametrize("all_t,t", [(True, None), (False, 2)])
def test_csv_rows_are_the_reports_json_literals(q, density, all_t, t):
    batches = bounds.sweep(PrimeFieldCtx(q), CHECK_NAMES, 2, density, 3,
                           all_t=all_t, t=t).batches
    rows = "".join(map(csv_lines, batches)).splitlines(keepends=True)
    assert rows == [_csv_row(rep) for batch in batches for rep in batch.reports()]


@pytest.mark.parametrize("batch", _EXTREMES, ids=[f"rep{k}" for k in range(len(_EXTREMES))])
def test_csv_row_of_any_report(batch):
    assert csv_lines(batch) == _csv_row(batch.report(0))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of whole stdout streams, recorded from the implementation before
# the one-pass rhombus terms and the single-write report path, which must
# leave every byte unchanged.  The csv digest was recorded again when csv
# cells became JSON literals (true, false, null), after checking each row's
# values against the matching JSON report.  The streams with par-vs-mean or
# par-pairs lines whose values moved were recorded again when those displays
# took the right sides 2 sqrt(q prod) + Par/q^2 and 4 sqrt(q prod), after
# checking that only their rhs, holds, ratio and slack fields and their
# summaries' min_slack changed.
_BOUNDS_ALL = ["bounds", "--q", "13", "--check", "all", "--all-t",
               "--density", "auto", "--trials", "2", "--seed", "0"]


@pytest.mark.parametrize("argv,digest", [
    (_BOUNDS_ALL,
     "b51b4dfedf50af2d9ccd4da6da6e68a8ff67c7c49e4eca7950f42edefd2921e6"),
    (_BOUNDS_ALL + ["--format", "csv"],
     "e6d539bb2981318c5927779427157c2d0bb0675065777b07ea7916d94e20207d"),
    (["bounds", "--q", "7", "--check", "rhom-vs-par", "--trials", "3", "--seed", "4"],
     "c35a96b77858a0039e2fe18a3d5fa85cdc93496c94f7224a5b5c33a59c370294"),
    # Recorded from the per-report writer before report batches replaced it.
    (_BOUNDS_ALL + ["--format", "human"],
     "e5a7e86a6b4f9d8d48e396a042eec7ca94f680c7d8dc528ed628374a8ec7725e"),
    (["bounds", "--q", "31", "--check", "par-pairs", "--t", "3", "--trials", "4",
      "--seed", "9"],
     "1cea48cabc34ad1c502c277ca3e9cfbfe234e90db9f0a1a22b70d2dd0189a1e8"),
    (["bounds", "--q", "3", "--check", "all", "--all-t", "--trials", "1",
      "--density", "0"],
     "70f2970f995987486ed81b4cbfd784c99092e08b8847b2ecb9ca64bbeb8cd839"),
    (["bounds", "--q", "3", "--check", "all", "--all-t", "--trials", "1",
      "--density", "1"],
     "bf4e83dada36177064f6d4e64262bc208a1a600ae0a563da80a550d9d9db00b0"),
    (["bounds", "--q", "7", "--check", "unit-distance", "--trials", "5", "--seed", "2"],
     "6a674c5eef38c75e59a4f2e6fab708dfa60f86377a4ac72ca77d1b9f04e1410e"),
    (["fourier", "--q", "13", "--circle", "0", "--decay"],
     "8749c90ad128c528ab4651fd673eea1c1e19aeefe90b126931e7f654e638da48"),
    # Recorded before sweeps computed their trials in blocks: the benchmark's
    # command shape (7 trials, one block), and 6 trials at q = 61, where a
    # block holds 4 (INDEX_CHUNK // 4 q^2), so the sweep spans two blocks.
    (["bounds", "--q", "13", "--check", "all", "--all-t", "--density", "auto",
      "--trials", "7", "--seed", "0"],
     "1b71a1f57e67c495334fafa56084d1a4c58234383adae97471f1d28ded2b39de"),
    (["bounds", "--q", "61", "--check", "par-vs-mean", "--trials", "6", "--seed", "1"],
     "55b13e73aeb221ece24936dee984390393b4fa4cdc84bc965fa00e333f9bfc98"),
], ids=["all-json", "all-csv", "rhom-vs-par", "all-human", "par-pairs-pinned-t",
        "q3-empty", "q3-full", "unit-distance", "fourier-decay-isotropic",
        "all-json-7-trials", "par-vs-mean-two-blocks"])
def test_bounds_stream_matches_golden_digest(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize("argv,digest", [
    (["count", "--q", "13", "--quantity", "rhom_t", "--t", "1",
      "--set", "random:0.5", "--seed", "0"],
     "20f36682b3c154b2b30044f9cede8f6db1f4958d5ec7c098aa9deb0b0917b5aa"),
    (["count", "--q", "31", "--quantity", "rhom_t", "--t", "2",
      "--set", "random:0.5", "--seed", "3"],
     "88b8febaf95bd96f14b7364c84c3069503f8c7bbd727ba32c16a5d086034f64d"),
], ids=["q13", "q31"])
def test_count_rhom_stream_matches_golden_digest(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    objs = json_lines(out)
    for obj in objs:
        del obj["elapsed_ms"]
    assert _sha256("".join(json.dumps(o, sort_keys=True) + "\n" for o in objs)) == digest


# Digests of `vc` stdout recorded from the bitmask subset scan, which the
# closed-form scan replaced with every byte unchanged, shattered_example
# included.  The last command is an exhaustive negative: no 3-set is
# shattered, so every candidate of size 3 is refuted.
@pytest.mark.parametrize("argv,digest", [
    (["vc", "--q", "23", "--t", "1", "--set", "random:0.5:3"],
     "a81689d21ac2e472587f61b6aa52aab635bcb8bff78f5dc8901ac5bd8ef3fa01"),
    (["vc", "--q", "13", "--t", "1", "--set", "full"],
     "48f94ff4d3285c44136329ada0d3243a919e90da98f916e10d194321dc8f0c19"),
    (["vc", "--q", "19", "--t", "1", "--set", "line-ap:0:1:6"],
     "78d75a3295b09e489cd19bde94e34546def31f2f65b9b68436317ce28f021ff7"),
    (["vc", "--q", "101", "--t", "1", "--set", "full"],
     "3c6180e3c05dd67e3957a5140fb52a49f4cc90afc8ee5ae26e5e8a99a0699e18"),
    (["vc", "--q", "211", "--t", "1", "--set", "random:0.02:0"],
     "70643b4206bb90c4c143513819ff35c139eb3838ad582d8094793ad292de9d86"),
], ids=["q23-random", "q13-full", "q19-strip", "q101-full", "q211-negative"])
def test_vc_stream_matches_golden_digest(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert _sha256(out) == digest


# Digests of `witness` stdout recorded from the search that shuffled point
# tuples and scanned q x q shifted meets, before it moved to index arrays;
# every byte must stay unchanged.  The benchmark's four commands come first
# (seed 1); the two sparse ones end at No-rhombus, after scanning every
# direction.  The full planes at q = 211 and q = 257 come last: E_u of
# the latter has 66,049 points, so its permutation sorts partners past
# 2^16 (recorded from the scalar swap loop).
@pytest.mark.parametrize("argv,digest", [
    (["witness", "--q", "61", "--t", "1", "--set", "full", "--seed", "1"],
     "31f396625ccce4dd84327c46053bc3d7ae0444e5be9ab10eac3c35c8523e82a7"),
    (["witness", "--q", "101", "--t", "1", "--set", "random:0.5:3", "--seed", "1"],
     "d9c0dc87d02469bef8d969a280c8c4d8fb98a6313ebb3133c9e8d28b5b11685f"),
    (["witness", "--q", "101", "--t", "1", "--set", "random:0.5:4", "--seed", "1"],
     "ff8fa05058c40db32287d2d9ad6adaa65ebed65c2eb72422f749039a44f7bf63"),
    (["witness", "--q", "101", "--t", "1", "--set", "random:0.5:5", "--seed", "1"],
     "299967eb14d2ac07087b5aa0be331a5e9e86cb6ef16d650df0ea304d1b72cede"),
    (["witness", "--q", "101", "--t", "1", "--set", "random:0.0627:3003",
      "--seed", "1001"],
     "ca8bc007348a88c8cc3668416c91a0309a0024ba0b155d31b8eaf704b8badc3b"),
    (["witness", "--q", "211", "--t", "1", "--set", "random:0.0236:3003",
      "--seed", "1001"],
     "7fc8e591ceef3f88a0fdeada8d9dbdb9ef3a94af285eab6f37df6ae1924eb7eb"),
    (["witness", "--q", "211", "--t", "1", "--set", "full", "--seed", "1001"],
     "6bd58ec631d97f0c69e02907b889e7feabec75a001208905f10d557c2cfdd0f2"),
    (["witness", "--q", "257", "--t", "1", "--set", "full", "--seed", "1"],
     "3098c182f0469e626d8b005ff80c3aa0fd70849f29b2509950da1276920a90eb"),
], ids=["q61-full", "q101-random3", "q101-random4", "q101-random5",
        "q101-no-rhombus", "q211-no-rhombus", "q211-full", "q257-full"])
def test_witness_stream_matches_golden_digest(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert _sha256(out) == digest


# X = 5, 4, 3 descends, yet the points print row-major: these are the bytes
# of line-ap:3:1:3, which names the same set.
@pytest.mark.parametrize("argv,digest", [
    (["gen", "--q", "13", "--set", "line-ap:5:-1:3", "--json"],
     "88df582afa4537a4f64ca82d040a618cf3e5c518679e974a19567e4524a0d95c"),
    (["gen", "--q", "13", "--set", "line-ap:5:-1:3"],
     "20d2e2f633bbdd82df93416c5e72e209f444545dd7f30a91a1d336c54f796290"),
], ids=["json", "text"])
def test_gen_strip_stream_matches_golden_digest(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert _sha256(out) == digest


# Digests of Fourier streams (elapsed_ms dropped, each line re-encoded with
# sorted keys), recorded while the transform returned a Spectrum object and
# par_t_fourier rebuilt fhat(-m) by index gathers; arrays and conj must leave
# every value unchanged.  The q=37 full plane is fourier par_t's largest
# certified instance.
_FOURIER_SLOTS = "random:0.5:0,random:0.5:1,random:0.5:2,random:0.5:3"


@pytest.mark.parametrize("argv,digest", [
    ("fourier --q 13 --circle 1",
     "5f5e8e9ea9174ba378bb2f76d291b72c081994b9e034b1e21fd1187648c62c6a"),
    ("fourier --q 13 --circle 0",
     "75ee3f09fc061767244c1c3f9f213162f0b42cfb54839f427a7853a0b13f2afd"),
    ("fourier --q 11 --set random:0.5:1",
     "15db8910b0050f2fcbbcf423f005a3179345dda0bc9504877e312dd09107d4de"),
    ("fourier --q 7 --set random:0.5:1 --method oracle",
     "7f8672b3610c1b16dfdbd572e89f9e3540cff61de6f98578511ff2828a488183"),
    ("fourier --q 13 --circle 0 --decay",
     "8749c90ad128c528ab4651fd673eea1c1e19aeefe90b126931e7f654e638da48"),
    ("fourier --q 11 --circle 3 --decay",
     "b362adc9400a9d3276e42fdd2880868c953b3ba19a9b17998535fdef85e61a41"),
    (f"count --q 31 --quantity par_t --t 1 --method fourier --set {_FOURIER_SLOTS}",
     "9596f1a28cdb877b0f19a4e2fc9553f037fb38b5f1d0dcaa97c6268b85a43084"),
    ("count --q 37 --quantity par_t --t 1 --method fourier --set full",
     "dae918f1d6b8fc6b2f28079cd33726e9cad2158518c062c64f3fe57d15937302"),
], ids=["q13-circle1", "q13-circle0", "q11-random", "q7-oracle", "q13-decay-isotropic",
        "q11-decay", "count-q31", "count-q37-full"])
def test_fourier_stream_matches_golden_digest(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, argv.split())
    assert rc == 0
    objs = json_lines(out)
    for obj in objs:
        obj.pop("elapsed_ms", None)
    assert _sha256("".join(json.dumps(o, sort_keys=True) + "\n" for o in objs)) == digest


# -- the direct parse and the full parser -----------------------------------------

_VALID_ARGV = {
    "count": ["count", "--q", "7", "--quantity", "par_t", "--t", "1", "--set", "full"],
    "bounds": ["bounds", "--q", "7", "--check", "all", "--all-t", "--trials", "2"],
    "fourier": ["fourier", "--q", "7", "--circle", "1", "--decay"],
    "vc": ["vc", "--q", "7", "--t", "1", "--set", "full", "--cap", "3"],
    "witness": ["witness", "--q", "13", "--t", "1", "--set", "full", "--seed", "5"],
    "bench": ["bench", "--q", "5", "--t", "1", "--runs", "1", "--format", "csv"],
    "gen": ["gen", "--q", "5", "--set", "line-ap:0:1:2", "--json"],
}


def _full_parse(parser, argv):
    """vars() of the full parser's namespace, or None where it exits (help
    or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subcommand_parser_parses_as_the_full_one(command):
    argv = _VALID_ARGV[command]
    one = cli._parse_direct(argv)
    assert one is not None
    assert vars(one) == vars(build_parser().parse_args(argv))
    assert one.command == command
    assert one.func is getattr(cli, f"_cmd_{command}")


def test_benchmark_commands_parse_directly(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    parser = build_parser()
    argvs = [cmd.argv for build, _ in workloads.WORKLOADS.values()
             for seed in (1, 2, 4242) for cmd in build(seed)]
    for argv in argvs:
        args = cli._parse_direct(argv)
        assert args is not None, argv
        assert vars(args) == _full_parse(parser, argv)


def test_every_traced_name_resolves():
    """perfbench's tracer wraps each (module, attribute) of its TRACED
    table, read with getattr and no default, so a name deleted or renamed
    in ffplane breaks the traced benchmark: each must name a callable."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for module, attr, _ in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"ffplane.{module}"), attr, None))]
    assert tracer.TRACED
    assert not missing


_STR_VALUES = ["full", "random:0.5:3", "line-ap:0:1:2", "", "a b", "x=y", "7",
               "all", "auto", "json", "n_t"]
_ODD_TOKENS = ["-h", "--help", "--", "-", "-1", "--bogus", "-q", "--cap",
               "--methods", "--json", "--all-t", "--t", "extra", "full"]
_FAULTS = (None, None, "equals", "abbrev", "value", "value", "missing", "drop",
           "stray", "command")


def _bad_values(opt):
    """Values argparse refuses for opt, or reads as something else: ints
    that int() refuses or accepts in odd forms, a choice not offered, and
    tokens that start with "-"."""
    if opt.type is int:
        odd = [" 7", "0x10", "1_000", "1.5", "x", "", "+3", "\u0663"]
    else:
        odd = ["bogus"] if opt.choices else []
    return odd + ["-x", "--q", "-1", "-"]


@st.composite
def _argvs(draw):
    """Argument lists from the option table: a command's options, each left
    out (unless required), given once or repeated, in any order, with at
    most one fault: an --opt=value form, an abbreviation, a bad value, a
    missing value, a dropped option, a stray token, or a first word that
    names no command."""
    command = draw(st.sampled_from(COMMANDS))
    pieces = []
    for opt in cli._COMMAND_TABLE[command][2]:
        for _ in range(draw(st.sampled_from((1, 1, 2) if opt.required else (0, 1, 2)))):
            if opt.type is bool:
                value = None
            elif opt.choices is not None:
                value = draw(st.sampled_from(opt.choices))
            elif opt.type is int:
                value = str(draw(st.integers(0, 30)))
            else:
                value = draw(st.sampled_from(_STR_VALUES))
            pieces.append((opt, value))
    pieces = draw(st.permutations(pieces))
    tokens = [[opt.flag] if value is None else [opt.flag, value] for opt, value in pieces]
    fault = draw(st.sampled_from(_FAULTS))
    k = draw(st.integers(0, max(len(pieces) - 1, 0)))
    if fault == "command":
        command = draw(st.sampled_from(("nope", "coun", "COUNT", "-h", "--q")))
    elif fault == "stray":
        tokens.insert(k, [draw(st.sampled_from(_ODD_TOKENS))])
    elif pieces:
        opt, value = pieces[k]
        if fault == "equals":
            tokens[k] = [f"{opt.flag}={'1' if value is None else value}"]
        elif fault == "abbrev":
            tokens[k][0] = opt.flag[:draw(st.integers(3, len(opt.flag)))]
        elif fault == "value" and value is not None:
            tokens[k][1] = draw(st.sampled_from(_bad_values(opt)))
        elif fault == "missing" and value is not None:
            del tokens[k][1]
        elif fault == "drop":
            del tokens[k]
    return [command] + [token for piece in tokens for token in piece]


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["vc", "--q", "7", "--t", "1", "--set", "full", "--q", "11", "--t", "2"])
@example(["count", "--q", "7", "--quantity", "bogus", "--set", "full"])
def test_direct_parse_agrees_with_the_full_parser(argv):
    # Wherever the direct parse accepts, the full parser accepts too and
    # gives a namespace of the same vars(); where it declines, main falls
    # back to the full parser, so only acceptance is checked.
    args = cli._parse_direct(argv)
    if args is not None:
        assert vars(args) == _full_parse(build_parser(), argv)


def _outcome(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nope"], ["coun"], ["COUNT"], ["--q", "7", "count"],
    *([command, "-h"] for command in COMMANDS),
    ["count", "--nonsense"],
    ["bounds", "--q", "7", "--trials", "2", "extra"],
    ["count", "--q", "7", "--quantity", "bogus", "--set", "full"],
    ["count", "--q", "x", "--quantity", "n_t", "--set", "full"],
    ["bounds", "--q", "7", "--trials", "1", "--check", "unit-distance", "--form", "csv"],
    # Unrecognised arguments after commands with no --format choice.
    ["vc", "--q", "7", "--t", "1", "--set", "full", "--bogus"],
    ["gen", "--q", "5", "--bogus"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(capsys, argv)
    # With no subcommand names, main parses every argument list with the
    # full parser alone.
    monkeypatch.setattr(cli, "COMMANDS", ())
    assert got == _outcome(capsys, argv)


# Run in a fresh interpreter, where no other test has imported argparse:
# argv 1 is the valid argument lists, as JSON.
_NO_PARSER_SCRIPT = """
import contextlib, io, json, sys
from ffplane import cli

valid = json.loads(sys.argv[1])
assert "argparse" not in sys.modules and "gettext" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    for argv in valid:
        assert cli.main(argv) == 0, argv
assert "argparse" not in sys.modules and "gettext" not in sys.modules

import argparse

built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)

argparse.ArgumentParser.__init__ = counted
with contextlib.redirect_stdout(io.StringIO()):
    for argv in valid:
        assert cli.main(argv) == 0, argv
assert built == [], built
full = ["ffplane"] + ["ffplane " + command for command in cli.COMMANDS]
for argv in (["nope"], ["count", "--q", "13"], ["vc", "-h"]):
    built.clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    assert built == full, (argv, built)
print("ok")
"""


def test_main_builds_no_parser_for_a_valid_command():
    # A valid command imports neither argparse nor gettext and, with
    # argparse imported, builds no parser; an error and help build the full
    # parser.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _NO_PARSER_SCRIPT, json.dumps(list(_VALID_ARGV.values()))],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
