import argparse
import hashlib
import json
import time

import pytest

from ffplane import cli
from ffplane.bounds import CHECK_NAMES
from ffplane.cli import COMMANDS, _line_encoder, _parse_sets, build_parser, main
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import gen_random_set


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
    sets = _parse_sets(ctx, "random:0.5:3,full, random:0.5:3 ,full", 4, 0)
    assert sets[0] is sets[2] and sets[1] is sets[3] and sets[0] != sets[1]
    for token in ("full", "line-ap:0:-1:3", "random:0.5:3"):
        sets = _parse_sets(ctx, token, 4, 0)
        assert all(s is sets[0] for s in sets)
    # Unseeded, slot k draws seed + k, so the slots stay distinct sets.
    unseeded = _parse_sets(ctx, "random:0.5,random:0.5", 2, 9)
    assert unseeded[0] is not unseeded[1]
    assert unseeded == [gen_random_set(ctx, 0.5, 9), gen_random_set(ctx, 0.5, 10)]


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
      "--method", "oracle", "--set", "full"], "oracle method applies to"),
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
])
def test_usage_errors_exit_2(capsys, argv, fragment):
    rc, out, err = run_cli(capsys, argv)
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
    ("par", "oracle,fast"), ("rhom_t", "oracle,fast"), ("degenerate", "fast")])
def test_bench_covers_every_quantity(capsys, quantity, methods):
    rc, out, _ = run_cli(capsys, [
        "bench", "--q", "5", "--t", "1", "--quantity", quantity,
        "--methods", methods, "--density", "0.5", "--runs", "1", "--seed", "3"])
    assert rc == 0
    obj = json_lines(out)[0]
    assert obj["quantity"] == quantity
    assert len(obj["set_sizes"]) == (2 if quantity == "n_t" else 4)
    assert [r["method"] for r in obj["results"]] == methods.split(",")


def test_bench_fourier_allowed_at_cap_boundary(capsys):
    rc, out, _ = run_cli(capsys, [
        "bench", "--q", "31", "--t", "1", "--methods", "fast,fourier",
        "--density", "0.05", "--runs", "1", "--seed", "2"])
    assert rc == 0
    obj = json_lines(out)[0]
    values = {r["method"]: r["value"] for r in obj["results"]}
    assert values["fast"] == values["fourier"]


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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of whole stdout streams, recorded from the implementation before
# the one-pass rhombus terms and the single-write report path, which must
# leave every byte unchanged.
_BOUNDS_ALL = ["bounds", "--q", "13", "--check", "all", "--all-t",
               "--density", "auto", "--trials", "2", "--seed", "0"]


@pytest.mark.parametrize("argv,digest", [
    (_BOUNDS_ALL,
     "01f05016e201d0fb85221bad2288578dfbd307747066c02f4bf34fc5cd18723a"),
    (_BOUNDS_ALL + ["--format", "csv"],
     "a5fecc75f4df3e22992a8e1b440e409e507a6f110ecfe7134b673afb4713fa89"),
    (["bounds", "--q", "7", "--check", "rhom-vs-par", "--trials", "3", "--seed", "4"],
     "c35a96b77858a0039e2fe18a3d5fa85cdc93496c94f7224a5b5c33a59c370294"),
], ids=["all-json", "all-csv", "rhom-vs-par"])
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


# -- one subparser per command -------------------------------------------------

_VALID_ARGV = {
    "count": ["count", "--q", "7", "--quantity", "par_t", "--t", "1", "--set", "full"],
    "bounds": ["bounds", "--q", "7", "--check", "all", "--all-t", "--trials", "2"],
    "fourier": ["fourier", "--q", "7", "--circle", "1", "--decay"],
    "vc": ["vc", "--q", "7", "--t", "1", "--set", "full", "--cap", "3"],
    "witness": ["witness", "--q", "13", "--t", "1", "--set", "full", "--seed", "5"],
    "bench": ["bench", "--q", "5", "--t", "1", "--runs", "1", "--format", "csv"],
    "gen": ["gen", "--q", "5", "--set", "line-ap:0:1:2", "--json"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subcommand_parser_parses_as_the_full_one(command):
    argv = _VALID_ARGV[command]
    one = vars(build_parser(command).parse_args(argv))
    assert one == vars(build_parser().parse_args(argv))
    assert one["command"] == command
    assert one["func"] is getattr(cli, f"_cmd_{command}")


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
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(capsys, argv)
    full = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == _outcome(capsys, argv)


def test_main_builds_only_the_invoked_subparser(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(_VALID_ARGV["vc"]) == 0
    assert built == ["vc"]
    # Errors and top-level help go through the full parser.
    built.clear()
    assert _outcome(capsys, ["nope"])[0] == 2
    assert built == list(COMMANDS)
