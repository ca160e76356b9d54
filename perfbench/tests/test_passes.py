"""Traced and untraced passes on small inputs: same stdout, correct outputs."""

import json

import pytest

import run
import verify
from workloads import Command, _count

SET = "random:0.5:3"


def small_commands():
    cmds = [Command(*_count(7, qty, 1, [SET])) for qty in
            ("n_t", "par_t", "par", "rhom_t", "degenerate")]
    cmds.append(Command(["bounds", "--q", "5", "--check", "all", "--all-t",
                         "--density", "auto", "--trials", "2", "--seed", "9"],
                        verify.check_bounds(5, 9, 2)))
    cmds.append(Command(["vc", "--q", "7", "--t", "1", "--set", "full"],
                        verify.check_vc(7, 1, "full", expected_dim=3)))
    cmds.append(Command(["witness", "--q", "13", "--t", "1", "--set", "full"],
                        verify.check_witness(13, 1, "full")))
    return cmds


@pytest.fixture(scope="module")
def passes():
    argvs = [c.argv for c in small_commands()]
    env = run.child_env()
    return run.run_pass(argvs, False, env), run.run_pass(argvs, True, env)


def test_traced_stdout_matches_untraced_apart_from_elapsed(passes):
    plain, traced = passes
    commands = small_commands()
    result = run.check_outputs([commands, commands], [plain, traced], [(plain, traced)])
    assert result == (16, 0, [])
    assert any('"elapsed_ms"' in c["stdout"] for c in plain["commands"])


def test_tracer_sees_calls_through_imported_names(passes):
    _, traced = passes
    spans = {s[0]: s for s in traced["spans"]}
    parents = {(s[1], spans[s[4]][1]) for s in spans.values() if s[4] is not None}
    # counting and vc import circle by name; bounds imports gen_random_set.
    assert ("geometry.circle", "counting.count_par_t") in parents
    assert ("geometry.circle", "vc.build_system") in parents
    assert ("geometry.gen_random_set", "bounds.sweep") in parents
    assert ("geometry.difference_table", "counting.count_par_t") in parents


def test_checks_reject_a_wrong_count(passes):
    plain, _ = passes
    cmd = small_commands()[1]
    good = plain["commands"][1]["stdout"]
    assert cmd.check(good) == []
    obj = json.loads(good)
    obj["value"] += 1
    assert cmd.check(json.dumps(obj))


def test_nearest_rank_and_tail():
    values = list(range(1, 41))
    assert run.nearest_rank(values, 50) == 20
    assert run.tail(values) == (75.0, 30)


def test_scale_uses_the_kernel_readings_around_each_command():
    ref = run.REF_S
    result = {"kernel_s": [ref, 2 * ref, ref],
              "commands": [{"ms": 300.0}, {"ms": 150.0}]}
    run.scale(result, 0.5)
    assert [c["scaled_ms"] for c in result["commands"]] == [200.0, 100.0]
    assert result["wall_s"] == 0.95
    assert abs(result["scaled_wall_s"] - 0.8) < 1e-12
