import json

import pytest

from fpselberg import cli
from fpselberg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_s(capsys):
    code, out, _ = run(capsys, "eval", "s", "--p", "5", "--k", "1,1",
                       "--a", "1", "--b", "3,2", "--c", "2")
    assert code == 0
    assert out.strip() == "3"


def test_eval_r_json(capsys):
    code, out, _ = run(capsys, "eval", "r", "--p", "5", "--k", "1",
                       "--a", "2", "--b", "2", "--c", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["point"] == {"a": 2, "b": [2], "c": 1}


def test_eval_r_undefined(capsys):
    code, out, _ = run(capsys, "eval", "r", "--p", "5", "--k", "1",
                       "--a", "1", "--b", "1", "--c", "1")
    assert code == 0
    assert out.startswith("undefined:")


def test_check_pass_and_json_schema(capsys):
    code, out, _ = run(capsys, "check", "beta", "--p", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["campaign", "p", "k", "total", "checked", "passed",
                             "skipped", "failures", "elapsed_ms", "seed"]
    assert payload["passed"] == 25


def test_check_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "beta", "--p", "5", "--json", str(out_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["campaign"] == "beta" and payload["passed"] == 25


def test_check_exhaustive_flag(capsys):
    code, out, _ = run(capsys, "check", "dyson", "--p", "7", "--exhaustive", "--json")
    assert code == 0
    assert json.loads(out)["seed"] is None


def test_check_human_readable(capsys):
    code, out, _ = run(capsys, "check", "dyson", "--p", "7")
    assert code == 0
    assert out.startswith("[PASS] dyson p=7")


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "5", "--k", "1", "--count-only")
    assert code == 0
    assert out.strip() == "36"


def test_enumerate_json_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "5", "--k", "1",
                       "--limit", "3", "--json")
    assert code == 0
    pts = json.loads(out)
    assert len(pts) == 3
    assert set(pts[0]) == {"a", "b", "c"}


def test_enumerate_limit_zero_and_three(capsys):
    # --limit 0 used to print 1: the limit was checked after the first point
    for limit, count in (("0", "0"), ("3", "3")):
        code, out, _ = run(capsys, "enumerate", "--p", "7", "--k", "2,1",
                           "--limit", limit, "--count-only")
        assert code == 0
        assert out.strip() == count


def test_negative_limit_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--p", "7", "--k", "2,1", "--limit", "-3", "--count-only"])
    assert exc.value.code == 2
    assert "--limit must be at least 0" in capsys.readouterr().err


def test_bad_prime_exits_2(capsys):
    code, _, err = run(capsys, "eval", "s", "--p", "6", "--k", "1",
                       "--a", "1", "--b", "1", "--c", "1")
    assert code == 2
    assert "error:" in err


def test_bad_campaign_k_exits_2(capsys):
    # a missing k, and a k that beta would never read
    for argv in (["main", "--p", "7"], ["beta", "--p", "5", "--k", "2,1", "--json"]):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and out == ""
        assert "error:" in err


def test_jobs_below_one_exits_2(capsys):
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "beta", "--p", "5", "--jobs", bad])
        assert exc.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err


def test_negative_samples_exit_2(capsys):
    # a negative count used to print "total": -3 (stokes) or fail in the sampler (main)
    for argv in (["stokes", "--p", "7"], ["main", "--p", "7", "--k", "2,1"]):
        with pytest.raises(SystemExit) as exc:
            main(["check", *argv, "--samples", "-3", "--json"])
        assert exc.value.code == 2
        assert "--samples must be at least 0" in capsys.readouterr().err


def test_samples_on_a_campaign_without_sampler_exit_2(capsys):
    code, out, err = run(capsys, "check", "beta", "--p", "5", "--samples", "3",
                         "--seed", "9", "--json")
    assert code == 2 and out == ""
    assert "beta sweeps every point" in err
    code, out, _ = run(capsys, "check", "stokes", "--p", "5", "--samples", "3",
                       "--seed", "9", "--json")
    assert code == 0
    assert (json.loads(out)["total"], json.loads(out)["seed"]) == (3, 9)


def test_jobs_clamped_to_cpu_count(monkeypatch):
    # parsing only: no campaign runs and no worker starts
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    parser = cli._build_parser()
    assert parser.parse_args(["check", "beta", "--p", "5", "--jobs", "3"]).jobs == 2
    assert parser.parse_args(["check", "beta", "--p", "5", "--jobs", "1"]).jobs == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert parser.parse_args(["check", "beta", "--p", "5", "--jobs", "2"]).jobs == 1
