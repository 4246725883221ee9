import json

import pytest

from netcalc import Target, analyze
from netcalc.cli import main
from netcalc.fileio import (
    format_value,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from netcalc.errors import ValidationError
from netcalc.topologies import bi_ring, two_server_sink_tree, toy, uni_ring


def test_network_file_round_trip(tmp_path):
    for net in (two_server_sink_tree(), toy(), uni_ring(5, 0.4), bi_ring(3, 0.3)):
        path = str(tmp_path / "net.json")
        save_network(net, path)
        assert load_network(path) == net
        # canonical dict round-trips as well
        assert network_from_dict(network_to_dict(net)) == net


def test_network_file_is_one_indexed(tmp_path):
    path = str(tmp_path / "net.json")
    save_network(two_server_sink_tree(), path)
    doc = json.load(open(path))
    assert doc["flows"][0]["path"] == [1, 2]


def test_network_file_rejects_garbage():
    with pytest.raises(ValidationError):
        network_from_dict({"servers": [], "flows": "nope"})
    with pytest.raises(ValidationError):
        network_from_dict([1, 2, 3])


def test_format_value():
    assert format_value(None) == "inf"
    assert format_value(float("inf")) == "inf"
    assert format_value(1.23456789012) == "1.23456789"
    assert format_value(1000.0) == "1000"


def test_generate_and_analyze(tmp_path, capsys):
    path = str(tmp_path / "ring.json")
    assert main(["generate", "--kind", "uni_ring", "--n", "6", "-u", "0.3", "-o", path]) == 0
    net = load_network(path)
    assert net.num_servers == 6
    assert main(["analyze", "--network", path, "--method", "td",
                 "--server", "6", "--flows", "1"]) == 0
    out = capsys.readouterr().out
    assert "verdict: stable" in out
    report = analyze(net, "td", target=Target.backlog(5, [0]))
    assert "%.9g" % report.bound.value in out


def test_analyze_json_output(tmp_path, capsys):
    path = str(tmp_path / "two_server_sink_tree.json")
    save_network(two_server_sink_tree(), path)
    assert main(["analyze", "--network", path, "--method", "td", "--flow", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "stable"
    assert doc["bound"] == pytest.approx(19 / 6, abs=1e-9)


def test_analyze_unstable_exit_code(tmp_path, capsys):
    path = str(tmp_path / "hot.json")
    save_network(uni_ring(4, 0.9), path)
    assert main(["analyze", "--network", path, "--method", "sd",
                 "--server", "4", "--flows", "1"]) == 3
    assert "unstable" in capsys.readouterr().out


def test_analyze_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--network", str(bad), "--method", "td"]) == 2
    assert main(["analyze", "--network", str(tmp_path / "missing.json"), "--method", "td"]) == 2


@pytest.mark.parametrize("ids, message", [
    (["--server", "0"], "server 0 does not exist"),
    (["--server", "7"], "server 7 does not exist"),
    (["--flows", "0"], "flow 0 does not exist"),
    (["--flows", "1,7"], "flow 7 does not exist"),
    (["--flow", "0"], "flow 0 does not exist"),
    (["--flows", "x"], "flow id 'x' is not an integer"),
])
def test_analyze_rejects_out_of_range_ids(tmp_path, capsys, ids, message):
    # ids are 1-indexed: 0 is never a server or flow, not a default
    path = str(tmp_path / "ring.json")
    save_network(uni_ring(6, 0.3), path)
    assert main(["analyze", "--network", path, "--method", "td"] + ids) == 2
    assert message in capsys.readouterr().err


def test_analyze_options_do_not_carry_over_between_calls(tmp_path, capsys):
    # main reuses one parser per process: a second call without --server and
    # --flows must fall back to the default target, flow 1 at the last server
    path = str(tmp_path / "ring.json")
    save_network(uni_ring(6, 0.3), path)
    assert main(["analyze", "--network", path, "--method", "td",
                 "--server", "2", "--flows", "1,2", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["target"] == "backlog of flows {1,2} at server 2"
    assert main(["analyze", "--network", path, "--method", "td", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["target"] == "backlog of flows {1} at server 6"
    fresh = analyze(load_network(path), "td", target=Target.backlog(5, [0]))
    assert second["bound"] == pytest.approx(fresh.bound.value, rel=1e-12)


@pytest.mark.parametrize("step", ["0", "-0.05", "nan"])
def test_sweep_rejects_bad_step_before_any_analysis(monkeypatch, capsys, step):
    def no_analysis(*args, **kwargs):
        raise AssertionError("sweep analyzed a row before checking --step")

    monkeypatch.setattr("netcalc.cli.analyze", no_analysis)
    assert main(["sweep", "--kind", "uni_ring", "--n", "4", "--step", step]) == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("step, reason", [("1e-300", "too small"), ("1e-15", "rows")])
def test_sweep_rejects_step_without_end_before_any_analysis(monkeypatch, capsys, step, reason):
    # 1e-300 never moves u (an endless loop); 1e-15 asks for about 1e15 rows
    def no_analysis(*args, **kwargs):
        raise AssertionError("sweep analyzed a row before checking --step")

    monkeypatch.setattr("netcalc.cli.analyze", no_analysis)
    assert main(["sweep", "--kind", "uni_ring", "--n", "4", "--step", step]) == 2
    err = capsys.readouterr().err
    assert "step" in err and reason in err


def test_sweep_format_and_consistency(capsys):
    assert main([
        "sweep", "--kind", "uni_ring", "--n", "5", "--methods", "sd,td,ag",
        "--u-min", "0.1", "--u-max", "0.3", "--step", "0.1",
        "--server", "5", "--flows", "1",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "U,SD,TD,AG"
    assert len(lines) == 4
    us = []
    for line in lines[1:]:
        cells = line.split(",")
        u = float(cells[0])
        us.append(u)
        # no caching drift: each finite cell equals a fresh analysis
        net = uni_ring(5, u)
        for cell, method in zip(cells[1:], ("sd", "td", "ag")):
            fresh = analyze(net, method, target=Target.backlog(4, [0])).bound
            if cell == "inf":
                assert not fresh.is_finite
            else:
                assert float(cell) == pytest.approx(fresh.value, rel=1e-8)
    assert us == sorted(us)


def test_sweep_columns_until_divergence(capsys):
    assert main([
        "sweep", "--kind", "uni_ring", "--n", "4", "--methods", "td",
        "--u-min", "0.1", "--u-max", "0.9", "--step", "0.2",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    finite = [float(l.split(",")[1]) for l in lines[1:] if l.split(",")[1] != "inf"]
    assert finite == sorted(finite)  # bounds grow with utilization
    assert any(l.split(",")[1] == "inf" for l in lines[1:])  # and eventually diverge


def test_sweep_bi_ring_ag_all_inf(capsys):
    assert main([
        "sweep", "--kind", "bi_ring", "--n", "4", "--methods", "ag",
        "--u-min", "0.1", "--u-max", "0.3", "--step", "0.1",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.split(",")[1] == "inf" for line in lines[1:])


def test_generated_ring_local_stability_iff_below_one():
    from netcalc import local_stability

    for n in (3, 10):
        assert local_stability(uni_ring(n, 0.999)).stable
        assert not local_stability(uni_ring(n, 1.0)).stable


def test_generate_heterogeneous_ring_rates():
    net = uni_ring(10, 0.5, heterogeneous=True)
    assert [s.rate for s in net.servers[:8]] == [40.0] * 8
    assert [s.rate for s in net.servers[8:]] == [20.0, 20.0]


def test_critical_command(capsys):
    assert main(["critical", "--kind", "uni_ring", "--n", "5", "--method", "sd"]) == 0
    value = float(capsys.readouterr().out)
    assert 0.0 < value < 1.0


def test_simulate_command(tmp_path, capsys):
    src = str(tmp_path / "two_server_sink_tree.json")
    save_network(two_server_sink_tree(), src)
    dump = str(tmp_path / "traj.csv")
    assert main(["simulate", "--network", src, "--seed", "1", "--horizon", "4",
                 "--dt", "0.005", "-o", dump]) == 0
    out = capsys.readouterr().out
    assert "observed max backlog" in out
    assert "arrival curves respected: True" in out
    assert "strict service respected: True" in out
    first = open(dump).readline().strip()
    assert first == "t,flow,server,A,B"


def test_simulate_rejects_out_of_range_ids(tmp_path, capsys):
    src = str(tmp_path / "two_server_sink_tree.json")
    save_network(two_server_sink_tree(), src)
    assert main(["simulate", "--network", src, "--server", "0"]) == 2
    assert "server 0 does not exist" in capsys.readouterr().err
    assert main(["simulate", "--network", src, "--flows", "0"]) == 2
    assert "flow 0 does not exist" in capsys.readouterr().err
    assert main(["simulate", "--network", src, "--flows", "1,a"]) == 2
    assert "flow id 'a' is not an integer" in capsys.readouterr().err


def test_simulate_rejects_cyclic(tmp_path, capsys):
    src = str(tmp_path / "ring.json")
    save_network(uni_ring(3, 0.5), src)
    assert main(["simulate", "--network", src]) == 2
