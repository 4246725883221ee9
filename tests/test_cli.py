import io
import json
import re

import pytest

from netcalc import Target, analyze, critical_utilization
from netcalc.cli import main
from netcalc.fileio import (
    format_value,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from netcalc.errors import ValidationError
from netcalc.topologies import bi_ring, three_ring, two_server_sink_tree, toy, uni_ring


def test_network_file_round_trip(tmp_path):
    for net in (two_server_sink_tree(), toy(), uni_ring(5, 0.4), bi_ring(3, 0.3)):
        path = str(tmp_path / "net.json")
        save_network(net, path)
        assert load_network(path) == net
        stream = io.StringIO()  # and through open streams
        save_network(net, stream)
        stream.seek(0)
        assert load_network(stream) == net
        # canonical dict round-trips as well
        assert network_from_dict(network_to_dict(net)) == net


def test_save_and_load_leave_an_open_stream_open():
    stream = io.StringIO()
    save_network(toy(), stream)
    assert not stream.closed
    stream.seek(0)
    assert load_network(stream) == toy()
    assert not stream.closed


def test_network_file_round_trip_through_a_pathlib_path(tmp_path):
    path = tmp_path / "net.json"
    save_network(toy(), path)
    assert load_network(path) == toy()


def test_network_file_is_one_indexed(tmp_path):
    path = str(tmp_path / "net.json")
    save_network(two_server_sink_tree(), path)
    with open(path) as stream:
        doc = json.load(stream)
    assert doc["flows"][0]["path"] == [1, 2]


def test_network_file_rejects_garbage():
    with pytest.raises(ValidationError):
        network_from_dict({"servers": [], "flows": "nope"})
    with pytest.raises(ValidationError):
        network_from_dict([1, 2, 3])


@pytest.mark.parametrize("path, message", [
    ([1.7, 2], "path must be a list of integer server ids"),
    ([2.0], "path must be a list of integer server ids"),
    ([True, 2], "path must be a list of integer server ids"),
    ("12", "path must be a list of integer server ids"),
    ([0, 1], "flow 1 crosses server 0, which does not exist (ids run from 1 to 2)"),
    ([1, 3], "flow 1 crosses server 3, which does not exist (ids run from 1 to 2)"),
])
def test_network_file_rejects_bad_path_ids(tmp_path, capsys, path, message):
    doc = network_to_dict(two_server_sink_tree())
    doc["flows"][0]["path"] = path
    with pytest.raises(ValidationError, match=re.escape(message)):
        network_from_dict(doc)
    src = tmp_path / "net.json"
    src.write_text(json.dumps(doc))
    assert main(["analyze", "--network", str(src), "--method", "sd"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("field, value, message", [
    (("servers", 0, "rate"), True, "server 1: rate must be a number, got True"),
    (("servers", 1, "rate"), False, "server 2: rate must be a number, got False"),
    (("servers", 0, "latency"), "0.5", "server 1: latency must be a number, got '0.5'"),
    (("flows", 0, "burst"), True, "flow 1: burst must be a number, got True"),
    (("flows", 0, "rate"), "1", "flow 1: rate must be a number, got '1'"),
    (("servers", 0, "rate"), 10**400, "int too large to convert to float"),
], ids=["true_rate", "false_rate", "string_latency", "true_burst", "string_rate", "huge_int"])
def test_network_file_rejects_non_numbers(tmp_path, capsys, field, value, message):
    # rates, latencies and bursts are JSON numbers: a bool or a string is
    # refused, not read as 1.0, 0.0 or the number it spells
    doc = network_to_dict(two_server_sink_tree())
    kind, index, key = field
    doc[kind][index][key] = value
    with pytest.raises(ValidationError, match="^malformed network file: " + re.escape(message)):
        network_from_dict(doc)
    src = tmp_path / "net.json"
    src.write_text(json.dumps(doc))
    assert main(["analyze", "--network", str(src), "--method", "sd"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


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


@pytest.mark.parametrize("options, expected", [
    (["--kind", "three_ring", "--n", "6", "--short-len", "3", "-u", "0.4"],
     three_ring(0.4, ring_size=6, short_len=3)),
    (["--kind", "toy", "-u", "0.3"], toy(0.3)),
    (["--kind", "two_server_sink_tree", "-u", "0.3"], two_server_sink_tree()),
], ids=["three_ring", "toy", "two_server_sink_tree"])
def test_generate_every_kind(tmp_path, options, expected):
    path = str(tmp_path / "net.json")
    assert main(["generate"] + options + ["-o", path]) == 0
    assert load_network(path) == expected


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "three_ring", "--n", "4", "--short-len", "2", "-u", "0.3"],
    ["sweep", "--kind", "bi_ring", "--n", "3", "--methods", "sd,2s",
     "--u-min", "0.1", "--u-max", "0.3", "--step", "0.1"],
], ids=["generate", "sweep"])
def test_output_path_holds_what_stdout_shows(tmp_path, capsys, argv):
    assert main(argv) == 0
    shown = capsys.readouterr().out
    path = tmp_path / "out"
    assert main(argv + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == shown.encode("utf-8")


def test_sweep_closes_its_output_when_a_write_fails(tmp_path, monkeypatch, capsys):
    streams = []

    def fail(stream, columns, rows):
        streams.append(stream)
        stream.write("U\n")
        raise OSError("no space left")

    monkeypatch.setattr("netcalc.fileio.write_sweep_csv", fail)
    argv = ["sweep", "--kind", "toy", "--methods", "sd", "--u-min", "0.2", "--u-max", "0.3"]
    assert main(argv + ["-o", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == "error: no space left\n"
    assert streams[0].closed


@pytest.mark.parametrize("kind, family", [
    ("toy", toy),
    ("two_server_sink_tree", lambda u: two_server_sink_tree()),
], ids=["toy", "two_server_sink_tree"])
def test_critical_and_sweep_on_the_fixed_kinds(capsys, kind, family):
    for method in ("sd", "td"):
        assert main(["critical", "--kind", kind, "--method", method]) == 0
        assert capsys.readouterr().out == "%.4f\n" % critical_utilization(family, method)
    methods = ("sd", "td", "ag", "2s")
    assert main(["sweep", "--kind", kind, "--methods", ",".join(methods),
                 "--u-min", "0.2", "--u-max", "0.6", "--step", "0.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "U,SD,TD,AG,TWO_STAGE" and len(lines) == 4
    for line in lines[1:]:
        u, *cells = line.split(",")
        net = family(float(u))
        target = Target.backlog(net.num_servers - 1, [0])  # the default: flow 1 at the last server
        fresh = [analyze(net, m, target=target).bound.value for m in methods]
        assert [float(cell) for cell in cells] == pytest.approx(fresh, rel=1e-8)


def test_analyze_ag_text_names_the_arcs(tmp_path, capsys):
    path = str(tmp_path / "ring.json")
    save_network(uni_ring(5, 0.3), path)
    assert main(["analyze", "--network", path, "--method", "ag",
                 "--server", "5", "--flows", "1"]) == 0
    out = capsys.readouterr().out
    report = analyze(uni_ring(5, 0.3), "ag", target=Target.backlog(4, [0]))
    assert report.labels == ((4, 0),)
    assert "  %.9g * arc 5->1\n" % report.objective.Q[0] in out
    assert "fixed-point bursts:\n  arc 5->1: %.9g\n" % report.fixed_point[0] in out


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


@pytest.mark.parametrize("options, message", [
    (["--methods", "sd,xx"], "unknown method 'xx'"),
    (["--u-min", "0.5", "--u-max", "0.4"], "need 0 < u-min < u-max < 1"),
], ids=["unknown_method", "empty_range"])
def test_sweep_rejects_bad_methods_and_range_before_any_analysis(monkeypatch, capsys, options, message):
    def no_analysis(*args, **kwargs):
        raise AssertionError("sweep analyzed a row before checking its options")

    monkeypatch.setattr("netcalc.cli.analyze", no_analysis)
    assert main(["sweep", "--kind", "uni_ring", "--n", "4"] + options) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


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
    with open(dump) as stream:
        first = stream.readline().strip()
    assert first == "t,flow,server,A,B"


@pytest.mark.parametrize("option, value", [
    ("--dt", "nan"), ("--dt", "0"), ("--dt", "-0.01"), ("--dt", "inf"),
    ("--horizon", "inf"), ("--horizon", "nan"), ("--horizon", "0"),
])
def test_simulate_rejects_bad_dt_and_horizon(tmp_path, capsys, option, value):
    src = str(tmp_path / "two_server_sink_tree.json")
    save_network(two_server_sink_tree(), src)
    assert main(["simulate", "--network", src, "--seed", "1", option, value]) == 2
    name = option.lstrip("-")
    assert capsys.readouterr().err == "error: %s must be finite and positive, got %r\n" % (
        name, float(value))


def test_simulate_rejects_a_negative_seed(tmp_path, capsys):
    src = str(tmp_path / "two_server_sink_tree.json")
    save_network(two_server_sink_tree(), src)
    assert main(["simulate", "--network", src, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: random seed must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("dt", ["5e-324", "1e-9"])
def test_simulate_rejects_an_oversized_grid(tmp_path, capsys, dt):
    src = str(tmp_path / "two_server_sink_tree.json")
    save_network(two_server_sink_tree(), src)
    assert main(["simulate", "--network", src, "--seed", "1", "--dt", dt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon ") and err.endswith(" grid steps\n")


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
    assert "feed-forward" in capsys.readouterr().err


def test_analyze_json_on_a_diverging_recursion(tmp_path, capsys):
    path = str(tmp_path / "ring.json")
    save_network(uni_ring(10, 0.5), path)
    assert main(["analyze", "--network", path, "--method", "sd", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["fixed_point"] is None
    assert doc["bound"] is None
    assert doc["verdict"] == "unstable"
