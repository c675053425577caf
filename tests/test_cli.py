import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpdefect

from dpdefect import (
    CapacityFunction,
    DefectParams,
    SimpleGraph,
    WeightedInstance,
    flag_path_instance,
    serialize_instance,
)
from dpdefect.cli import main
from conftest import cycle_graph


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, name, instance, signing=None):
    path = tmp_path / name
    path.write_text(serialize_instance(instance, signing))
    return str(path)


def test_construct_solve_pipeline(tmp_path, capsys):
    out = str(tmp_path / "g1.dpg")
    code, _, _ = run(capsys, ["construct", "--i", "1", "--j", "2", "--m", "1",
                              "--cover", "-o", out])
    assert code == 0
    code, stdout, _ = run(capsys, ["solve", out])
    assert code == 1
    assert "not colorable" in stdout


def test_construct_counts_header(tmp_path, capsys):
    code, stdout, _ = run(capsys, ["construct", "--i", "2", "--j", "4", "--m", "1",
                                   "--json"])
    assert code == 0
    payload = json.loads(stdout)
    assert (payload["vertices"], payload["edges"]) == (33, 56)


def test_solve_colorable_prints_map(tmp_path, capsys):
    text = "dpgraph 1\nparams i=0 j=0\nvertices 2\nedge 0 1 P\n"
    path = tmp_path / "k2.dpg"
    path.write_text(text)
    code, stdout, _ = run(capsys, ["solve", str(path)])
    assert code == 0
    assert "colorable" in stdout and ("PR" in stdout or "RP" in stdout)


def test_solve_requires_signs(tmp_path, capsys):
    text = "dpgraph 1\nparams i=0 j=0\nvertices 2\nedge 0 1\n"
    path = tmp_path / "k2.dpg"
    path.write_text(text)
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == 2
    assert "cover signs" in err


def test_check_valid_and_violating(tmp_path, capsys):
    text = "dpgraph 1\nparams i=0 j=0\nvertices 2\nedge 0 1 P\n"
    path = tmp_path / "k2.dpg"
    path.write_text(text)
    code, stdout, _ = run(capsys, ["check", str(path), "--map", "PR"])
    assert code == 0 and "valid" in stdout
    code, stdout, _ = run(capsys, ["check", str(path), "--map", "PP", "--json"])
    assert code == 1
    payload = json.loads(stdout)
    assert payload["verdict"] == "violation"
    assert payload["violation"]["vertex"] == 0
    assert payload["violation"]["defect"] == 1


def test_check_rejects_bad_map(tmp_path, capsys):
    text = "dpgraph 1\nparams i=0 j=0\nvertices 2\nedge 0 1 P\n"
    path = tmp_path / "k2.dpg"
    path.write_text(text)
    code, _, err = run(capsys, ["check", str(path), "--map", "PX"])
    assert code == 2


def test_potential_commands(tmp_path, capsys):
    inst = WeightedInstance.uniform(
        SimpleGraph.from_edges(2, [(0, 1)]), DefectParams(1, 2)
    )
    path = write_instance(tmp_path, "k2.dpg", inst)
    code, stdout, _ = run(capsys, ["potential", path, "--json"])
    assert code == 0 and json.loads(stdout)["value"] == 4
    code, stdout, _ = run(capsys, ["potential", path, "--subset", "0"])
    assert code == 0 and ": 3" in stdout
    code, stdout, _ = run(capsys, ["potential", path, "--min", "nonempty", "--json"])
    assert json.loads(stdout)["value"] == 3


def test_charges_and_sparsity(tmp_path, capsys):
    inst = WeightedInstance.uniform(
        SimpleGraph.from_edges(2, [(0, 1)]), DefectParams(1, 2)
    )
    path = write_instance(tmp_path, "k2.dpg", inst)
    code, stdout, _ = run(capsys, ["charges", path])
    assert code == 0 and "residual = 0" in stdout
    code, stdout, _ = run(capsys, ["sparsity", path])
    assert code == 0 and "sparse" in stdout

    code, _, _ = run(capsys, ["construct", "--i", "1", "--j", "2", "--m", "1",
                              "-o", str(tmp_path / "g1.dpg")])
    assert code == 0
    code, stdout, _ = run(capsys, ["sparsity", str(tmp_path / "g1.dpg"), "--json"])
    assert code == 1
    payload = json.loads(stdout)
    assert payload["verdict"] == "dense" and payload["margin"] == 1


def test_critical_exhaustive_certifies(tmp_path, capsys):
    inst = WeightedInstance(
        SimpleGraph(1, frozenset()), DefectParams(1, 2),
        CapacityFunction(((-1, -1),)),
    )
    path = write_instance(tmp_path, "one.dpg", inst)
    code, stdout, _ = run(capsys, ["critical", path, "--json"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["verdict"] == "critical" and payload["certifying"]


def test_critical_sampled_never_certifies(capsys):
    code, stdout, _ = run(capsys, ["critical", "--construct", "1,2,1",
                                   "--strategy", "sampled", "--count", "50",
                                   "--seed", "4", "--json"])
    assert code == 1
    payload = json.loads(stdout)
    assert payload["certifying"] is False


def test_enumerate_consistent(capsys):
    code, stdout, _ = run(capsys, ["enumerate", "--i", "1", "--j", "2", "--n", "3",
                                   "--json"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["verdict"] == "consistent"
    assert payload["critical_found"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["potential", "K2", "--subset", "0,0"],
        ["potential", "K2", "--subset", "0,\u0661"],
        ["potential", "K2", "--subset", "+1"],
        ["verify", "--pairs", "1,\u0662"],
        ["verify", "--pairs", "1,2,3"],
        ["verify", "--ms", "\u0661"],
        ["verify", "--ms", "0_1"],
        ["verify", "--criticality", "1,2"],
        ["verify", "--criticality", "1,2,\u0661"],
        ["critical", "--construct", "1,2,\u0661", "--strategy", "reduced"],
        ["critical", "--construct", "1,2", "--strategy", "reduced"],
        ["critical", "--construct", "1,2,1;1,2,1", "--strategy", "reduced"],
        # options that would otherwise be ignored
        ["potential", "K2", "--subset", "0", "--min", "nonempty"],
        ["potential", "K2", "--subset", "0,1", "--min", "proper"],
        ["critical", "K2", "--construct", "1,2,1", "--strategy", "reduced"],
        ["critical", "K2", "--workers", "0"],
        ["critical", "K2", "--workers", "-4"],
        ["critical", "--construct", "1,2,1", "--strategy", "reduced", "--workers", "0"],
    ],
    ids=" ".join,
)
def test_cli_integer_lists_follow_the_file_grammar(tmp_path, capsys, argv):
    inst = WeightedInstance.uniform(
        SimpleGraph.from_edges(2, [(0, 1)]), DefectParams(1, 2)
    )
    path = write_instance(tmp_path, "k2.dpg", inst)
    code, stdout, err = run(capsys, [path if a == "K2" else a for a in argv])
    assert code == 2 and stdout == "" and err.startswith("error: ")


def test_verify_default(capsys):
    code, stdout, _ = run(capsys, ["verify", "--pairs", "1,2;1,3", "--ms", "1"])
    assert code == 0
    assert "all checks pass" in stdout


def test_json_runs_byte_identical(capsys):
    argv = ["critical", "--construct", "1,2,1", "--strategy", "sampled",
            "--count", "60", "--seed", "7", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2

    argv = ["verify", "--pairs", "1,2", "--ms", "1", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, ["solve", "/nonexistent/file.dpg"])
    assert code == 2 and "cannot read" in err


def test_malformed_file_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.dpg"
    path.write_text("dpgraph 1\nparams i=1 j=2\nvertices 2\nedge 0 0 P\n")
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == 2 and "line 4" in err


def test_non_ascii_vertex_count_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.dpg"
    path.write_text("dpgraph 1\nparams i=1 j=2\nvertices \u00b2\n", encoding="utf-8")
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == 2 and "line 3" in err


@pytest.mark.parametrize(
    "body",
    [
        "params i=1 j=2\nvertices 2\ncap \u0661 0 0\nedge 0 1 P\n",
        "params i=1 j=2\nvertices 2\nedge 0 \u0661 P\n",
        "params i=\u0661 j=2\nvertices 2\nedge 0 1 P\n",
        "params i=1 j=2\nvertices 1000000000\nedge 0 1 P\n",
    ],
)
def test_bad_integer_fields_are_input_errors(tmp_path, capsys, body):
    path = tmp_path / "bad.dpg"
    path.write_text("dpgraph 1\n" + body, encoding="utf-8")
    code, stdout, err = run(capsys, ["solve", str(path)])
    assert code == 2 and stdout == "" and "line" in err


# Exact --json stdout of fixed commands.  C3 is the triangle at (0, 0) and
# G121 the (1,2,1) flag-path host, both unsigned.  Under `reduced`,
# nodes_expanded counts the search nodes of the witness cross-check.
GOLDEN_JSON = [
    (
        ["verify", "--pairs", "1,2;1,3", "--ms", "1,2"],
        '{"command":"verify","entries":[{"counts_ok":true,"criticality":null,'
        '"i":1,"j":2,"m":1,"ok":true,"potential_ok":null,"uncolorable":true},'
        '{"counts_ok":true,"criticality":null,"i":1,"j":2,"m":2,"ok":true,'
        '"potential_ok":null,"uncolorable":true},{"counts_ok":true,'
        '"criticality":null,"i":1,"j":3,"m":1,"ok":true,"potential_ok":null,'
        '"uncolorable":true},{"counts_ok":true,"criticality":null,"i":1,"j":3,'
        '"m":2,"ok":true,"potential_ok":null,"uncolorable":true}],'
        '"verdict":"pass"}',
    ),
    (
        ["critical", "--construct", "1,2,1", "--strategy", "reduced"],
        '{"certifying":true,"command":"critical","counters":{"classes":7,'
        '"edges_checked":3,"nodes_expanded":436,"signings":1},'
        '"failing_edge":null,'
        '"instance_digest":"c30256ae233fccf5d266a81f4143d88358bfaa4c4ee87001c2a594fb68e9f3c8",'
        '"params":{"i":1,"j":2},"strategy":"reduced","verdict":"critical",'
        '"witness":{"edges":[[0,1],[0,2],[0,3],[0,4],[0,5],[0,6],[0,7],[0,8],[0,'
        '9],[0,10],[0,11],[0,12],[0,13],[0,14],[0,15],[1,2],[1,3],[4,5],[4,6],[7,'
        '8],[7,9],[10,11],[10,12],[13,14],[13,15]],'
        '"signs":"PPPPPPPPPTTTTTTPPPPPPPPPP"}}',
    ),
    (
        ["critical", "--construct", "1,2,1", "--strategy", "sampled",
         "--count", "300", "--seed", "17"],
        '{"certifying":false,"command":"critical","counters":{"classes":300,'
        '"edges_checked":0,"nodes_expanded":20507,"signings":300},'
        '"failing_edge":null,'
        '"instance_digest":"c30256ae233fccf5d266a81f4143d88358bfaa4c4ee87001c2a594fb68e9f3c8",'
        '"params":{"i":1,"j":2},"strategy":"sampled","verdict":"colorable",'
        '"witness":null}',
    ),
    (
        ["critical", "C3", "--strategy", "exhaustive"],
        '{"certifying":true,"command":"critical","counters":{"classes":13,'
        '"edges_checked":3,"nodes_expanded":58,"signings":13},'
        '"failing_edge":null,'
        '"instance_digest":"eebff25d62b24baa6ba5600f7b70a236c7a6d8bd81a4af982ce2613d236729f9",'
        '"params":{"i":0,"j":0},"strategy":"exhaustive","verdict":"critical",'
        '"witness":{"edges":[[0,1],[0,2],[1,2]],"signs":"PPP"}}',
    ),
    (
        ["enumerate", "--i", "1", "--j", "2", "--n", "3"],
        '{"bound_min_edges":6,"command":"enumerate","critical_found":0,'
        '"graphs_examined":4,"min_edges":null,"mode":"uniform","n":3,'
        '"pairs_examined":4,"params":{"i":1,"j":2},"potential_violations":0,'
        '"sparsity_violations":0,"verdict":"consistent"}',
    ),
    (
        ["enumerate", "--i", "1", "--j", "2", "--n", "3", "--mode", "weighted"],
        '{"bound_min_edges":6,"command":"enumerate","critical_found":493,'
        '"graphs_examined":4,"min_edges":2,"mode":"weighted","n":3,'
        '"pairs_examined":6912,"params":{"i":1,"j":2},"potential_violations":0,'
        '"sparsity_violations":0,"verdict":"consistent"}',
    ),
    (
        ["sparsity", "G121"],
        '{"command":"sparsity",'
        '"instance_digest":"c30256ae233fccf5d266a81f4143d88358bfaa4c4ee87001c2a594fb68e9f3c8",'
        '"margin":1,"params":{"i":1,"j":2},"verdict":"dense",'
        '"witness":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]}',
    ),
    (
        ["potential", "G121", "--min", "proper"],
        '{"command":"potential",'
        '"instance_digest":"c30256ae233fccf5d266a81f4143d88358bfaa4c4ee87001c2a594fb68e9f3c8",'
        '"mode":"nonempty-proper","params":{"i":1,"j":2},'
        '"subset":[0,1,2,3,4,5,6,7,8,9,10,11,12],"value":-1}',
    ),
    (
        ["sample", "G121", "--count", "500", "--seed", "7"],
        '{"command":"sample","count":500,"examined":500,'
        '"instance_digest":"c30256ae233fccf5d266a81f4143d88358bfaa4c4ee87001c2a594fb68e9f3c8",'
        '"params":{"i":1,"j":2},"seed":7,"verdict":"no-witness","witness":null}',
    ),
    (
        ["sample", "C3", "--count", "500", "--seed", "7"],
        '{"command":"sample","count":500,"examined":4,'
        '"instance_digest":"eebff25d62b24baa6ba5600f7b70a236c7a6d8bd81a4af982ce2613d236729f9",'
        '"params":{"i":0,"j":0},"seed":7,"verdict":"witness-found",'
        '"witness":{"edges":[[0,1],[0,2],[1,2]],"signs":"TTP"}}',
    ),
]


@pytest.mark.parametrize(
    "argv,stdout", GOLDEN_JSON, ids=[" ".join(argv) for argv, _ in GOLDEN_JSON]
)
def test_json_stdout_is_pinned(tmp_path, capsys, argv, stdout):
    files = {
        "C3": write_instance(
            tmp_path, "c3.dpg", WeightedInstance.uniform(cycle_graph(3), DefectParams(0, 0))
        ),
        "G121": write_instance(
            tmp_path, "g121.dpg", flag_path_instance(DefectParams(1, 2), 1)[0]
        ),
    }
    _, out, _ = run(capsys, [files.get(a, a) for a in argv] + ["--json"])
    assert out == stdout + "\n"


def test_weighted_enumerate_runs_without_numpy():
    # A None entry in sys.modules makes `import numpy` raise ImportError.
    argv = ["enumerate", "--i", "1", "--j", "2", "--n", "3", "--mode", "weighted", "--json"]
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from dpdefect.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(dpdefect.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == next(out for a, out in GOLDEN_JSON if a == argv[:-1]) + "\n"
