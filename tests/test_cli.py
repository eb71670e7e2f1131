import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import isinglearn
from isinglearn import cli, load_model, read_samples_text
from isinglearn.cli import main


@pytest.fixture
def workspace(tmp_path):
    model = tmp_path / "model.json"
    samples = tmp_path / "samples.txt"
    assert main(["gen-model", "--grid", "3", "--beta", "0.7",
                 "--out", str(model)]) == 0
    assert main(["sample", "--model", str(model), "--n", "50000",
                 "--seed", "7", "--out", str(samples)]) == 0
    return tmp_path, model, samples


def test_gen_sample_learn_pipeline(workspace):
    tmp_path, model_path, samples_path = workspace
    result_path = tmp_path / "result.json"
    rc = main(["learn", "--samples", str(samples_path), "--threshold", "0.5",
               "--out", str(result_path)])
    assert rc == 0
    doc = json.loads(result_path.read_text())
    assert set(doc) == {"lambda", "threshold", "edges", "node_reports",
                        "stages", "distinct_configurations", "compression"}
    assert doc["lambda"] == pytest.approx(0.05211922859565606, rel=1e-15)
    model = load_model(str(model_path))
    got = {(e["i"], e["j"]) for e in doc["edges"]}
    assert got == set(model.couplings)
    for e in doc["edges"]:
        assert e["weight"] == pytest.approx(0.7, abs=0.3)
    assert all(r["converged"] for r in doc["node_reports"])


def test_learn_reads_lambda_override(workspace, capsys):
    _, _, samples_path = workspace
    rc = main(["learn", "--samples", str(samples_path), "--threshold", "0.5",
               "--lambda", "0.05211922859565606"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == 0.05211922859565606
    assert len(doc["edges"]) == 18


def test_fit_large_penalty_zeroes_out(workspace, capsys):
    _, _, samples_path = workspace
    rc = main(["fit", "--samples", str(samples_path), "--node", "4",
               "--lambda", "2.0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["u"] == 4
    assert doc["others"] == [0, 1, 2, 3, 5, 6, 7, 8]
    assert doc["theta_hat"] == [0.0] * 8
    assert doc["iterations"] == 0
    assert doc["converged"] is True
    assert list(doc)[-5:] == ["saturated", "evaluations", "backtracks",
                              "restarts", "stalls"]
    assert [doc[k] for k in list(doc)[-4:]] == [1, 0, 0, 0]


@pytest.mark.parametrize("command", ["fit", "learn"])
def test_fit_unreachable_tolerance_exits_4(tmp_path, command):
    model = tmp_path / "m.json"
    samples = tmp_path / "s.txt"
    assert main(["gen-model", "--grid", "2", "--beta", "0.6",
                 "--out", str(model)]) == 0
    assert main(["sample", "--model", str(model), "--n", "500", "--seed", "3",
                 "--out", str(samples)]) == 0
    out = tmp_path / "fit.json"
    how = (["--node", "0", "--lambda", "0.01"] if command == "fit"
           else ["--threshold", "0.3"])
    rc = main([command, "--samples", str(samples), *how,
               "--kkt-tol", "1e-300", "--out", str(out)])
    assert rc == 4
    doc = json.loads(out.read_text())  # output written despite the flag
    reports = [doc] if command == "fit" else doc["node_reports"]
    assert not all(r["converged"] for r in reports)


def test_binary_and_text_samples_agree(tmp_path, capsys):
    model = tmp_path / "m.json"
    assert main(["gen-model", "--grid", "2", "--beta", "0.8",
                 "--out", str(model)]) == 0
    text_path = tmp_path / "s.txt"
    bin_path = tmp_path / "s.bin"
    assert main(["sample", "--model", str(model), "--n", "2000", "--seed", "9",
                 "--out", str(text_path)]) == 0
    assert main(["sample", "--model", str(model), "--n", "2000", "--seed", "9",
                 "--binary", "--out", str(bin_path)]) == 0
    assert bin_path.read_bytes()[:4] == b"ISNG"
    capsys.readouterr()  # drain the sample-command status lines
    thetas = []
    for path in (text_path, bin_path):
        assert main(["fit", "--samples", str(path), "--node", "1",
                     "--lambda", "0.1"]) == 0
        thetas.append(json.loads(capsys.readouterr().out)["theta_hat"])
    assert thetas[0] == thetas[1]


def test_learn_reads_a_binary_file_without_decoding_rows(tmp_path,
                                                         monkeypatch):
    model = tmp_path / "m.json"
    samples = tmp_path / "s.bin"
    out = tmp_path / "result.json"
    assert main(["gen-model", "--grid", "3", "--beta", "0.7",
                 "--out", str(model)]) == 0
    assert main(["sample", "--model", str(model), "--n", "20000",
                 "--seed", "5", "--binary", "--out", str(samples)]) == 0
    kept = []
    read = cli.read_samples_binary

    def keeping(path):
        kept.append(read(path))
        return kept[-1]

    monkeypatch.setattr(cli, "read_samples_binary", keeping)
    assert main(["learn", "--samples", str(samples), "--threshold", "0.5",
                 "--out", str(out)]) == 0
    assert "data" not in vars(kept[0])
    doc = json.loads(out.read_text())
    distinct = kept[0].tally.spins.shape[1]
    assert doc["distinct_configurations"] == distinct
    assert doc["compression"] == 20000 / distinct
    assert set(doc["stages"]) == {"read_s", "tally_s", "solve_s",
                                  "threshold_s"}
    assert all(t >= 0 for t in doc["stages"].values())


def test_glauber_sampling_via_cli(tmp_path):
    model = tmp_path / "m.json"
    out = tmp_path / "s.txt"
    assert main(["gen-model", "--grid", "2", "--beta", "0.5",
                 "--out", str(model)]) == 0
    rc = main(["sample", "--model", str(model), "--n", "300", "--seed", "4",
               "--glauber", "--burn-in", "50", "--thin", "2",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "4 300"


def test_verify_subcommand(tmp_path):
    model = tmp_path / "m.json"
    report = tmp_path / "report.json"
    assert main(["gen-model", "--grid", "2", "--beta", "0.4",
                 "--out", str(model)]) == 0
    rc = main(["verify", "--model", str(model), "--seed", "5", "--n", "4000",
               "--sets", "40", "--trials", "40", "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["all_passed"] is True
    assert doc["metadata"]["rng"] == "numpy-pcg64"
    assert len(doc["oracles"]) == 10


def test_input_errors_exit_2(tmp_path, capsys):
    assert main(["learn", "--samples", str(tmp_path / "missing.txt"),
                 "--threshold", "0.5"]) == 2
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{\"p\": 3}")
    assert main(["sample", "--model", str(bad_model), "--n", "10",
                 "--seed", "1", "--out", str(tmp_path / "x.txt")]) == 2
    assert main(["gen-model", "--out", str(tmp_path / "m.json")]) == 2
    assert main(["gen-model", "--grid", "2", "--random", "4", "--seed", "1",
                 "--out", str(tmp_path / "m.json")]) == 2
    assert main(["gen-model", "--random", "4",
                 "--out", str(tmp_path / "m.json")]) == 2  # needs --seed
    for widths in (["--alpha", "0.1", "--beta", "inf"],
                   ["--alpha", "inf", "--beta", "inf"]):
        assert main(["gen-model", "--random", "5", "--seed", "1", *widths,
                     "--out", str(tmp_path / "m.json")]) == 2
    good_model = tmp_path / "good.json"
    assert main(["gen-model", "--grid", "2", "--out", str(good_model)]) == 0
    for argv in (["sample", "--model", str(good_model), "--n", "10"],
                 ["verify", "--model", str(good_model)],
                 ["gen-model", "--random", "4"]):
        assert main(argv + ["--seed", "-1",
                            "--out", str(tmp_path / "y")]) == 2
    assert main(["learn", "--samples", str(tmp_path),
                 "--threshold", "0.5"]) == 2  # a directory
    # Paths under a regular file.
    assert main(["learn", "--samples", str(good_model / "x"),
                 "--threshold", "0.5"]) == 2
    samples = tmp_path / "samples.txt"
    samples.write_text("2 2\n1 1\n1 -1\n")
    assert main(["learn", "--samples", str(samples), "--threshold", "0.5",
                 "--out", str(good_model / "x")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra", [
    ["fit", "--node", "0", "--lambda", "nan"],
    ["learn", "--threshold", "nan"],
    ["learn", "--threshold", "0.5", "--kkt-tol", "nan"],
    ["fit", "--node", "0", "--lambda", "inf"],
    ["learn", "--threshold", "0.5", "--lambda", "inf"],
    ["fit", "--node", "0", "--lambda", "0.1", "--kkt-tol", "inf"],
    ["learn", "--threshold", "0.5", "--kkt-tol", "inf"],
    ["learn", "--threshold", "inf"],
])
def test_nan_knobs_exit_2(tmp_path, capsys, extra):
    path = tmp_path / "samples.txt"
    path.write_text("2 2\n1 1\n1 -1\n")
    assert main(extra[:1] + ["--samples", str(path)] + extra[1:]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_learn_checks_threshold_before_fitting(tmp_path, capsys, monkeypatch,
                                               threshold):
    def no_fit(*args, **kwargs):
        raise AssertionError("learn fitted before checking --threshold")

    monkeypatch.setattr(cli, "fit_all_nodes", no_fit)
    path = tmp_path / "samples.txt"
    path.write_text("2 2\n1 1\n1 -1\n")
    assert main(["learn", "--samples", str(path),
                 "--threshold", threshold]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "-3 2\n+1 -1\n+1 -1\n",  # p < 1
    "2 0\n",  # n < 1
    "3 100000000000\n+1 -1 +1\n",  # more rows than the file can hold
    "2 1\n+1 -1\n+1 +1\n",  # a row past the declared n
])
def test_malformed_sample_text_exits_2(tmp_path, capsys, text):
    path = tmp_path / "samples.txt"
    path.write_text(text)
    assert main(["learn", "--samples", str(path), "--threshold", "0.5"]) == 2
    assert "input error" in capsys.readouterr().err


def test_non_ascii_sample_file_exits_2(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_bytes(b"2 1\n+1 \xff1\n")
    assert main(["learn", "--samples", str(path), "--threshold", "0.5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    b"2\xa01 1\n+1 1\n",  # in the header
    b"2 1\n+1 1\n\xe9",  # past the rows
])
def test_non_ascii_anywhere_in_sample_text_exits_2(tmp_path, capsys, text):
    path = tmp_path / "samples.txt"
    path.write_bytes(text)
    assert main(["learn", "--samples", str(path), "--threshold", "0.5"]) == 2
    assert "not ASCII" in capsys.readouterr().err


def test_sample_text_line_ends_read_alike(tmp_path):
    # "\r\n" and a lone "\r" end a line as "\n" does, the header's too:
    # one lambda, one tally, one fit.
    results = []
    for end in ["\n", "\r\n", "\r"]:
        path, out = tmp_path / "samples.txt", tmp_path / "result.json"
        path.write_bytes(end.join(["3 2", "+1 -1 +1", "-1 -1 1", ""]).encode())
        assert main(["learn", "--samples", str(path), "--threshold", "0.5",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        del doc["stages"]  # timings
        results.append(doc)
        assert read_samples_text(path).data.tolist() == [[1, -1, 1],
                                                         [-1, -1, 1]]
    assert results[0] == results[1] == results[2]


def test_non_ascii_model_and_manifest_exit_2(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(b'{"p": 2, "edges": [], "note": "\xff"}')
    assert main(["sample", "--model", str(path), "--n", "10", "--seed", "1",
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert "input error" in capsys.readouterr().err
    assert main(["nmin", "--manifest", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_shortest_sample_text_rows_still_read(tmp_path):
    # Bare "1" tokens and no final newline: the fewest bytes a valid
    # file can have, which the header check must still accept.
    path = tmp_path / "samples.txt"
    path.write_text("2 2\n1 1\n1 -1\n\n")
    assert read_samples_text(path).data.tolist() == [[1, 1], [1, -1]]
    path.write_text("2 2\n1 1\n1 -1")
    assert read_samples_text(path).data.tolist() == [[1, 1], [1, -1]]


@pytest.mark.parametrize("text", [
    '{"p": true, "edges": []}',  # would load as p=1
    '{"p": 3, "edges": [{"i": true, "j": 2, "theta": 0.5}]}',  # as vertex 1
    '{"p": 3, "edges": [{"i": 0, "j": true, "theta": 0.5}]}',
    '{"p": 3, "edges": [{"i": 0, "j": 1, "theta": true}]}',  # as 1.0
])
def test_boolean_model_fields_exit_2(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["sample", "--model", str(path), "--n", "10", "--seed", "1",
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"p": 3, "edges": [{"i": [0], "j": 1, "theta": 0.5}]}',
    '{"p": 3, "edges": [{"i": 0, "j": {}, "theta": 0.5}]}',
    pytest.param('{"p": 3, "edges": [{"i": 0, "j": 1, "theta": 1%s}]}'
                 % ("0" * 399), id="400-digit-theta"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-past-recursion"),
    # Each coupling is finite, but energies reach 2e308: the enumerated
    # law would be all NaN.
    pytest.param('{"p": 3, "edges": [{"i": 0, "j": 1, "theta": 1e308}, '
                 '{"i": 1, "j": 2, "theta": 1e308}]}',
                 id="coupling-sum-past-float64"),
])
def test_malformed_model_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["sample", "--model", str(path), "--n", "10", "--seed", "1",
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command, fields", [
    ("error-curve", {"kind": "error_vs_n", "seed": 3, "ns": ["x"]}),
    ("nmin", {"kind": "nmin_vs_beta", "seed": "abc", "betas": [0.8]}),
    ("nmin", {"kind": "nmin_vs_beta", "seed": 2, "betas": [0.8],
              "trials": "3"}),
    ("nmin", None),  # nested past the parser's recursion
])
def test_malformed_manifest_exits_2(tmp_path, capsys, command, fields):
    path = tmp_path / "manifest.json"
    if fields is None:
        path.write_text("[" * 100_000 + "]" * 100_000)
    else:
        path.write_text(json.dumps(fields))
    assert main([command, "--manifest", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_enumeration_guard_exits_3(tmp_path, capsys):
    model = tmp_path / "big.json"
    assert main(["gen-model", "--grid", "6", "--beta", "0.3",
                 "--out", str(model)]) == 0
    rc = main(["sample", "--model", str(model), "--n", "10", "--seed", "1",
               "--out", str(tmp_path / "x.txt")])
    assert rc == 3
    assert "capability" in capsys.readouterr().err


def test_random_model_generation(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["gen-model", "--random", "8", "--edge-prob", "0.3",
               "--alpha", "0.4", "--beta", "0.9", "--seed", "11",
               "--out", str(out)])
    assert rc == 0
    model = load_model(str(out))
    assert model.p == 8
    for theta in model.couplings.values():
        assert 0.4 <= abs(theta) <= 0.9


def test_nmin_subcommand_with_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    out_csv = tmp_path / "nmin.csv"
    manifest.write_text(json.dumps({
        "kind": "nmin_vs_beta", "seed": 2024, "side": 2, "betas": [0.8],
        "trials": 5, "n_start": 250, "rel_width": 0.25,
    }))
    rc = main(["nmin", "--manifest", str(manifest), "--out", str(out_csv),
               "--trials", "2"])
    assert rc == 0
    assert "n_min=" in capsys.readouterr().out
    lines = out_csv.read_text().splitlines()
    assert lines[1] == "param,n_min,trials,success,seed,wall_seconds"
    assert len(lines) == 3
    assert lines[2].split(",")[2] == "2"  # trials override applied

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["nmin", "--manifest", str(bad)]) == 2
    capsys.readouterr()


def test_error_curve_subcommand(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    out_csv = tmp_path / "err.csv"
    manifest.write_text(json.dumps({
        "kind": "error_vs_n", "seed": 3, "side": 2, "beta": 0.8,
        "ns": [400, 3200], "trials": 1, "out": str(out_csv),
    }))
    rc = main(["error-curve", "--manifest", str(manifest)])
    assert rc == 0
    assert "mean_error=" in capsys.readouterr().out
    lines = out_csv.read_text().splitlines()
    assert lines[1] == "n,mean_error,trials,seed,wall_seconds"
    assert len(lines) == 4


@pytest.mark.parametrize("command", ["nmin", "error-curve"])
def test_manifest_threads_is_refused(tmp_path, capsys, command):
    # Trials run in turn, so neither runner takes a thread count: the
    # manifest field is unknown and the flag does not parse.
    fields = {"kind": "nmin_vs_beta", "betas": [0.8], "n_start": 250} \
        if command == "nmin" else {"kind": "error_vs_n", "ns": [400]}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"seed": 3, "side": 2, "beta": 0.8,
                                    "trials": 1, "threads": 2, **fields}))
    assert main([command, "--manifest", str(manifest)]) == 2
    assert "threads" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([command, "--manifest", str(manifest), "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_manifest_overrides_are_validated(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "kind": "nmin_vs_beta", "seed": 2, "side": 2, "betas": [0.8],
        "trials": 1, "n_start": 250,
    }))
    assert main(["nmin", "--manifest", str(manifest), "--trials", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


SUBCOMMANDS = ("gen-model", "sample", "fit", "learn", "verify", "nmin",
               "error-curve")


def _load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def _run_help(argv):
    """Run ``argv`` with the package under test first on the import path
    and assert that ``--help`` exits 0 and lists every subcommand."""
    src = str(Path(isinglearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(argv + ["--help"], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 0, out.stderr
    for name in SUBCOMMANDS:
        # a subcommand's own line in the listing, not a word in some help text
        assert re.search(rf"^\s+{re.escape(name)}\s", out.stdout, re.M), name


def test_console_script_and_module_entry():
    pyproject = _load_toml(Path(__file__).resolve().parents[1]
                           / "pyproject.toml")
    target = pyproject["project"]["scripts"]["isinglearn"]
    assert target == "isinglearn.cli:main"
    # what the wrapper that pip generates for the declared entry point runs
    module, func = target.split(":")
    _run_help([sys.executable, "-c",
               f"import sys; from {module} import {func}; "
               f"sys.exit({func}())"])
    _run_help([sys.executable, "-m", "isinglearn.cli"])
    script = shutil.which("isinglearn")
    if script is not None:
        _run_help([script])


@pytest.mark.parametrize("model, flags", [
    ({"p": 10 ** 12, "edges": []}, ["--glauber", "--n", "1"]),
    ({"p": 4, "edges": []}, ["--exact", "--n", str(10 ** 15)]),
], ids=["glauber-p", "exact-n"])
def test_sample_larger_than_memory_exits_3(tmp_path, capsys, model, flags):
    # Refused from the sizes alone: nothing of that size is allocated.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    rc = main(["sample", "--model", str(path), "--seed", "1",
               "--out", str(tmp_path / "x.txt"), *flags])
    assert rc == 3
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("command, field, value", [
    ("nmin", "side", "x"),
    ("nmin", "beta", "x"),
    ("error-curve", "epsilon", "x"),
    ("error-curve", "burn_in_sweeps", 1.5),
    ("nmin", "thinning_sweeps", "x"),
    ("nmin", "kkt_tolerance", [1e-6]),
    ("error-curve", "max_iterations", True),
    ("nmin", "out", 3),
    ("nmin", "trials", 2.5),
    ("error-curve", "trials", 1.5),
    ("nmin", "n_start", 250.5),
    ("nmin", "betas", "69"),
    ("nmin", "betas", {"0.6": 1}),
    ("nmin", "n_max", 2.5),
])
def test_mistyped_manifest_field_exits_2(tmp_path, capsys, command, field,
                                         value):
    fields = {"kind": "nmin_vs_p", "sides": [2], "beta": 0.8} \
        if command == "nmin" else {"kind": "error_vs_n", "ns": [400]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 3, "side": 2, "trials": 1,
                                **fields, field: value}))
    assert main([command, "--manifest", str(path)]) == 2
    assert f"manifest field {field} takes" in capsys.readouterr().err
