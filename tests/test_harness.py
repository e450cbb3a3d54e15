import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sbmdp import cli, harness, sdp
from sbmdp.cli import main
from sbmdp.errors import InvalidParams
from sbmdp.graph import Graph, write_edge_list
from sbmdp.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    read_rows,
    run_trial,
    sweep,
    trial_seed,
)
from sbmdp.models import BasbmParams, GssbmParams, generate

from oracles import graph_from_dense, log_solves


def small_config(tmp_path, **overrides):
    base = {
        "variant": "basbm",
        "grid": {"n": [60], "a": [12.0], "b": [1.0], "rho": [0.5]},
        "trials": 1,
        "seed_base": 7,
        "mode": "nonprivate",
        "output": str(tmp_path / "out.csv"),
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_config_validation():
    with pytest.raises(InvalidParams):
        ExperimentConfig.from_dict({"variant": "basbm", "grid": {},
                                    "trials": 1, "mode": "nonprivate",
                                    "output": "x.csv"})
    with pytest.raises(InvalidParams):
        ExperimentConfig.from_dict({"variant": "basbm", "grid": {"n": [10]},
                                    "trials": 0, "mode": "nonprivate",
                                    "output": "x.csv"})
    with pytest.raises(InvalidParams):
        ExperimentConfig.from_dict({"variant": "basbm", "grid": {"n": [10]},
                                    "trials": 1, "mode": "wat",
                                    "output": "x.csv"})
    with pytest.raises(InvalidParams):
        ExperimentConfig.from_dict({"variant": "basbm", "grid": {"n": [10]},
                                    "trials": 1, "output": "x.csv",
                                    "max_evals": -1})
    # a JSON document that is not an object, a grid that is not one, and a
    # grid dimension that is not a list
    with pytest.raises(InvalidParams):
        ExperimentConfig.from_dict([])
    for grid in ([1], {"n": 10}):
        with pytest.raises(InvalidParams):
            ExperimentConfig.from_dict({"variant": "basbm", "grid": grid,
                                        "trials": 1, "output": "x.csv"})
    # a stability constant that is not a number, negative or not finite
    for c_stab in ("x", -1, float("inf"), float("nan")):
        with pytest.raises(InvalidParams):
            ExperimentConfig.from_dict({"variant": "basbm", "grid": {"n": [10]},
                                        "trials": 1, "output": "x.csv",
                                        "c_stab": c_stab})
    assert small_config(Path("."), c_stab="4").c_stab == 4.0
    # a misspelt or retired key is an error, not a silent default
    for key in ("max_eval", "permute"):
        with pytest.raises(InvalidParams, match=key):
            ExperimentConfig.from_dict({"variant": "basbm", "grid": {"n": [10]},
                                        "trials": 1, "output": "x.csv",
                                        key: 5})


def test_single_cell_single_trial(tmp_path):
    config = small_config(tmp_path)
    out = sweep(config, timestamp="fixed")
    text = out.read_text()
    rows = read_rows(out)
    assert len(rows) == 1
    assert text.splitlines()[1] == ",".join(CSV_COLUMNS)
    assert "# aggregates" in text
    assert "# cell 0" in text


def test_grid_row_count(tmp_path):
    config = small_config(
        tmp_path, grid={"n": [40, 60], "a": [10.0, 14.0], "b": [1.0],
                        "rho": [0.5]}, trials=5)
    rows = read_rows(sweep(config, timestamp="fixed"))
    assert len(rows) == 20


def strip_timing(text):
    # wall-clock fields (ms column, mean_ms aggregate) are exempt from the
    # byte-equality claim, like the timestamp header
    out = []
    for line in text.splitlines():
        if line.startswith("# cell"):
            out.append(line.split(",mean_ms=")[0])
        elif line.startswith("#") or line.startswith("variant,"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return out


def test_sweep_reruns_identical_except_timing(tmp_path):
    config = small_config(tmp_path, trials=2)
    first = sweep(config, timestamp="fixed").read_text()
    second = sweep(config, timestamp="fixed").read_text()
    assert strip_timing(first) == strip_timing(second)
    third = sweep(config, timestamp="later").read_text()
    assert strip_timing(third)[1:] == strip_timing(first)[1:]


def test_aggregates_match_recomputation(tmp_path):
    # a = 1 <= b makes the first cell's trials raise
    config = small_config(tmp_path, trials=4,
                          grid={"n": [60], "a": [1.0, 12.0], "b": [1.0],
                                "rho": [0.5]})
    out = sweep(config, timestamp="fixed")
    rows = read_rows(out)
    lines = [l for l in out.read_text().splitlines() if l.startswith("# cell")]
    assert len(rows) == 8 and len(lines) == 2
    rates = {"recovery_rate": "recovered", "bottom_rate": "bottom",
             "error_rate": "error", "conc_rate": "conc_pass",
             "cert_rate": "cert_valid"}
    for ci, line in enumerate(lines):
        stated = dict(kv.split("=") for kv in line.rsplit(" ", 1)[1].split(","))
        block = rows[ci * 4:(ci + 1) * 4]
        assert {r["a"] for r in block} == {str(config.cells()[ci]["a"])}
        for rate, column in rates.items():
            want = np.mean([int(r[column]) for r in block])
            assert float(stated[rate]) == pytest.approx(want), (ci, rate)
    assert [float(l.split("error_rate=")[1].split(",")[0]) for l in lines] == [1.0, 0.0]


def test_run_trial_deterministic():
    cell = {"variant": "basbm", "n": 50, "a": 10.0, "b": 1.0, "rho": 0.5}
    seed = trial_seed(3, 0, 0)
    r1 = run_trial(cell, seed)
    r2 = run_trial(cell, seed)
    assert r1 == r2
    assert r1.recovered and not r1.bottom


def test_run_trial_refuses_a_null_cell_field():
    # a null rhos met tuple(None) in the harness with a TypeError
    for bad in ({"b": None}, {"rhos": None}):
        with pytest.raises(InvalidParams, match="not a number"):
            run_trial({"variant": "gssbm", "n": 30, "a": 8, "b": 1,
                       "rhos": [0.3, 0.3], **bad}, 0)


def test_run_trial_densifies_once_per_consumer(monkeypatch):
    # the concentration check, the certificate and the recovery each take
    # the graph and densify it once; a certified trial carries its labels
    # and so rounds nothing through sdp.round_general
    calls = []
    real = Graph.to_dense

    def counted(self, *args, **kwargs):
        calls.append(self.n)
        return real(self, *args, **kwargs)

    def unexpected(sol):
        raise AssertionError("round_general called on a certified trial")

    monkeypatch.setattr(Graph, "to_dense", counted)
    monkeypatch.setattr(sdp, "round_general", unexpected)
    cell = {"variant": "gssbm", "n": 200, "a": 30.0, "b": 2.0,
            "rhos": [0.3, 0.3, 0.3]}
    result = run_trial(cell, trial_seed(1, 0, 0))
    assert calls == [200, 200, 200]
    assert result.recovered and result.conc_pass and result.cert_valid


def test_gssbm_trial_builds_its_float_adjacency_once(monkeypatch):
    # the concentration check, the certificate and the recovery each call
    # to_dense, which builds the float64 adjacency on the first call only;
    # this counts the builds, as the benchmark counts the calls
    built = []
    real = Graph._densify

    def counted(self, dtype):
        built.append((self, np.dtype(dtype)))
        return real(self, dtype)

    monkeypatch.setattr(Graph, "_densify", counted)
    cell = {"variant": "gssbm", "n": 300, "a": 40.0, "b": 2.0,
            "rhos": [0.3, 0.3, 0.3]}
    result = run_trial(cell, trial_seed(0, 0, 0))
    assert result.recovered and result.conc_pass and result.cert_valid
    assert [dtype for _, dtype in built] == [np.float64]
    g = built[0][0]
    dense = g.to_dense()
    assert dense is g.to_dense() and len(built) == 1
    assert not dense.flags.writeable
    with pytest.raises(ValueError):
        dense[0, 1] = 1.0
    fresh = Graph(g.n, g.alphabet, g.values).to_dense()
    assert fresh is not dense and fresh.tobytes() == dense.tobytes()


def test_run_trial_fast_mode():
    cell = {"variant": "basbm", "n": 150, "a": 20.0, "b": 2.0, "rho": 0.5,
            "eps": 2.0, "delta_exp": 2.0}
    result = run_trial(cell, trial_seed(1, 0, 0), mode="fast", c_stab=4.0)
    assert result.recovered
    assert not result.bottom


def test_trial_errors_become_failure_rows(tmp_path):
    # a <= b is an invalid model, so the trial raises; the sweep must not abort
    config = small_config(
        tmp_path, grid={"n": [16, 20], "a": [1.0], "b": [2.0], "rho": [0.5]})
    out = sweep(config, timestamp="fixed")
    rows = read_rows(out)
    assert len(rows) == 2
    assert all(r["error"] == "1" and r["bottom"] == "0" and r["recovered"] == "0"
               for r in rows)
    # the aggregates count the crashes as errors, not as withheld releases
    cells = [l for l in out.read_text().splitlines() if l.startswith("# cell")]
    assert all("bottom_rate=0.000000,error_rate=1.000000" in l for l in cells)
    # so is a gssbm model whose second cluster is empty at n = 6
    config = small_config(tmp_path, variant="gssbm",
                          grid={"n": [6], "a": [3.0], "b": [1.0], "rhos": [[0.5, 0.1]]})
    assert [r["error"] for r in read_rows(sweep(config, timestamp="fixed"))] == ["1"]


def test_capped_stbl_trial_withholds_without_neighbour_solves(monkeypatch):
    # 40 evaluations cannot cover the 120 graphs at distance 1 from a
    # 16-vertex graph, so the search radius is 0: only the base graph is
    # solved, and the distance 0 is released only on large noise
    solves = log_solves(monkeypatch)
    cell = {"variant": "basbm", "n": 16, "a": 4.0, "b": 1.0, "rho": 0.5,
            "eps": 1.0, "delta_exp": 1.0}
    result = run_trial(cell, trial_seed(7, 0, 0), mode="stbl", max_evals=40)
    assert len(solves) == 1
    assert result.bottom and not result.recovered


def test_importing_the_harness_leaves_the_process_pool_unloaded():
    # sweep imports the pool only when it runs more than one worker
    src = str(Path(harness.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import sbmdp.harness; "
            "print('concurrent.futures.process' in sys.modules)" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_parallel_sweep_matches_serial(tmp_path):
    serial = small_config(tmp_path, trials=2,
                          output=str(tmp_path / "serial.csv"))
    parallel = small_config(tmp_path, trials=2, workers=2,
                            output=str(tmp_path / "parallel.csv"))
    a = strip_timing(sweep(serial, timestamp="fixed").read_text())
    b = strip_timing(sweep(parallel, timestamp="fixed").read_text())
    assert a == b


# ---------------------------------------------------------------------------
# CLI


def test_cli_generate_recover_certify(tmp_path):
    graph_file = tmp_path / "g.txt"
    gt_file = tmp_path / "gt.json"
    rc = main(["generate", "--variant", "basbm", "--n", "60", "--a", "12",
               "--b", "1", "--rho", "0.5", "--seed", "3",
               "--out", str(graph_file), "--gt-out", str(gt_file)])
    assert rc == 0
    assert graph_file.exists() and gt_file.exists()

    rc = main(["recover", "--variant", "basbm", "--a", "12", "--b", "1",
               "--rho", "0.5", "--graph", str(graph_file), "--gt", str(gt_file)])
    assert rc == 0

    rc = main(["certify", "--variant", "basbm", "--a", "12", "--b", "1",
               "--rho", "0.5", "--graph", str(graph_file), "--gt", str(gt_file)])
    assert rc == 0

    rc = main(["check-concentration", "--variant", "basbm", "--a", "12",
               "--b", "1", "--rho", "0.5", "--graph", str(graph_file),
               "--gt", str(gt_file), "--eps", "2", "--c-stab", "2"])
    assert rc == 0


def test_cli_estimate_params(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    main(["generate", "--variant", "basbm", "--n", "300", "--a", "20",
          "--b", "2", "--rho", "0.3", "--seed", "1", "--out", str(graph_file)])
    capsys.readouterr()
    rc = main(["estimate-params", "--graph", str(graph_file)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["rho"] < 0.5


def test_cli_private_recover_output(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    main(["generate", "--variant", "basbm", "--n", "150", "--a", "20",
          "--b", "2", "--rho", "0.5", "--seed", "2", "--out", str(graph_file)])
    capsys.readouterr()
    rc = main(["private-recover", "--variant", "basbm", "--graph",
               str(graph_file), "--eps", "2", "--delta-exp", "2",
               "--a", "20", "--b", "2", "--rho", "0.5", "--mode", "fast",
               "--c-stab", "4", "--seed", "5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # unnoised, data-dependent values stay out of the release
    assert not {"d_hat", "concentration_pass", "fast_path"} & payload.keys()
    assert payload["bottom"] is False
    assert len(payload["assignment"]) == 150
    # a negative search budget is a config error in both modes, even where
    # the fast path would release without searching
    for mode in ("fast", "stbl"):
        assert main(["private-recover", "--variant", "basbm", "--graph",
                     str(graph_file), "--eps", "2", "--delta-exp", "2",
                     "--a", "20", "--b", "2", "--rho", "0.5", "--mode", mode,
                     "--max-evals", "-1"]) == 1
    assert "max_evals" in capsys.readouterr().err


def test_cli_negative_seed_is_a_config_error(tmp_path, capsys):
    # numpy refuses a negative seed with OverflowError or ValueError, which
    # would exit 3; both commands refuse it as a config error first
    graph_file = tmp_path / "g.txt"
    model = ["--variant", "basbm", "--a", "3", "--b", "0.5"]
    assert main(["generate", *model, "--n", "6", "--seed", "-1",
                 "--out", str(graph_file)]) == 1
    assert not graph_file.exists()
    assert main(["generate", *model, "--n", "6", "--out", str(graph_file)]) == 0
    assert main(["private-recover", *model, "--graph", str(graph_file),
                 "--eps", "1", "--delta-exp", "1", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("config error: seed") == 2 and "Traceback" not in err


def test_cli_missing_or_non_numeric_rate_is_a_config_error(tmp_path, capsys):
    # float(None) in params_from_dict raised a TypeError, which exited 3
    graph_file = tmp_path / "g.txt"
    assert main(["generate", "--variant", "basbm", "--a", "3", "--b", "0.5",
                 "--n", "6", "--out", str(graph_file)]) == 0
    assert main(["recover", "--variant", "basbm", "--a", "8",
                 "--graph", str(graph_file)]) == 1
    assert main(["recover", "--variant", "gssbm", "--a", "8", "--rhos", "0.4",
                 "--graph", str(graph_file)]) == 1
    # a flag value that is no list of numbers is a config error too
    assert main(["recover", "--variant", "gssbm", "--a", "8", "--b", "1",
                 "--rhos", "0.3,abc", "--graph", str(graph_file)]) == 1
    assert main(["private-recover", "--variant", "basbm", "--a", "3",
                 "--graph", str(graph_file), "--eps", "1", "--delta-exp", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("config error") == 4 and "Traceback" not in err


@pytest.mark.parametrize("command", ["recover", "certify", "check-concentration"])
def test_cli_refuses_a_malformed_ground_truth(tmp_path, capsys, command):
    # every command that reads a truth refuses the same malformed ones, a
    # basbm truth labelled {0, 1} or {1, 2} and a gssbm truth that skips a
    # cluster number or has none among them, as config errors
    graph_file = tmp_path / "g.txt"
    gt_file = tmp_path / "gt.json"
    cases = (
        (["--variant", "basbm", "--a", "4", "--b", "1"], [1] * 10 + [-1] * 10,
         [[1] * 10 + [0] * 10, [1] * 10 + [2] * 10]),
        (["--variant", "gssbm", "--a", "4", "--b", "1", "--rhos", "0.4,0.4"],
         [1] * 8 + [2] * 8 + [0] * 4,
         [[-1] + [1] * 7 + [2] * 8 + [0] * 4, [1] * 8 + [3] * 8 + [0] * 4, [0] * 20]),
    )
    refused = 0
    for model, truth, bad_labels in cases:
        variant = model[1]
        other = "cbsbm" if variant == "basbm" else "basbm"
        run = [command, *model, "--graph", str(graph_file), "--gt", str(gt_file)]
        assert main(["generate", *model, "--n", "20", "--out", str(graph_file)]) == 0
        for bad in (truth, {"variant": other, "assignment": truth},
                    *({"variant": variant, "assignment": labels}
                      for labels in (truth[:-1], [1.5, *truth[1:]], *bad_labels))):
            gt_file.write_text(json.dumps(bad))
            assert main(run) == 1, bad
            refused += 1
        gt_file.write_text(json.dumps({"variant": variant, "assignment": truth}))
        assert main(run) in (0, 2)
    err = capsys.readouterr().err
    assert err.count("config error: ground truth") == refused and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "recover", "certify",
                                     "check-concentration", "private-recover"])
@pytest.mark.parametrize("model, filled", [
    (["--variant", "basbm", "--a", "3", "--b", "1", "--rho", "0.1"], "0.5"),
    (["--variant", "gssbm", "--a", "3", "--b", "1", "--rhos", "0.5,0.1"], "0.5,0.5"),
], ids=["basbm", "gssbm"])
def test_cli_refuses_an_empty_cluster(tmp_path, capsys, command, model, filled):
    # floor(rho_k * n) = 0 at n = 6: every command refuses the model with a
    # config error before it samples or solves anything
    graph_file, gt_file, out = tmp_path / "g.txt", tmp_path / "gt.json", tmp_path / "x.txt"
    assert main(["generate", *model[:-1], filled, "--n", "6", "--out", str(graph_file),
                 "--gt-out", str(gt_file)]) == 0
    capsys.readouterr()
    graph, gt = ["--graph", str(graph_file)], ["--gt", str(gt_file)]
    args = {"generate": ["--n", "6", "--out", str(out)], "recover": graph,
            "certify": graph + gt, "check-concentration": graph + gt,
            "private-recover": graph + ["--eps", "1", "--delta-exp", "1"]}[command]
    assert main([command, *model, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "empty cluster" in err
    assert "Traceback" not in err and not out.exists()


def test_cli_sweep_and_exit_codes(tmp_path):
    config = {
        "variant": "basbm",
        "grid": {"n": [40], "a": [10.0], "b": [1.0], "rho": [0.5]},
        "trials": 1,
        "seed_base": 0,
        "mode": "nonprivate",
        "output": str(tmp_path / "sweep.csv"),
    }
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(config_file)]) == 0
    assert (tmp_path / "sweep.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["sweep", "--config", str(bad)]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 1
    for bad_config in ([], {**config, "grid": [1]}, {**config, "max_evals": -1},
                       {**config, "c_stab": "x"}):
        bad.write_text(json.dumps(bad_config))
        assert main(["sweep", "--config", str(bad)]) == 1
    assert main(["recover", "--variant", "basbm", "--a", "2"]) == 1  # no graph


def test_negative_seed_base_is_a_config_error(tmp_path, capsys):
    # SeedSequence takes no negative entropy, so the config is refused up
    # front instead of every trial's seed raising a ValueError
    with pytest.raises(InvalidParams, match="seed_base"):
        small_config(tmp_path, seed_base=-1)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({
        "variant": "basbm", "grid": {"n": [40], "a": [10.0], "b": [1.0]},
        "trials": 1, "seed_base": -1, "output": str(tmp_path / "sweep.csv")}))
    assert main(["sweep", "--config", str(config_file)]) == 1
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "sweep.csv").exists()


def test_config_counts_are_whole_numbers(tmp_path, capsys, monkeypatch):
    # a worker count below one, a fractional count and a boolean are
    # refused, not run serially or truncated; the sweep must never start
    def no_sweep(config):
        raise AssertionError("a refused config ran")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    config_file = tmp_path / "config.json"
    refused = [("workers", 0), ("workers", -3), ("workers", 2.5), ("workers", True),
               ("trials", 2.7), ("trials", True), ("seed_base", 1.5),
               ("seed_base", False), ("max_evals", 10.5), ("max_evals", True)]
    for key, value in refused:
        with pytest.raises(InvalidParams, match=key):
            small_config(tmp_path, **{key: value})
        config_file.write_text(json.dumps({
            "variant": "basbm", "grid": {"n": [40], "a": [10.0], "b": [1.0]},
            "trials": 1, key: value, "output": str(tmp_path / "sweep.csv")}))
        assert main(["sweep", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err.startswith("config error")
    # whole numbers written as floats still read as ints
    cfg = small_config(tmp_path, trials=2.0, seed_base=3.0, workers=1.0, max_evals=0.0)
    assert (cfg.trials, cfg.seed_base, cfg.workers, cfg.max_evals) == (2, 3, 1, 0)
    assert all(type(x) is int for x in (cfg.trials, cfg.seed_base, cfg.workers, cfg.max_evals))


# each overrides the fields of a small basbm config
MALFORMED_SWEEPS = {
    # a grid value that is not a list ran cells n = 6 and n = 0
    "string-grid-value": {"grid": {"n": "60", "a": [8], "b": [1]}},
    # a key no variant reads was dropped, and basbm's xi went into the CSV
    "unknown-grid-key": {"grid": {"n": [60], "a": [8], "b": [1], "colour": [1]}},
    "other-variant-key": {"grid": {"n": [60], "a": [8], "b": [1], "xi": [0.1]}},
    # a gssbm rhos entry that is not a list ended in a TypeError (exit 3)
    "flat-rhos": {"variant": "gssbm",
                  "grid": {"n": [60], "a": [8], "b": [1], "rhos": [0.3, 0.3]}},
    # n = 60.5 ran as n = 60
    "fractional-n": {"grid": {"n": [60.5], "a": [8], "b": [1]}},
    # a private mode without its budget, or a nonpositive eps in any mode,
    # made every trial an error row or ran as eps = inf
    "fast-without-eps": {"mode": "fast"},
    "stbl-without-delta-exp": {"mode": "stbl",
                               "grid": {"n": [60], "a": [8], "b": [1], "eps": [2]}},
    "negative-eps": {"mode": "fast", "grid": {"n": [60], "a": [8], "b": [1],
                                              "eps": [-1], "delta_exp": [2]}},
    "zero-eps": {"grid": {"n": [60], "a": [8], "b": [1], "eps": [0]}},
}


@pytest.mark.parametrize("override", MALFORMED_SWEEPS.values(), ids=MALFORMED_SWEEPS)
def test_malformed_sweep_config_is_a_config_error(tmp_path, capsys, override):
    # refused when the config loads: exit 1, and no CSV is written
    out = tmp_path / "sweep.csv"
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({
        "variant": "basbm", "grid": {"n": [60], "a": [8], "b": [1]},
        "trials": 1, "output": str(out), **override}))
    assert main(["sweep", "--config", str(config_file)]) == 1
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()


def test_cli_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    # an exception that is neither a config nor a runtime error exits 3
    # with its traceback, so that exit 1 always means a config error; a
    # KeyError is one too, as every missing user key is InvalidParams
    for error in (TypeError, KeyError):
        def broken(args):
            raise error("not a config error")

        monkeypatch.setattr(cli, "cmd_estimate_params", broken)
        assert main(["estimate-params", "--graph", str(tmp_path / "g.txt")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and f"{error.__name__}: " in err, err
        assert "not a config error" in err


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # a regime below the private recovery threshold is a runtime error
    graph_file = tmp_path / "g.txt"
    gt_file = tmp_path / "gt.json"
    model = ["--variant", "basbm", "--a", "4", "--b", "1", "--rho", "0.5"]
    main(["generate", *model, "--n", "20", "--seed", "0", "--out", str(graph_file),
          "--gt-out", str(gt_file)])
    rc = main(["check-concentration", *model, "--graph", str(graph_file),
               "--gt", str(gt_file), "--eps", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("runtime error")


def test_cli_gssbm_roundtrip(tmp_path):
    graph_file = tmp_path / "g.txt"
    gt_file = tmp_path / "gt.json"
    rc = main(["generate", "--variant", "gssbm", "--n", "120", "--a", "20",
               "--b", "2", "--rhos", "0.45,0.45", "--seed", "4",
               "--out", str(graph_file), "--gt-out", str(gt_file)])
    assert rc == 0
    rc = main(["recover", "--variant", "gssbm", "--a", "20", "--b", "2",
               "--rhos", "0.45,0.45", "--graph", str(graph_file),
               "--gt", str(gt_file)])
    assert rc == 0
    rc = main(["certify", "--variant", "gssbm", "--a", "20", "--b", "2",
               "--rhos", "0.45,0.45", "--graph", str(graph_file),
               "--gt", str(gt_file)])
    assert rc == 0


@pytest.mark.parametrize("variant, params, model_args, release_args", [
    ("gssbm", GssbmParams(n=200, a=30, b=2, rhos=(0.5, 0.25)),
     ["--a", "30", "--b", "2", "--rhos", "0.5,0.25"],
     ["--eps", "10", "--delta-exp", "0.5", "--c-stab", "1", "--mode", "fast",
      "--max-evals", "10"]),
    ("basbm", BasbmParams(n=150, a=20, b=2, rho=0.3),
     ["--a", "20", "--b", "2", "--rho", "0.3"],
     ["--eps", "2", "--delta-exp", "2", "--c-stab", "4", "--mode", "fast",
      "--max-evals", "10"]),
    # the release-search setting, where stbl searches every neighbour
    ("basbm", BasbmParams(n=6, a=3, b=0.5, rho=0.5),
     ["--a", "3", "--b", "0.5", "--rho", "0.5"],
     ["--eps", "1", "--delta-exp", "1", "--mode", "stbl"]),
])
def test_cli_recover_and_private_recover_label_alike(
        tmp_path, capsys, variant, params, model_args, release_args):
    # reversed vertex order puts vertex 0 in the last part (gssbm: an
    # outlier, then the smaller cluster; basbm: the larger cluster), so
    # labels by first appearance would differ from labels by size
    g, _ = generate(params, 1)
    dense = g.to_dense()[::-1, ::-1]
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(write_edge_list(graph_from_dense(dense)))
    common = ["--variant", variant, *model_args, "--graph", str(graph_file)]
    assert main(["recover", *common]) == 0
    recovered = json.loads(capsys.readouterr().out)
    assert main(["private-recover", *common, *release_args, "--seed", "1"]) == 0
    released = json.loads(capsys.readouterr().out)
    assert recovered["certified"] and not released["bottom"]
    assert released["assignment"] == recovered["assignment"]
