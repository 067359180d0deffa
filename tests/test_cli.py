import json

import numpy as np
import pytest

import polyagg as pa
from polyagg import harness, rules, volume
from polyagg.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_warehouse_to_file(self, tmp_path):
        out = tmp_path / "wh.json"
        assert run_cli("gen", "warehouse", "--warehouses", 2, "--agents", 3,
                       "--seed", 4, "--out", out) == 0
        m = pa.load_momdp(out)
        assert m.num_states == 9 and m.num_agents == 3

    def test_simplex_to_stdout(self, capsys):
        assert run_cli("gen", "simplex", "--actions", 3) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"] == 1 and doc["actions"] == 3

    def test_mis_from_dimacs(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        out = tmp_path / "mis.json"
        assert run_cli("gen", "mis", "--graph", graph, "--out", out) == 0
        m = pa.load_momdp(out)
        assert m.num_states == 2 and m.num_agents == 3

    def test_max2sat_from_dimacs(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
        out = tmp_path / "sat.json"
        assert run_cli("gen", "max2sat", "--cnf", cnf, "--out", out) == 0
        m = pa.load_momdp(out)
        assert m.num_agents == 6


    @pytest.mark.parametrize("kind, flag", [("mis", "--graph"), ("max2sat", "--cnf")])
    def test_missing_input_exit_code(self, tmp_path, capsys, kind, flag):
        code = run_cli("gen", kind, flag, tmp_path / "missing.txt")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        code = run_cli("gen", "simplex", "--actions", 2,
                       "--out", tmp_path / "nodir" / "m.json")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")


class TestAggregate:
    def test_rule_run_and_artifacts(self, tmp_path):
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 3, "--out", momdp)
        out_dir = tmp_path / "run"
        cloud_path = tmp_path / "cloud.csv"
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "max-quantile",
                       "--seed", 3, "--samples", 4000, "--out", out_dir,
                       "--save-cloud", cloud_path)
        assert code == 0
        doc = json.loads((out_dir / "result.json").read_text())
        assert doc["rule"] == "max-quantile"
        assert len(doc["normalized_returns"]) == 3
        assert doc["result"]["certificate"]["type"] == "QuantileCertificate"
        cloud = pa.load_cloud(cloud_path)
        assert cloud.count == 4000

    def test_veto_order_flag(self, tmp_path):
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        out_dir = tmp_path / "veto"
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "veto-core",
                       "--epsilon", 0.05, "--veto-order", "1,0",
                       "--seed", 5, "--samples", 4000, "--out", out_dir)
        assert code == 0
        doc = json.loads((out_dir / "result.json").read_text())
        assert doc["result"]["certificate"]["order"] == [1, 0]

    @pytest.mark.parametrize("order", ["a,b", "2,,1", "1;0"])
    def test_malformed_veto_order_fails_before_out(self, tmp_path, capsys, order):
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "veto-core",
                       "--veto-order", order, "--seed", 5, "--samples", 500,
                       "--out", tmp_path / "veto")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValueError: --veto-order takes comma-separated agent indices such as "
            f"1,0,2, not {order!r}\n")
        assert not (tmp_path / "veto").exists()

    def test_empty_veto_order_is_an_order(self, tmp_path, capsys):
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "veto-core",
                       "--veto-order", "", "--seed", 5, "--samples", 500,
                       "--out", tmp_path / "veto")
        assert code == 2
        assert capsys.readouterr().err == ("error: ValueError: order must be a permutation "
                                           "of the agents\n")
        assert not (tmp_path / "veto").exists()

    def test_infeasible_input_exit_code(self, tmp_path):
        m = pa.gen_simplex_instance(2).replace_rewards(np.full((1, 1, 2), 3.0))
        momdp = tmp_path / "flat.json"
        pa.save_momdp(m, momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "utilitarian",
                       "--seed", 1, "--samples", 500, "--out", tmp_path / "x")
        assert code == 2

    def test_out_of_range_parameter_exit_code(self, tmp_path, capsys):
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "borda-milp",
                       "--epsilon", 0, "--seed", 1, "--samples", 500,
                       "--out", tmp_path / "z")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: epsilon must lie in (0, 1]")
        assert "Traceback" not in err

    def test_parameter_the_rule_does_not_take_fails_before_the_walk(self, tmp_path, capsys,
                                                                    monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("prepare ran before the rule parameters were checked")

        monkeypatch.setattr(harness, "prepare", no_walk)
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "utilitarian",
                       "--alpha", 0.3, "--seed", 1, "--samples", 500, "--out", tmp_path / "t")
        assert code == 2
        assert capsys.readouterr().err == ("error: ValueError: rule 'utilitarian' takes no "
                                           "parameter 'alpha'; accepted: none\n")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("rule, flag, value, message", [
        ("max-quantile", "--epsilon", 0.01,
         "rule 'max-quantile' takes no parameter 'epsilon'; accepted: none"),
        ("borda-milp", "--epsilon", 1.5, "epsilon must lie in (0, 1]"),
        ("borda-milp", "--epsilon", 0.3, "1/epsilon must be an integer"),
        ("approval", "--alpha", 1.5, "alpha must lie in (0, 1]"),
    ])
    def test_parameter_value_out_of_range_fails_before_the_walk(
            self, tmp_path, capsys, monkeypatch, rule, flag, value, message):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before the rule parameters were checked")

        monkeypatch.setattr(volume, "sample_uniform", no_walk)
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 3, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", rule, flag, value,
                       "--seed", 1, "--samples", 500, "--out", tmp_path / "p")
        assert code == 2
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not (tmp_path / "p").exists()

    def test_momdp_missing_key_exit_code(self, tmp_path, capsys):
        doc = json.loads(pa.momdp_to_json(pa.gen_simplex_instance(2)))
        del doc["criterion"]
        momdp = tmp_path / "m.json"
        momdp.write_text(json.dumps(doc))
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "utilitarian",
                       "--seed", 1, "--samples", 500, "--out", tmp_path / "w")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: MOMDP JSON lacks the key 'criterion'")

    def test_momdp_wrong_shape_exit_code(self, tmp_path, capsys):
        momdp = tmp_path / "m.json"
        momdp.write_text("[1, 2]")
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "utilitarian",
                       "--seed", 1, "--samples", 500, "--out", tmp_path / "w")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: MOMDP JSON must be an object "
                              "with the key 'criterion', not list")

    def test_missing_momdp_exit_code(self, tmp_path, capsys):
        code = run_cli("aggregate", "--momdp", tmp_path / "missing.json",
                       "--rule", "utilitarian", "--seed", 1, "--samples", 500,
                       "--out", tmp_path / "v")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ")
        assert "missing.json" in err and "Traceback" not in err

    def test_unwritable_save_cloud_exit_code(self, tmp_path, capsys):
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "utilitarian",
                       "--seed", 1, "--samples", 500, "--out", tmp_path / "u" / "v",
                       "--save-cloud", tmp_path / "nodir" / "c.csv")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")
        assert not (tmp_path / "u").exists()   # nor the parent --out made

    def test_failed_rule_leaves_no_out_it_made(self, tmp_path, capsys, monkeypatch):
        def infeasible(*args, **kwargs):
            raise pa.InfeasibleBounds("no policy meets all return lower bounds")

        monkeypatch.setattr(rules, "max_quantile", infeasible)
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 3, "--out", momdp)
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "r", tmp_path / "kept"):
            code = run_cli("aggregate", "--momdp", momdp, "--rule", "max-quantile",
                           "--seed", 1, "--samples", 500, "--out", out,
                           "--save-cloud", out / "c.csv")
            assert code == 2
            assert capsys.readouterr().err == ("error: InfeasibleBounds: no policy meets "
                                               "all return lower bounds\n")
        # the walk ran and the cloud was written, but only the directory the
        # command did not make is left, with the cloud in it
        assert not (tmp_path / "r").exists()
        assert (tmp_path / "kept" / "c.csv").exists()

    def test_failed_walk_writes_no_save_cloud(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise pa.DegeneratePolytope("no interior")

        monkeypatch.setattr(volume, "sample_uniform", degenerate)
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 3, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "max-quantile",
                       "--seed", 1, "--samples", 500, "--out", tmp_path / "o",
                       "--save-cloud", tmp_path / "c.csv")
        assert code == 2
        assert capsys.readouterr().err == "error: DegeneratePolytope: no interior\n"
        # neither the cloud file outside --out nor --out itself is left
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    @pytest.mark.parametrize("out, cloud, error", [
        ("u", "nodir/c.csv", "FileNotFoundError"),  # a file in a missing directory
        ("file/u", "c.csv", "NotADirectoryError"),  # a directory under a file
    ])
    def test_bad_output_path_fails_before_the_walk(self, tmp_path, capsys, monkeypatch,
                                                   out, cloud, error):
        def no_walk(*args, **kwargs):
            raise AssertionError("prepare ran before the output paths were checked")

        monkeypatch.setattr(harness, "prepare", no_walk)
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        (tmp_path / "file").write_text("")
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "utilitarian",
                       "--seed", 1, "--samples", 500, "--out", tmp_path / out,
                       "--save-cloud", tmp_path / cloud)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {error}: ")

    @pytest.mark.parametrize("rule", ["utilitarian", "egalitarian", "plurality"])
    def test_lp_only_rule_never_walks(self, tmp_path, monkeypatch, rule):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked for a rule that reads no cloud")

        monkeypatch.setattr(volume, "affine_hull", no_walk)
        monkeypatch.setattr(volume, "sample_uniform", no_walk)
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 3, "--out", momdp)
        assert run_cli("aggregate", "--momdp", momdp, "--rule", rule, "--seed", 1,
                       "--out", tmp_path / "r") == 0
        doc = json.loads((tmp_path / "r" / "result.json").read_text())
        assert doc["result"]["diagnostics"]["samples_used"] == 0

    def test_bad_walk_parameter_without_a_walk_exit_code(self, tmp_path, capsys):
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "utilitarian",
                       "--thinning", 0, "--seed", 1, "--out", tmp_path / "c")
        assert code == 2
        assert capsys.readouterr().err == "error: ValueError: bad walk parameters\n"
        assert not (tmp_path / "c").exists()

    def test_negative_seed_without_a_walk_exit_code(self, tmp_path, capsys):
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "utilitarian",
                       "--seed", -1, "--out", tmp_path / "c")
        assert code == 2
        assert capsys.readouterr().err == "error: ValueError: seed must be nonnegative, not -1\n"
        assert not (tmp_path / "c").exists()

    def test_budget_exit_code(self, tmp_path, monkeypatch):
        import polyagg.harness as harness_mod

        def explode(*args, **kwargs):
            raise pa.MilpBudgetExhausted("boom")

        monkeypatch.setattr(harness_mod, "run_rule", explode)
        momdp = tmp_path / "m.json"
        run_cli("gen", "simplex", "--actions", 2, "--out", momdp)
        code = run_cli("aggregate", "--momdp", momdp, "--rule", "borda-milp",
                       "--seed", 1, "--samples", 500, "--out", tmp_path / "y")
        assert code == 3


class TestExperiment:
    def test_end_to_end(self, tmp_path):
        spec = {
            "source": {"generator": "simplex", "params": {"actions": 2}},
            "rules": [{"name": "utilitarian"}, {"name": "egalitarian"}],
            "seed": 11,
            "instances": 2,
            "samples": 2000,
            "burn_in": 1000,
            "thinning": 2,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "results"
        assert run_cli("experiment", "--spec", spec_path, "--out", out_dir) == 0
        csv_text = (out_dir / "results.csv").read_text()
        assert csv_text.splitlines()[0].startswith("kind,seed,rule")
        doc = json.loads((out_dir / "results.json").read_text())
        assert len(doc["metrics"]) == 4

    def test_missing_spec_exit_code(self, tmp_path, capsys):
        code = run_cli("experiment", "--spec", tmp_path / "missing.json")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"generator": "simplex", "params": {"actions": 2}},
            "rules": [{"name": "utilitarian"}], "seed": 1, "instances": 1,
            "samples": 500,
        }))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run_cli("experiment", "--spec", spec_path, "--out", blocker / "r")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: NotADirectoryError: ")

    @pytest.mark.parametrize("out, error", [
        (("file",), "FileExistsError"), (("file", "r"), "NotADirectoryError")])
    def test_bad_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch,
                                          out, error):
        def no_run(spec):
            raise AssertionError("the experiment ran before --out was made")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"generator": "simplex", "params": {"actions": 2}},
            "rules": [{"name": "utilitarian"}], "seed": 1, "samples": 500,
        }))
        (tmp_path / "file").write_text("")
        code = run_cli("experiment", "--spec", spec_path, "--out", tmp_path.joinpath(*out))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {error}: ")

    def test_spec_missing_key_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"generator": "simplex", "params": {"actions": 2}}, "seed": 1,
        }))
        code = run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "r")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: experiment spec lacks the key 'rules'")

    def test_spec_rule_parameter_misspelled_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"generator": "simplex", "params": {"actions": 2}}, "seed": 1,
            "rules": [{"name": "borda-milp", "eps": 0.2}],
        }))
        code = run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "r")
        assert code == 2
        assert capsys.readouterr().err == ("error: ValueError: rule 'borda-milp' takes no "
                                           "parameter 'eps'; accepted: epsilon\n")
        assert not (tmp_path / "r").exists()

    def test_spec_rule_parameter_out_of_range_fails_before_the_walk(self, tmp_path, capsys,
                                                                    monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before the rule parameters were checked")

        monkeypatch.setattr(volume, "sample_uniform", no_walk)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"generator": "simplex", "params": {"actions": 3}}, "seed": 1,
            "samples": 500, "rules": [{"name": "utilitarian"},
                                      {"name": "borda-milp", "epsilon": 0.3}],
        }))
        code = run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "r")
        assert code == 2
        assert capsys.readouterr().err == "error: ValueError: 1/epsilon must be an integer\n"
        assert not (tmp_path / "r").exists()

    def test_spec_source_without_generator_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"generatr": "random"}, "seed": 1, "rules": [{"name": "utilitarian"}],
        }))
        code = run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "r")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValueError: experiment spec source lacks the key 'file' or "
            "'generator'; got: 'generatr'\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("extra, keys", [
        ({"chains": 8}, "'chains'"), ({"sample": 500, "instance": 4}, "'instance', 'sample'"),
    ], ids=["chains", "sample"])
    def test_spec_undeclared_key_fails_before_the_walk(self, tmp_path, capsys, monkeypatch,
                                                       extra, keys):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before the spec's keys were checked")

        monkeypatch.setattr(volume, "sample_uniform", no_walk)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"generator": "simplex", "params": {"actions": 3}}, "seed": 1,
            "rules": [{"name": "max-quantile"}], **extra,
        }))
        code = run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "r")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: ValueError: experiment spec takes no key {keys}; accepted: source, "
            "rules, seed, instances, samples, cdf, burn_in, thinning, record_runtime\n")
        assert not (tmp_path / "r").exists()

    def test_spec_wrong_shape_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"generator": "simplex", "params": {"actions": 2}}, "seed": 1,
            "rules": "utilitarian",
        }))
        code = run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "r")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: experiment spec key 'rules' "
                              "has the wrong shape (str)")


SIMPLEX_SPEC = {"source": {"generator": "simplex", "params": {"actions": 3}},
                "rules": [{"name": "max-quantile"}], "seed": 1, "samples": 500}


def no_walk(*args, **kwargs):
    raise AssertionError("walked before the spec was found bad")


class TestExperimentOutput:
    """A failed experiment leaves no directory it made, and an --out that
    already existed keeps what it held."""

    @pytest.mark.parametrize("change, error", [
        ({"source": {"file": "missing.json"}}, "FileNotFoundError: "),
        ({"source": {"generator": "simplex", "params": {"actions": 1}}}, "ValueError: "),
        ({"cdf": "bogus"}, "ValueError: unknown cdf kind 'bogus'; known: empirical, logistic\n"),
        ({"source": {"generator": "simplex", "params": {"actions": 3.7}}},
         "ValueError: generator 'simplex' params key 'actions' has the wrong shape (float)\n"),
        ({"rules": [{"name": "approval", "alpha": "0.9"}]},
         "ValueError: rule 'approval' parameter 'alpha' must be a number, not str\n"),
        ({"rules": [{"name": "max-quantile", "epsilon": 0.01}]},
         "ValueError: rule 'max-quantile' takes no parameter 'epsilon'; accepted: none\n"),
        ({"rules": [{"name": "veto-core", "order": [0.5, 1.7, 2.2]}]},
         "ValueError: rule 'veto-core' parameter 'order' must be a list of agent indices, "
         "not [0.5, 1.7, 2.2]\n"),
        ({"rules": [{"name": "veto-core", "order": "210"}]},
         "ValueError: rule 'veto-core' parameter 'order' must be a list of agent indices, "
         "not '210'\n"),
        ({"rules": [{"name": "veto-core", "order": [2, 0, 2]}]},
         "ValueError: order must list distinct agents, not [2, 0, 2]\n"),
        ({"instances": 0}, "ValueError: experiment spec key 'instances' must be at least 1, "
                           "not 0\n"),
        ({"rules": []}, "ValueError: experiment spec key 'rules' must list at least one rule\n"),
        ({"seed": -3}, "ValueError: seed must be nonnegative, not -3\n"),
    ], ids=["nofile", "actions", "cdf", "actions-float", "alpha-str", "max-quantile-epsilon",
            "order-float", "order-str", "order-repeat", "instances-0", "rules-empty",
            "seed-negative"])
    def test_failed_experiment_leaves_no_out_it_made(self, tmp_path, capsys, monkeypatch,
                                                     change, error):
        monkeypatch.setattr(volume, "sample_uniform", no_walk)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SIMPLEX_SPEC, **change}))
        code = run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "a" / "r")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not (tmp_path / "a").exists()

    def test_failed_experiment_keeps_an_existing_out(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SIMPLEX_SPEC, "source": {"file": "missing.json"}}))
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine")
        assert run_cli("experiment", "--spec", spec_path, "--out", kept) == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "mine"

    @pytest.mark.parametrize("key, value, type_name", [
        ("record_runtime", "false", "str"),
        ("record_runtime", 0, "int"),
        ("samples", 4000.7, "float"),
        ("instances", True, "bool"),
        ("seed", "1", "str"),
        ("burn_in", 2.5, "float"),
        ("thinning", False, "bool"),
    ])
    def test_spec_value_of_the_wrong_type_fails_before_the_walk(
            self, tmp_path, capsys, monkeypatch, key, value, type_name):
        monkeypatch.setattr(volume, "sample_uniform", no_walk)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SIMPLEX_SPEC, key: value}))
        assert run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "r") == 2
        assert capsys.readouterr().err == (f"error: ValueError: experiment spec key {key!r} "
                                           f"has the wrong shape ({type_name})\n")
        assert not (tmp_path / "r").exists()
