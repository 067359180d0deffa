import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyagg as pa
from polyagg import harness, volume


class TestGini:
    def test_equal_returns(self):
        assert harness.gini([1.0, 1.0, 1.0]) == 0.0

    def test_two_agent_extreme(self):
        assert harness.gini([0.0, 1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_one_two_three(self):
        assert harness.gini([1.0, 2.0, 3.0]) == pytest.approx(2 / 9, abs=1e-12)

    def test_zero_welfare_raises(self):
        with pytest.raises(pa.ZeroWelfare):
            harness.gini([0.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(-6, 6))
    def test_scale_invariant(self, seed, exponent):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.05, 1.0, size=int(rng.integers(2, 6)))
        c = 2.0**exponent  # dyadic scale keeps the arithmetic exact
        assert harness.gini(c * x) == harness.gini(x)


class TestNashWelfare:
    def test_geometric_mean(self):
        assert harness.nash_welfare([4.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_idempotent_on_constants(self):
        assert harness.nash_welfare([0.7, 0.7, 0.7]) == pytest.approx(0.7, abs=1e-12)

    def test_zero_annihilates(self):
        assert harness.nash_welfare([0.0, 0.9]) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            harness.nash_welfare([-0.1, 0.5])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_one_homogeneous(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.05, 1.0, size=3)
        c = float(rng.uniform(0.1, 4.0))
        assert harness.nash_welfare(c * x) == pytest.approx(
            c * harness.nash_welfare(x), rel=1e-12)


class TestNormalizedReturns:
    """Rule returns are normalized: the prepared model's returns span [0, 1]."""

    def test_extremes(self, simplex2):
        pipe = harness.prepare(simplex2, 2000, seed=1)
        res = pa.utilitarian(pipe.model, pipe.poly)
        assert np.all(res.returns >= -1e-7) and np.all(res.returns <= 1 + 1e-7)

    def test_midpoint(self, simplex2):
        pipe = harness.prepare(simplex2, 2000, seed=2)
        res = pa.egalitarian(pipe.model, pipe.poly)
        assert np.allclose(res.returns, 0.5, atol=1e-6)

    def test_agent_optimal_policy_scores_one(self, simplex2):
        pipe = harness.prepare(simplex2.replace_rewards(simplex2.rewards[:1]),
                               2000, seed=3)
        res = pa.utilitarian(pipe.model, pipe.poly)
        assert res.returns[0] == pytest.approx(1.0, abs=1e-7)


def small_spec(tmp_source=None, **overrides):
    kwargs = dict(
        source={"generator": "simplex", "params": {"actions": 3}},
        rules=(harness.RuleSpec("utilitarian"), harness.RuleSpec("max-quantile")),
        seed=50,
        num_instances=2,
        samples=4000,
        burn_in=2000,
        thinning=4,
    )
    kwargs.update(overrides)
    if tmp_source is not None:
        kwargs["source"] = tmp_source
    return harness.ExperimentSpec(**kwargs)


class TestRunExperiment:
    def test_single_agent_trivial(self):
        m = pa.gen_simplex_instance(2)
        single = m.replace_rewards(m.rewards[:1])
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "m.json"
            pa.save_momdp(single, path)
            spec = small_spec(
                tmp_source={"file": str(path)},
                rules=(harness.RuleSpec("utilitarian"),),
                num_instances=1,
            )
            out = harness.run_experiment(spec)
        assert len(out.rows) == 1
        assert out.rows[0].returns[0] == pytest.approx(1.0, abs=1e-7)
        assert out.rows[0].gini == 0.0

    def test_rows_and_aggregates(self):
        out = harness.run_experiment(small_spec())
        assert len(out.rows) == 4  # 2 rules x 2 instances
        assert {a["rule"] for a in out.aggregates} == {"utilitarian", "max-quantile"}
        for agg in out.aggregates:
            assert agg["instances"] == 2

    def test_byte_identical_reruns(self):
        spec = small_spec()
        a = harness.run_experiment(spec)
        b = harness.run_experiment(spec)
        assert a.csv_text == b.csv_text
        assert a.json_text == b.json_text

    def test_json_metrics_round_trip(self):
        out = harness.run_experiment(small_spec())
        entries = json.loads(out.json_text)["metrics"]
        assert [(e["rule"], e["seed"], tuple(e["returns"]), e["gini"], e["nash"])
                for e in entries] == \
            [(r.rule, r.instance_seed, r.returns, r.gini, r.nash) for r in out.rows]

    def test_failures_recorded_and_run_continues(self):
        # constant rewards: every agent dropped -> prepare fails per instance
        spec = small_spec(
            source={"generator": "random", "params": {"states": 2, "actions": 2,
                                                      "agents": 1}},
        )
        # patch generator output through a file with constant rewards
        import tempfile, pathlib

        m = pa.gen_simplex_instance(2).replace_rewards(np.full((1, 1, 2), 2.0))
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "flat.json"
            pa.save_momdp(m, path)
            spec = small_spec(tmp_source={"file": str(path)}, num_instances=2)
            out = harness.run_experiment(spec)
        assert len(out.rows) == 0
        assert len(out.failures) == 2
        assert out.failures[0]["error"] == "AllAgentsIndifferent"

    def test_csv_columns_frozen(self):
        out = harness.run_experiment(small_spec())
        header = out.csv_text.splitlines()[0]
        assert header == "kind,seed,rule,gini,nash,gini_se,nash_se,returns"
        kinds = [line.split(",")[0] for line in out.csv_text.splitlines()[1:]]
        assert kinds.count("row") == 4
        assert kinds.count("aggregate") == 2

    def test_runtime_excluded_by_default(self):
        out = harness.run_experiment(small_spec())
        assert "runtime" not in out.csv_text
        assert "wall_time" not in out.json_text

    def test_runtime_opt_in(self):
        out = harness.run_experiment(small_spec(record_runtime=True))
        assert "runtime" in out.csv_text.splitlines()[0]
        assert "wall_time" in out.json_text

    def test_runtime_is_the_rule_wall_time(self):
        # one timer per rule run: the CSV runtime is the result's wall_time
        out = harness.run_experiment(small_spec(record_runtime=True))
        lines = out.csv_text.splitlines()
        col = lines[0].split(",").index("runtime")
        csv_runtimes = [float(line.split(",")[col]) for line in lines[1:]
                        if line.startswith("row,")]
        doc = json.loads(out.json_text)
        wall_times = [doc["results"][j]["rules"][rule]["diagnostics"]["wall_time"]
                      for j in range(2) for rule in ("utilitarian", "max-quantile")]
        assert csv_runtimes == wall_times
        assert [row.runtime for row in out.rows] == wall_times

    def test_spec_from_json(self):
        doc = {
            "source": {"generator": "simplex", "params": {"actions": 2}},
            "rules": [{"name": "utilitarian"}, {"name": "approval", "alpha": 0.8}],
            "seed": 3,
            "instances": 2,
            "samples": 1000,
        }
        spec = harness.ExperimentSpec.from_json(json.dumps(doc))
        assert spec.rules[1].params == {"alpha": 0.8}
        assert spec.samples == 1000

    def test_echoed_spec_reproduces_run(self):
        spec = small_spec(burn_in=50, thinning=3)
        out = harness.run_experiment(spec)
        echoed = json.dumps(json.loads(out.json_text)["spec"])
        rerun = harness.run_experiment(harness.ExperimentSpec.from_json(echoed))
        assert rerun.json_text == out.json_text

    def test_echoed_spec_keeps_every_field(self):
        spec = small_spec(record_runtime=True, burn_in=50, thinning=3, cdf_kind=volume.LOGISTIC)
        out = harness.run_experiment(spec)
        echoed = json.dumps(json.loads(out.json_text)["spec"])
        back = harness.ExperimentSpec.from_json(echoed)
        for f in dataclasses.fields(harness.ExperimentSpec):
            if f.name == "rules":
                assert [(r.name, r.params) for r in back.rules] == \
                    [(r.name, r.params) for r in spec.rules]
            else:
                assert getattr(back, f.name) == getattr(spec, f.name), f.name

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            harness.RuleSpec("best-rule-ever")

    @pytest.mark.parametrize("name, params, accepted", [
        ("max-quantile", {"eps": 0.2}, "epsilon"),
        ("utilitarian", {"alpha": 0.3}, "none"),
        ("approval", {"epsilon": 0.1}, "alpha"),
        ("veto-core", {"alpha": 0.5, "order": [0, 1]}, "epsilon, order"),
    ])
    def test_parameter_the_rule_does_not_take_rejected(self, name, params, accepted):
        with pytest.raises(ValueError, match=f"; accepted: {accepted}$"):
            harness.RuleSpec(name, params)
        doc = {"source": {"generator": "simplex", "params": {"actions": 2}},
               "rules": [{"name": name, **params}], "seed": 1}
        with pytest.raises(ValueError, match=f"; accepted: {accepted}$"):
            harness.ExperimentSpec.from_json(json.dumps(doc))

    @pytest.mark.parametrize("source, message", [
        ({"generatr": "random"},
         "experiment spec source lacks the key 'file' or 'generator'; got: 'generatr'"),
        ({"generator": "simplex"},
         "generator 'simplex' needs parameter 'actions'; accepted: actions"),
        ({"generator": "random", "params": {"agent": 5}},
         "generator 'random' takes no parameter 'agent'; accepted: states, actions, agents"),
        ({"generator": "lattice"},
         "unknown generator 'lattice'; known: warehouse, simplex, random, mis, max2sat"),
        ({"file": "m.json", "params": {}},
         "experiment spec source takes no key 'params'; accepted: file"),
        ({"generator": "mis", "params": [6]},
         "experiment spec source key 'params' must be an object"),
        ({"generator": "simplex", "params": {"actions": 3.7}},
         "generator 'simplex' params key 'actions' has the wrong shape (float)"),
        ({"generator": "random", "params": {"agents": True}},
         "generator 'random' params key 'agents' has the wrong shape (bool)"),
        ({"generator": "warehouse", "params": {"gamma": "0.9"}},
         "generator 'warehouse' params key 'gamma' has the wrong shape (str)"),
        ({"generator": "warehouse", "params": {"criterion": 1}},
         "generator 'warehouse' params key 'criterion' has the wrong shape (int)"),
        ({"generator": "mis", "params": {"edge_prob": None}},
         "generator 'mis' params key 'edge_prob' has the wrong shape (NoneType)"),
    ])
    def test_malformed_source_rejected(self, source, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            harness.ExperimentSpec(source=source, rules=(), seed=1)
        doc = {"source": source, "rules": [{"name": "utilitarian"}], "seed": 1}
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            harness.ExperimentSpec.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name, params", [
        ("approval", {"alpha": "0.9"}),
        ("approval", {"alpha": True}),
        ("max-quantile", {"epsilon": [0.1]}),
        ("borda-milp", {"epsilon": "0.1"}),
        ("veto-core", {"epsilon": "0.1"}),
    ])
    def test_rule_parameter_of_the_wrong_type_names_itself(self, name, params):
        (key, value), = params.items()
        message = re.escape(f"rule {name!r} parameter {key!r} must be a number, "
                            f"not {type(value).__name__}") + "$"
        with pytest.raises(ValueError, match=message):
            harness.RuleSpec(name, params)
        doc = {"source": {"generator": "simplex", "params": {"actions": 2}},
               "rules": [{"name": name, **params}], "seed": 1}
        with pytest.raises(ValueError, match=message):
            harness.ExperimentSpec.from_json(json.dumps(doc))

    def test_generator_numbers_take_integers(self):
        source = {"generator": "mis", "params": {"vertices": 3, "edge_prob": 1}}
        harness.ExperimentSpec(source=source, rules=(), seed=1)
        assert harness._instantiate(source, 5).num_agents == 3

    def test_dropped_agents_recorded_per_instance(self):
        # isolated vertices of a sparse graph are indifferent agents
        spec = harness.ExperimentSpec(
            source={"generator": "mis", "params": {"vertices": 6, "edge_prob": 0.2}},
            rules=(harness.RuleSpec("utilitarian"),), seed=4, num_instances=3)
        out = harness.run_experiment(spec)
        results = json.loads(out.json_text)["results"]
        assert [r["dropped_agents"] for r in results] == [[2, 3, 5], [2, 3], [0, 1, 5]]
        assert [len(row.returns) for row in out.rows] == [3, 4, 3]

    def test_generator_defaults(self):
        m = harness._instantiate({"generator": "random", "params": {"states": 2}}, 5)
        assert (m.num_states, m.num_actions, m.num_agents) == (2, 3, 3)

    def test_rule_defaults_live_in_the_rule(self):
        pipe = harness.prepare(pa.random_momdp(2, 2, 20, seed=3), 500, seed=1)
        n = pipe.model.num_agents
        assert n > 18  # min(0.05, 0.9 / n) picks 0.9 / n
        veto = harness.run_rule("veto-core", pipe).certificate
        assert veto.epsilon == min(0.05, 0.9 / n)
        assert harness.run_rule("approval", pipe).certificate.alpha == 0.9

    def test_write_experiment(self, tmp_path):
        out = harness.write_experiment(small_spec(), tmp_path / "exp")
        assert (tmp_path / "exp" / "results.csv").read_text() == out.csv_text
        assert (tmp_path / "exp" / "results.json").read_text() == out.json_text

    def test_spec_json_takes_null_walk_defaults_and_a_boolean(self):
        doc = {"source": {"generator": "simplex", "params": {"actions": 2}},
               "rules": [{"name": "utilitarian"}], "seed": 1, "burn_in": None,
               "thinning": 3, "record_runtime": True}
        spec = harness.ExperimentSpec.from_json(json.dumps(doc))
        assert (spec.burn_in, spec.thinning, spec.record_runtime) == (None, 3, True)

    def test_unknown_cdf_kind_rejected_before_any_walk(self, no_walk):
        message = "^unknown cdf kind 'bogus'; known: empirical, logistic$"
        with pytest.raises(ValueError, match=message):
            small_spec(cdf_kind="bogus")
        with pytest.raises(ValueError, match=message):
            harness.prepare(pa.gen_simplex_instance(2), 100, seed=1, cdf_kind="bogus")


class TestOutputDir:
    def test_makes_missing_parents(self, tmp_path):
        with harness.output_dir(tmp_path / "a" / "b") as path:
            assert path == tmp_path / "a" / "b" and path.is_dir()
        assert path.is_dir()

    def test_failure_removes_the_outermost_directory_made(self, tmp_path):
        with pytest.raises(KeyError):
            with harness.output_dir(tmp_path / "a" / "b") as path:
                (path / "partial.csv").write_text("x")
                raise KeyError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_directories_that_existed(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "old.txt").write_text("kept")
        with pytest.raises(KeyError):
            with harness.output_dir(tmp_path / "a" / "b") as path:
                (path / "partial.csv").write_text("x")
                raise KeyError("boom")
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["old.txt"]
        with pytest.raises(KeyError):
            with harness.output_dir(tmp_path / "a"):
                raise KeyError("boom")
        assert (tmp_path / "a" / "old.txt").read_text() == "kept"


LP_RULES = (harness.RuleSpec("utilitarian"), harness.RuleSpec("egalitarian"),
            harness.RuleSpec("plurality"))


@pytest.fixture
def no_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walked for a rule that reads no cloud")

    monkeypatch.setattr(volume, "affine_hull", refuse)
    monkeypatch.setattr(volume, "sample_uniform", refuse)


class TestLazyWalk:
    """The hull chart, the cloud and the CDFs are drawn only for a rule that
    reads them, once per instance, before the first rule runs."""

    def test_lp_only_experiment_never_walks(self, no_walk):
        out = harness.run_experiment(small_spec(rules=LP_RULES))
        assert len(out.rows) == 6 and not out.failures

    @pytest.mark.parametrize("walk", [
        {"samples": 0}, {"burn_in": -1}, {"thinning": 0},
    ])
    def test_walk_parameters_checked_without_a_walk(self, no_walk, walk):
        bad = "count must be positive|bad walk parameters"
        with pytest.raises(ValueError, match=bad):
            harness.prepare(pa.gen_simplex_instance(2), **{"samples": 100, "seed": 1, **walk})
        with pytest.raises(ValueError, match=bad):
            small_spec(rules=LP_RULES, **walk)

    def test_mixed_spec_walks_once_per_instance_before_the_first_rule(self, monkeypatch):
        events = []

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("affine_hull", "sample_uniform"):
            monkeypatch.setattr(volume, name, logged(name, getattr(volume, name)))
        monkeypatch.setattr(harness, "run_rule", logged("rule", harness.run_rule))
        rules = (harness.RuleSpec("utilitarian"), harness.RuleSpec("max-quantile"),
                 harness.RuleSpec("veto-core"), harness.RuleSpec("egalitarian"))
        out = harness.run_experiment(small_spec(rules=rules))
        assert len(out.rows) == 8
        assert events == 2 * ["affine_hull", "sample_uniform", "rule", "rule", "rule", "rule"]

    def test_walk_failure_lands_under_prepare(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise pa.DegeneratePolytope("no interior")

        monkeypatch.setattr(volume, "sample_uniform", degenerate)
        out = harness.run_experiment(small_spec())
        assert not out.rows
        assert [(f["seed"], f["stage"], f["error"]) for f in out.failures] == \
            [(50, "prepare", "DegeneratePolytope"), (51, "prepare", "DegeneratePolytope")]
        assert json.loads(out.json_text)["results"] == []

    @pytest.mark.parametrize("rule", ["veto-core", "max-quantile", "borda-milp"])
    def test_lp_solves_leave_out_the_walk(self, rule):
        m = pa.gen_simplex_instance(3)
        fresh = harness.prepare(m, 2000, seed=4)
        drawn = harness.prepare(m, 2000, seed=4)
        drawn.cdfs
        a = harness.run_rule(rule, fresh).diagnostics
        b = harness.run_rule(rule, drawn).diagnostics
        assert (a.lp_solves, a.samples_used) == (b.lp_solves, b.samples_used)
