import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab.cli import (CONFIG_ERRORS, EXIT_BAD_CONFIG, EXIT_OK, RunConfig,
                          _load_function, _parse_e_spec, main)
from oscillab.mainlemma import RogueConfiguration
from oscillab.treeset import _GROWTH_RE, GrowthParameters, TreeSpec, parse_growth


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("build")
    code = main(["build", "--d", "2", "--f", "t^1.5", "--k", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def built_d3(tmp_path_factory):
    out = tmp_path_factory.mktemp("build_d3")
    code = main(["build", "--d", "3", "--f", "t^2", "--k", "2", "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestBuild:
    def test_artifacts_written(self, built):
        assert (built / "tree.json").exists()
        assert (built / "function.json").exists()
        assert (built / "tree.svg").exists()
        doc = json.loads((built / "function.json").read_text())
        assert doc["d"] == 2 and doc["k"] == 4

    def test_rejects_super_volume_growth(self, tmp_path):
        code = main(["build", "--d", "2", "--f", "t^3", "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("spec", ["t^2*log(2+t)^300", "t^0*log(t)^-7923"])
    def test_rejects_growth_past_double_range_without_warning(self, tmp_path, capsys, spec):
        # f overflows, or underflows to 0, inside the sampled range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["build", "--d", "2", "--f", spec, "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        assert "not a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["t^1/0", "t^.", "..*t^1.5", "0*t^1.5"])
    def test_malformed_growth_number(self, tmp_path, capsys, spec):
        code = main(["build", "--d", "2", "--f", spec, "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(spec=st.one_of(st.text(max_size=24),
                          st.from_regex(_GROWTH_RE, fullmatch=True)))
    def test_growth_parser_total(self, spec):
        # every spec either parses to validated parameters or raises an
        # error main maps to exit 3
        try:
            g = parse_growth(spec, 2)
        except CONFIG_ERRORS:
            return
        assert isinstance(g, GrowthParameters) and 0 <= g.index <= 2 and g.coeff > 0
        assert g.t_onset == g.t_onset  # validate() measured the doubling window
        assert np.all(np.isfinite(g(np.geomspace(1.0, 1e6))))
        assert np.all(g(np.geomspace(1.0, 1e6)) > 0)

    def test_d3_orthant_metadata(self, built_d3):
        doc = json.loads((built_d3 / "function.json").read_text())
        assert doc["orthant_components"] == 8

    def test_deterministic_output(self, built, tmp_path):
        code = main(["build", "--d", "2", "--f", "t^1.5", "--k", "3",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "function.json").read_text() == \
            (built / "function.json").read_text()
        assert (tmp_path / "tree.json").read_text() == \
            (built / "tree.json").read_text()


    def test_tree_read_off_function(self, built):
        # tree.json holds the function's own tubes: every row of its table
        # but the outgoing handle
        tree = TreeSpec.from_json((built / "tree.json").read_text())
        _g, ub, _doc = _load_function(built / "function.json")
        table = ub.node
        key = lambda b, diameter: (tuple(round(float(v), 12) for v in b),
                                   round(float(diameter), 12))
        rows = {key(b, e) for b, e in zip(table.tube_b, table.eps)}
        assert (tree.dimension, tree.rank) == (2, 4)
        assert len(tree.tubes) == len(table.eps) - 1
        assert all(key(t.b, t.diameter) in rows for t in tree.tubes)


class TestFunctionFile:
    """A function file whose recorded levels or checks differ from the
    function rebuilt from its f, d and k is refused."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--function", "F"], ["growth", "--function", "F"],
        ["lemma", "--d", "2", "--N", "16", "--function", "F"],
        ["lemma", "--d", "2", "--N", "16", "--c0", "0.5", "--E", "function:F"]])
    def test_edited_amplitude_refused(self, built, tmp_path, capsys, argv):
        doc = json.loads((built / "function.json").read_text())
        doc["levels"][-1]["amplitude"] += 1.0
        path = tmp_path / "function.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main([a.replace("F", str(path)) for a in argv] + ["--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "levels" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()


class TestVerify:
    def test_smoke(self, built):
        code = main(["verify", "--function", str(built / "function.json"),
                     "--grid-h", "0.03125", "--out", str(built)])
        assert code == EXIT_OK
        doc = json.loads((built / "verify.json").read_text())
        assert doc["passed"]
        names = {c["check"] for c in doc["checks"]}
        assert {"laplacian_refinement", "rogue_census"} <= names
        header = (built / "census.csv").read_text().splitlines()[0]
        assert header == "corner,p1,p2,class"

    @pytest.mark.parametrize("h", ["0", "nan", "inf", "-0.03125", "0.05"])
    def test_grid_h_refused(self, built, tmp_path, capsys, h):
        # 0.05 is a step whose grids put no masked point inside the box
        code = main(["verify", "--function", str(built / "function.json"),
                     "--grid-h", h, "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["verify", "--function", "F"],
                                      ["lemma", "--N", "16", "--E", "function:F"]])
    @pytest.mark.parametrize("eps_d", ["0", "-1", "nan", "inf", "1.5"])
    def test_eps_d_refused(self, built, tmp_path, capsys, argv, eps_d):
        argv = [a.replace("F", str(built / "function.json")) for a in argv]
        code = main(argv + ["--eps-d", eps_d, "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "--eps-d" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())


#: sha256 of census.csv for ``build --d D --f F --k K`` then ``verify``,
#: recorded while P2 was still decided by sampling on every cube; they hold
#: for the numpy build and CPU features they were recorded with
CENSUS_DIGESTS = {
    (2, "t^1.5", 3): "5b3ba927eafeac4afc231f63e31a47d25015adf75dbfceb2665d6da9ff6a728f",
    (2, "t^1.5", 4): "a47bc553d0a9ad6d5c5e26d0da0e2c95ff920d3b08279c3a8d8ad3def77d4b3f",
    (3, "t^2", 2): "b7c72a61416f432b5153431039d9f958adf43bf2cd28bf5d2421749ad06a9f3c",
    (3, "t^2", 3): "66b2ca75a86065afa81a08ea82b014e5149b5b858644debf30cb35910ddb0314",
}


@pytest.mark.parametrize("d, f, k", list(CENSUS_DIGESTS))
def test_census_bytes(tmp_path, d, f, k):
    assert main(["build", "--d", str(d), "--f", f, "--k", str(k),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert main(["verify", "--function", str(tmp_path / "function.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "census.csv").read_bytes()).hexdigest()
    assert digest == CENSUS_DIGESTS[(d, f, k)]


class TestGrowth:
    def test_smoke(self, built):
        code = main(["growth", "--function", str(built / "function.json"),
                     "--out", str(built)])
        assert code == EXIT_OK
        rows = (built / "growth.csv").read_text().splitlines()
        assert rows[0] == "R,log_M,log_threshold,denominator,ratio,log_M_upper"
        assert len(rows) >= 2
        doc = json.loads((built / "growth.json").read_text())
        sup = next(c for c in doc["checks"] if c["check"] == "level_sup_below_threshold")
        for level in sup["levels"]:
            # the verdict rests on the certified upper bound
            assert level["log_M"] <= level["log_M_upper"] <= level["log_threshold"]

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"f": "t^1.5"}',
                                      '{"f": 1.5, "d": 2, "k": 3}'])
    def test_unusable_function_file(self, tmp_path, capsys, text):
        path = tmp_path / "function.json"
        path.write_text(text)
        code = main(["growth", "--function", str(path), "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        assert "configuration error" in capsys.readouterr().err


class TestLemma:
    def test_random_density(self, tmp_path):
        code = main(["lemma", "--d", "2", "--N", "32", "--E",
                     "random:density=sqrt", "--seed", "7", "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "lemma.json").read_text())
        names = {c["check"] for c in doc["checks"]}
        assert {"property_M", "x_fraction", "kappa_count", "claim1"} <= names
        assert (tmp_path / "chains.csv").exists()

    def test_invalid_N(self, tmp_path):
        code = main(["lemma", "--d", "2", "--N", "33", "--E", "none",
                     "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("flag", [["--alpha", "-1"], ["--delta0", "0"],
                                      ["--delta0", "nan"]])
    def test_out_of_range_parameter(self, tmp_path, capsys, flag):
        code = main(["lemma", "--d", "2", "--N", "32", *flag, "--E",
                     "random:count=10", "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_bad_e_spec(self, tmp_path):
        code = main(["lemma", "--d", "2", "--N", "16", "--E", "bogus",
                     "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("spec", ["random:density=abc", "random:count=x",
                                      "random:count=-3", "random:density=1e400",
                                      "random:density=nan"])
    def test_malformed_e_spec_number(self, tmp_path, spec):
        code = main(["lemma", "--d", "2", "--N", "16", "--E", spec,
                     "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG

    @settings(max_examples=150, deadline=None)
    @given(spec=st.one_of(
        st.text(max_size=24),
        st.builds("random:density={}".format,
                  st.one_of(st.text(max_size=12), st.floats())),
        st.builds("random:count={}".format,
                  st.one_of(st.text(max_size=12), st.integers()))))
    def test_e_spec_parser_total(self, spec):
        # every spec either parses or raises an error main maps to exit 3
        try:
            config = _parse_e_spec(spec, RunConfig(d=2, N=16))
        except CONFIG_ERRORS:
            return
        assert isinstance(config, RogueConfiguration)

    def test_vacuous_d3_flagged(self, tmp_path):
        # N = 16 < 6d gives k_max = 0: the layer checks ran on nothing
        code = main(["lemma", "--d", "3", "--N", "16", "--E",
                     "random:count=8", "--seed", "3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "lemma.json").read_text())
        status = {c["check"]: c["status"] for c in doc["checks"]}
        assert status == {"property_M": "flagged", "x_fraction": "flagged",
                          "kappa_count": "flagged", "claim1": "pass",
                          "bound_value": "flagged"}
        bound = next(c for c in doc["checks"] if c["check"] == "bound_value")
        assert bound["phi_argmin"] is None
        assert doc["passed"]

    def test_report_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = main(["lemma", "--d", "2", "--N", "16", "--E",
                         "random:count=10", "--seed", "3", "--out", str(out)])
            assert code == EXIT_OK
        assert (a / "lemma.json").read_text() == (b / "lemma.json").read_text()
        assert (a / "chains.csv").read_text() == (b / "chains.csv").read_text()


class TestPotential:
    def test_annulus_oracle(self, tmp_path):
        code = main(["potential", "--oracle", "annulus", "--d", "2",
                     "--walks", "20000", "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "potential.json").read_text())
        check = doc["checks"][0]
        assert check["check"] == "wos_annulus_d2"
        assert abs(check["estimate"] - 0.5) < 0.02

    @pytest.mark.parametrize("walks", ["0", "-5"])
    def test_nonpositive_walks(self, tmp_path, walks):
        code = main(["potential", "--oracle", "annulus", "--walks", walks,
                     "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG


class TestReport:
    def test_aggregation(self, built):
        code = main(["report", "--out", str(built)])
        assert code == EXIT_OK
        doc = json.loads((built / "report.json").read_text())
        assert "verify" in doc["tools"] and "growth" in doc["tools"]


class TestOptions:
    """Each subcommand takes exactly the options it reads; a command line
    it cannot use is an invalid configuration (exit 3), not a failed check."""

    @pytest.mark.parametrize("argv", [
        ["build", "--seed", "1"], ["build", "--eps-d", "0.3"],
        ["verify", "--function", "F", "--d", "3"],
        ["verify", "--function", "F", "--threads", "2"],
        ["growth", "--function", "F", "--d", "3"], ["lemma", "--f", "t^2"],
        ["potential", "--eps-d", "0.3"], ["report", "--seed", "1"],
        ["lemma", "--function", "F", "--with-contraction"]])
    def test_removed_option(self, built, tmp_path, capsys, argv):
        argv = [str(built / "function.json") if a == "F" else a for a in argv]
        code = main(argv + ["--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "unrecognized" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        [], ["build", "--bogus", "1"], ["lemma", "--N", "abc"],
        ["build", "--d", "4"], ["potential", "--walks", "1e5"],
        ["verify"], ["growth"], ["lemma", "--function"]])
    def test_malformed_or_missing(self, tmp_path, capsys, argv):
        code = main(argv + ["--out", str(tmp_path)] if argv else argv)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage: oscillab" in capsys.readouterr().out

    def test_function_writes_contraction(self, built, tmp_path):
        code = main(["lemma", "--d", "2", "--N", "16", "--E", "random:count=4",
                     "--function", str(built / "function.json"), "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "contraction.csv").read_text().splitlines()
        assert rows[0] == "corner,n_kappa,log_ratio" and len(rows) > 1

    def test_verify_takes_dimension_from_function(self, built_d3, tmp_path):
        code = main(["verify", "--function", str(built_d3 / "function.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "census.csv").read_text().splitlines()[1:]
        assert rows and all(len(r.split(",")[0].split("|")) == 3 for r in rows)

    @pytest.mark.parametrize("flags", [["--E", "function:F"],
                                       ["--function", "F"]])
    def test_lemma_refuses_function_of_other_dimension(self, built_d3, tmp_path,
                                                       capsys, flags):
        flags = [f.replace("F", str(built_d3 / "function.json")) for f in flags]
        code = main(["lemma", "--d", "2", "--N", "16", *flags, "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "d = 3 function" in err and "Traceback" not in err
