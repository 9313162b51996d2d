import argparse
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab import subfun, verify
from oscillab.cli import (CONFIG_ERRORS, EXIT_BAD_CONFIG, EXIT_OK, REFINE_EPS, RunConfig,
                          _load_function, _parse_e_spec, grid_step, main)
from oscillab.mainlemma import RogueConfiguration
from oscillab.subfun import eval_T
from oscillab.treeset import _GROWTH_RE, GrowthParameters, TreeSpec, parse_growth
from oscillab.verify import EmptyDomainError, laplacian_refinement_study


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


class TestOutOfMemory:
    """A function too large for the host is a configuration error that
    names its k, with nothing written; build_u is made to raise, so the
    tests allocate nothing big."""

    @pytest.fixture
    def no_memory(self, monkeypatch):
        def build_u(*args, **kwargs):
            raise MemoryError("Unable to allocate 21.3 MiB for an array")

        monkeypatch.setattr(subfun, "build_u", build_u)

    def test_build(self, tmp_path, capsys, no_memory):
        out = tmp_path / "out"
        code = main(["build", "--d", "2", "--f", "t^1.5", "--k", "10", "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: the function of --k 10 ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "growth"])
    def test_function_file(self, built, tmp_path, capsys, no_memory, command):
        code = main([command, "--function", str(built / "function.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "the function of k = 4 " in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestFunctionFile:
    """A function file whose recorded levels or checks differ from the
    function rebuilt from its f, d and k is refused."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--function", "F"], ["growth", "--function", "F"],
        ["lemma", "--d", "2", "--N", "16", "--function", "F"],
        ["lemma", "--d", "2", "--N", "16", "--c0", "0.5", "--E", "function:F"],
        ["lemma", "--d", "2", "--N", "16", "--c0", "0.5", "--E", "function:F",
         "--function", "F"]])
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

    @pytest.mark.parametrize("h", ["0", "nan", "inf", "-0.03125", "1e-320", "0.05",
                                   "0.01", "0.2"])
    def test_grid_h_refused(self, built, tmp_path, capsys, h):
        # 0.05, 0.01 and 0.2 are steps whose grids put no masked point
        # inside the box; the step is refused before the function is read,
        # so also when there is no function file
        for function in (built / "function.json", tmp_path / "missing.json"):
            out = tmp_path / "out"
            code = main(["verify", "--function", str(function), "--grid-h", h,
                         "--out", str(out)])
            assert code == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("configuration error") and "--grid-h" in err
            assert "Traceback" not in err and len(err.splitlines()) == 1
            assert not out.exists()

    @pytest.mark.parametrize("d", [2, 3])
    def test_grid_h_refused_exactly_where_the_refinement_is_empty(self, d):
        # grid_step accepts a step when the refinement of ``verify`` finds a
        # masked interior point on every grid, in either dimension
        accepted = 0
        for h in np.concatenate([np.linspace(0.01, 0.3, 59), [1 / 16, 1 / 32, 1 / 48]]):
            try:
                grid_step(repr(float(h)))
                ok = True
            except argparse.ArgumentTypeError:
                ok = False
            mask = lambda pts: np.all(np.abs(pts[:, 1:]) < h / 2, axis=1)
            try:
                laplacian_refinement_study(
                    lambda pts: eval_T(REFINE_EPS, pts, d),
                    np.array([-0.5] + [-REFINE_EPS / 2] * (d - 1)), 1.0,
                    [4 * h, 2 * h, h], mask)
                found = True
            except EmptyDomainError:
                found = False
            assert ok == found, h
            # and verify samples the finest grid of every step it accepts
            assert not ok or verify.grid_size(1.0, h) ** d <= verify.REFINEMENT_POINTS_MAX
            accepted += ok
        assert 0 < accepted < 62

    @pytest.mark.parametrize("function, h", [("built", "0.0001"), ("built", "1e-15"),
                                             ("built_d3", "0.0078125")])
    def test_grid_h_refused_above_the_grid_cap(self, request, tmp_path, capsys, monkeypatch,
                                               function, h):
        # the finest refinement grid would hold more than
        # REFINEMENT_POINTS_MAX points (1/128 only in d = 3: 129^3 of them);
        # the step is refused from the dimension the function file records,
        # before the function is rebuilt or any grid is sampled
        assert grid_step(h) == float(h)
        path = request.getfixturevalue(function) / "function.json"

        def never(*args, **kwargs):
            raise AssertionError("built before the step was refused")

        monkeypatch.setattr(verify.GridField, "sample", never)
        monkeypatch.setattr(subfun, "build_u", never)
        out = tmp_path / "out"
        code = main(["verify", "--function", str(path), "--grid-h", h, "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "--grid-h" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()

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


#: sha256 of the same censuses' reports (``_report_digest``), which
#: census.csv records only as classes; recorded while every cube looked its
#: rows up three times
CENSUS_REPORT_DIGESTS = {
    (2, "t^1.5", 3): "48aeecddeacf110ad130d1db56154f8e03d0a46cda78bae33a3b2e763107ab6a",
    (2, "t^1.5", 4): "e8e9179e43193466f8c18eb88542efb5e3a5bb78253f4140c84dbdc69c451ef2",
    (3, "t^2", 2): "44bb7b06e8e95565e62baa0eb6a79bbeba41c2aacae4d262529f73ab101ea80b",
    (3, "t^2", 3): "7c4cbb35934a6af29111afcfc78c903fe4180c114c3694fb2e13f832b600e639",
}


def _report_digest(reports):
    """sha256 of every report's corner, P1 and P2 flags, and its sup_low
    and projection as raw float64 bytes."""
    h = hashlib.sha256()
    for r in reports:
        h.update(np.array(r.cube, dtype=np.int64).tobytes())
        h.update(bytes([r.p1_satisfied, r.p2_satisfied]))
        h.update(np.array([r.sup_low, r.projection]).tobytes())
    return h.hexdigest()


def _keep_results(monkeypatch, owner, name, kept):
    """Wrap ``owner.name`` so that every result it returns is appended to
    ``kept``."""
    call = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: kept.append(call(*a, **k)) or kept[-1])


@pytest.mark.parametrize("d, f, k", list(CENSUS_DIGESTS))
def test_census_bytes(tmp_path, monkeypatch, d, f, k):
    censuses = []
    _keep_results(monkeypatch, verify, "rogue_census", censuses)
    assert main(["build", "--d", str(d), "--f", f, "--k", str(k),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert main(["verify", "--function", str(tmp_path / "function.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "census.csv").read_bytes()).hexdigest()
    assert digest == CENSUS_DIGESTS[(d, f, k)]
    [census] = censuses
    assert _report_digest(census.reports) == CENSUS_REPORT_DIGESTS[(d, f, k)]


#: for ``build --d 2 --f t^1.5 --k 5`` then ``lemma --d 2 --N 32 --E
#: function:F --function F`` (the README's line): the size and the sha256 of
#: the sorted corners of the rogue set ``from_function`` finds, and the
#: sha256 of contraction.csv, recorded while every cube looked its rows up
#: three times and ``chain_contraction`` sampled every row's centreline
LEMMA_FUNCTION_DIGESTS = (
    99, "b266b5232864c374fb209dfb72a2a74a6cb79a27b0aa6c3f8189050b2d813019",
    "059eb2195e61bd2a48a33fe8d3a03c1c43ba3207b7d6f5a1c5180e1009acf8ca")


def test_lemma_function_bytes(tmp_path, monkeypatch):
    assert main(["build", "--d", "2", "--f", "t^1.5", "--k", "5",
                 "--out", str(tmp_path)]) == EXIT_OK
    path = str(tmp_path / "function.json")
    builds, configs = [], []
    _keep_results(monkeypatch, subfun, "build_u", builds)
    _keep_results(monkeypatch, RogueConfiguration, "from_function", configs)
    out = tmp_path / "lemma"
    assert main(["lemma", "--d", "2", "--N", "32", "--E", f"function:{path}",
                 "--function", path, "--out", str(out)]) == EXIT_OK
    # both options name one file, which is built once
    assert len(builds) == 1
    [config] = configs
    corners = np.array(sorted(config.E), dtype=np.int64)
    assert (len(config.E), hashlib.sha256(corners.tobytes()).hexdigest(),
            hashlib.sha256((out / "contraction.csv").read_bytes()).hexdigest()
            ) == LEMMA_FUNCTION_DIGESTS


#: sha256 of growth.csv for ``build --d D --f F --k K`` then ``growth``,
#: recorded while ``sup_on`` still evaluated every sample point; they hold
#: for the numpy build and CPU features they were recorded with
GROWTH_DIGESTS = {
    (2, "t^1.5", 4): "52c90b8eca5957509c43794b2d60cfe74fc48d3d9b2701dcaf0c306ca72fccaf",
    (2, "t^1.5", 5): "54c40917742d156db0e320ae966a053623ac09fe119e8b0002c33fc5941b2ae8",
    (3, "t^2", 2): "23b386c1ff37a994e1312afa0b13e3c0d714867797026b776c7c7b938aea44ff",
    (3, "t^2", 3): "3153fd4220ed34d2552a9bcd608eb21b770c25c23687dd840b775bb1328f35c7",
}


@pytest.mark.parametrize("d, f, k", list(GROWTH_DIGESTS))
def test_growth_bytes(tmp_path, d, f, k):
    assert main(["build", "--d", str(d), "--f", f, "--k", str(k),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert main(["growth", "--function", str(tmp_path / "function.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "growth.csv").read_bytes()).hexdigest()
    assert digest == GROWTH_DIGESTS[(d, f, k)]


#: sha256 of tree.json, tree.svg (d = 2 only) and function.json for
#: ``build --d D --f F --k K``, recorded while the rows were made one tube
#: field at a time and tree.json was written by ``json.dump``; they hold
#: for the numpy build and CPU features they were recorded with
BUILD_DIGESTS = {
    (2, "t^1.5", 3): ("5cd46b9d40dfcf4b0c744db9a6381821ebcd1327a86425ec7170dec3efca5891",
                      "0e8d532a02df86b505923dd8764a64eb137327f5e5415b9b48d80a362f69dc75",
                      "d5dbb1dedb29c16f9f3f0763604839de52ef08d21fcd190d6a963131139f7329"),
    (2, "t^1.5", 4): ("ccd11ca715e41ea7e7255979eadd9e78f87c13c172dd2dda4831a8811ed065cc",
                      "b7ff0d80a46dfd43083738f859550c7f6e6e3df585f9606c0407be26ba5c2c09",
                      "0ec7ee8e91ba4283b28eb1de143c3f769fcf233e30c4a16547aae42f7dc2420f"),
    (2, "t^1.5", 5): ("5f57f20ea93d16f22788cfa428441f9733bf40f11ac7cfb55ee225275e5bbdeb",
                      "529b353320360b10afc2e961ffa0394b073fef333e2835d8b819dae4d03d8835",
                      "75e9e47e592b662c99eaabcbc79716051c4ed896e52c09950d546afb6edbf85f"),
    (2, "t^1.5", 6): ("4381a1bde75a740ff1d969718fa08a45a02abde857553e8015d6e61181073e72",
                      "3167b660557bf4ee6ca0d260147046dc1168a294652771974a41bb6c9f3d9166",
                      "d80811cac88b0973473f05e8f3a30408c3b55deece5ebefc15f40af62fb3cf8a"),
    (3, "t^2", 2): ("e55f6c1a8ce02d1fd04cb299b5f0840ac70c59ca2ee25ffbb09f37d394343deb", None,
                    "b2c4a23aed50e71409d7f70540b2adf3f34cbb92c207efa747bbe232864f7d50"),
    (3, "t^2", 3): ("5db51b8aeedb6889b7e268fe836abd3aae980298c547f7a5b1f3f3a0a2da3fc8", None,
                    "aad6030f8ddd3d67db62bd1b3663894953196ca36ed2fd8cf2853b7adb2ec801"),
}


@pytest.mark.parametrize("d, f, k", list(BUILD_DIGESTS))
def test_build_bytes(tmp_path, d, f, k):
    assert main(["build", "--d", str(d), "--f", f, "--k", str(k),
                 "--out", str(tmp_path)]) == EXIT_OK
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    if (tmp_path / name).exists() else None
                    for name in ("tree.json", "tree.svg", "function.json"))
    assert digests == BUILD_DIGESTS[(d, f, k)]
    # the file is what json.dump(..., indent=1) writes for the data it holds
    text = (tmp_path / "tree.json").read_text()
    assert text == json.dumps(json.loads(text), indent=1) + "\n"


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

    def test_no_level_measured_is_flagged(self, tmp_path, capsys):
        # build --k 1 makes a k = 2 function; the levels start at R = 2^3,
        # so the sup check ran on nothing
        assert main(["build", "--d", "2", "--f", "t^1.5", "--k", "1",
                     "--out", str(tmp_path)]) == EXIT_OK
        code = main(["growth", "--function", str(tmp_path / "function.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "growth.json").read_text())
        sup = next(c for c in doc["checks"] if c["check"] == "level_sup_below_threshold")
        assert sup["status"] == "flagged" and sup["levels"] == []
        assert "[flagged] level_sup_below_threshold" in capsys.readouterr().out
        assert (tmp_path / "growth.csv").read_text().splitlines() == [
            "R,log_M,log_threshold,denominator,ratio,log_M_upper"]

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
            config = _parse_e_spec(spec, RunConfig(d=2, N=16),
                                   lambda path: _load_function(path, 2)[1])
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

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe", b"[1, 2]", None])
    def test_malformed_tool_report(self, tmp_path, capsys, content):
        # None: a directory where the report should be
        path = tmp_path / "verify.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code = main(["report", "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "verify.json" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not (tmp_path / "report.json").exists()


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
