"""Command-line interface: exit codes, artifacts, determinism."""

from __future__ import annotations

import json
import math

import pytest

from regsep.backward import disjoint
from regsep.cli import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_INPUT_ERROR,
    EXIT_NOT_DISJOINT,
    EXIT_OK,
    EXIT_PROPERTY_FAILED,
    main,
)
from regsep.fileio import load_automaton, load_net, net_to_dict, save_net
from regsep.generators import last_letter_net, last_letter_pair, random_net_pair
from regsep.petri import LabeledPetriNet, Transition

from .conftest import make_worked_pair


@pytest.fixture()
def worked_files(tmp_path):
    n1, n2 = make_worked_pair()
    p1, p2 = tmp_path / "n1.net", tmp_path / "n2.net"
    save_net(n1, str(p1))
    save_net(n2, str(p2))
    return str(p1), str(p2)


class TestCover:
    def test_not_coverable(self, tmp_path, capsys):
        net = LabeledPetriNet(
            places=("p",),
            alphabet=("a",),
            transitions=(Transition("t", "a", (1,), (0,)),),
            initial=(0,),
            final=(2,),
        )
        path = tmp_path / "n.net"
        save_net(net, str(path))
        assert main(["cover", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "NOT COVERABLE" in out
        assert "basis" in out

    def test_coverable(self, tmp_path, capsys):
        net = LabeledPetriNet(
            places=("p",),
            alphabet=("a",),
            transitions=(Transition("t", "a", (0,), (1,)),),
            initial=(0,),
            final=(1,),
        )
        path = tmp_path / "c.net"
        save_net(net, str(path))
        assert main(["cover", str(path)]) == EXIT_PROPERTY_FAILED
        assert "COVERABLE" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["cover", str(tmp_path / "nope.net")]) == EXIT_INPUT_ERROR

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text('{"places": ["p"], "bogus": 1}')
        assert main(["cover", str(path)]) == EXIT_INPUT_ERROR


class TestDisjoint:
    def test_disjoint_pair(self, worked_files, capsys):
        p1, p2 = worked_files
        assert main(["disjoint", p1, p2]) == EXIT_OK
        assert "DISJOINT" in capsys.readouterr().out

    def test_overlapping_pair(self, worked_files, capsys):
        p1, _ = worked_files
        assert main(["disjoint", p1, p1]) == EXIT_PROPERTY_FAILED
        assert "NOT DISJOINT" in capsys.readouterr().out


class TestInvariant:
    def test_report(self, worked_files, capsys):
        p1, p2 = worked_files
        assert main(["invariant", p1, p2]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ideal" in out and "ok" in out

    def test_coverable_product(self, worked_files):
        p1, _ = worked_files
        assert main(["invariant", p1, p1]) == EXIT_PROPERTY_FAILED

    def test_coverable_product_refused_from_the_cover(self, tmp_path, monkeypatch, capsys):
        # saturating this product to its fixpoint keeps 1,200 nodes; the
        # forward cover proves it coverable once the search keeps 68
        path = tmp_path / "n.net"
        save_net(last_letter_net(0, 4), str(path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"node_budget": 100}')
        monkeypatch.setenv("REGSEP_CONFIG", str(cfg))
        assert main(["invariant", str(path), str(path)]) == EXIT_PROPERTY_FAILED
        out = capsys.readouterr().out
        assert out == "COVERABLE: the product accepts a word, no inductive invariant exists\n"

    def test_complement_budget_from_environment(self, tmp_path, monkeypatch, capsys):
        # the saturation fits in 31 nodes, the complement needs 32 ideals
        n1, n2 = random_net_pair(1)
        p1, p2 = tmp_path / "n1.net", tmp_path / "n2.net"
        save_net(n1, str(p1))
        save_net(n2, str(p2))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"node_budget": 31}')
        monkeypatch.setenv("REGSEP_CONFIG", str(cfg))
        assert main(["invariant", str(p1), str(p2)]) == EXIT_BUDGET_EXCEEDED
        assert "complement held 32 ideals" in capsys.readouterr().err


class TestSeparate:
    def test_artifacts_and_verify(self, worked_files, tmp_path, capsys):
        p1, p2 = worked_files
        out = tmp_path / "out"
        code = main(["separate", p1, p2, "-o", str(out), "--verify"])
        assert code == EXIT_OK
        assert "verified" in capsys.readouterr().out
        for name in ("core.aut", "complement.aut", "separator.aut"):
            load_automaton(str(out / name))  # parses back
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["ideal_count"] == 3
        assert sorted(map(tuple, prov["basis"])) == [[0, 3], [1, 2], [2, 1]] or sorted(
            tuple(v) for v in prov["basis"]
        ) == [(0, 3), (1, 2), (2, 1)]

    def test_output_over_a_file_exits_2(self, worked_files, tmp_path, capsys):
        p1, p2 = worked_files
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["separate", p1, p2, "-o", str(taken)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_self_overlap_exits_3(self, tmp_path):
        net = LabeledPetriNet(
            places=("p",),
            alphabet=("a",),
            transitions=(Transition("t", "a", (0,), (1,)),),
            initial=(0,),
            final=(1,),
        )
        path = tmp_path / "n.net"
        save_net(net, str(path))
        code = main(["separate", str(path), str(path), "-o", str(tmp_path / "o")])
        assert code == EXIT_NOT_DISJOINT

    def test_rerun_byte_identical(self, worked_files, tmp_path):
        p1, p2 = worked_files
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["separate", p1, p2, "-o", str(out1)]) == EXIT_OK
        assert main(["separate", p1, p2, "-o", str(out2)]) == EXIT_OK
        for name in ("core.aut", "complement.aut", "separator.aut", "provenance.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_contain_first_swaps_orientation(self, worked_files, tmp_path):
        p1, p2 = worked_files
        out = tmp_path / "o"
        code = main(
            ["separate", p2, p1, "-o", str(out), "--contain", "first", "--verify"]
        )
        assert code == EXIT_OK

    def test_dot_export(self, worked_files, tmp_path):
        p1, p2 = worked_files
        out = tmp_path / "o"
        assert (
            main(["separate", p1, p2, "-o", str(out), "--format", "dot"]) == EXIT_OK
        )
        assert (out / "separator.aut.dot").read_text().startswith("digraph")

    def test_t2_level_verify(self, worked_files, tmp_path):
        p1, p2 = worked_files
        out = tmp_path / "o"
        code = main(
            ["separate", p1, p2, "-o", str(out), "--level", "t2", "--verify"]
        )
        assert code == EXIT_OK

    def test_t2_level_verify_with_unused_letters(self, tmp_path):
        # the second net declares a letter its transitions never carry; the
        # inner-level check must still line up the alphabets
        n1, n2 = random_net_pair(9)
        assert disjoint(n1, n2)
        assert set(n2.alphabet) - {t.label for t in n2.transitions}
        p1, p2 = tmp_path / "n1.net", tmp_path / "n2.net"
        save_net(n1, str(p1))
        save_net(n2, str(p2))
        out = tmp_path / "o"
        code = main(
            ["separate", str(p1), str(p2), "-o", str(out), "--level", "t2", "--verify"]
        )
        assert code == EXIT_OK

    def test_separate_budget_from_environment(self, tmp_path, monkeypatch, capsys):
        p1, p2 = tmp_path / "n1.net", tmp_path / "n2.net"
        for net, path in zip(last_letter_pair(3), (p1, p2)):
            save_net(net, str(path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"node_budget": 50}')
        monkeypatch.setenv("REGSEP_CONFIG", str(cfg))
        argv = ["separate", str(p1), str(p2), "-o", str(tmp_path / "out")]
        assert main(argv) == EXIT_BUDGET_EXCEEDED
        assert "saturation kept over 50 nodes" in capsys.readouterr().err
        monkeypatch.delenv("REGSEP_CONFIG")
        assert main(argv) == EXIT_OK


class TestFloatsInInput:
    """OMEGA is a float in memory, but no float is a count on disk."""

    def test_infinity_in_a_net_exits_2(self, tmp_path, capsys):
        raw = net_to_dict(make_worked_pair()[0])
        raw["initial"] = {"p": math.inf}
        path = tmp_path / "inf.net"
        path.write_text(json.dumps(raw))
        assert "Infinity" in path.read_text()
        assert main(["cover", str(path)]) == EXIT_INPUT_ERROR
        assert "counts must be non-negative decimal integers" in capsys.readouterr().err

    def test_nan_in_an_annotation_exits_2(self, worked_files, tmp_path, capsys):
        p1, p2 = worked_files
        out = tmp_path / "out"
        assert main(["separate", p1, p2, "-o", str(out)]) == EXIT_OK
        raw = json.loads((out / "core.aut").read_text())
        state = next(iter(raw["annotations"]))
        raw["annotations"][state] = {place: math.nan for place in raw["annotation_places"]}
        path = tmp_path / "nan.aut"
        path.write_text(json.dumps(raw))
        assert "NaN" in path.read_text()
        assert main(["verify", p1, p2, str(path)]) == EXIT_INPUT_ERROR
        assert "counts must be non-negative decimal integers" in capsys.readouterr().err


class TestVerifyCommand:
    def test_good_separator(self, worked_files, tmp_path, capsys):
        p1, p2 = worked_files
        out = tmp_path / "o"
        main(["separate", p1, p2, "-o", str(out)])
        code = main(["verify", p1, p2, str(out / "separator.aut")])
        assert code == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_bad_separator(self, worked_files, tmp_path, capsys):
        p1, p2 = worked_files
        aut = tmp_path / "univ.aut"
        aut.write_text(
            json.dumps(
                {
                    "states": ["u"],
                    "alphabet": ["a"],
                    "initial": ["u"],
                    "final": ["u"],
                    "transitions": [["u", "a", "u"]],
                }
            )
        )
        code = main(["verify", p1, p2, str(aut)])
        assert code == EXIT_PROPERTY_FAILED
        assert "witness" in capsys.readouterr().out


class TestSample:
    def test_enumerates_words(self, worked_files, capsys):
        p1, _ = worked_files
        assert main(["sample", p1, "--maxlen", "4"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["a.a", "a.a.a", "a.a.a.a"]

    def test_cap_enforced(self, worked_files):
        p1, _ = worked_files
        assert main(["sample", p1, "--maxlen", "11"]) == EXIT_INPUT_ERROR

    def test_negative_maxlen_rejected(self, worked_files, capsys):
        p1, _ = worked_files
        assert main(["sample", p1, "--maxlen", "-3"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative" in captured.err

    def test_config_raises_cap(self, worked_files, tmp_path):
        p1, _ = worked_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sample_maxlen_cap": 12}')
        assert (
            main(["--config", str(cfg), "sample", p1, "--maxlen", "11"]) == EXIT_OK
        )

    def test_budget_exhausted_has_own_exit_code(self, worked_files, tmp_path, capsys):
        p1, _ = worked_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"node_budget": 1}')
        assert main(["--config", str(cfg), "sample", p1]) == EXIT_BUDGET_EXCEEDED
        assert "budget exceeded" in capsys.readouterr().err


class TestGenerators:
    def test_gen_lastletter(self, tmp_path):
        out = tmp_path / "ll.net"
        assert main(["gen-lastletter", "--bit", "1", "--k", "2", "-o", str(out)]) == EXIT_OK
        net = json.loads(out.read_text())
        assert net["alphabet"] == ["0", "1", "b", "c"]

    def test_gen_lastletter_out_of_range(self, tmp_path):
        out = tmp_path / "ll.net"
        assert (
            main(["gen-lastletter", "--bit", "1", "--k", "99", "-o", str(out)])
            == EXIT_INPUT_ERROR
        )

    def test_gen_lastletter_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.net"
        args = ["gen-lastletter", "--bit", "0", "--k", "2", "-o", str(out)]
        assert main(args) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_gen_random_matches_library(self, tmp_path, capsys):
        prefix = tmp_path / "pair"
        assert main(["gen-random", "--seed", "3", "-o", str(prefix)]) == EXIT_OK
        verdict = capsys.readouterr().out.strip()
        n1, n2 = random_net_pair(3)
        assert verdict == ("DISJOINT" if disjoint(n1, n2) else "NOT DISJOINT")
        assert load_net(f"{prefix}_1.net") == n1
        assert load_net(f"{prefix}_2.net") == n2

    def test_gen_random_decides_under_the_configured_budget(self, tmp_path, capsys):
        # the nets are written before the decision runs out of budget
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"node_budget": 1}')
        prefix = tmp_path / "pair"
        args = ["--config", str(cfg), "gen-random", "--seed", "4", "-o", str(prefix)]
        assert main(args) == EXIT_BUDGET_EXCEEDED
        assert "budget exceeded: saturation kept over 1 nodes" in capsys.readouterr().err
        assert (load_net(f"{prefix}_1.net"), load_net(f"{prefix}_2.net")) == random_net_pair(4)


class TestDuplicateKeys:
    """`json` keeps the last of two equal keys; the loaders refuse them."""

    def test_net_with_two_initial_markings_exits_2(self, tmp_path, capsys):
        text = json.dumps(net_to_dict(make_worked_pair()[0]))
        path = tmp_path / "twice.net"
        path.write_text(text[:-1] + ', "initial": {"p": 5}}')
        assert main(["cover", str(path)]) == EXIT_INPUT_ERROR
        assert "duplicate key 'initial'" in capsys.readouterr().err

    def test_automaton_annotating_a_state_twice_exits_2(self, worked_files, tmp_path, capsys):
        path = tmp_path / "twice.aut"
        path.write_text(
            '{"states": ["q"], "alphabet": ["a"], "initial": ["q"], "final": [],'
            ' "transitions": [], "annotation_places": ["p"],'
            ' "annotations": {"q": {"p": 1}, "q": {"p": 3}}}'
        )
        assert main(["verify", *worked_files, str(path)]) == EXIT_INPUT_ERROR
        assert "duplicate key 'q'" in capsys.readouterr().err

    def test_config_with_a_repeated_key_exits_2(self, worked_files, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"node_budget": 1, "node_budget": 500000}')
        assert main(["--config", str(cfg), "cover", worked_files[0]]) == EXIT_INPUT_ERROR
        assert "duplicate key 'node_budget'" in capsys.readouterr().err


class TestInputShapes:
    """A value of the wrong JSON type where an object belongs exits 2 with one line."""

    def _exits_2(self, argv, capsys):
        assert main(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_automaton_file_holding_a_list(self, worked_files, tmp_path, capsys):
        path = tmp_path / "list.aut"
        path.write_text("[]")
        self._exits_2(["verify", *worked_files, str(path)], capsys)

    def test_config_file_holding_a_list(self, worked_files, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('[{"node_budget": 1}]')
        self._exits_2(["--config", str(cfg), "cover", worked_files[0]], capsys)

    def test_net_transition_that_is_not_an_object(self, tmp_path, capsys):
        raw = net_to_dict(make_worked_pair()[0])
        raw["transitions"][0] = ["t", "a", {}, {}]
        path = tmp_path / "shape.net"
        path.write_text(json.dumps(raw))
        self._exits_2(["cover", str(path)], capsys)
