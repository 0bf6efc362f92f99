"""File formats: nets and automata as deterministic JSON."""

from __future__ import annotations

import dataclasses
import json

import pytest

from regsep.automata import Nfa
from regsep.config import DEFAULT, load_settings
from regsep.errors import InputError
from regsep.fileio import (
    automaton_from_dict,
    automaton_to_dict,
    dumps_canonical,
    load_net,
    net_from_dict,
    net_to_dict,
    save_automaton,
    save_net,
)
from regsep.generators import last_letter_net, last_letter_pair, random_net_pair
from regsep.ideals import OMEGA
from regsep.separator import separate

from .conftest import make_worked_pair


class TestNetFormat:
    def test_round_trip(self, tmp_path):
        net = last_letter_net(1, 3)
        path = tmp_path / "n.net"
        save_net(net, str(path))
        assert load_net(str(path)) == net

    def test_zeros_omitted(self):
        net = last_letter_net(0, 2)
        raw = net_to_dict(net)
        assert raw["initial"] == {"p1": 1, "out": 2}
        assert raw["final"] == {"p4": 1, "in": 2}

    def test_unknown_field_rejected(self):
        raw = net_to_dict(last_letter_net(0, 1))
        raw["comment"] = "nope"
        with pytest.raises(InputError):
            net_from_dict(raw)

    def test_missing_field_rejected(self):
        raw = net_to_dict(last_letter_net(0, 1))
        del raw["final"]
        with pytest.raises(InputError):
            net_from_dict(raw)

    def test_unknown_place_rejected(self):
        raw = net_to_dict(last_letter_net(0, 1))
        raw["initial"] = {"ghost": 1}
        with pytest.raises(InputError):
            net_from_dict(raw)

    def test_negative_count_rejected(self):
        raw = net_to_dict(last_letter_net(0, 1))
        raw["initial"] = {"p1": -1}
        with pytest.raises(InputError):
            net_from_dict(raw)

    def test_epsilon_label_rejected(self):
        raw = net_to_dict(last_letter_net(0, 1))
        raw["alphabet"] = ["", "0", "1", "b", "c"]
        raw["transitions"][0]["label"] = ""
        with pytest.raises(InputError):
            net_from_dict(raw)

    def test_omega_not_allowed_in_net_markings(self):
        raw = net_to_dict(last_letter_net(0, 1))
        raw["initial"] = {"p1": "w"}
        with pytest.raises(InputError):
            net_from_dict(raw)

    def test_byte_determinism(self, tmp_path):
        net = random_net_pair(7)[0]
        p1, p2 = tmp_path / "a.net", tmp_path / "b.net"
        save_net(net, str(p1))
        save_net(net, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestAutomatonFormat:
    def test_round_trip_with_annotations(self, tmp_path):
        # the last-letter core has 93 states, so the file's sorted keys
        # put i10 before i2; the annotations come back in state order
        for n1, n2 in (make_worked_pair(), last_letter_pair(3)):
            core = separate(n1, n2).core
            path = tmp_path / "a.aut"
            save_automaton(core, str(path))
            back = automaton_from_dict(json.loads(path.read_text()))
            assert back == core

    def test_annotation_of_an_undeclared_state_rejected(self):
        raw = {
            "states": ["q"],
            "alphabet": ["a"],
            "initial": ["q"],
            "final": [],
            "transitions": [],
            "annotation_places": ["p"],
            "annotations": {"q": {"p": 1}, "r": {"p": 2}},
        }
        with pytest.raises(InputError, match="undeclared state 'r'"):
            automaton_from_dict(raw)

    def test_omega_serialized_as_w(self):
        n1, n2 = make_worked_pair()
        core = separate(n1, n2).core
        raw = automaton_to_dict(core)
        omega_states = [
            s for s, u in core.annotations if any(c == OMEGA for c in u)
        ]
        assert omega_states
        for s in omega_states:
            assert "w" in raw["annotations"][s].values()

    def test_w_round_trips_through_omega(self):
        raw = {
            "states": ["q"],
            "alphabet": ["a"],
            "initial": ["q"],
            "final": [],
            "transitions": [],
            "annotation_places": ["p", "r"],
            "annotations": {"q": {"p": "w", "r": 2}},
        }
        a = automaton_from_dict(raw)
        assert a.annotations == (("q", (OMEGA, 2)),)
        assert automaton_to_dict(a) == raw
        # an OMEGA made by arithmetic is a new float object; it is still "w"
        moved = dataclasses.replace(a, annotations=(("q", (OMEGA + 3, 2)),))
        assert automaton_to_dict(moved) == raw

    def test_annotations_require_places(self):
        raw = {
            "states": ["q"],
            "alphabet": ["a"],
            "initial": ["q"],
            "final": [],
            "transitions": [],
            "annotations": {"q": {}},
        }
        with pytest.raises(InputError):
            automaton_from_dict(raw)

    def test_duplicate_annotation_places_rejected(self):
        # the first "p" coordinate could never be set
        raw = {
            "states": ["q"],
            "alphabet": ["a"],
            "initial": ["q"],
            "final": [],
            "transitions": [],
            "annotation_places": ["p", "p"],
            "annotations": {"q": {"p": 1}},
        }
        with pytest.raises(InputError, match="duplicate annotation places"):
            automaton_from_dict(raw)

    @pytest.mark.parametrize("count", [1.5, -2, True, "x"])
    def test_malformed_annotation_rejected(self, count):
        raw = {
            "states": ["q"],
            "alphabet": ["a"],
            "initial": ["q"],
            "final": [],
            "transitions": [],
            "annotation_places": ["p"],
            "annotations": {"q": {"p": count}},
        }
        with pytest.raises(InputError):
            automaton_from_dict(raw)

    def test_unknown_field_rejected(self):
        raw = {
            "states": ["q"],
            "alphabet": ["a"],
            "initial": ["q"],
            "final": [],
            "transitions": [],
            "color": "red",
        }
        with pytest.raises(InputError):
            automaton_from_dict(raw)

    def test_bad_transition_shape_rejected(self):
        raw = {
            "states": ["q"],
            "alphabet": ["a"],
            "initial": ["q"],
            "final": [],
            "transitions": [["q", "a"]],
        }
        with pytest.raises(InputError):
            automaton_from_dict(raw)

    def test_plain_round_trip(self):
        a = Nfa(
            states=("q0", "q1"),
            alphabet=("a",),
            transitions=(("q0", "a", "q1"),),
            initial=frozenset({"q0"}),
            final=frozenset({"q1"}),
        )
        assert automaton_from_dict(automaton_to_dict(a)) == a


class TestCanonicalDump:
    def test_sorted_keys_and_trailing_newline(self):
        out = dumps_canonical({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")


class TestConfig:
    def test_defaults(self):
        settings = load_settings(None)
        assert settings.sample_maxlen_cap == 10
        assert settings.node_budget == 500_000

    def test_load_from_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REGSEP_CONFIG", raising=False)
        path = tmp_path / "cfg.json"
        path.write_text('{"sample_maxlen_cap": 6}')
        assert load_settings(str(path)).sample_maxlen_cap == 6

    def test_env_var_override(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text('{"node_budget": 123}')
        monkeypatch.setenv("REGSEP_CONFIG", str(path))
        assert load_settings(None).node_budget == 123

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"typo_key": 1}')
        with pytest.raises(InputError):
            load_settings(str(path))

    def test_bound_constant_is_no_key(self, tmp_path):
        # the bound's hidden constant is fixed at `invariant.BOUND_CONSTANT`
        path = tmp_path / "cfg.json"
        path.write_text('{"bound_constant": 4}')
        with pytest.raises(InputError, match="unknown config keys"):
            load_settings(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(InputError):
            load_settings("/nonexistent/config.json")

    def test_empty_env_var_is_unset(self, monkeypatch):
        monkeypatch.setenv("REGSEP_CONFIG", "")
        assert load_settings(None) == DEFAULT
        with pytest.raises(InputError):
            load_settings("")
