"""JSON file formats for nets and automata.

Vectors are serialized as maps from place name to count, omitting zeros;
the unbounded coordinate is serialized as the string "w".  Serialization is
sorted and deterministic so identical inputs yield identical bytes.
Files are read, and their objects checked for unknown, missing and
repeated keys, by the rules in `config`.
"""

from __future__ import annotations

import json
from typing import Any

from .automata import Nfa
from .config import check_keys, is_count, read_json
from .errors import InputError
from .ideals import OMEGA, Coord, OmegaMarking
from .petri import LabeledPetriNet, Transition

NET_FIELDS = {"places", "alphabet", "transitions", "initial", "final"}
TRANSITION_FIELDS = {"name", "label", "pre", "post"}
AUT_FIELDS = {"states", "alphabet", "initial", "final", "transitions"}
ANNOTATION_FIELDS = {"annotations", "annotation_places"}


def _check_count(value: Any, where: str) -> int:
    if not is_count(value):
        raise InputError(f"{where}: counts must be non-negative decimal integers")
    return value


def _vector_to_map(places: tuple[str, ...], v: tuple[Coord, ...]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for p, c in zip(places, v):
        if c == OMEGA:
            out[p] = "w"
        elif c != 0:
            out[p] = c
    return out


def _vector_from_map(
    places: tuple[str, ...], raw: Any, where: str, allow_omega: bool = False
) -> tuple[Coord, ...]:
    if not isinstance(raw, dict):
        raise InputError(f"{where}: expected a place-to-count map")
    index = {p: i for i, p in enumerate(places)}
    values: list[Coord] = [0] * len(places)
    for key, value in raw.items():
        if key not in index:
            raise InputError(f"{where}: unknown place {key!r}")
        if allow_omega and value == "w":
            values[index[key]] = OMEGA
        else:
            values[index[key]] = _check_count(value, where)
    return tuple(values)


def _string_list(raw: Any, where: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise InputError(f"{where}: expected a list of strings")
    return tuple(raw)


def net_to_dict(net: LabeledPetriNet) -> dict[str, Any]:
    return {
        "places": list(net.places),
        "alphabet": list(net.alphabet),
        "transitions": [
            {
                "name": t.name,
                "label": t.label,
                "pre": _vector_to_map(net.places, t.pre),
                "post": _vector_to_map(net.places, t.post),
            }
            for t in net.transitions
        ],
        "initial": _vector_to_map(net.places, net.initial),
        "final": _vector_to_map(net.places, net.final),
    }


def net_from_dict(raw: Any) -> LabeledPetriNet:
    check_keys(raw, "net", NET_FIELDS)
    places = _string_list(raw["places"], "places")
    alphabet = _string_list(raw["alphabet"], "alphabet")
    if not isinstance(raw["transitions"], list):
        raise InputError("transitions: expected a list")
    transitions = []
    for i, entry in enumerate(raw["transitions"]):
        where = f"transitions[{i}]"
        check_keys(entry, where, TRANSITION_FIELDS)
        if not isinstance(entry["name"], str) or not isinstance(entry["label"], str):
            raise InputError(f"{where}: name and label must be strings")
        transitions.append(
            Transition(
                name=entry["name"],
                label=entry["label"],
                pre=_vector_from_map(places, entry["pre"], f"{where}.pre"),
                post=_vector_from_map(places, entry["post"], f"{where}.post"),
            )
        )
    return LabeledPetriNet(
        places=places,
        alphabet=alphabet,
        transitions=tuple(transitions),
        initial=_vector_from_map(places, raw["initial"], "initial"),
        final=_vector_from_map(places, raw["final"], "final"),
    )


def automaton_to_dict(a: Nfa) -> dict[str, Any]:
    out: dict[str, Any] = {
        "states": list(a.states),
        "alphabet": list(a.alphabet),
        "initial": sorted(a.initial),
        "final": sorted(a.final),
        "transitions": [list(e) for e in sorted(a.transitions)],
    }
    if a.annotations:
        out["annotation_places"] = list(a.annotation_places)
        out["annotations"] = {
            s: _vector_to_map(a.annotation_places, u) for s, u in a.annotations
        }
    return out


def automaton_from_dict(raw: Any) -> Nfa:
    check_keys(raw, "automaton", AUT_FIELDS, ANNOTATION_FIELDS)
    states = _string_list(raw["states"], "states")
    alphabet = _string_list(raw["alphabet"], "alphabet")
    if not isinstance(raw["transitions"], list):
        raise InputError("transitions: expected a list")
    edges = []
    for i, entry in enumerate(raw["transitions"]):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(x, str) for x in entry)
        ):
            raise InputError(f"transitions[{i}]: expected a [state, letter, state] triple")
        edges.append(tuple(entry))
    annotation_places: tuple[str, ...] = ()
    annotations: tuple[tuple[str, OmegaMarking], ...] = ()
    if "annotations" in raw or "annotation_places" in raw:
        if "annotations" not in raw or "annotation_places" not in raw:
            raise InputError("annotations and annotation_places must appear together")
        annotation_places = _string_list(raw["annotation_places"], "annotation_places")
        if not isinstance(raw["annotations"], dict):
            raise InputError("annotations: expected an object")
        # in `states` order, since the writer sorts the keys as strings;
        # an undeclared state sorts first, for `Nfa` to refuse
        rank = {s: k for k, s in enumerate(states)}
        annotations = tuple(
            (s, _vector_from_map(annotation_places, v, f"annotations[{s}]", allow_omega=True))
            for s, v in sorted(raw["annotations"].items(), key=lambda item: rank.get(item[0], -1))
        )
    return Nfa(
        states=states,
        alphabet=alphabet,
        transitions=tuple(edges),
        initial=frozenset(_string_list(raw["initial"], "initial")),
        final=frozenset(_string_list(raw["final"], "final")),
        annotations=annotations,
        annotation_places=annotation_places,
    )


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_net(path: str) -> LabeledPetriNet:
    return net_from_dict(read_json(path, "net"))


def save_net(net: LabeledPetriNet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(net_to_dict(net)))


def load_automaton(path: str) -> Nfa:
    return automaton_from_dict(read_json(path, "automaton"))


def save_automaton(a: Nfa, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(automaton_to_dict(a)))
