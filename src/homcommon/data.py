"""Access to the bundled graphs and templates used by the CLI and the
acceptance suite; everything loads offline from package resources."""

from __future__ import annotations

import json
from importlib import resources

from .gluing import GluingTemplate, template_from_json
from .graphs import Graph, graph_from_json, parse_family

GRAPH_NAMES = ("diamond", "paw", "k3_plus_k2", "pentagon_square", "gen_c5_tree_a",
               "gen_c5_tree_b")
TEMPLATE_NAMES = ("pentagon_square", "gen_c5_tree_a", "gen_c5_tree_b",
                  "simple_c5_vertex", "simple_k3_edge", "lone_edge_c5")


def _load(kind: str, name: str) -> dict:
    ref = resources.files("homcommon").joinpath("data", kind, f"{name}.json")
    try:
        text = ref.read_text()
    except FileNotFoundError:
        raise KeyError(f"no bundled {kind[:-1]} named {name!r}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bundled file data/{kind}/{name}.json is corrupted: {exc}") from exc


def load_graph(name: str) -> Graph:
    return graph_from_json(_load("graphs", name))


def load_template(name: str) -> GluingTemplate:
    return template_from_json(_load("templates", name))


def parse_graph_spec(spec: str) -> Graph:
    """Resolve a graph argument: a family string like C5/P4/K3, a bundled
    graph name, or a path to a graph JSON file."""
    family = parse_family(spec)
    if family is not None:
        return family
    aliases = {"k3uk2": "k3_plus_k2", "d": "diamond"}
    name = aliases.get(spec.lower(), spec.lower())
    if name in GRAPH_NAMES:
        return load_graph(name)
    with open(spec) as fh:
        return graph_from_json(json.load(fh))
