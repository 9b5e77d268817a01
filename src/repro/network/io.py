"""JSON (de)serialization of network topologies.

A stable on-disk form lets experiments pin exact topologies (the paper's
Large network is generated once and reused across scenarios) and lets
users bring their own networks to the planner.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .topology import Network, NetworkError

__all__ = ["network_to_dict", "network_from_dict", "save_network", "load_network"]

_FORMAT_VERSION = 1


def network_to_dict(net: Network) -> dict[str, Any]:
    """A JSON-ready dict capturing the full topology."""
    return {
        "format": _FORMAT_VERSION,
        "name": net.name,
        "nodes": [
            {
                "id": n.id,
                "resources": dict(n.resources),
                "labels": sorted(n.labels),
                **({"software": sorted(n.software)} if n.software is not None else {}),
            }
            for n in net.nodes.values()
        ],
        "links": [
            {
                "a": lk.a,
                "b": lk.b,
                "resources": dict(lk.resources),
                "labels": sorted(lk.labels),
            }
            for lk in net.links.values()
        ],
    }


def network_from_dict(data: dict[str, Any]) -> Network:
    """Rebuild a :class:`Network` from :func:`network_to_dict` output.

    Raises
    ------
    NetworkError
        For an unsupported ``format``, or data of the wrong shape: a
        non-object top level, a node without ``"id"``, a link without
        ``"a"`` and ``"b"``, a ``"resources"`` that is not an object.
    """
    if not isinstance(data, dict):
        raise NetworkError(f"a network must be a JSON object, got {type(data).__name__}")
    version = data.get("format", 0)
    if version != _FORMAT_VERSION:
        raise NetworkError(f"unsupported network format version {version!r}")
    net = Network(data.get("name", "network"))
    for i, nd in enumerate(data.get("nodes", [])):
        if not isinstance(nd, dict) or "id" not in nd:
            raise NetworkError(f"node {i} must be an object with an \"id\"")
        net.add_node(
            nd["id"],
            _resources(nd, f"node {i}"),
            nd.get("labels", ()),
            nd.get("software"),
        )
    for i, ld in enumerate(data.get("links", [])):
        if not isinstance(ld, dict) or "a" not in ld or "b" not in ld:
            raise NetworkError(f"link {i} must be an object with \"a\" and \"b\"")
        net.add_link(ld["a"], ld["b"], _resources(ld, f"link {i}"), ld.get("labels", ()))
    return net


def _resources(entry: dict[str, Any], where: str) -> dict[str, Any]:
    resources = entry.get("resources", {})
    if not isinstance(resources, dict):
        raise NetworkError(
            f"{where} \"resources\" must be an object, got {type(resources).__name__}"
        )
    return resources


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2, sort_keys=True))


def load_network(path: str | Path) -> Network:
    return network_from_dict(json.loads(Path(path).read_text()))
