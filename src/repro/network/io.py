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
        For an unsupported ``format``, or data of the wrong shape, naming
        the field: a non-object top level, ``"nodes"``/``"links"`` that
        are not lists, a node without a string ``"id"``, a link without
        string ``"a"`` and ``"b"``, ``"labels"``/``"software"`` that are
        not lists, a ``"resources"`` that is not an object of numbers.
    """
    if not isinstance(data, dict):
        raise NetworkError(f"a network must be a JSON object, got {type(data).__name__}")
    version = data.get("format", 0)
    if version != _FORMAT_VERSION:
        raise NetworkError(f"unsupported network format version {version!r}")
    net = Network(data.get("name", "network"))
    for i, nd in enumerate(_field(data, "nodes", "network", list, [])):
        if not isinstance(nd, dict) or "id" not in nd:
            raise NetworkError(f"node {i} must be an object with an \"id\"")
        where = f"node {i}"
        net.add_node(
            _field(nd, "id", where, str),
            _resources(nd, where),
            _field(nd, "labels", where, list, []),
            _field(nd, "software", where, (list, type(None))),
        )
    for i, ld in enumerate(_field(data, "links", "network", list, [])):
        if not isinstance(ld, dict) or "a" not in ld or "b" not in ld:
            raise NetworkError(f"link {i} must be an object with \"a\" and \"b\"")
        where = f"link {i}"
        net.add_link(
            _field(ld, "a", where, str),
            _field(ld, "b", where, str),
            _resources(ld, where),
            _field(ld, "labels", where, list, []),
        )
    return net


_EXPECTED = {str: "a string", list: "a list", dict: "an object", float: "a number"}


def _field(entry: dict[str, Any], key: str, where: str, kind: Any, default: Any = None) -> Any:
    """``entry[key]`` (``default`` when absent), which must be of ``kind``."""
    value = entry.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        expected = _EXPECTED[kind[0] if isinstance(kind, tuple) else kind]
        raise NetworkError(f"{where} \"{key}\" must be {expected}, got {type(value).__name__}")
    return value


def _resources(entry: dict[str, Any], where: str) -> dict[str, Any]:
    resources = _field(entry, "resources", where, dict, {})
    for name in resources:
        _field(resources, name, f"{where} resource", (float, int))
    return resources


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2, sort_keys=True))


def load_network(path: str | Path) -> Network:
    return network_from_dict(json.loads(Path(path).read_text()))
