"""Network topology: nodes, links, and the :class:`Network` container.

Links are undirected with shared (direction-agnostic) resource capacities,
matching the paper's model where a link crossing consumes link bandwidth
regardless of direction.  Crossing actions are nevertheless directional —
the planner grounds one ``cross`` action per (interface, ordered pair).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Node", "Link", "Network", "NetworkError"]


class NetworkError(Exception):
    """Raised on malformed topology operations (unknown nodes, dup links)."""


@dataclass(slots=True)
class Node:
    """A computational host.

    Attributes
    ----------
    id:
        Unique node identifier.
    resources:
        Node-scoped resource capacities, e.g. ``{"cpu": 30.0}``.
    labels:
        Free-form tags (``"transit"``, ``"stub"``, ``"server"``...).
    software:
        Component names installable on this node; ``None`` means any
        component may be placed here (the paper's qualitative "available
        software on a node" constraint).
    """

    id: str
    resources: dict[str, float] = field(default_factory=dict)
    labels: set[str] = field(default_factory=set)
    software: set[str] | None = None

    def capacity(self, resource: str) -> float:
        return self.resources.get(resource, 0.0)

    def allows(self, component_name: str) -> bool:
        return self.software is None or component_name in self.software


def canonical_ends(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) endpoint pair used as the link key."""
    return (a, b) if a <= b else (b, a)


@dataclass(slots=True)
class Link:
    """An undirected network link with shared resource capacities."""

    a: str
    b: str
    resources: dict[str, float] = field(default_factory=dict)
    labels: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise NetworkError(f"self-loop link at node {self.a!r}")
        self.a, self.b = canonical_ends(self.a, self.b)

    @property
    def key(self) -> tuple[str, str]:
        return (self.a, self.b)

    def capacity(self, resource: str) -> float:
        return self.resources.get(resource, 0.0)


class Network:
    """A wide-area network: nodes, undirected links, adjacency queries."""

    def __init__(self, name: str = "network"):
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._adjacency: dict[str, set[str]] = {}

    # -- construction --------------------------------------------------------

    def add_node(
        self,
        node_id: str,
        resources: dict[str, float] | None = None,
        labels: Iterable[str] = (),
        software: Iterable[str] | None = None,
    ) -> Node:
        if node_id in self._nodes:
            raise NetworkError(f"duplicate node {node_id!r}")
        node = Node(
            node_id,
            dict(resources or {}),
            set(labels),
            set(software) if software is not None else None,
        )
        self._nodes[node_id] = node
        self._adjacency[node_id] = set()
        return node

    def add_link(
        self,
        a: str,
        b: str,
        resources: dict[str, float] | None = None,
        labels: Iterable[str] = (),
    ) -> Link:
        for end in (a, b):
            if end not in self._nodes:
                raise NetworkError(f"link endpoint {end!r} is not a node")
        link = Link(a, b, dict(resources or {}), set(labels))
        if link.key in self._links:
            raise NetworkError(f"duplicate link {link.key}")
        self._links[link.key] = link
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        return link

    def remove_link(self, a: str, b: str) -> Link:
        """Remove and return the link between ``a`` and ``b``."""
        link = self.link(a, b)
        del self._links[link.key]
        self._adjacency[link.a].discard(link.b)
        self._adjacency[link.b].discard(link.a)
        return link

    # -- queries ---------------------------------------------------------------

    @property
    def nodes(self) -> dict[str, Node]:
        return self._nodes

    @property
    def links(self) -> dict[tuple[str, str], Link]:
        return self._links

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[canonical_ends(a, b)]
        except KeyError:
            raise NetworkError(f"no link between {a!r} and {b!r}") from None

    def has_link(self, a: str, b: str) -> bool:
        return canonical_ends(a, b) in self._links

    def neighbors(self, node_id: str) -> set[str]:
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    def degree(self, node_id: str) -> int:
        return len(self.neighbors(node_id))

    def directed_edges(self) -> Iterator[tuple[str, str, Link]]:
        """Each link in both directions — the grounding domain of ``cross``."""
        for link in self._links.values():
            yield link.a, link.b, link
            yield link.b, link.a, link

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    # -- graph algorithms --------------------------------------------------------

    def hop_distances(self, source: str) -> dict[str, int]:
        """BFS hop counts from ``source`` (unreachable nodes absent)."""
        if source not in self._nodes:
            raise NetworkError(f"unknown node {source!r}")
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def is_connected(self) -> bool:
        if not self._nodes:
            return True
        first = next(iter(self._nodes))
        return len(self.hop_distances(first)) == len(self._nodes)

    def shortest_path(self, source: str, target: str) -> list[str] | None:
        """One BFS shortest hop path, or None when disconnected."""
        if source not in self._nodes or target not in self._nodes:
            raise NetworkError("unknown endpoint")
        if source == target:
            return [source]
        parent: dict[str, str] = {source: source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in sorted(self._adjacency[u]):
                if v in parent:
                    continue
                parent[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(v)
        return None

    def links_with_label(self, label: str) -> list[Link]:
        return [lk for lk in self._links.values() if label in lk.labels]

    def nodes_with_label(self, label: str) -> list[Node]:
        return [n for n in self._nodes.values() if label in n.labels]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network({self.name!r}, nodes={len(self._nodes)}, links={len(self._links)})"
