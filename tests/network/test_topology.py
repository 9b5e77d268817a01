"""Unit tests for the Network topology container."""

import pytest

from repro.network import Network, NetworkError, canonical_ends


@pytest.fixture
def triangle():
    net = Network("tri")
    for n in ("a", "b", "c"):
        net.add_node(n, {"cpu": 10.0})
    net.add_link("a", "b", {"lbw": 100.0}, labels={"LAN"})
    net.add_link("b", "c", {"lbw": 50.0}, labels={"WAN"})
    net.add_link("a", "c", {"lbw": 70.0}, labels={"WAN"})
    return net


class TestConstruction:
    def test_duplicate_node_rejected(self, triangle):
        with pytest.raises(NetworkError):
            triangle.add_node("a")

    def test_duplicate_link_rejected(self, triangle):
        with pytest.raises(NetworkError):
            triangle.add_link("b", "a")

    def test_self_loop_rejected(self, triangle):
        with pytest.raises(NetworkError):
            triangle.add_link("a", "a")

    def test_link_requires_existing_nodes(self, triangle):
        with pytest.raises(NetworkError):
            triangle.add_link("a", "zzz")

    def test_canonical_ends(self):
        assert canonical_ends("b", "a") == ("a", "b")
        assert canonical_ends("a", "b") == ("a", "b")


class TestQueries:
    def test_node_lookup(self, triangle):
        assert triangle.node("a").capacity("cpu") == 10.0
        with pytest.raises(NetworkError):
            triangle.node("zzz")

    def test_link_lookup_symmetric(self, triangle):
        assert triangle.link("a", "b") is triangle.link("b", "a")

    def test_has_link(self, triangle):
        assert triangle.has_link("c", "b")
        assert not triangle.has_link("a", "zzz") is None or not triangle.has_link("a", "zzz")

    def test_neighbors(self, triangle):
        assert triangle.neighbors("a") == {"b", "c"}

    def test_degree(self, triangle):
        assert triangle.degree("b") == 2

    def test_len_contains(self, triangle):
        assert len(triangle) == 3
        assert "a" in triangle and "zzz" not in triangle

    def test_directed_edges_both_directions(self, triangle):
        edges = [(s, d) for s, d, _ in triangle.directed_edges()]
        assert ("a", "b") in edges and ("b", "a") in edges
        assert len(edges) == 6

    def test_labels(self, triangle):
        assert len(triangle.links_with_label("WAN")) == 2
        assert len(triangle.links_with_label("LAN")) == 1


class TestAlgorithms:
    def test_hop_distances(self, triangle):
        dist = triangle.hop_distances("a")
        assert dist == {"a": 0, "b": 1, "c": 1}

    def test_connected(self, triangle):
        assert triangle.is_connected()

    def test_disconnected(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        assert not net.is_connected()

    def test_shortest_path(self, triangle):
        assert triangle.shortest_path("a", "b") == ["a", "b"]
        assert triangle.shortest_path("a", "a") == ["a"]

    def test_shortest_path_multi_hop(self):
        net = Network()
        for i in range(4):
            net.add_node(f"n{i}")
        for i in range(3):
            net.add_link(f"n{i}", f"n{i+1}")
        assert net.shortest_path("n0", "n3") == ["n0", "n1", "n2", "n3"]

    def test_shortest_path_none_when_disconnected(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        assert net.shortest_path("x", "y") is None


class TestSoftwareConstraint:
    def test_allows(self):
        net = Network()
        node = net.add_node("n", software=["Zip", "Unzip"])
        assert node.allows("Zip")
        assert not node.allows("Merger")

    def test_none_allows_all(self):
        net = Network()
        node = net.add_node("n")
        assert node.allows("Anything")
