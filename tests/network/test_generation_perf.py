"""Perf regression pins for large-network generation and path queries.

The hierarchical scaling sweep generates 10k-node transit-stub networks
(``scaling_network_domains(333)`` is its largest point, 9,993 nodes);
before the geometric skip-sampling optimization in
``gtitm._connected_random_graph`` and the adjacency hoist in
``paths.k_shortest_paths``, generation and path setup dominated the
sweep.  These tests pin the fixed behavior with wall-clock budgets that
are ~10x the observed times on a loaded CI box — a regression back to
the quadratic paths blows through them by an order of magnitude.
"""

import time

from repro.experiments import scaling_network_domains
from repro.network import k_shortest_paths


class TestGenerationPerf:
    def test_largest_sweep_network_generates_in_seconds(self):
        start = time.perf_counter()
        net, server, client = scaling_network_domains(333)
        elapsed = time.perf_counter() - start
        assert len(net) == 9993
        assert server in net and client in net
        assert elapsed < 5.0, f"10k-node generation took {elapsed:.1f}s (budget 5s)"

    def test_skip_sampling_matches_literal_loop_distributionally(self):
        """Same edge density either side of the sampling threshold: the
        geometric path must not change the expected number of extras."""
        from repro.network import TransitStubParams, transit_stub_network

        dense = transit_stub_network(
            TransitStubParams(stub_size=100, stub_domains_per_transit=1, seed=11),
            name="dense",
        )
        nodes = 3 + 3 * 100
        assert len(dense) == nodes
        # Spanning trees give n-1 links per stub; extras follow p=0.3 over
        # C(100,2) pairs.  Expect roughly 0.3 * 4950 extras per stub; a
        # broken sampler lands nowhere near this band.
        extras = len(dense.links) - (nodes - 1)
        expected = 3 * 0.3 * (100 * 99 // 2)
        assert 0.8 * expected < extras < 1.2 * expected


class TestPathQueryPerf:
    def test_k_shortest_on_10k_network(self):
        net, server, client = scaling_network_domains(333)
        start = time.perf_counter()
        paths = k_shortest_paths(net, server, client, 3)
        elapsed = time.perf_counter() - start
        assert paths and paths[0][0] == server and paths[0][-1] == client
        assert elapsed < 5.0, f"k-shortest on 10k nodes took {elapsed:.1f}s (budget 5s)"
