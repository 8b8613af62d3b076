"""Tests for the port-numbered network."""

import networkx as nx
import pytest

from repro.graphs import generators as gen
from repro.local_model.identifiers import shuffled_ids
from repro.local_model.network import Network


class TestConstruction:
    def test_ports_sorted(self, cycle6):
        net = Network(cycle6)
        assert net.nodes[0].ports == [1, 5]

    def test_size(self, path5):
        assert Network(path5).size == 5

    def test_default_identity_ids(self, path5):
        net = Network(path5)
        assert all(net.nodes[v].uid == v for v in path5.nodes)

    def test_custom_ids(self, path5):
        ids = shuffled_ids(path5, seed=1)
        net = Network(path5, ids)
        assert {net.nodes[v].uid for v in path5.nodes} == set(range(5))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            Network(nx.Graph())

    def test_rejects_self_loop(self):
        g = nx.Graph()
        g.add_edge(0, 0)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            Network(g)

    def test_rejects_partial_ids(self, path5):
        with pytest.raises(ValueError):
            Network(path5, {0: 0, 1: 1})

    def test_rejects_duplicate_ids(self, path5):
        with pytest.raises(ValueError):
            Network(path5, {v: 0 for v in path5.nodes})


class TestPorts:
    def test_ports_are_symmetric(self, cycle6):
        # the engine routes a message sent on port p of v to the port of
        # u = ports[p] that leads back to v, so that port must exist
        net = Network(cycle6)
        for v in cycle6.nodes:
            for u in net.nodes[v].ports:
                assert net.nodes[u].ports.count(v) == 1

    def test_uids_follow_custom_ids(self, path5):
        ids = shuffled_ids(path5, seed=2)
        net = Network(path5, ids)
        assert all(net.nodes[v].uid == ids[v] for v in path5.nodes)
        assert net.ids == ids
