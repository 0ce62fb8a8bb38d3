"""Tests for the sharded, replicated catalog tier (repro.catalogtier)."""

from contextlib import contextmanager

import pytest

from repro.catalog import Catalog, ServerEntry, ServerRole
from repro.catalogtier import (
    AnswerCache,
    ReplicaGroup,
    ReplicaMembership,
    ShardMap,
    first_answer,
    quorum_answer,
    reconcile_authoritative,
    shard_of_cell,
)
from repro.errors import CatalogError
from repro.harness.scaleout import (
    ScaleoutSpec,
    _schedule_replica_outage,
    _scenario_dict,
    build_scaleout_scenario,
    schedule_queries,
)
from repro.namespace import InterestArea
from repro.peers import BaseServer, IndexServer
from repro.peers.parts import Cancellations
from repro.peers.registration import covering_indexers
from repro.peers.subscriptions import Subscriptions
from repro.peers.transfers import Transfers
from repro.workloads.adversarial import zipf_query_ranks
from repro.workloads.distributions import make_rng
from recording_node import RecordingNode, frame


@pytest.fixture()
def shard_map(namespace):
    return ShardMap.build(
        [["i0:1", "i1:1", "i2:1"], ["j0:1", "j1:1", "j2:1"]],
        [namespace.area(["USA/OR", "*"]), namespace.area(["USA/WA", "*"])],
    )


class TestShardMap:
    def test_shard_of_cell_is_stable(self, namespace):
        cell = next(iter(namespace.area(["USA/OR", "*"])))
        first = shard_of_cell(cell, 4)
        assert all(shard_of_cell(cell, 4) == first for _ in range(5))
        assert 0 <= first < 4
        with pytest.raises(CatalogError):
            shard_of_cell(cell, 0)

    def test_contiguous_shard_ids_required(self):
        with pytest.raises(CatalogError):
            ShardMap({1: ReplicaGroup(1, ("a:1",))})
        with pytest.raises(CatalogError):
            ShardMap({})
        with pytest.raises(CatalogError):
            ReplicaGroup(0, ())

    def test_preferred_order_rotates_by_shard(self, shard_map):
        assert shard_map.group(0).preferred_order() == ("i0:1", "i1:1", "i2:1")
        assert shard_map.group(1).preferred_order() == ("j1:1", "j2:1", "j0:1")

    def test_group_of_and_siblings(self, shard_map):
        assert shard_map.group_of("j2:1").shard_id == 1
        assert shard_map.group_of("stranger:1") is None
        assert shard_map.group(0).siblings_of("i1:1") == ["i0:1", "i2:1"]

    def test_owners_are_failover_ordered(self, shard_map, namespace):
        oregon = namespace.area(["USA/OR", "*"])
        owners = shard_map.owners(oregon)
        assert owners == list(shard_map.group(0).preferred_order())
        assert shard_map.owners(oregon, suspected={owners[0]}) == owners[1:]
        # Ownership is containment: a cell deep inside the owned area is the
        # group's too, whatever its own text would hash to.
        assert shard_map.owners(namespace.area(["USA/OR/Portland", "Music/CDs"])) == owners
        assert shard_map.owners(namespace.area(["USA/WA/Seattle", "*"])) == ["j1:1", "j2:1", "j0:1"]

    def test_multi_cell_area_fans_to_every_owning_shard(self, shard_map, namespace):
        area = namespace.area(["USA/WA/Seattle", "Music"]).union(
            namespace.area(["USA/OR/Portland", "Music/CDs"])
        )
        assert shard_map.owners(area) == [  # ascending shard id, each in its preferred order
            *shard_map.group(0).preferred_order(), *shard_map.group(1).preferred_order()
        ]

    def test_a_group_that_owns_nothing_is_never_an_owner(self, namespace):
        oregon = namespace.area(["USA/OR", "*"])
        tier = ShardMap.build([["i0:1"], ["spare:1"]], [oregon, None])
        assert tier.owners(namespace.top_area()) == ["i0:1"]
        # An area nobody owns has no owners: routing goes on by cache,
        # catalog and meta-index, exactly as without a tier.
        assert tier.owners(namespace.area(["USA/CA", "*"])) == []
        with pytest.raises(CatalogError):
            ShardMap.build([["i0:1"], ["spare:1"]], [oregon])


class TestAnswerCache:
    def test_lru_hit_miss_and_eviction(self, namespace):
        cache = AnswerCache(capacity=2)
        oregon = namespace.area(["USA/OR", "*"])
        wash = namespace.area(["USA/WA", "*"])
        calif = namespace.area(["USA/CA", "*"])
        cache.put(("overlap", None, str(oregon)), oregon, ("a",))
        cache.put(("overlap", None, str(wash)), wash, ("b",))
        assert cache.get(("overlap", None, str(oregon))) == ("a",)  # refresh
        cache.put(("overlap", None, str(calif)), calif, ("c",))  # evicts wash
        assert cache.get(("overlap", None, str(wash))) is None
        assert cache.get(("overlap", None, str(oregon))) == ("a",)
        assert cache.evictions == 1
        assert cache.hits == 2 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_invalidate_by_overlap(self, namespace):
        cache = AnswerCache()
        oregon = namespace.area(["USA/OR", "*"])
        wash = namespace.area(["USA/WA", "*"])
        cache.put(("overlap", None, str(oregon)), oregon, ("a",))
        cache.put(("overlap", None, str(wash)), wash, ("b",))
        dropped = cache.invalidate_overlapping(namespace.area(["USA/OR/Portland", "*"]))
        assert dropped == 1
        assert cache.get(("overlap", None, str(oregon))) is None
        assert cache.get(("overlap", None, str(wash))) == ("b",)
        assert cache.flush() == 1 and len(cache) == 0

    def test_stats_and_validation(self):
        with pytest.raises(ValueError):
            AnswerCache(capacity=0)
        stats = AnswerCache().stats()
        assert stats == {
            "size": 0, "hits": 0, "misses": 0, "hit_rate": 0.0,
            "invalidations": 0, "evictions": 0,
        }


class TestCatalogAnswerCache:
    def test_lookups_memoized_and_invalidated(self, namespace):
        catalog = Catalog("idx:1")
        cache = catalog.answer_cache  # every catalog owns one from the start
        oregon = namespace.area(["USA/OR", "*"])
        catalog.register_server(
            ServerEntry("s1:1", ServerRole.BASE, namespace.area(["USA/OR/Portland", "Music/CDs"]))
        )
        first = catalog.servers_overlapping(oregon)
        again = catalog.servers_overlapping(oregon)
        assert [e.address for e in again] == [e.address for e in first]
        assert cache.hits == 1
        # A mutation whose area overlaps the cached answer drops it.
        catalog.register_server(
            ServerEntry("s2:1", ServerRole.BASE, namespace.area(["USA/OR/Salem", "Music"]))
        )
        refreshed = catalog.servers_overlapping(oregon)
        assert {e.address for e in refreshed} == {"s1:1", "s2:1"}
        assert cache.misses == 2


class TestReadPolicies:
    def _catalog(self, name, namespace, addresses):
        catalog = Catalog(name)
        for address in addresses:
            catalog.register_server(
                ServerEntry(address, ServerRole.BASE, namespace.area(["USA/OR/Portland", "*"]))
            )
        return catalog

    def test_first_answer_walks_failover_order(self, namespace):
        area = namespace.area(["USA/OR", "*"])
        empty = Catalog("r0:1")
        full = self._catalog("r1:1", namespace, ["s1:1"])
        who, entries = first_answer([("r0:1", empty), ("r1:1", full)], area)
        assert who == "r1:1" and [e.address for e in entries] == ["s1:1"]
        assert first_answer([("r0:1", empty)], area) == (None, [])

    def test_quorum_drops_minority_entries(self, namespace):
        area = namespace.area(["USA/OR", "*"])
        agreed = self._catalog("r0:1", namespace, ["s1:1"])
        also = self._catalog("r1:1", namespace, ["s1:1"])
        stale = self._catalog("r2:1", namespace, ["s1:1", "ghost:1"])
        entries = quorum_answer([("r0:1", agreed), ("r1:1", also), ("r2:1", stale)], area)
        assert [e.address for e in entries] == ["s1:1"]
        assert quorum_answer([], area) == []


class TestReconciliation:
    def test_divergent_claim_is_a_conflict(self, namespace):
        local = Catalog("rejoiner:1")
        local.register_server(
            ServerEntry("idx:1", ServerRole.INDEX, namespace.area(["USA/OR", "*"]), authoritative=True)
        )
        remote = [
            ServerEntry("idx:1", ServerRole.INDEX, namespace.area(["USA/WA", "*"]), authoritative=True)
        ]
        result = reconcile_authoritative(
            local, remote, rejoiner="rejoiner:1", source="survivor:1",
            same_group=lambda a, b: False, now=10.0,
        )
        assert len(result.conflicts) == 1
        conflict = result.conflicts[0]
        assert conflict["sub"] == "recon:rejoiner:1"
        assert conflict["publisher"] == "idx:1"
        assert conflict["authorities"] == ["rejoiner:1", "survivor:1"]
        assert result.adopted == 1  # the union view is still adopted

    def test_overlapping_origin_conflicts_unless_same_group(self, namespace):
        def build_local():
            local = Catalog("rejoiner:1")
            local.register_server(
                ServerEntry("a:1", ServerRole.INDEX, namespace.area(["USA/OR", "*"]), authoritative=True)
            )
            return local

        remote = [
            ServerEntry("b:1", ServerRole.INDEX, namespace.area(["USA/OR", "*"]), authoritative=True)
        ]
        clashing = reconcile_authoritative(
            build_local(), remote, rejoiner="rejoiner:1", source="survivor:1",
            same_group=lambda a, b: False, now=5.0,
        )
        assert [c["authorities"] for c in clashing.conflicts] == [["a:1", "b:1"]]
        excused = reconcile_authoritative(
            build_local(), remote, rejoiner="rejoiner:1", source="survivor:1",
            same_group=lambda a, b: True, now=5.0,
        )
        assert excused.conflicts == []
        assert excused.adopted == 1

    def test_covered_entries_are_not_readopted(self, namespace):
        local = Catalog("rejoiner:1")
        local.register_server(
            ServerEntry("s:1", ServerRole.BASE, namespace.area(["USA/OR", "*"]))
        )
        remote = [
            ServerEntry("s:1", ServerRole.BASE, namespace.area(["USA/OR/Portland", "*"]))
        ]
        result = reconcile_authoritative(
            local, remote, rejoiner="rejoiner:1", source="survivor:1",
            same_group=lambda a, b: False, now=0.0,
        )
        assert result.adopted == 0 and result.conflicts == []


class TestReplicaMembership:
    """A replica's group duties on a recording node: no network, no peer."""

    def _replica(self, namespace, shard_map, address="i1:1"):
        node = RecordingNode(address)
        catalog = Catalog(address)
        feeds = Subscriptions(node, Transfers(node), Cancellations(), catalog)
        suspected: set[str] = set()
        member = ReplicaMembership(
            node, catalog, namespace.area(["USA/OR", "*"]), feeds, suspected
        )
        member.join(shard_map)
        return member, suspected

    def test_joining_learns_the_siblings_and_keeps_the_catalogs_own_cache(self, namespace, shard_map):
        member, _ = self._replica(namespace, shard_map)
        assert member.replica_peers == ["i0:1", "i2:1"]
        outsider, _ = self._replica(namespace, shard_map, address="seller:1")
        assert outsider.replica_peers == []
        # The cache is the catalog's, replica or not; joining does not swap it.
        for joined in (member, outsider):
            cache = joined.catalog.answer_cache
            joined.join(shard_map)
            assert joined.catalog.answer_cache is cache

    def test_only_a_replicas_death_is_a_tier_failover(self, namespace, shard_map):
        member, _ = self._replica(namespace, shard_map)
        member.note_failure("j0:1")
        member.note_failure("seller:1")
        assert member.tier_failovers == 1

    def test_rejoin_asks_every_sibling_not_suspected_dead(self, namespace, shard_map):
        member, suspected = self._replica(namespace, shard_map)
        suspected.add("i0:1")
        member.rejoin()
        [request] = member.port.sent
        assert (request.kind, request.recipient) == ("recon-request", "i2:1")
        assert request.payload == {"requester": "i1:1", "area": member.area}

    def test_a_reply_is_merged_and_each_conflict_surfaced_once(self, namespace, shard_map):
        survivor, _ = self._replica(namespace, shard_map, address="i2:1")
        oregon = namespace.area(["USA/OR", "*"])
        survivor.catalog.register_server(
            ServerEntry("idx:1", ServerRole.INDEX, namespace.area(["USA/WA", "*"]), True)
        )
        survivor.catalog.register_server(ServerEntry("s:1", ServerRole.BASE, oregon))
        survivor.on_request(frame("recon-request", {"requester": "i1:1", "area": oregon}))
        [reply] = survivor.port.sent
        assert reply.kind == "recon-reply" and reply.recipient == "them:9020"
        assert [entry.address for entry in reply.payload["entries"]] == ["s:1"]

        rejoiner, _ = self._replica(namespace, shard_map)
        rejoiner.catalog.register_server(ServerEntry("idx:1", ServerRole.INDEX, oregon, True))
        contested = ServerEntry(
            "idx:1", ServerRole.INDEX, namespace.area(["USA/WA", "*"]), authoritative=True
        )
        payload = {"source": "i2:1", "entries": [contested, *reply.payload["entries"]]}
        rejoiner.on_reply(frame("recon-reply", payload))
        rejoiner.on_reply(frame("recon-reply", payload))  # a second survivor says the same
        assert rejoiner.reconciliations == 2 and rejoiner.recon_entries_adopted == 2
        assert [c["publisher"] for c in rejoiner.recon_conflicts] == ["idx:1"]
        assert rejoiner.subscriptions.authority_conflicts == 1
        assert "s:1" in rejoiner.catalog.servers


class TestRegistrationFanout:
    def test_covering_indexer_expands_to_its_replica_group(self, namespace):
        state_area = namespace.area(["USA/OR", "*"])
        other_area = namespace.area(["USA/WA", "*"])
        group0 = [IndexServer(f"i{n}:1", namespace, state_area, authoritative=True) for n in range(3)]
        group1 = [IndexServer(f"j{n}:1", namespace, other_area, authoritative=True) for n in range(3)]
        base = BaseServer("seller:1", namespace, namespace.area(["USA/OR/Portland", "Music/CDs"]))
        shard_map = ShardMap.build(
            [[s.address for s in group0], [s.address for s in group1]], [state_area, other_area]
        )
        indexers = [*group0, *group1]

        chosen_off = covering_indexers(base, indexers)
        assert [peer.address for peer in chosen_off] == ["i0:1"]

        base.join_catalog_tier(shard_map)
        for server in indexers:
            server.join_catalog_tier(shard_map)
        chosen_on = covering_indexers(base, indexers)
        assert [peer.address for peer in chosen_on] == ["i0:1", "i1:1", "i2:1"]
        # Replica members picked up their siblings on join.
        assert group0[0].replicas.replica_peers == ["i1:1", "i2:1"]
        assert base.replicas.replica_peers == []  # the base server is no replica


    def test_a_lost_register_still_reaches_every_replica(self, namespace):
        """Registration fan-out is the group's only replication: a replica
        that misses a ``register`` answers for its area without that server."""
        from repro.api import Cluster

        oregon = namespace.area(["USA/OR", "*"])
        with Cluster("sim", namespace=namespace, reliable=True) as cluster:
            replicas = [
                cluster.index_server(f"i{n}:1", oregon, authoritative=True).peer for n in range(3)
            ]
            seller = cluster.base_server(
                "seller:1", namespace.area(["USA/OR/Portland", "Music/CDs"])
            ).peer
            cluster.join_catalog_tier(ShardMap.build([[r.address for r in replicas]], [oregon]))
            dispatch, lost = cluster.network.transport.send, []

            def lossy(message, delay):
                route = (message.kind, message.sender, message.recipient)
                if route == ("register", "seller:1", "i1:1") and not lost:
                    lost.append(message)  # silently, as the fault injector loses a frame
                else:
                    dispatch(message, delay)

            cluster.network.transport.send = lossy
            cluster.connect(online=True)
            assert len(lost) == 1 and seller.retries_sent == 1
            assert all("seller:1" in replica.catalog.servers for replica in replicas)
            assert not seller.transfers.pending


class TestPlacementAndLookupAgree:
    """Registration goes by covering authority and so does lookup: one rule."""

    @pytest.mark.parametrize("workload", ["garage-sale", "gene-expression"])
    def test_owners_of_a_query_are_where_its_sources_registered(self, workload):
        spec = ScaleoutSpec(
            name="agree", topology="small-world", peers=80, workload=workload,
            churn="none", queries=25, seed=11, catalog_shards=4, catalog_replicas=2,
        )
        scenario = build_scaleout_scenario(spec)
        with scenario.cluster as cluster:
            tier = scenario.shard_map
            checked = 0
            for query in scenario.queries:
                owning = {tier.group_of(owner).shard_id for owner in tier.owners(query.area)}
                for data_peer in scenario.data_peers:
                    if not data_peer.area.overlaps(query.area):
                        continue
                    targets = cluster.session(data_peer.address).peer.registration_targets
                    groups = [tier.group_of(target) for target in targets]
                    owning_groups = [g for g in groups if g is not None and g.area is not None]
                    registered = {group.shard_id for group in owning_groups}
                    assert registered and registered <= owning, (query.area, data_peer.address)
                    checked += 1
            assert checked > 50

    def test_a_deep_query_cell_maps_to_the_group_owning_its_state(self):
        spec = ScaleoutSpec(
            name="deep", topology="small-world", peers=80, workload="garage-sale",
            churn="none", queries=1, seed=11, catalog_shards=4, catalog_replicas=2,
        )
        scenario = build_scaleout_scenario(spec)
        with scenario.cluster:
            tier, namespace = scenario.shard_map, scenario.namespace
            [owner] = [g for g in tier.groups if g.area is not None
                       and g.area.covers(namespace.area(["USA/OR", "*"]))]
            deep = namespace.area(["USA/OR/Portland", "Music/CDs"])
            assert tier.owners(deep) == list(owner.preferred_order())


@contextmanager
def _tier_run(spec):
    """Run ``spec`` with its replica outage to idle; the cluster stays open inside."""
    scenario = build_scaleout_scenario(spec)
    with scenario.cluster as cluster:
        query_ids = schedule_queries(scenario)
        _schedule_replica_outage(scenario)
        cluster.run_until_idle()
        traces = [cluster.metrics.trace(query_id) for query_id in query_ids]
        yield scenario, cluster, traces


def _index_tier(scenario) -> set[str]:
    """Every address a plan can visit that is not the client or a data holder."""
    return {peer.address for peer in scenario.index_servers} | {scenario.meta_index.address}


class TestShardedScenario:
    """Replica crash mid-query, failover, rejoin reconciliation (tentpole)."""

    @pytest.fixture(scope="class")
    def outcome(self):
        spec = ScaleoutSpec(
            name="tier-test", topology="small-world", peers=60,
            workload="garage-sale", churn="none", queries=6, seed=11,
            catalog_shards=2, catalog_replicas=3, catalog_outages=1,
            reliable=True, fault_loss=0.10,
        )
        with _tier_run(spec) as (scenario, cluster, traces):
            yield scenario, cluster.peers(), cluster.catalog_tier_stats(), traces

    def test_outage_victims_are_preferred_members(self, outcome):
        scenario, _, _, _ = outcome
        group = scenario.shard_map.group(0)
        assert scenario.replica_outages == [group.preferred_order()[0]]
        assert group.area is not None  # else nothing is routed to the victim

    def test_first_hop_is_an_owner_and_the_tier_is_crossed_once(self, outcome):
        scenario, _, _, traces = outcome
        tier = scenario.shard_map
        client = scenario.client.address
        indexers = _index_tier(scenario)
        span = len(scenario.queries) * scenario.spec.query_interval_ms
        start = traces[0].issued_at
        for query, trace in zip(scenario.queries, traces):
            owners = tier.owners(query.area)
            assert trace.visited[0] == client
            assert next(address for address in trace.visited if address != client) in owners
            if start + span / 3.0 <= trace.issued_at <= start + 2.0 * span / 3.0:
                continue  # a replica is down: failover may ask around
            asked = [address for address in trace.visited if address in indexers]
            assert set(asked) <= set(owners)  # no wrong group, no meta-index
            if set(trace.visited) - indexers - {client}:
                assert len(asked) == 1  # the owner bound the area and scattered it
            else:
                # Nothing to scatter: each replica of the group confirms the
                # empty answer (MQPProcessor._answers_for), none twice.
                assert len(asked) == len(set(asked)) <= scenario.spec.catalog_replicas

    def test_queries_complete_despite_the_crash(self, outcome):
        _, _, _, traces = outcome
        assert all(trace.recall == 1.0 for trace in traces)

    def test_rejoin_reconciles_with_survivors(self, outcome):
        _, peers, stats, _ = outcome
        assert stats["enabled"] is True
        assert stats["shards"] == 2
        assert stats["reconciliations"] >= 1
        victims = [peer for peer in peers if peer.reconciliations > 0]
        assert victims  # the rejoined replica ran the reconciliation pass

    def test_no_statement_double_counting(self, outcome):
        """Registration replay via two replicas must not duplicate statements."""
        _, peers, _, _ = outcome
        for peer in peers:
            assert len(peer.statements) == len(set(peer.statements))
            assert len(peer.catalog.statements) == len(set(peer.catalog.statements))

    def test_answer_cache_served_lookups(self, outcome):
        _, _, stats, _ = outcome
        cache = stats["answer_cache"]
        assert cache["hits"] + cache["misses"] > 0


class TestAnswerCacheUnderZipf:
    def test_the_owning_replicas_serve_hot_areas_from_their_caches(self):
        """600 Zipf-ranked lookups over the owned index areas of a 200-peer,
        4-shard tier, each asked of the area's first owner: >= 80% are
        answered by the replicas' answer caches."""
        spec = ScaleoutSpec(name="zipf", topology="small-world", peers=200,
                            workload="garage-sale", churn="none", queries=1, seed=11,
                            catalog_shards=4, catalog_replicas=1)
        scenario = build_scaleout_scenario(spec)
        with scenario.cluster:
            tier = scenario.shard_map
            hot = [InterestArea([cell]) for group in tier.groups if group.area is not None
                   for cell in group.area]
            replicas = {peer.address: peer.catalog for peer in scenario.index_servers}
            for rank in zipf_query_ranks(make_rng(spec.seed + 4), len(hot), 600):
                replicas[tier.owners(hot[rank])[0]].servers_overlapping(hot[rank])
            caches = [catalog.answer_cache for catalog in replicas.values()]
            hits = sum(cache.hits for cache in caches)
            assert hits + sum(cache.misses for cache in caches) == 600
        assert hits / 600 >= 0.8


class TestFirstHopAtBenchmarkScale:
    def test_scattered_queries_reached_an_owning_group_first(self):
        """The ``sharded-catalog`` preset at ``sharded-lossy``'s size (300 peers,
        160 queries, a replica outage, churn, 10% loss): a query's first hop
        is a replica that owns its area — 23 of the 133 that scatter when
        the shard was picked by hashing the query's own cell."""
        from dataclasses import replace

        from repro.harness.cli import SCENARIOS

        spec = replace(SCENARIOS["sharded-catalog"], peers=300, queries=160)
        with _tier_run(spec) as (scenario, _, traces):
            client, indexers = scenario.client.address, _index_tier(scenario)
            scattered = owner_first = 0
            for query, trace in zip(scenario.queries, traces):
                if not set(trace.visited) - indexers - {client}:
                    continue  # no holder was reached: nothing scattered
                scattered += 1
                first = next(address for address in trace.visited if address != client)
                owner_first += first in scenario.shard_map.owners(query.area)
        assert scattered >= 100 and owner_first >= 0.95 * scattered, (owner_first, scattered)


class TestCriticalPathAtBenchmarkScale:
    def test_a_referred_client_skips_the_meta_index_and_no_hop_waits(self):
        """``flash-crowd`` at 200 peers x 60 queries: client -> index -> holders
        -> client.  At the parent every query entered through the meta-index
        and each hop held a plan for a 5 ms batch window."""
        from dataclasses import replace

        from repro.harness.cli import SCENARIOS
        from repro.peers.forwarding import PlanForwarding

        scenario = build_scaleout_scenario(replace(SCENARIOS["flash-crowd"], queries=60))
        client, meta = scenario.client, scenario.meta_index.address
        learned = []  # (when a referral landed, the area it is good for)
        timers = []  # every callback the run put on the clock
        learn_about, schedule = client.learn_about, scenario.network.schedule
        with scenario.cluster as cluster:

            def learn(entry):
                learned.append((cluster.now, entry.area))
                learn_about(entry)

            def record(delay, callback):
                timers.append(callback)
                return schedule(delay, callback)

            client.learn_about, scenario.network.schedule = learn, record
            query_ids = schedule_queries(scenario)
            cluster.run_until_idle()
            covered = direct = 0
            for query, query_id in zip(scenario.queries, query_ids):
                trace = cluster.metrics.trace(query_id)
                if any(at <= trace.issued_at and area.covers(query.area) for at, area in learned):
                    covered += 1
                    direct += trace.visited[1] != meta
            answered = [client.results[query_id].count for query_id in query_ids]
        assert answered == [query.expected for query in scenario.queries]
        assert covered >= 40 and direct >= 0.95 * covered, (direct, covered)
        assert 1 <= len(learned) <= 10  # told once per authority, give or take a burst in flight
        assert not any(isinstance(getattr(timer, "__self__", None), PlanForwarding) for timer in timers)


class TestSpecSurface:
    def test_tier_knobs_elided_at_defaults(self):
        block = _scenario_dict(ScaleoutSpec(name="plain"))
        assert not any(key.startswith("catalog_") for key in block)
        block = _scenario_dict(ScaleoutSpec(name="tier", catalog_shards=2, catalog_replicas=2))
        assert block["catalog_shards"] == 2 and block["catalog_replicas"] == 2

    def test_validation_rejects_bad_combinations(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            ScaleoutSpec(catalog_shards=2).validate()
        with pytest.raises(SimulationError):
            ScaleoutSpec(catalog_shards=2, catalog_replicas=2, routing="gnutella").validate()
        with pytest.raises(SimulationError):
            ScaleoutSpec(catalog_outages=1).validate()
        with pytest.raises(SimulationError):
            ScaleoutSpec(catalog_shards=2, catalog_replicas=2, catalog_outages=2).validate()
        ScaleoutSpec(catalog_shards=2, catalog_replicas=2, catalog_outages=1).validate()
