"""Golden digests: the overlays, populations and draw streams every report rests on.

Each digest is the sha256 of a text rendering of one deterministic output:

* the oriented edge list of every topology kind at several sizes and seeds
  (an edge is written lower node index first, so orientation is pinned too);
* the population and query set of each benchmark workload at data seed 11;
* the first 1,000 values of every generator method ``src/`` calls, at
  seeds 0, 11 and 2**40 + 7, plus the Zipf weight vectors.

The values were taken from the numpy/networkx-backed implementation that the
in-repo generators replaced, so a digest that changes means every report
that depends on it has moved.  ``python tests/test_golden_digests.py``
prints the current digests.

One exception: the Zipf weight vectors at skews 0.9, 1.1 and 1.2 pin the C
library's ``pow``.  numpy's array ``**`` uses SVML on AVX-512 hosts, which
differs from ``pow`` by up to 5 ulp in most vectors (its scalar ``**`` and
its path on other hosts call ``pow``); every draw made from those weights
above still matches numpy's.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

import pytest

from repro.harness import scaleout
from repro.harness.cli import SCENARIOS
from repro.network import TOPOLOGY_KINDS, build_topology
from repro.network.latency import LatencyModel
from repro.workloads.distributions import (
    make_rng,
    zipf_choice,
    zipf_rank_sequence,
    zipf_weights,
)
from repro.xmlmodel import serialize_xml

SIZES = (3, 10, 120, 200, 1000)
TOPOLOGY_SEEDS = (1, 11)
RNG_SEEDS = (0, 11, 2**40 + 7)
STREAM_LENGTH = 1000
DATA_SEED = 11

# (label, kind, builder params): every kind at its defaults, plus sparse
# random graphs whose stub pairing leaves components for _ensure_connected.
TOPOLOGY_VARIANTS = tuple((kind, kind, {}) for kind in TOPOLOGY_KINDS) + (
    ("random-d1", "random", {"degree": 1}),
    ("random-d2", "random", {"degree": 2}),
)

# The benchmark workloads: (preset, overrides) as benchmarks/e2e declares them.
WORKLOAD_SPECS = {
    "gene-1k": ("thousand-peers", {"churn": "none"}),
    "flash-200": ("flash-crowd", {"queries": 600}),
    "feed-aio": ("subscription-feed", {"peers": 300, "queries": 4, "churn": "none"}),
    "sharded-lossy": ("sharded-catalog", {"peers": 300, "queries": 160}),
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(float(value))
    return str(int(value))


def _addresses(count: int) -> list[str]:
    # Sorting these does not give index order, so orientation is visible.
    return [f"peer{(index * 37) % 1009:04d}:9020" for index in range(count)]


def topology_digest(kind: str, count: int, seed: int, params: dict) -> str:
    topology = build_topology(kind, _addresses(count), seed=seed, **params)
    lines = [f"nodes {topology.number_of_nodes()}"]
    lines.extend(f"{first} {second}" for first, second in sorted(topology.edges()))
    return _digest(lines)


def population_digest(name: str) -> str:
    preset, overrides = WORKLOAD_SPECS[name]
    spec = replace(SCENARIOS[preset], seed=DATA_SEED, **overrides)
    _, peers, queries = scaleout._POPULATIONS[spec.workload](spec)
    lines = []
    for peer in peers:
        lines.append(f"peer {peer.address} {peer.area}")
        lines.extend(serialize_xml(item) for item in peer.items)
    lines.extend(f"query {query.area} {query.expected}" for query in queries)
    return _digest(lines)


def _cycle_calls(rng, arguments, draw):
    return [draw(rng, argument) for argument in itertools.islice(itertools.cycle(arguments), STREAM_LENGTH)]


def _batches(rng, shapes, draw):
    values: list = []
    for shape in itertools.cycle(shapes):
        if len(values) >= STREAM_LENGTH:
            return values
        values.extend(draw(rng, *shape))


_PEERS = [f"peer{index:03d}:9020" for index in range(240)]
_ITEMS = [f"item{index}" for index in range(40)]

STREAMS = {
    "random": lambda rng: [rng.random() for _ in range(STREAM_LENGTH)],
    "uniform": lambda rng: [rng.uniform(-10.0, 10.0) for _ in range(STREAM_LENGTH)],
    "integers": lambda rng: _cycle_calls(
        rng, (1, 2, 3, 5, 37, 1000, 2**20 + 3, 2**31 + 5, 2**32), lambda r, n: r.integers(n)
    ),
    "integers-low-high": lambda rng: _cycle_calls(
        rng, ((1, 4), (-5, 5), (0, 1), (10, 2**31)), lambda r, pair: r.integers(*pair)
    ),
    "interleaved": lambda rng: _cycle_calls(
        rng, (37, None, 5, None, None), lambda r, n: r.random() if n is None else r.integers(n)
    ),
    "poisson": lambda rng: _cycle_calls(
        rng, (6.0, 12.0, 0.0, 50.0, 2.5), lambda r, lam: r.poisson(lam)
    ),
    "lognormal": lambda rng: [rng.lognormal(2.0, 0.8) for _ in range(STREAM_LENGTH)],
    "zipf-choice": lambda rng: _cycle_calls(
        rng, ((1.1, 13), (0.9, 7), (1.2, 40), (0.0, 5)),
        lambda r, shape: zipf_choice(r, _ITEMS[: shape[1]], shape[0]),
    ),
    "zipf-ranks": lambda rng: _batches(
        rng, ((40, 17, 1.2), (300, 50, 1.0), (1, 3, 1.0)),
        lambda r, count, length, skew: zipf_rank_sequence(r, count, length, skew),
    ),
    "choice-without-replacement": lambda rng: _batches(
        rng, ((10, 10), (100, 1), (100, 3), (1000, 50), (1000, 5), (20000, 30), (7, 0), (60, 2)),
        lambda r, population, size: r.choice(population, size=size, replace=False),
    ),
    "choice-strs": lambda rng: _batches(
        rng, ((240, 12), (240, 1), (60, 60), (240, 4)),
        lambda r, population, size: sorted(r.choice(_PEERS[:population], size=size, replace=False)),
    ),
    "shuffle": lambda rng: _batches(
        rng, tuple((length,) for length in range(51)),
        lambda r, length: _shuffled(r, length),
    ),
    "latency": lambda rng: [
        LatencyModel(seed=int(rng.integers(2**31))).propagation_delay("a", "b")
        for _ in range(STREAM_LENGTH)
    ],
}


def _shuffled(rng, length: int) -> list[int]:
    values = list(range(length))
    rng.shuffle(values)
    return values


def stream_digest(name: str, seed: int) -> str:
    values = STREAMS[name](make_rng(seed))[:STREAM_LENGTH]
    assert len(values) == STREAM_LENGTH
    return _digest(_text(value) for value in values)


def zipf_weights_digest(skew: float) -> str:
    return _digest(
        _text(weight) for count in range(1, 301) for weight in zipf_weights(count, skew)
    )


ZIPF_SKEWS = (0.0, 0.9, 1.0, 1.1, 1.2)


def current_digests() -> dict[str, str]:
    """Every digest of this module, computed from the code under test."""
    digests = {}
    for label, kind, params in TOPOLOGY_VARIANTS:
        for count in SIZES:
            for seed in TOPOLOGY_SEEDS:
                digests[f"topology/{label}/{count}/{seed}"] = topology_digest(kind, count, seed, params)
    for name in WORKLOAD_SPECS:
        digests[f"population/{name}"] = population_digest(name)
    for name in STREAMS:
        for seed in RNG_SEEDS:
            digests[f"stream/{name}/{seed}"] = stream_digest(name, seed)
    for skew in ZIPF_SKEWS:
        digests[f"zipf-weights/{skew}"] = zipf_weights_digest(skew)
    return digests


GOLDEN: dict[str, str] = {
    'topology/scale-free/3/1': 'fc629c8076186c58dc364524d35fac99ea9973178224d641cd72cbb4388cf90c',
    'topology/scale-free/3/11': 'fc629c8076186c58dc364524d35fac99ea9973178224d641cd72cbb4388cf90c',
    'topology/scale-free/10/1': 'd2e6855c422020c0b7da5b187561fd93c55af0074ee0d9bbde1ae8c17f391be0',
    'topology/scale-free/10/11': 'f1a4e050feaa54ad51f63f92d967c4743de2780f9e7560dae30d8e95efe762c6',
    'topology/scale-free/120/1': '08f257208884adb26ddfcd28283d09acb1b896f6ba020f9ae8a14184ac65e421',
    'topology/scale-free/120/11': 'e7f4189b89506156ff834b008c597249d37195031bce1254beb54e61a8a9baa2',
    'topology/scale-free/200/1': '2478a79bdd01a39c42c86f07c64776f7c66c3d7a5d7282cf3237a2291861575a',
    'topology/scale-free/200/11': '08171e13b5ec14815653ac86cfc022017db89130561c4a75519a06ab87f97987',
    'topology/scale-free/1000/1': '5a7ef9574cac84fb41a7d33142d41bfc852c798e4fce713e512a08b134dfc5bc',
    'topology/scale-free/1000/11': '018ca18c8890d98fe2dbe61a3e6009a47599ed846567a1236f2ed8c09ad68e99',
    'topology/small-world/3/1': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/small-world/3/11': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/small-world/10/1': '1740b97dc61b9e35ebb34dddc379eb2309ae2dd6885b7f69bc2530ede0d8126d',
    'topology/small-world/10/11': 'c544f8df2289f31d297dd9da773f30aeaf5c8f714dd9aba11e97255fbfff0d78',
    'topology/small-world/120/1': 'e3d6eba26bb05002963c4b8277c0c9eb916f5f40f0fafd6f8b2dbe27c571bbee',
    'topology/small-world/120/11': 'b9ffa279f799b9d402ded71d884d62252a2c2a2c107b16c3dc1220efbf7fdfbe',
    'topology/small-world/200/1': 'b2c446becc0852479ce9bda1b292fa6f2cbfc29d8d301c59837bbebb596a14bc',
    'topology/small-world/200/11': 'b5bb3880df6a40fd76a3d3eba6433c2d58dab11d11e3ecc9ce324bc8d4ed1f41',
    'topology/small-world/1000/1': 'cd80823f98415de169c584da5c6e42004639d6d5c93ce08eeb344e07878f4774',
    'topology/small-world/1000/11': '6807e6e0142b8361ff03f9758bfc477b186c8345ae47fd9324d372cd3213b371',
    'topology/random/3/1': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/random/3/11': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/random/10/1': 'c1adcae5846bb85942f58e9161ecc34c9f6ae25afc15af4b3b7394177474a505',
    'topology/random/10/11': 'e7b80585662402d39d875d7f5f7df6ab65e26511c6c9f3d5c4638738721e3957',
    'topology/random/120/1': '0dd3e1e7e58a805a476c0c07ecb2e219484257082272bc0c04eeff1a1129b19a',
    'topology/random/120/11': 'b59b15e98cbef539fda7941b97b2072a668cf5f4936e2597715dd3e9fe78ea6e',
    'topology/random/200/1': 'c429f80a3ccfc8a3d4afcdce1448a02ca34a258530d226bd022d6b3eb0e146d1',
    'topology/random/200/11': '2284e5f7d212111550f9d537cd32f1b65e271ab362af2d433d341e51711ffcc4',
    'topology/random/1000/1': '592463caf04b32c78a00ccb50e206c9b357d9df4dfbab604fb8c4fe499fd7052',
    'topology/random/1000/11': '834033b2d0c34476afa5a64e49bf591645c1d2e868e66502c123122c9d946efe',
    'topology/hierarchical/3/1': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/hierarchical/3/11': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/hierarchical/10/1': '0cc9d8e70ed936156c07620bb782068658c8c09bda9d56c9eda8decf3b078230',
    'topology/hierarchical/10/11': '0cc9d8e70ed936156c07620bb782068658c8c09bda9d56c9eda8decf3b078230',
    'topology/hierarchical/120/1': 'ac21b0e19c84a1b4ebf0c5c2b1519b4bdbdfaa9794ea6b33a96ee7f3b32b4f8a',
    'topology/hierarchical/120/11': 'ac21b0e19c84a1b4ebf0c5c2b1519b4bdbdfaa9794ea6b33a96ee7f3b32b4f8a',
    'topology/hierarchical/200/1': '6331f0ae7546935bb8870e3796a30f6b46bd0f297fe77709792c3837d0d09c0b',
    'topology/hierarchical/200/11': '6331f0ae7546935bb8870e3796a30f6b46bd0f297fe77709792c3837d0d09c0b',
    'topology/hierarchical/1000/1': 'f16d8afb71817447b59eb30cd47e10e451e3ddfbd3fecb45d461c8d3f9aa00e0',
    'topology/hierarchical/1000/11': 'f16d8afb71817447b59eb30cd47e10e451e3ddfbd3fecb45d461c8d3f9aa00e0',
    'topology/star/3/1': 'fc629c8076186c58dc364524d35fac99ea9973178224d641cd72cbb4388cf90c',
    'topology/star/3/11': 'fc629c8076186c58dc364524d35fac99ea9973178224d641cd72cbb4388cf90c',
    'topology/star/10/1': '597412492b79927d9ebdd249ebfecb433f4a1bbd65fa147798a9740092e30c6b',
    'topology/star/10/11': '597412492b79927d9ebdd249ebfecb433f4a1bbd65fa147798a9740092e30c6b',
    'topology/star/120/1': '765e650901e62289baea1fe8945015061bedd4871db7d16f39623f8c368bf1c7',
    'topology/star/120/11': '765e650901e62289baea1fe8945015061bedd4871db7d16f39623f8c368bf1c7',
    'topology/star/200/1': 'fa5fedbcddd0dc450202ebfc45c5c0002180ec366821e0d925794a8f135d0367',
    'topology/star/200/11': 'fa5fedbcddd0dc450202ebfc45c5c0002180ec366821e0d925794a8f135d0367',
    'topology/star/1000/1': '8029cc981308daffc61c24e3a21d1768722ea4c3ceff155de729fa4f6294a6af',
    'topology/star/1000/11': '8029cc981308daffc61c24e3a21d1768722ea4c3ceff155de729fa4f6294a6af',
    'topology/random-d1/3/1': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/random-d1/3/11': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/random-d1/10/1': '01b16e28d0812ba58b9cebe79639172200c8ba1835b0ea22f180b5a943eef5b7',
    'topology/random-d1/10/11': '71c25916eebe3ce677679904d240aa16d7c791a3ddba943cc7dec77f0ff0a11a',
    'topology/random-d1/120/1': '4366307bb54ac8637f0f65cc7eeaf08d2cc2b122220a94465c63420187f7f60e',
    'topology/random-d1/120/11': 'e61d2457d4ad25c89670c0166d0ff5e5d24a9b271f532af093f15edc0c79c674',
    'topology/random-d1/200/1': '09428d2364888422db3f4aa5c292b9e302a03de715494f46a4a5d4f67837b464',
    'topology/random-d1/200/11': '4c0ca3d8337c3bf78c80c6b2a877d6ccd28874410f81208f57d25e334e6747ea',
    'topology/random-d1/1000/1': '511488b5ae487d95f9580f1a732373bd171ba162de3cf9b3b4b513436b997eaa',
    'topology/random-d1/1000/11': '7f904c49fd33eaaf2b2c019ee5be2eb38d6bb2f1d8f8c9463aa919c09dace433',
    'topology/random-d2/3/1': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/random-d2/3/11': '2a2c216088be28d444ff0fe6f3ba410d72193621760158c814f1709dbeeac728',
    'topology/random-d2/10/1': 'f0f0162e267e49429ec3ad84305097003a5bb989202790e6a9686704eceafa02',
    'topology/random-d2/10/11': '95e989971ad8015f24cdfa9aa3e21021da2af1b7d07755c56b0a3d709c125df0',
    'topology/random-d2/120/1': 'ac15de60f17c7fd8eb0f3b4546526541f1c0106ae74de42f4d7ec90260e7b0d8',
    'topology/random-d2/120/11': '563927c30af23c98bf5415fe52ca4649578e9de2763e62c9cef30e8da71c8563',
    'topology/random-d2/200/1': 'aaef4ee67f2a00d878fea9c001237825de11a47d24a263a99267dc08e9913a33',
    'topology/random-d2/200/11': '728f61de1f9ab15beadc5739e996c13ae58eb2a94830c88162d674169f08cae7',
    'topology/random-d2/1000/1': '4ae4f72844b6d007b12bdaea03409910aa537cfd9e8b1b2ac633f84c136c1c3a',
    'topology/random-d2/1000/11': 'c7cf3201582b36db2493222de08b3416e280bad69343a9c438411c3fc460e265',
    'population/gene-1k': 'd30e96c62d0e7440c9c8099318e37cdbf3acbe44b33e89ee212e3d92bf59b0b3',
    'population/flash-200': '590909f64f9ef0048574466cd528a0a8a1976467ad9c6e219321a1a52990f23a',
    'population/feed-aio': '9fea31a9c557fac962de703062a84887b15ba49f43e4d18c9c7b908f0b4cdc57',
    'population/sharded-lossy': '42d2146543c5ab0b04581cfc16173a9b21def3555446a87444177b1de25aedab',
    'stream/random/0': '7e7658030816b374b64bbc5be46bec772db62c25878f6b5c9707dcb683dfbca4',
    'stream/random/11': '65fe16d9c49cce08a133bcd7ab36a7192bd178b3f492dd06256e2f973f5a2a71',
    'stream/random/1099511627783': 'd0a44ab4dd9aedd650ff6bf8f687c570028c3a1cb57507846e4d910ba5444e29',
    'stream/uniform/0': '50706ef7d24c86dc0f0b81103566df002fb5a6fb454af7310849457ac27b1829',
    'stream/uniform/11': 'db8f321185b33155aa3589bace3d731821cafd5bcdecb146de7b09d6b17c2d0c',
    'stream/uniform/1099511627783': '23255281988bfb96a9e6784e65df4decb051dded74a1bc56516a4faa8ba43b7d',
    'stream/integers/0': '5a2006249a8da02ecba329fa4cf6172ec9cc1d5bc43e32064766127c94b63da2',
    'stream/integers/11': '88c8f972c16fcfb4343b7e468584aa2d468c2ee4eeb51065b93910084dfc105a',
    'stream/integers/1099511627783': '270d67f81b77c7e31a0a91a55ca9fafdee664bbee334ad1026cd569f6ee93e8e',
    'stream/integers-low-high/0': 'b9c84300ce2ac5a81d0a615b3b0e595a71a2d8a8e66fa3fb375ee6c745ffa003',
    'stream/integers-low-high/11': 'fa2de56c579fdde3d851b76ebca393f5fe121450bd6749f6b1316cdf2ae5bf8e',
    'stream/integers-low-high/1099511627783': 'a1e18da0d89af65c5da36bb63113297d7a26e154cf33359609375d4f963b5eee',
    'stream/interleaved/0': 'd4b90d008fdb47336e57d07539f2f5267b1211336f9cb885f12baaac41068829',
    'stream/interleaved/11': 'b583c38ad036ebc7eb13f13e05aa6a3f655e5ad512f13de6a4d62e2b3f863a36',
    'stream/interleaved/1099511627783': 'a8c7556b35e4644525c5710289d13390c8929271c2d42bc62597effca57a23f1',
    'stream/poisson/0': '78f57eae23bdb5eddc071a5792459005e2fcfeb52c29487203b0364d7afceee1',
    'stream/poisson/11': '35c36ac225905317332f2d8c66a3caf9bfa6c293308cf39dc9e7665a55a29b1f',
    'stream/poisson/1099511627783': 'c3e11c77b64dffce2fc1882f3d2a52452265af7112170ab58b4122c658c20f86',
    'stream/lognormal/0': 'ed38997678d71c317c99d0e82b872f1d2803fd2229ad47308452a2cda3d2331e',
    'stream/lognormal/11': '6566b933db6ac631911d410b6ee7c829876c1a1f414772fbb0a146a0ab968b72',
    'stream/lognormal/1099511627783': '78c0d493732daa010d977e06de9e44b4b8720fd77ca40a5577824ba2fb28fd03',
    'stream/zipf-choice/0': 'dc9d8f01b3109087c9de64b064e6d262d23124a060e15981b4f683d1bcf338c2',
    'stream/zipf-choice/11': 'a4ca3dd33a54da3918fe0c93e3fbb6d05fdc852f957b537b1cac3bea0ce59265',
    'stream/zipf-choice/1099511627783': '40e200f641e8f7731a897b0f75dc59da640295bf1927df1264cfccc6effa41ba',
    'stream/zipf-ranks/0': '7d8888fd33fc534bd3b543fdd02807b7512282b358583d9a6e14c7a11a45d5f6',
    'stream/zipf-ranks/11': 'ada6b229bf112827aba2dad2366b32c6057226b5af3d21833893edae7bef6238',
    'stream/zipf-ranks/1099511627783': 'e9c1d90e99c8e3c7532c34f0e295bcfbbfdae4234b17a969ee541715d587bd61',
    'stream/choice-without-replacement/0': 'bfad5a08f819ccb26bb58a7dd141a5229be7610faba2ecd1e998c00e6e26897e',
    'stream/choice-without-replacement/11': '137ec853cfc22060d449bc157b8b7756e4ba644a134f05a45b4cd0227b2ed84e',
    'stream/choice-without-replacement/1099511627783': 'e97168184424430118a752432e161f475014888c9137f8e22e802cc32d9e79e9',
    'stream/choice-strs/0': 'f80a6d67d7367518701ad8bdbf0f8bddf1aa091722b8f3fc57cd94815711b2a5',
    'stream/choice-strs/11': 'c86a0e775593df930327efd046b7578a231836d4db659f1eee7bdcd1f8dbb170',
    'stream/choice-strs/1099511627783': '9f25a8aa2258a64a80410620ee5a4e32deb243563837e7102bd30ed3432840ee',
    'stream/shuffle/0': 'd12a9bc3de89b999800f7279e14b153871299ce34c793b8e331f7573cd174ca0',
    'stream/shuffle/11': 'e3dc7c1a9ec1b7b5f09c94aa03a5b558413418525a48930110b8409ca88dd91f',
    'stream/shuffle/1099511627783': '54dcedf669ed4ef3cf12ab36c44ec3bc689f82287acabdc7f4850ca91a50bcf6',
    'stream/latency/0': '5d29dca4f3a9164a997b42b0d36eb97484a74f19b2125be4e9b90dd78291e6dc',
    'stream/latency/11': '5347aeee345dbd275f87df43f5a93d6f1f67a41e5bccaab7248e617ac8808808',
    'stream/latency/1099511627783': 'edb24774189bf3913181b2d680866fe157d6e44991d71143c031f44db25fd925',
    'zipf-weights/0.0': 'fa6d5491d466a9166d7fbe07d50e24f6e7865b97115dc3c905f276634628d6ef',
    'zipf-weights/0.9': '7c693e21c378de9492af5553162832a2ac4375eaf1fa5266020484a0df6f9eea',
    'zipf-weights/1.0': 'c678032f8b4fc13f957eb1c31d1aed513f18d076078e6b6c8513f4daba52c147',
    'zipf-weights/1.1': '487e80407d7414adb96025e98cec49958631febbf9aa156bd029b19a80618700',
    'zipf-weights/1.2': 'bb8fccf175acb571bd31e4741c179d151273983b5b967bb9d97c0c1748a7ffc6',
}


@pytest.mark.parametrize(
    "label,kind,params", TOPOLOGY_VARIANTS, ids=[variant[0] for variant in TOPOLOGY_VARIANTS]
)
@pytest.mark.parametrize("count", SIZES)
@pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
def test_topology_edges(label, kind, params, count, seed):
    assert topology_digest(kind, count, seed, params) == GOLDEN[f"topology/{label}/{count}/{seed}"]


@pytest.mark.parametrize("name", sorted(WORKLOAD_SPECS))
def test_workload_population(name):
    assert population_digest(name) == GOLDEN[f"population/{name}"]


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_generator_stream(name, seed):
    assert stream_digest(name, seed) == GOLDEN[f"stream/{name}/{seed}"]


@pytest.mark.parametrize("skew", ZIPF_SKEWS)
def test_zipf_weights(skew):
    assert zipf_weights_digest(skew) == GOLDEN[f"zipf-weights/{skew}"]


if __name__ == "__main__":
    for key, value in current_digests().items():
        print(f"    {key!r}: {value!r},")
