from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import oracles
from cowordmap.network import CoNetwork, _induced, build_network, make_network
from cowordmap.pipeline import default_scheme_path
from cowordmap.records import parse_records, load_scheme
from cowordmap.vocabulary import OccurrenceIndex, load_mapping, normalize

DATA = Path(__file__).parent / "data"
RECORDS_CSV = DATA / "records.csv"
MAPPING_TXT = DATA / "mapping.txt"
PAJEK_DIR = DATA / "pajek"


@pytest.fixture(scope="session")
def schemes():
    return (load_scheme(default_scheme_path("a"), "scheme_a"),
            load_scheme(default_scheme_path("b"), "scheme_b"))


@pytest.fixture(scope="session")
def fixture_records(schemes):
    return parse_records(RECORDS_CSV, schemes)


@pytest.fixture(scope="session")
def fixture_mapping():
    return load_mapping(MAPPING_TXT)


@pytest.fixture(scope="session")
def fixture_index(fixture_records, fixture_mapping):
    return normalize(fixture_records, fixture_mapping, passthrough=True)


@pytest.fixture(scope="session")
def fixture_network(fixture_index):
    return build_network(fixture_index)[-1]


def random_network(rng: np.random.Generator, n_descriptors: int = 8, n_records: int = 20) -> CoNetwork:
    """A valid CoNetwork grown from a synthetic corpus, so that every
    invariant (weights, c <= min(w_i, w_j)) holds by construction."""
    names = [f"kw{i:02d}" for i in range(n_descriptors)]
    per_record = {}
    for r in range(n_records):
        size = int(rng.integers(1, min(6, n_descriptors) + 1))
        chosen = rng.choice(n_descriptors, size=size, replace=False)
        per_record[f"r{r}"] = frozenset(names[i] for i in chosen)
    return build_network(OccurrenceIndex.from_sets(per_record))[-1]


def connected_random_network(rng: np.random.Generator, n: int) -> CoNetwork:
    """Connected network with n vertices: a record chain plus random extras."""
    names = [f"kw{i:02d}" for i in range(n)]
    per_record = {}
    rid = 0
    for i in range(n - 1):
        per_record[f"c{rid}"] = frozenset((names[i], names[i + 1]))
        rid += 1
    extra = max(n, 2 * n)
    for _ in range(extra):
        size = int(rng.integers(2, 5))
        chosen = rng.choice(n, size=min(size, n), replace=False)
        per_record[f"x{rid}"] = frozenset(names[i] for i in chosen)
        rid += 1
    return build_network(OccurrenceIndex.from_sets(per_record))[-1]


def component_subnetworks(net: CoNetwork) -> list[tuple[tuple[int, ...], CoNetwork]]:
    """(ascending vertex indices, induced subnetwork) per component, ordered by
    smallest member, with the components found by the oracle's own search."""
    comps = [tuple(sorted(c)) for c in oracles.components_of(net.n_vertices, {(i, j) for i, j, _ in net.edges})]
    return [(comp, _induced(net, comp)) for comp in comps]


__all__ = ["make_network", "random_network", "connected_random_network", "component_subnetworks"]
