import hashlib
import json
import pathlib

import pytest

from pirlab.graphs import Graph
from pirlab.scheme import DeterministicScheme, Summation

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_json(name):
    return json.loads((FIXTURES / name).read_text())


def indented_sha256(text):
    """sha256 of a JSON document re-rendered as json.dumps(indent=2) plus a
    newline: the form pirlab wrote when the pinned digests were recorded,
    so a pin holds exactly when the document's content is unchanged."""
    doc = json.dumps(json.loads(text), indent=2) + "\n"
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def load_scheme(name):
    return DeterministicScheme.from_json(load_json(name))


def row_at(rows, index):
    """Row `index` of a `rows.Rows` block as a Summation, read from its
    columns; a block is not indexed itself."""
    index = range(len(rows))[index]
    start, end = rows.ends[index - 1] if index else 0, rows.ends[index]
    return Summation(tuple(zip(rows.file[start:end], rows.subfile[start:end],
                               rows.sign[start:end])))


@pytest.fixture
def k3_scheme():
    return load_scheme("k3_scheme.json")


@pytest.fixture
def star4_scheme():
    return load_scheme("star4_scheme.json")


@pytest.fixture
def center_heavy_scheme():
    return load_scheme("star_center_heavy.json")


@pytest.fixture
def two_per_server_scheme():
    return load_scheme("two_per_server.json")


@pytest.fixture
def pendant_triangle():
    return Graph.from_json(load_json("pendant_triangle.json"))
