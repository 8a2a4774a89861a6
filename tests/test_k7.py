"""Slow tier: K7 at theta = 0, the smallest K_n with side information.

Deselected by default; run with `python -m pytest -m slow`.  One build is
shared by the module: it takes about 10 s and most of a 1 GB peak RSS.
"""

import hashlib

import pytest

from pirlab.builder import build_scheme, verify_scheme
from pirlab.sequences import rate
from pirlab.sim import run_probabilistic_trials
from pirlab.transform import entropy_proxy_ok, prob_rate, transform

pytestmark = pytest.mark.slow

# sha256 of repr((sorted(queries.items()), patterns, side_info)), recorded
# before one pattern-class table replaced the builder's per-class loops
K7_THETA0_SHA256 = \
    "6e3d23bfc1f2df09bf3c0ef69daf492b6e81f5c7cc12e8c761fb946de832cc0c"


@pytest.fixture(scope="module")
def k7():
    return build_scheme(7, 0)


@pytest.fixture(scope="module")
def k7_prob(k7):
    return transform(k7)


def test_k7_build_pinned(k7):
    assert k7.L == 135_792
    assert len(k7.side_info) == 480
    text = repr((sorted(k7.queries.items()), k7.patterns, k7.side_info))
    assert hashlib.sha256(text.encode()).hexdigest() == K7_THETA0_SHA256


def test_k7_verifies(k7):
    assert verify_scheme(k7).ok


def test_k7_entropy_proxy(k7):
    assert entropy_proxy_ok(k7)


def test_k7_transform_rows(k7_prob):
    assert len(k7_prob.rows) == 415


def test_k7_transform_rate(k7_prob):
    assert prob_rate(k7_prob) == rate(7)


def test_k7_exact_probabilistic_trial(k7_prob):
    contents = [1 - f % 2 for f in k7_prob.graph.files]
    assert run_probabilistic_trials(k7_prob, contents, mode="exact").ok
