"""A pytest plugin that records what each property test draws.

    python -m pytest -p tests.draws_recorder [pytest arguments]

It keeps only the hypothesis tests of the collection, lowers each one's
example count to ``EXAMPLES`` and replaces its body with a recorder, so a
session only generates examples. At the end it prints one line: ``DRAWS ``
and a JSON object mapping each test's node id to the number of examples it
drew and the SHA-256 of their ``repr``. ``test_draws.py`` runs it in fresh
interpreters.
"""

import hashlib
import json

from hypothesis import settings

EXAMPLES = 20
_draws = {}


def _recorder(item):
    digest = hashlib.sha256()
    _draws[item.nodeid] = [0, digest]

    def record(*args, **kwargs):
        drawn = sorted((k, v) for k, v in kwargs.items() if k not in item.fixturenames)
        digest.update(repr(drawn).encode() + b"\n")
        _draws[item.nodeid][0] += 1

    return record


def pytest_collection_modifyitems(items):
    items[:] = [item for item in items if hasattr(getattr(item, "obj", None), "hypothesis")]
    for item in items:
        test = item.obj
        # where hypothesis keeps the settings a test was given
        test._hypothesis_internal_use_settings = settings(
            test._hypothesis_internal_use_settings, max_examples=EXAMPLES)
        test.hypothesis.inner_test = _recorder(item)


def pytest_sessionfinish(session):
    record = {nodeid: [count, digest.hexdigest()] for nodeid, (count, digest) in _draws.items()}
    print("\nDRAWS " + json.dumps(record, sort_keys=True))
