"""The paper's shapes at benchmark scale: each experiment with a
``claims()`` runs once, emits its table, and must hold every claim
(EXPERIMENTS.md lists them with their thresholds)."""

import pytest

from repro.experiments import registry

from conftest import emit


@pytest.mark.parametrize(
    "name", [name for name in registry.available() if hasattr(registry.get(name), "claims")]
)
def test_claims_hold(once, name):
    results, text = once(registry.run, name)
    emit(text)
    claims = registry.prepare(name).claims(results)
    failed = sorted(claim for claim, ok in claims.items() if not ok)
    assert not failed, "%s claims failed: %s" % (name, ", ".join(failed))
