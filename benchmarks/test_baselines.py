"""Full-scale VTD-mitigation baseline shootout.

Regenerates the paper's comparative argument (§2.3, Table 1): every
known mitigation for virtual-time discontinuity pays a cost that the
micro-sliced pool avoids. The experiment's own ``checks`` dict encodes
the paper-shaped ordering; this benchmark asserts all of them.
"""

from repro.experiments import baselines, registry

from conftest import emit


class TestBaselines:
    def test_paper_shaped_ordering(self, once):
        results, text = once(registry.run, "baselines")
        emit(text)
        checks = results["checks"]
        failed = sorted(name for name, ok in checks.items() if not ok)
        assert not failed, "paper-shaped ordering violated: %s" % ", ".join(failed)
        # Every registered backend plus the paper's scheme must have run.
        for scheme in baselines.SCHEMES:
            assert scheme in results
        # The headline: only the micro-sliced pool improves the target
        # workloads without taxing the co-runner or idling cores.
        micro = results["micro_pool"]
        assert micro["target_x"] > 1.0
        assert micro["gang_idles"] == 0
