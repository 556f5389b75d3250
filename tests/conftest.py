"""Test configuration: make tests/ importable (helpers module), and a
result cache holding every payload-manifest job, filled once per session."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def manifest_cache(tmp_path_factory):
    """Every payload-manifest job simulated once into a fresh result
    cache, shared by the tests that replay the planned experiments:
    ``(directory, {manifest key: job}, manifest)``."""
    from repro.runner import execute_many
    from repro.tools import payload_manifest

    manifest = payload_manifest.load()
    jobs = {key: job for key, (job, _tags)
            in payload_manifest.unique_jobs(manifest["scale"]).items()}
    directory = tmp_path_factory.mktemp("manifest-cache")
    execute_many({key: [job] for key, job in jobs.items()},
                 workers=1, cache=True, cache_dir=directory)
    return directory, jobs, manifest
