"""The byte-identity manifest: one SHA-256 per unique RunResult payload.

Every engine/performance PR is gated on this file: the manifest pins
the payload digest of every unique job spec across every registered
experiment (at a reduced scale so regeneration is minutes, not hours).
``--verify`` recomputes each payload with the current engine and fails
on the first divergence. ``--update`` is legitimate in two cases only:
a change that *intends* to change simulation results (new experiment,
model change), or a representation-only change to the payload format
that a converter proves — every old payload, converted, must equal the
new one byte for byte. Never for a plain performance change.

Usage::

    python -m repro.tools.payload_manifest --verify   # as in scripts/ci_smoke.sh
    python -m repro.tools.payload_manifest --verify --workers 4   # via the pool
    python -m repro.tools.payload_manifest --update   # regenerate (see above)

Payloads are recomputed through ``runner.execute`` with the result
cache off. ``--workers N`` (default: ``REPRO_RUNNER_WORKERS``) fans
them out over the persistent worker pool, so the identity gate also
proves that payloads returned by pool workers are byte-clean.
Serial and pooled runs must (and do) produce identical digests.

The manifest lives at ``tests/data/payload_manifest.json``. Keys are
the SHA-256 of each job's canonical spec; values carry the payload
digest plus enough human-readable context to identify a diverging job.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

#: Scale applied to every plan: clamps durations to the 10 ms floor so
#: the whole manifest regenerates in a few minutes.
MANIFEST_SCALE = 0.02

MANIFEST_PATH = (
    Path(__file__).resolve().parent.parent.parent.parent
    / "tests"
    / "data"
    / "payload_manifest.json"
)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_payload(payload):
    """The byte representation that is hashed: sorted-key compact JSON,
    exactly what the result cache stores."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def unique_jobs(scale=MANIFEST_SCALE):
    """``{spec_sha: (job, [plan tags])}`` across every registered
    experiment, deduplicated on the cache identity (several experiments
    share e.g. the seed-42 gmake co-run baseline)."""
    from ..experiments import registry

    jobs = {}
    for name in registry.available():
        module = registry.get(name)
        if registry.is_driver(module):
            # Driver experiments (e.g. fleet) generate jobs from their
            # own feedback loop — no static plan to pin. Their host
            # jobs are still cache-hashed; they are just not part of
            # the frozen identity gate.
            continue
        plan = module.plan(scale_override=scale)
        for job in plan:
            key = _sha256(job.canonical())
            if key in jobs:
                jobs[key][1].append("%s:%s" % (name, job.tag))
            else:
                jobs[key] = (job, ["%s:%s" % (name, job.tag)])
    return jobs


def _entry(job, tags, payload):
    return {
        "payload_sha256": _sha256(canonical_payload(payload)),
        "scenario": job.scenario,
        "seed": job.seed,
        "duration_ns": job.duration_ns,
        "tags": sorted(tags),
    }


def compute_entries(jobs, workers=None, progress=None):
    """``{spec_sha: manifest entry}`` for every job in ``jobs``
    (a ``unique_jobs``-shaped mapping), computed serially or fanned out
    over the persistent worker pool (``workers > 1``). The result cache
    is bypassed, so pooled payloads travel back through the pipe.
    Progress streams in completion order; the result is deterministic
    either way."""
    from .. import runner

    ordered = sorted(jobs.items())
    label = {job.tag: tags[0] for _key, (job, tags) in ordered}

    def on_progress(event, tag, done, total):
        if event == "done" and progress is not None:
            progress(done, total, label[tag])

    results = runner.execute(
        [job for _key, (job, _tags) in ordered],
        workers=workers,
        cache=False,
        progress=on_progress,
    )
    return {
        key: _entry(job, tags, results[job.tag].to_dict())
        for key, (job, tags) in ordered
    }


def generate(scale=MANIFEST_SCALE, workers=None, progress=None):
    entries = compute_entries(unique_jobs(scale), workers=workers, progress=progress)
    return {"scale": scale, "count": len(entries), "entries": entries}


def load():
    with open(MANIFEST_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def verify(manifest=None, keys=None, workers=None, progress=None):
    """Recompute payloads and compare against the manifest. Returns a
    list of mismatch descriptions (empty = all byte-identical).
    ``keys`` restricts the check to a subset of spec hashes;
    ``workers`` fans the recomputation out over the persistent pool."""
    if manifest is None:
        manifest = load()
    jobs = unique_jobs(manifest["scale"])
    mismatches = []
    expected = manifest["entries"]
    missing = sorted(set(expected) - set(jobs))
    for key in missing:
        mismatches.append(
            "job %s (%s) is in the manifest but no experiment plans it anymore"
            % (key[:12], ", ".join(expected[key]["tags"]))
        )
    new = sorted(set(jobs) - set(expected))
    for key in new:
        mismatches.append(
            "job %s (%s) is planned but missing from the manifest (run --update "
            "if this PR intentionally adds jobs)" % (key[:12], ", ".join(jobs[key][1]))
        )
    check = sorted(set(expected) & set(jobs))
    if keys is not None:
        check = [key for key in check if key in keys]
    entries = compute_entries(
        {key: jobs[key] for key in check}, workers=workers, progress=progress
    )
    for key in check:
        if entries[key]["payload_sha256"] != expected[key]["payload_sha256"]:
            mismatches.append(
                "payload diverged for %s (%s): manifest %s, recomputed %s"
                % (
                    key[:12],
                    ", ".join(sorted(jobs[key][1])),
                    expected[key]["payload_sha256"][:12],
                    entries[key]["payload_sha256"][:12],
                )
            )
    return mismatches


def _print_progress(done, total, tag):
    sys.stderr.write("\r[%3d/%3d] %-60s" % (done, total, tag[:60]))
    if done == total:
        sys.stderr.write("\n")
    sys.stderr.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--update", action="store_true", help="regenerate the manifest in place"
    )
    action.add_argument(
        "--verify", action="store_true", help="recompute and compare every payload"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the progress line"
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="recompute payloads through the persistent worker pool "
        "(default: REPRO_RUNNER_WORKERS or serial)",
    )
    args = parser.parse_args(argv)
    progress = None if args.quiet else _print_progress
    if args.update:
        manifest = generate(workers=args.workers, progress=progress)
        MANIFEST_PATH.parent.mkdir(parents=True, exist_ok=True)
        with open(MANIFEST_PATH, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %d payload digests to %s" % (manifest["count"], MANIFEST_PATH))
        return 0
    mismatches = verify(workers=args.workers, progress=progress)
    if mismatches:
        for line in mismatches:
            print("MISMATCH: %s" % line)
        print("%d payload(s) diverged" % len(mismatches))
        return 1
    manifest = load()
    print("all %d payloads byte-identical to the manifest" % manifest["count"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
