"""The performance ledger: one harness, six workloads, end-to-end and
per-layer numbers for the split-evaluation pipeline.

Run ``python -m benchmarks.ledger`` from the repository root; see
``README.md`` in this directory.
"""
