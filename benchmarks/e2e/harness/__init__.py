"""The repo benchmark's harness: stdlib only, never imports ``repro``.

The harness process is the load generator and the orchestrator; the
program under test always runs in child processes (``python -m repro
serve`` and the scripts in ``../programs``).  See ``../README.md``.
"""
