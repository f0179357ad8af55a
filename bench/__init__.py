"""The repo benchmark: four seeded KadoP workloads measured from outside.

See ``bench/README.md``.  Nothing here is imported by ``src/repro``; the
benchmark drives the public ``KadopNetwork`` / ``KadopPeer`` API and reads
layer costs with interpreter hooks and run-time wrappers of its own.
"""
