"""The repository's benchmark: deterministic serving workloads measured in calibrated time.

See ``bench/README.md``.  Entry point: ``python3 bench/run.py`` (or
``python -m bench.run``).  Nothing here is imported by ``repro``; layers are
measured from outside, through their public entry points.
"""
