"""Seeded benchmark of revpinsker; run it with ``python3 perfbench/run.py``."""
