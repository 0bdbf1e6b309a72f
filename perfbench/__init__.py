"""The repository benchmark: four workloads, end-to-end metrics and a
traced per-layer waterfall.  Entry point: ``python3 perfbench/run.py``;
see ``perfbench/README.md``."""
