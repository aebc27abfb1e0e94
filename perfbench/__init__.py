"""Benchmark harness for rekpool: seeded workloads, output checks and a
traced run that splits time by module.  Entry point: ``perfbench/run.py``."""
