"""Layered benchmark for pakelab; run it with ``python3 perfbench/run.py``."""
