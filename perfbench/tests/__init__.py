"""Tests of the benchmark itself: ``PYTHONPATH=src python3 -m pytest perfbench/tests``."""
