"""Benchmarks: the E11 and E14–E19 scripts and the E7–E10 pytest-benchmark files."""
