"""Benchmark suite regenerating the experiments (README, "Experiment matrix")."""
