"""Whole-stack benchmark suite (see README.md); entry point is ``run.py``."""
