"""Benchmark harness for the tokenhier package; see perfbench/README.md."""
