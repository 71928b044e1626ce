"""The repo benchmark (see README.md in this directory and BENCHMARK.json)."""
