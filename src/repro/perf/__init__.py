"""Data-plane report equality: ``sweep.reports_equal``.

Performance is measured by ``benchmarks/e2e`` (``BENCHMARK.json``) and,
above the benchmark's 96 sites, by ``scripts/scale_probe.py``.
"""
