"""The BoFL reproduction's benchmark: workloads, tracer, ledger and compare.

See ``perfbench/README.md`` for how to run it and read its output.
"""
