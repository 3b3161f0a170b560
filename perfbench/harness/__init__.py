"""The perfbench harness: workloads, open-loop client, oracles and spans.

`perfbench/run.py` is the entry point; `perfbench/README.md` documents
the workloads and metrics.
"""
