"""The repository benchmark: end-to-end workloads with a per-layer split.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (``--workload all`` runs every one).  The untraced run
reports the end-to-end metrics named in ``BENCHMARK.json``; the traced
run replays every operation as the public layer calls the pipeline
makes and reports the per-layer split.  ``layers.json`` maps each
per-layer metric to the module and call it times and to the end-to-end
metric and workload it should move.
"""
