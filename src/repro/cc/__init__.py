"""Parallel-connectivity substrate (the paper uses ConnectIt [27]).

``local_cc`` holds the vectorized numpy kernels used inside Spark tasks
(CC labels per sketch, and the sampled-BFS lane kernel).
"""
from repro.cc.local_cc import cc_labels, cc_sizes, sampled_bfs  # noqa: F401
