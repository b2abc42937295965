"""One worker thread and the block loop the caller shares with it.

The energy distance (``search._mean_dists``, whose blocks are the leaves
of a pairwise-sum tree, each filled and summed on one thread) and the
dataset oracle (``oracles._posterior``, whose blocks are row ranges of
one result) split their work into blocks whose native kernels release
the GIL.  ``run_blocks`` lets the caller and the package's single worker
thread take those blocks in turn, so the package never runs more than
two threads of its own, whoever calls it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

_worker = ThreadPoolExecutor(max_workers=1,
                             thread_name_prefix="nimatrix-worker")


def run_blocks(fn, blocks: list) -> None:
    """Call ``fn(block)`` once for every item of ``blocks``.

    The caller and the worker pop blocks off the list under one lock
    until it is empty.  A worker that has not started when the caller
    runs out of blocks (it is busy with another call) is cancelled, so a
    busy worker costs at most one block's time; the caller waits only
    for a block the worker has already taken.  The list is consumed.
    """
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                if not blocks:
                    return
                block = blocks.pop()
            fn(block)

    helper = _worker.submit(drain)
    try:
        drain()
    finally:
        if not helper.cancel():
            helper.result()
