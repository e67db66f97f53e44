"""Count the Ray Data executions and Ray task launches of one flagship job.

Prints one JSON line with, per phase, the number of
``StreamingExecutor.execute`` calls (one per Ray Data execution) and the
task launches by remote-function name:

  flagship    one ``run_flagship`` call (the job, before its caller reads
              anything)
  take_all    the caller's ``triples.take_all()`` on the returned artifacts
  fresh       ``run_checkpointed`` into an empty directory
  resume      ``run_checkpointed`` again after the last triple partition
              was retired (only that shard recomputes)

Usage::

    python tools/plan_count.py                          # tiny, 1 CPU
    python tools/plan_count.py --scale sf0.001 --shard-files 2
    python tools/plan_count.py --files a.parquet b.parquet   # flagship only
    python tools/plan_count.py --num-cpus 4

One uncounted flagship job runs first, so the counts are those of a warm
session (the first job also starts the workers).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def counting():
    """Count executions and task launches inside the ``with`` block; the
    yielded dict is filled on exit: ``executions``, ``tasks`` (name ->
    launches) and ``tasks_total``."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor
    from ray.remote_function import RemoteFunction

    execs = [0]
    tasks: Counter = Counter()
    real_execute, real_remote = StreamingExecutor.execute, \
        RemoteFunction._remote

    def execute(self, *a, **kw):
        execs[0] += 1
        return real_execute(self, *a, **kw)

    def remote(self, *a, **kw):
        tasks[self._function.__name__] += 1
        return real_remote(self, *a, **kw)

    out: dict = {}
    StreamingExecutor.execute, RemoteFunction._remote = execute, remote
    try:
        yield out
    finally:
        StreamingExecutor.execute, RemoteFunction._remote = \
            real_execute, real_remote
        out.update(executions=execs[0], tasks=dict(sorted(tasks.items())),
                   tasks_total=sum(tasks.values()))


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", default="tiny")
    ap.add_argument("--files", nargs="*", default=None,
                    help="flagship input files (skips the checkpointed runs)")
    ap.add_argument("--shard-files", type=int, default=1)
    ap.add_argument("--num-cpus", type=int, default=1)
    args = ap.parse_args()

    import ray
    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False)
    from wsid_ray.pipelines.checkpointed import run_checkpointed
    from wsid_ray.pipelines.flagship import run_flagship
    from wsid_ray.runtime import configure
    configure(quiet=True)

    source = "" if args.files else args.scale
    run_flagship(source, files=args.files).triples.take_all()  # warm-up
    report: dict = {"input": args.files or args.scale}
    with counting() as report["flagship"]:
        art = run_flagship(source, files=args.files)
    with counting() as report["take_all"]:
        art.triples.take_all()
    if not args.files:
        out = tempfile.mkdtemp(prefix="plan_count-")
        try:
            with counting() as report["fresh"]:
                ckpt = run_checkpointed(args.scale, out,
                                        shard_files=args.shard_files)
            ckpt.retire_partition("triples",
                                  ckpt.completed_parts("triples")[-1])
            with counting() as report["resume"]:
                run_checkpointed(args.scale, out,
                                 shard_files=args.shard_files)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    ray.shutdown()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
