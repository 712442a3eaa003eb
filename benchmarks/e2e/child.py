"""One round of one workload in a fresh process (clean ``peak_rss_mb``,
cold memo caches).  ``run.py`` starts it with one JSON argument and
reads one JSON line back; nothing else uses this file.

A round is: set up (timed as ``setup_s``), warm up untimed, then the
closed loop for ``seconds`` of client time -- or, for a traced round,
for exactly the ``ops`` operations its untraced twin completed, so the
two can be compared call for call.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]


def main(job: dict) -> dict:
    from workloads import WORKLOADS

    driver = WORKLOADS[job["workload"]]()
    try:
        phases = driver.setup()
        # The parent stamped `started` just before Popen, on the same
        # system-wide monotonic clock: interpreter start-up and imports
        # count.  A driver that reports `ready_s` (the server's Popen ->
        # first ping) overrides it: there the server is the system.
        setup_s = phases.pop("ready_s", time.monotonic() - job["started"])

        rng = random.Random(job["seed"])
        warm = driver.next_chunk(rng, driver.warmup)
        failed = driver.check(warm, driver.run_chunk(warm, math.inf)[0])

        tracer = None
        if job["traced"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            driver.call = tracer.root(driver.call)

        driver.corrupt_next = job["corrupt"]
        slices: list[dict] = []
        syncs_before = driver.sync_events()
        seconds = job.get("seconds", math.inf)
        max_ops = job.get("ops", math.inf)
        ops_done = 0
        wall_s = 0.0
        while wall_s < seconds and ops_done < max_ops:
            ops = driver.next_chunk(rng)
            if max_ops - ops_done < len(ops):
                ops = ops[: max_ops - ops_done]
            deadline = time.perf_counter() + seconds - wall_s
            results, timed = driver.run_chunk(ops, deadline)
            failed += driver.check(ops, results)
            slices += timed
            wall_s += sum(piece["wall_s"] for piece in timed)
            ops_done += sum(len(piece["clean_s"]) + len(piece["sync_s"]) for piece in timed)

        if tracer is not None:
            tracer.uninstall()
        end = driver.finish()
        failed += not end["state_ok"]
        out = {
            "ops": ops_done,
            "failed": failed,
            "setup_s": setup_s,
            "phases": phases,
            "syncs": end["syncs"] - syncs_before,
            "peak_rss_mb": end["peak_rss_mb"],
            "counters": end["counters"],
            "slices": slices,
        }
        if tracer is not None:
            out["spans"] = tracer.summary()
            if job["trace_out"]:
                tracer.write_jsonl(Path(job["trace_out"]))
        return out
    finally:
        driver.close()


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
