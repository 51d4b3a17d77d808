"""Run one command sequence through mts_select.cli.main in a fresh interpreter.

run.py starts this script once per repetition, so every repetition pays the
same import cost outside its timed region and reports its own peak RSS.

    python3 worker.py JOB.json RESULT.json

JOB.json holds "src" (the directory that contains mts_select), "timed" and
"post" (lists of CLI argument vectors), "cache" (the distance cache
directory) and "trace" (whether to record spans). Only the "timed" commands
are timed, traced and counted in the peak RSS.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import threading
import time
import traceback
import warnings
from pathlib import Path


def _run(main, argv: list[str]) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code, error = main(argv), None
        except Exception:
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
    return {
        "argv": argv,
        "code": code,
        "error": error,
        "seconds": seconds,
        "warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
    }


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from mts_select import cli
    from spans import Tracer, layer_metrics

    tracer = Tracer() if job["trace"] else None
    timed = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for i, argv in enumerate(job["timed"]):
            if tracer:
                tracer.request = i
            timed.append(_run(cli.main, argv))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    seconds = sum(c["seconds"] for c in timed)
    layers, facts = (layer_metrics(tracer.spans, seconds, threading.main_thread().ident)
                     if tracer else (None, None))
    result = {
        "timed": timed,
        "seconds": seconds,
        "peak_rss_mb": peak_kb / 1024.0,
        "cache_bytes": _tree_bytes(Path(job["cache"])),
        "layers": layers,
        "facts": facts,
        "post": [_run(cli.main, argv) for argv in job["post"]],
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
