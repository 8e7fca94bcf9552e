"""Launch ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_daemon.py [repro serve arguments]``.
With ``PERFBENCH_SPAN_DIR`` set, every process of the daemon writes its
spans to ``spans-<pid>.jsonl`` in that directory; without it the daemon
runs exactly as ``repro serve`` does.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

if __name__ == "__main__":
    from repro.cli import main

    span_dir = os.environ.get("PERFBENCH_SPAN_DIR")
    store = None
    if span_dir:
        import repro.serve.daemon  # noqa: F401  (load every layer first)
        import spans

        store = spans.SpanStore(span_dir)
        spans.install(store)
    try:
        code = main(["serve", *sys.argv[1:]])
    finally:
        if store is not None:
            store.flush()
    sys.exit(code)
