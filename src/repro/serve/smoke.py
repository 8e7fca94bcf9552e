"""The serve smoke — ``python -m repro.serve.smoke``: the scenario
driver's fault-free run (:func:`repro.serve.scenario.run_smoke`) against
a daemon booted in-process; exit code 1 on any violated invariant.

With ``--report PATH`` the run writes a
:class:`~repro.obs.runreport.RunReport` whose invariant metrics (request /
hit / miss / error counts, bit-identity tallies) are deterministic for a
fixed seed — CI compares it against ``benchmarks/baselines/serve_smoke
.json`` with ``repro compare``, so the report doubles as a latency-SLO
gate: wall-clock keys are thresholded, everything else must match exactly.
"""

from __future__ import annotations

import argparse
import sys

from .scenario import ScenarioFailure, run_smoke


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--requests", type=int, default=12,
                        help="distinct kernels in the corpus (default 12)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client connections (default 4)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="service worker processes (default 1: in-process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the RunReport JSON here")
    parser.add_argument("--waterfall", default=None, metavar="PATH",
                        help="write the traced request's waterfall JSONL "
                             "here (render with 'repro trace PATH')")
    args = parser.parse_args(argv)
    try:
        report = run_smoke(
            requests=args.requests,
            clients=args.clients,
            jobs=args.jobs,
            seed=args.seed,
            report_path=args.report,
            waterfall_path=args.waterfall,
        )
    except ScenarioFailure as exc:
        print(f"serve smoke FAILED: {exc}", file=sys.stderr)
        return 1
    metrics = report.metrics
    print(
        "serve smoke OK: "
        f"{metrics['requests']} requests, "
        f"{metrics['cache']['hits']} hits / {metrics['cache']['misses']} misses, "
        f"{metrics['bit_identical']} bit-identical responses "
        f"(cold {report.phases['cold']:.3f}s, warm {report.phases['warm']:.3f}s)"
    )
    if args.report:
        print(f"report written to {args.report}")
    if args.waterfall:
        print(f"request waterfall written to {args.waterfall}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
