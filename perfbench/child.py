"""Run one ``repro`` CLI verb in this interpreter and record when it got going.

Usage: ``python perfbench/child.py OUT_JSON [TRACE_JSON] -- <repro cli args>``

The parent starts its clock just before launching this process.  This shim
marks the moment ``CampaignRuntime.run_campaign`` is entered (the end of
set-up) on the same monotonic clock and, when the CLI returns, writes that
mark, the exit code and the peak RSS to ``OUT_JSON``.  With ``TRACE_JSON``
it also installs the layer tracer and writes its spans there.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    split = argv.index("--")
    outputs, cli_args = argv[:split], argv[split + 1:]
    out_path = outputs[0]
    trace_path = outputs[1] if len(outputs) > 1 else None
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)

    tracer = None
    if trace_path:
        import layers

        tracer = layers.install()

    from repro.core.runtime import CampaignRuntime
    from repro import cli

    marks = {}
    run_campaign = CampaignRuntime.run_campaign

    def marked_run_campaign(self, *args, **kwargs):
        marks.setdefault("setup_end", time.perf_counter())
        return run_campaign(self, *args, **kwargs)

    CampaignRuntime.run_campaign = marked_run_campaign
    code = cli.main(cli_args)
    sys.stdout.flush()
    record = {
        "exit": code,
        "setup_end": marks.get("setup_end"),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.dump(trace_path)
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
