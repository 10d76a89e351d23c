"""One cold-cache decode in a fresh process.

Reads ``{"workload", "instance", "trace"}`` as JSON on stdin and prints
one JSON line: ``setup_s``, the seconds from the start of ``import
rmsyndrome`` to the end of the decode (interpreter start-up excluded),
the outcome (``ok``, ``failure`` or ``wrong``: a set that is not the
planted one), and with ``trace`` the self
time in seconds of every traced name during that cold decode.  The
instance arrives as plain data, so no cache of the library (monomial
indices, extension fields, primitive elements) is warm when it starts.

Run by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``.
"""

import json
import sys
import time
import warnings


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import rmsyndrome
    from rmsyndrome.code import DecodingFailure
    from rmsyndrome.polyspace import IsolationBoundWarning

    import tracer
    import workloads

    warnings.simplefilter("ignore", IsolationBoundWarning)
    w = workloads.WORKLOADS[job["workload"]]
    tr = None
    if job["trace"]:
        tr = tracer.Tracer(timed=True)
        tr.install()

    def cold_decode():
        inst = workloads.instance_from_json(w, job["instance"])
        try:
            located, _residual = workloads.decode(w, inst, inst.decoder_rng())
        except DecodingFailure:
            return "failure"
        return "ok" if located.points == inst.planted else "wrong"

    outcome = cold_decode() if tr is None else tr.root(cold_decode)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "outcome": outcome, "module": rmsyndrome.__file__}
    if tr is not None:
        tr.uninstall()
        out["self_s"] = tr.self_times()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
