"""Child-process probes, run in a fresh interpreter by the harness.

    probe.py setup SRC                         print "ready" and the host's snippet time
                                               once ewm.cli is imported
    probe.py layers SRC TRIALS HORIZON SEED    import time, then calibrate_null's RSS growth
"""

import json
import sys
import time


def peak_rss_kib() -> int:
    """VmHWM of this process image.  ru_maxrss would not do: Linux carries it
    over from the parent across fork and exec, hiding growth below that level."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    if mode == "setup":
        from hostspeed import HostSpeed  # numpy only, which ewm imports anyway

        with HostSpeed() as host:
            import ewm.cli  # noqa: F401  (the import is what is measured)
        print(f"ready {host.mean_s()!r}", flush=True)
        return
    start = time.perf_counter()
    import ewm.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import ewm

    # calibrate-null's long case (workloads.CAL_*), written out because importing
    # workloads would import scipy first and hide part of ewm's import cost
    trials, horizon, seed = (int(x) for x in sys.argv[3:6])
    spec = ewm.make_neighborhood(ewm.make_distribution([0.5, 0.5]), 0.1)
    q_null = ewm.make_distribution([0.55, 0.45])
    before = peak_rss_kib()
    ewm.calibrate_null(spec, 0.05, trials, horizon, q_null, ewm.trial_rng(seed))
    after = peak_rss_kib()
    print(json.dumps({"import_s": import_s, "calibrate_rss_delta_mb": (after - before) / 1024.0}))


if __name__ == "__main__":
    main()
