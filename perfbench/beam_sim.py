"""Stand-alone line-protocol simulator for the benchmark's ``external`` workload.

It serves the beam-analog formulas of ``miscuq.oracle.BeamAnalogModel``
with the standard library only, so a lane starts in milliseconds instead of
paying the package's numpy/scipy import.  The benchmark checks once per run
that its values equal ``BeamAnalogModel.evaluate`` bit for bit.

Each request sleeps ``MS_PER_COST`` milliseconds per unit of the
fidelity's cost weight, which stands in for the simulator's run time.  On
end of input the lane writes the number of requests it served to
``<count-dir>/lane-<pid>.count``, so the simulator's own count can be
checked against the points the cache recorded.

Run: python3 -S beam_sim.py --count-dir DIR
"""

import argparse
import json
import math
import os
import sys
import time

COST_WEIGHT = {1: 1.0, 2: 36.0}
MS_PER_COST = 2.0
BIAS = {1: 0.05, 2: 0.05 / 36.0}
DISPLACEMENTS = 5
STRAINS = 120


def evaluate(alpha, params, qois):
    """Fidelity-``alpha`` values, in the operation order of BeamAnalogModel."""
    t, logh = float(params[0]), float(params[1])
    s = math.tanh((t - 1290.0) / 160.0)
    bias = 1.0 + BIAS[alpha] * math.cos(t / 200.0) * math.cos(logh)
    out = []
    for q in qois:
        kind, _, num = q.partition("_")
        k = int(num)
        if kind == "u" and 1 <= k <= DISPLACEMENTS:
            exact = 0.1 * k * (1.0 + 0.3 * s) * (1.0 + 0.15 * (logh + 2.5) / 2.5)
        elif kind == "e" and 1 <= k <= STRAINS:
            exact = (1.5 - 0.01 * k) * 1e-3 * \
                (1.0 + 0.2 * s + 0.1 * math.sin(math.pi * (logh + 2.5) / 5.0))
        else:
            raise ValueError(f"unknown QoI {q!r}")
        out.append(exact * bias)
    return out


def serve(stdin, stdout):
    """Answer requests until end of input; returns the number served."""
    served = 0
    for line in stdin:
        if not line.strip():
            continue
        req = json.loads(line)
        alpha = int(req["fidelity"])
        try:
            reply = {"id": req["id"], "values": evaluate(alpha, req["params"], req["qois"])}
        except (KeyError, ValueError) as exc:
            reply = {"id": req["id"], "error": str(exc)}
        time.sleep(MS_PER_COST * COST_WEIGHT.get(alpha, 1.0) / 1000.0)
        stdout.write(json.dumps(reply) + "\n")
        stdout.flush()
        served += 1
    return served


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count-dir")
    args = parser.parse_args()
    served = serve(sys.stdin, sys.stdout)
    if args.count_dir:
        path = os.path.join(args.count_dir, f"lane-{os.getpid()}.count")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{served}\n")


if __name__ == "__main__":
    main()
