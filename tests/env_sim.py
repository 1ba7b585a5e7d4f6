"""Line-protocol simulator that records its environment: on start it writes
the ``OPENBLAS_NUM_THREADS`` it was started with, as JSON (``null`` when
unset), to ``openblas-<pid>.json`` in its working directory, then answers
each request with the builtin beam-analog model's values.

Run: python3 env_sim.py  (with the ``miscuq`` package importable)
"""

import json
import os
import sys

from miscuq.oracle import BeamAnalogModel

with open(f"openblas-{os.getpid()}.json", "w", encoding="utf-8") as fh:
    json.dump(os.environ.get("OPENBLAS_NUM_THREADS"), fh)

model = BeamAnalogModel()
for line in sys.stdin:
    req = json.loads(line)
    values = model.evaluate(req["fidelity"], req["params"], req["qois"])
    print(json.dumps({"id": req["id"], "values": values}), flush=True)
