"""Workload names and metric units, read from BENCHMARK.json at the checkout's root."""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
# name -> unit, in BENCHMARK.json order
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
HIGHER_IS_BETTER = frozenset(m["name"] for m in SPEC["end_to_end"]
                             if m["better"] == "higher")
