"""Self-check of the benchmark at tiny sizes; takes about a minute.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it records reference digests at tiny
sizes, then checks that

* an untraced and a traced run pass against that reference and print
  exactly the metrics BENCHMARK.json names, each with its unit;
* a tampered reference digest is reported as a failed unit and
  ``"correct": false``, not passed silently.

Finally it copies BENCHMARK.json and the benchmark's files into an empty
directory and checks that the benchmark exits non-zero there without
printing a result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out" / "selfcheck"


def run(cwd: Path, spec: dict, workload: str, trace: int, *extra: str):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
        *extra,
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    reference = WORK / "reference.json"
    ref_args = ("--tiny", "--reference", str(reference))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors: list[str] = []

    def check(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            errors.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        proc, _ = run(ROOT, spec, w, 0, *ref_args, "--write-reference")
        check(proc.returncode == 0, f"{w}: reference recorded")
        for trace in (0, 1):
            proc, res = run(ROOT, spec, w, trace, *ref_args)
            check(proc.returncode == 0 and res is not None, f"{w} trace={trace}: result printed")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace={trace}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w} trace={trace}: passes against the reference")
            check("reference checked" in proc.stdout, f"{w} trace={trace}: reference used")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected[trace], f"{w} trace={trace}: every metric with its unit")
        if any(w in e for e in errors):
            continue
        doc = json.loads(reference.read_text())
        good = doc[w]["digests"][0]["trace"]
        doc[w]["digests"][0]["trace"] = ("0" if good[0] != "0" else "1") + good[1:]
        reference.write_text(json.dumps(doc))
        proc, res = run(ROOT, spec, w, 0, *ref_args)
        check(res is not None and not res["correct"] and res["failed"] >= 1,
              f"{w}: tampered reference digest is reported as a failure")
        doc[w]["digests"][0]["trace"] = good
        reference.write_text(json.dumps(doc))

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, res = run(bare, spec, spec["workloads"][0]["name"], 0)
    check(proc.returncode != 0 and res is None,
          "without the package the benchmark exits non-zero and prints no result")

    print(f"selfcheck: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
