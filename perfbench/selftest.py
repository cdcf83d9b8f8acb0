"""Self-test of the benchmark: the correctness gate is live and the input
generator is deterministic.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that

* the same seed writes byte-identical files for every workload, and a
  different seed writes different ones;
* with a planted ``stc.mutations`` fault the benchmark reports failures:
  ``state-update-dropped`` on cpu-chain (caught by the pipeline run) and
  ``flags-ignored-in-join`` on sleep-branch (caught by the task-parallel
  branch run);
* without a fault both report none.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile

import gen

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
PLANTED = (("cpu-chain", "state-update-dropped"), ("sleep-branch", "flags-ignored-in-join"))


def generator_is_deterministic() -> bool:
    ok = True
    with tempfile.TemporaryDirectory(dir=os.path.join("perfbench", "_work")) as tmp:
        for workload in ("cpu-chain", "sleep-branch", "small-check"):
            a, b, c = (os.path.join(tmp, f"{workload}-{tag}") for tag in "abc")
            gen.write_workload(workload, 7, a)
            gen.write_workload(workload, 7, b)
            gen.write_workload(workload, 8, c)
            names = sorted(os.listdir(a))
            same = filecmp.cmpfiles(a, b, names, shallow=False)[0] == names
            differs = filecmp.cmpfiles(a, c, names, shallow=False)[0] != names
            print(f"generator {workload}: same seed identical={same}, "
                  f"other seed differs={differs}")
            ok &= same and differs
    return ok


def failed_share(workload: str, mutate=None) -> float:
    cmd = [*RUN, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"]
    if mutate:
        cmd += ["--mutate", mutate]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["failed"] / result["attempted"]


def main() -> int:
    os.makedirs(os.path.join("perfbench", "_work"), exist_ok=True)
    ok = generator_is_deterministic()
    for workload, mutation in PLANTED:
        clean = failed_share(workload)
        planted = failed_share(workload, mutation)
        print(f"{workload}: failed_share {clean:.3f} clean, {planted:.3f} with {mutation}")
        ok &= clean == 0 and planted > 0
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
