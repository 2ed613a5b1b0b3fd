#!/usr/bin/env python3
"""Self-test of the loopbench benchmark.

    python3 loopbench/selftest.py

Builds the binary like run.py does, then checks that:

  * bad command lines (unknown flags, bad values) exit 2 with usage,
    from run.py and from the binary itself;
  * every workload emits every metric BENCHMARK.json names, untraced
    and traced, with names and units in the allowed alphabet, and
    passes its golden digests on seed 1;
  * the benchmark's plans are the library's figures: seed 0's goldens
    equal the digests of figure4() .. figure9();
  * a perturbed figure (a config overlay that changes the model) and a
    wrong golden each trip the digest gate: exit 1, correct false and
    every attempted cell counted failed;
  * the traced run's model counts are identical under the dense and the
    sparse kernel.

Exits 0 when every check passes, 1 otherwise. Takes a few minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import run

NAME = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = "1"
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LOOPSIM_")}
    env.update(extra)
    return env


def result_of(proc):
    """(context, result) from a run's last two stdout lines, or None."""
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-2])["context"], json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        return None


def binary(work, *args, env=None):
    return subprocess.run([str(run.BINARY), *args, "--work", work],
                          capture_output=True, text=True,
                          env=env or clean_env(), timeout=300)


def run_py(*args):
    return subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          capture_output=True, text=True, env=clean_env(),
                          timeout=300)


def strict_edge(work):
    good = ["--workload", "fig5_cold", "--seed", SEED, "--seconds", "1",
            "--trace", "0"]
    bad = [
        good + ["--bogus-flag"],
        good[2:],
        ["--workload", "fig6"] + good[2:],
        good[:3] + ["-1"] + good[4:],
        good[:3] + ["1x"] + good[4:],
        good[:5] + ["0"] + good[6:],
        good[:7] + ["2"],
        good[:2] + ["--seed", "4294967296"] + good[4:],
    ]
    for args in bad:
        p = run_py(*args)
        check(p.returncode == 2 and "usage" in p.stderr and not p.stdout,
              "run.py " + " ".join(args) + " exits 2 with usage")
        p = binary(work, *args)
        check(p.returncode == 2 and "usage" in p.stderr and not p.stdout,
              "binary " + " ".join(args) + " exits 2 with usage")


def metrics_emitted(spec):
    traced = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"]),
              f"metric {m['name']} [{m['unit']}] uses the allowed alphabet")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expect in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            p = run_py("--workload", workload, "--seed", SEED,
                       "--seconds", "1", "--trace", trace)
            parsed = result_of(p)
            what = f"{workload} --trace {trace}"
            check(p.returncode == 0 and parsed is not None,
                  what + " exits 0 with a result")
            if parsed is None:
                continue
            context, res = parsed
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  what + " prints exactly the four result keys")
            check(res["correct"] and context["golden_checked"]
                  and res["failed"] == 0 and res["attempted"] >= 1,
                  what + " matches its golden digests")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in expect}
            check(got == want, what + " emits every metric with its unit")
            if trace == "1" and workload == "fig5_cold":
                traced = res["metrics"]
            if trace == "1" and workload == "warm_replay":
                # The traced pass keys the journal itself; a key that
                # drifted from runCampaign's would replay nothing.
                check(res["metrics"]["journal.replayed"]["value"] > 0,
                      "warm_replay's traced passes replay the fig8 journal")
    return traced


def library_matches_goldens(work):
    p = binary(work, "--library-digests")
    goldens = [l for l in run.GOLDENS.read_text().splitlines()
               if l.startswith("0 ")]
    check(p.returncode == 0 and p.stdout.split("\n")[:-1] == goldens,
          "figure4()..figure9() match seed 0's goldens")


def digest_gate(work):
    args = ["--workload", "fig5_cold", "--seed", SEED, "--seconds", "1",
            "--trace", "0", "--goldens", str(run.GOLDENS)]
    p = binary(work, *args,
               env=clean_env(LOOPSIM_OVERLAY="mem.tlb.walk=97"))
    parsed = result_of(p)
    check(p.returncode == 1 and parsed is not None
          and not parsed[1]["correct"]
          and parsed[1]["failed"] == parsed[1]["attempted"]
          and parsed[1]["metrics"]["ok_cell_frac"]["value"] == 0,
          "a perturbed fig5 trips the digest gate")

    wrong = os.path.join(work, "goldens.txt")
    with open(wrong, "w") as f:
        for line in run.GOLDENS.read_text().splitlines():
            if line.startswith(SEED + " fig5 "):
                line = line[:-1] + ("0" if line[-1] != "0" else "1")
            f.write(line + "\n")
    args[-1] = wrong
    p = binary(work, *args)
    parsed = result_of(p)
    check(p.returncode == 1 and parsed is not None
          and not parsed[1]["correct"],
          "a wrong golden trips the digest gate")


def kernels_agree(work, sparse):
    p = binary(work, "--workload", "fig5_cold", "--seed", SEED,
               "--seconds", "1", "--trace", "1",
               "--goldens", str(run.GOLDENS),
               env=clean_env(LOOPSIM_DENSE_KERNEL="1"))
    parsed = result_of(p)
    check(p.returncode == 0 and parsed is not None
          and parsed[0]["kernel"] == "dense",
          "fig5_cold traced under the dense kernel exits 0")
    if parsed is None or not sparse:
        return
    model = [k for k in sparse
             if k.split(".")[0] in ("core", "mem", "dra")
             and k != "core.setup_s"]
    differ = [k for k in model
              if sparse[k]["value"] != parsed[1]["metrics"][k]["value"]]
    check(model and not differ,
          "model counts identical across kernels" +
          (": " + ", ".join(differ) if differ else ""))


def main():
    if not run.build():
        return 1
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    run.WORK.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        strict_edge(work)
        library_matches_goldens(work)
        digest_gate(work)
        sparse = metrics_emitted(spec)
        kernels_agree(work, sparse)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
