#!/usr/bin/env python3
"""Steadiness and sensitivity runs for the perfbench benchmark.

Run from the repository root:

  python3 perfbench/noise.py steady --workload campaign_cold --seeds 1-5
      Runs the benchmark once per seed and prints, per metric, the median
      and the spread (distance between the first and third quartile, as a
      share of the median). Results are saved to
      .bench_out/steady-<workload>-trace<t>.json.

  python3 perfbench/noise.py record
      Writes perfbench/noise.json: the host (nproc, CPU model, rustc
      version) and every spread from the saved steadiness results.

  python3 perfbench/noise.py sensitivity --pad service_warm --seeds 1-5
      Runs every workload with and without --pad-workload and reports, per
      end-to-end metric, how far the padded set's median moved against the
      metric's bound in BENCHMARK.json. Exits 1 unless the padded
      workload's throughput leaves its bound and no metric of the other
      workloads does.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
THROUGHPUT = {"fabric_4x4": "sim_cycles_per_s", "campaign_cold": "points_per_s",
              "service_warm": "points_per_s"}


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cfg, workload, seed, trace, pad=None):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", str(trace)]
    if pad:
        cmd += ["--pad-workload", pad]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def steady(args):
    cfg = bench()
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steady-{args.workload}-trace{args.trace}.json")
    runs = []
    for s in seeds(args.seeds):
        runs.append(run_once(cfg, args.workload, s, args.trace))
        print(f"seed {s}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace, "seeds": seeds(args.seeds),
                   "runs": runs}, f, indent=1)
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    print(f"{'metric':<36}{'median':>16}{'spread':>10}{'bound/3':>10}")
    for name in runs[0]:
        med, sp = spread([r[name] for r in runs])
        third = bounds[name] / 3 if name in bounds else float("nan")
        flag = "  OVER" if name in bounds and name != "setup_s" and sp > third else ""
        print(f"{name:<36}{med:>16.6g}{sp:>10.4f}{third:>10.4f}{flag}")


def record(_args):
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
                           if l.startswith("model name")), platform.processor()),
        "rustc": subprocess.run(["rustc", "--version"], capture_output=True,
                                text=True).stdout.strip(),
    }
    spreads = {}
    for name in sorted(os.listdir(OUT)):
        if not (name.startswith("steady-") and name.endswith(".json")):
            continue
        with open(os.path.join(OUT, name)) as f:
            data = json.load(f)
        table = {}
        for metric in data["runs"][0]:
            med, sp = spread([r[metric] for r in data["runs"]])
            table[metric] = {"median": med, "iqr_share": round(sp, 5)}
        spreads[f"{data['workload']}/trace{data['trace']}"] = {
            "seeds": data["seeds"], "run_seconds": bench()["run_seconds"], "metrics": table}
    with open(os.path.join(ROOT, "perfbench", "noise.json"), "w") as f:
        json.dump({"host": host, "spreads": spreads}, f, indent=1)
        f.write("\n")
    print("wrote perfbench/noise.json")


def sensitivity(args):
    cfg = bench()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in cfg["end_to_end"]}
    ok = True
    for workload in THROUGHPUT:
        base, padded = [], []
        for s in seeds(args.seeds):
            base.append(run_once(cfg, workload, s, 0))
            padded.append(run_once(cfg, workload, s, 0, pad=args.pad))
        for name, (bound, better) in bounds.items():
            b = statistics.median(r[name] for r in base)
            p = statistics.median(r[name] for r in padded)
            worse = (b - p) / b if better == "higher" else (p - b) / b
            left = worse > bound
            expect = workload == args.pad and name == THROUGHPUT[workload]
            bad = (expect and not left) or (left and workload != args.pad)
            ok = ok and not bad
            mark = "UNEXPECTED" if bad else "ok"
            print(f"{workload:<15}{name:<20} worse by {worse:+.4f} (bound {bound}) "
                  f"{'LEFT' if left else 'held'} {mark}", flush=True)
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steady")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--trace", type=int, default=0)
    s.set_defaults(fn=steady)
    r = sub.add_parser("record")
    r.set_defaults(fn=record)
    t = sub.add_parser("sensitivity")
    t.add_argument("--pad", required=True)
    t.add_argument("--seeds", default="1-5")
    t.set_defaults(fn=sensitivity)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
