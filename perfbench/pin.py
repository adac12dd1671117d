"""Record the simulated makespan and rows digest of seeds in pins.json.

Usage (from the repository root)::

    python3 perfbench/pin.py --seeds 1-10 [--workload NAME ...]

Each seed runs one repetition, which must pass the reference check
first. Re-pin only in a change that alters the simulation model on
purpose; a makespan that moves in a host-only change is a defect.
"""

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3")
    parser.add_argument("--workload", nargs="*")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    sys.path[:0] = [str(run.ROOT / "src"), str(run.HERE)]
    from check import PINS_PATH, load_pins, rep_digest
    from scenarios import WORKLOADS

    pins = load_pins()
    with run.local_tempdir():
        for name in args.workload or list(WORKLOADS):
            for seed in seeds:
                reps = run.measure(name, seed, seconds=0)
                failed, problems = run.check(WORKLOADS[name], seed, reps,
                                             pins={})
                if failed:
                    print(f"{name} seed {seed}: {problems}",
                          file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = {
                    "sim_makespan_s": repr(reps[0].makespan_s),
                    "rows_digest": rep_digest(reps[0]),
                }
                print(f"{name} seed {seed}: {pins[name][str(seed)]}")
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
