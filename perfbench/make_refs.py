"""Regenerate refs.json, the reference output of every job for every draw.

    python3 perfbench/make_refs.py

Each job depends on at most one drawn coefficient tuple, so the job lists
built with one draw varied at a time cover every (job, draw) pair. Every
generated output must first pass the oracle checks of ``checks.Checker``.
Run it only when a change of the workloads or of latperm's outputs is meant;
the diff of refs.json shows what changed.
"""

import json
import sys

import checks
import workloads


def job_lists(workload: str):
    """Job lists with one draw variable varied over all its choices at a time."""
    choices = workloads.WORKLOADS[workload].draws
    first = {var: values[0] for var, values in choices.items()}
    for var, values in choices.items():
        for value in values:
            yield workloads.build(workload, {**first, var: value})


def reference(job, out):
    if not job.argv:
        return out.linear
    code, text, err = out
    if code != 0:
        raise SystemExit(f"{job.name} [{job.key}] exited {code}: {err}")
    return text if job.argv[0] == "verify" else json.loads(text)


def main() -> int:
    refs = {}
    for workload in workloads.WORKLOADS:
        table = refs[workload] = {}
        outputs = {}
        for jobs in job_lists(workload):
            for job in jobs:
                if (job.name, job.key) not in outputs:
                    outputs[job.name, job.key] = job.run()
                    table.setdefault(job.name, {})[job.key] = reference(
                        job, outputs[job.name, job.key])
            checker = checks.Checker(checks.expectations(jobs, table))
            problems = checker.check_pass(
                jobs, {job.name: outputs[job.name, job.key] for job in jobs})
            for name, msgs in problems.items():
                if msgs:
                    raise SystemExit(f"{workload} {name}: {msgs}")
        print(f"{workload}: {sum(len(v) for v in table.values())} references",
              file=sys.stderr)
    with open(checks.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
