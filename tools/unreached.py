#!/usr/bin/env python3
"""List the src/ functions no product entry point reaches, and gate them.

Builds a coverage tree (-O0 --coverage -fkeep-inline-functions -DNDEBUG,
read back with the compiler's own gcov), runs the product entry points
(every bench_figures row, the four examples and a fixed CLI matrix),
sums gcov's per-function call counts across translation units and lists
every src/ function with zero calls.

Exits 1 when an unreached function is not in tools/reach_allowlist.txt,
when an allowlisted function is reached, or when an allowlisted function
no longer exists. Allowlist lines are `file<TAB>function<TAB>reason`,
sorted, keyed by gcov's demangled name (never by line number); a reason
is one of REASONS, optionally followed by ': <detail>', and a test seam
names its test.

    python3 tools/unreached.py

The tree is build-reach/ at the repository root; a second run rebuilds
it incrementally and reruns every case. The allowlist was measured with
GCC 12 and its gcov: another major version inlines and emits a different
set of functions, so the script builds with g++-12 and gcov-12 and stops
when either is missing or reports another version.
"""
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "reach_allowlist.txt"
BUILD = ROOT / "build-reach"
JOBS = min(4, os.cpu_count() or 1)
GCC_MAJOR = "12"
CXX, GCOV = f"g++-{GCC_MAJOR}", f"gcov-{GCC_MAJOR}"
FLAGS = "-O0 --coverage -fkeep-inline-functions -DNDEBUG"
EXAMPLES = ["quickstart", "datacenter_sync", "wan_tuning", "numa_tuning"]
REASONS = ["violation report", "recovery path",
           "invariant checked by a canary", "input validation", "test seam",
           "benchmark driver"]

# CLI cases beyond the golden ledger's (tests/golden/cli/, which run as
# recorded): (arguments, expected exit code).
CHAOS_PLAN = ("loss@500ms:n=5;flap@1s:dur=20ms;qpkill@1500ms:qp=0;"
              "crash@1s:host=1,down=50ms")


def cli_matrix():
    cases = []
    for shards in (1, 2, 4):
        for seed in ([], ["--fault-seed", "7"]):
            cases.append((["fleet", "--pairs", "4", "--gib", "1",
                           "--shards", str(shards)] + seed, 0))
            for mode in ("rpc", "read"):
                cases.append((["kv", "--pairs", "4", "--ops", "1024",
                               "--get-mode", mode, "--shards", str(shards)]
                              + seed, 0))
    cases += [
        # Sharded audit, trace and stats files.
        (["kv", "--pairs", "2", "--ops", "512", "--shards", "2",
          "--audit", "1", "--trace", "T", "--stats-out", "S.json"], 0),
        # Mid-transfer crash with resume, audited and traced.
        (["quick", "--gib", "8", "--streams", "2", "--audit", "1",
          "--trace", "T", "--fault-plan", CHAOS_PLAN], 0),
        # A directed loss window, and a malformed plan.
        (["quick", "--gib", "1", "--fault-plan",
          "loss@100ms:n=3,dir=ba"], 0),
        (["quick", "--gib", "1", "--fault-plan", "loss@1x:n=2"], 2),
        # Fast-forward with the auditor folding, and with a tracer
        # pinning the run to event-exact.
        (["quick", "--gib", "16", "--fast-forward", "1", "--audit", "1"], 0),
        (["quick", "--gib", "16", "--fast-forward", "1", "--trace", "T"], 0),
        # Fast-forward short of a partial final block (3 MiB blocks).
        (["quick", "--gib", "16", "--block", "3m", "--fast-forward", "1",
          "--audit", "0"], 0),
    ]
    return cases


def ledger_cases():
    """The golden ledger's CLI cases: a transcript's first two lines are
    `== <arguments>` and `exit: <code>` (tools/golden.sh)."""
    cases = []
    for f in sorted((ROOT / "tests" / "golden" / "cli").glob("*.txt")):
        head, code = f.read_text().split("\n")[:2]
        cases.append((head.removeprefix("== ").split(),
                      int(code.removeprefix("exit: "))))
    return cases


def sh(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def check_toolchain():
    for tool in (CXX, GCOV):
        first = ""
        if shutil.which(tool):
            first = subprocess.run([tool, "--version"], capture_output=True,
                                   text=True).stdout.split("\n")[0]
        if not re.search(rf" {GCC_MAJOR}\.\d+\.\d+", first):
            sys.exit(f"unreached: toolchain differs from the measured one: "
                     f"{ALLOWLIST.name} was measured with GCC {GCC_MAJOR}; "
                     f"{tool}: {first or 'not found'}")


def build():
    # --fresh: a cache left by another compiler or other flags would
    # otherwise be wiped on the compiler change and lose the flags below.
    sh(["cmake", "--fresh", "-S", str(ROOT), "-B", str(BUILD), "-G", "Ninja",
        f"-DCMAKE_CXX_COMPILER={CXX}",
        "-DCMAKE_BUILD_TYPE=Coverage", "-DE2E_BUILD_TESTS=OFF",
        f"-DCMAKE_CXX_FLAGS={FLAGS}",
        "-DCMAKE_EXE_LINKER_FLAGS=--coverage",
        "-DCMAKE_SHARED_LINKER_FLAGS=--coverage"], stdout=subprocess.DEVNULL)
    sh(["cmake", "--build", str(BUILD), "-j", str(JOBS), "--target",
        "bench_figures", "e2e_transfer_sim", *EXAMPLES],
       stdout=subprocess.DEVNULL)


def bench_rows(bench):
    out = subprocess.run([bench, "--list-rows"], stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True).stdout
    rows = re.findall(r"^  (\S+)\s", out, re.M)
    if not rows:
        sys.exit("unreached: bench_figures listed no rows")
    return rows


def run_case(args, expect, cwd):
    cwd.mkdir(parents=True, exist_ok=True)
    p = subprocess.run(args, cwd=cwd, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    for f in cwd.iterdir():
        f.unlink()
    if expect is not None and p.returncode != expect:
        return f"{' '.join(map(str, args))}: exit {p.returncode}, " \
               f"expected {expect}\n{p.stderr[-2000:]}"
    return None


def run_matrix():
    for f in BUILD.rglob("*.gcda"):
        f.unlink()
    cli = BUILD / "tools" / "e2e_transfer_sim"
    bench = BUILD / "bench" / "bench_figures"
    work = BUILD / "reach-runs"
    jobs_list = [([bench, row], 0) for row in bench_rows(bench)]
    jobs_list += [([BUILD / "examples" / e], 0) for e in EXAMPLES]
    jobs_list += [([cli, *args], rc)
                  for args, rc in ledger_cases() + cli_matrix()]
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futs = [pool.submit(run_case, a, rc, work / str(i))
                for i, (a, rc) in enumerate(jobs_list)]
        errors = [e for f in futs if (e := f.result())]
    if errors:
        sys.exit("unreached: a matrix case failed:\n" + "\n".join(errors))


def gcov_counts():
    """{(file, function): calls} over every instrumented src/ function.

    A function whose source (file, line, column) is shared by a called
    function, such as another instantiation of the same template, counts
    as called: its text is reached and cannot be deleted on its own.
    """
    notes = sorted(str(p) for p in BUILD.rglob("*.gcno"))
    chunks = [notes[i::JOBS] for i in range(JOBS)]

    def one(chunk):
        return subprocess.run([GCOV, "--json-format", "--stdout", *chunk],
                              cwd=BUILD, capture_output=True, text=True,
                              check=True).stdout

    counts, at, called_at = {}, {}, set()
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for out in pool.map(one, [c for c in chunks if c]):
            for line in out.splitlines():
                for f in json.loads(line)["files"]:
                    path = os.path.relpath(os.path.realpath(
                        BUILD / f["file"]), ROOT)
                    if not path.startswith("src/"):
                        continue
                    for fn in f["functions"]:
                        # A coroutine's actor/destroy clones count toward
                        # its ramp.
                        name = re.sub(r" \[clone [^]]*\]$", "",
                                      fn["demangled_name"])
                        key = (path, name)
                        where = (path, fn["start_line"], fn["start_column"])
                        counts[key] = counts.get(key, 0) + \
                            fn["execution_count"]
                        at[key] = where
                        if fn["execution_count"]:
                            called_at.add(where)
    return {k: c or int(at[k] in called_at) for k, c in counts.items()}


def read_allowlist():
    entries, errors = {}, []
    lines = ALLOWLIST.read_text().splitlines()
    if lines != sorted(lines):
        errors.append(f"{ALLOWLIST.name} is not sorted")
    for n, line in enumerate(lines, 1):
        parts = line.split("\t")
        reason = parts[2] if len(parts) == 3 else ""
        kind, _, detail = reason.partition(": ")
        if len(parts) != 3 or kind not in REASONS or \
                (kind == "test seam" and not detail):
            errors.append(f"{ALLOWLIST.name}:{n}: want file<TAB>function"
                          f"<TAB>reason, reason one of {REASONS}, "
                          f"optionally ': <detail>' ('test seam: <test>' "
                          f"names the test): {line!r}")
            continue
        entries[(parts[0], parts[1])] = reason
    return entries, errors


def main():
    check_toolchain()
    build()
    run_matrix()
    counts = gcov_counts()
    unreached = {k for k, c in counts.items() if c == 0}
    allow, errors = read_allowlist()
    for k in sorted(unreached - allow.keys()):
        errors.append(f"unreached, not allowlisted: {k[0]}\t{k[1]}\t?")
    for k in sorted(allow.keys() & counts.keys() - unreached):
        errors.append(f"allowlisted but reached: {k[0]}\t{k[1]}")
    for k in sorted(allow.keys() - counts.keys()):
        errors.append(f"allowlisted but gone: {k[0]}\t{k[1]}")
    print(f"unreached: {len(unreached)} of {len(counts)} src/ functions "
          f"have no call; {len(allow)} allowlisted")
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
