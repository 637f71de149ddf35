#!/usr/bin/env python3
"""End-to-end partitioning benchmark: builds bench_e2e, generates the seeded
corpus, runs the workloads, validates every output and reports the metrics
named in BENCHMARK.json. See bench/e2e/README.md.

One workload, as a regression gate runs it (last stdout line is the result):
    python3 bench/e2e/run.py --workload adwise-web --seed 1 --seconds 20 --trace 0
Every workload, 5 untraced rounds round-robin plus 1 traced round each,
printed as a table and written to build/e2e/results.json:
    python3 bench/e2e/run.py --seed 1
Other modes: --smoke (tiny inputs, 1 round), --parity (byte-identical
output against partition_file), --stability (two full sets compared).
"""
import argparse
import filecmp
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
BENCH = os.path.join(BUILD, "bench_e2e")
CLI = os.path.join(BUILD, "adwise", "examples", "partition_file")

# A workload's corpus is `graphs` graphs generated from the seed, and one
# round partitions each of them once, in its own process. Single graphs of
# one preset differ by 15-30% in ADWISE throughput and by 2-3% in
# replication from seed to seed (the window doubles or not on a noisy score
# comparison), so a round spans enough graphs to keep the spread across
# seeds well inside the bounds; web-like graphs need twice as many as the
# others for replication's 1%. smoke_scale is the input size of --smoke and
# --parity; the HDRF one is large enough to cross three checkpoint
# boundaries.
WORKLOADS = {
    "adwise-web": dict(preset="web", scale=0.05, graphs=24, smoke_scale=0.02,
                       algorithm="adwise", k=32),
    "adwise-rmat-k128": dict(preset="rmat", scale=0.05, graphs=12,
                             smoke_scale=0.02, algorithm="adwise", k=128),
    "hdrf-rmat-ckpt": dict(preset="rmat", scale=2.0, graphs=4, smoke_scale=0.2,
                           algorithm="hdrf", k=32, checkpoint_every=65536),
    "adwise-sharded-z4": dict(preset="orkut", scale=0.2, graphs=12,
                              smoke_scale=0.02, algorithm="adwise", k=32,
                              shards=4),
}
# The corpus of seed 1 per workload: total edges and the SHA-256 of its
# files. The program under test writes the corpus, so a change to a
# generator or an .adw writer would silently change what is measured; every
# run first checks that the tree still writes exactly these inputs. Changing
# an entry is a change to the benchmark, made on its own.
PINNED_SEED = 1
PINNED = {
    "adwise-web": (1356439, "d7ee4a9985244d672128dea3a7401e0a"
                            "8f91ba674d9c91fcd5e3387a89b018b8"),
    "adwise-rmat-k128": (600000, "671ede4ef6bd5b668c78ca310cd6a194"
                                 "ee9be99345e5d5d56918aea107db229a"),
    "hdrf-rmat-ckpt": (8000000, "06829f7d5f91a055dfc58df72ba0ef53"
                                "595719873a977bb313475df798e4f01d"),
    "adwise-sharded-z4": (2193739, "63699513c6179914f32a31ff3a27713a"
                                   "4269eee0f343ac134554b99fa04faffe"),
}
FULL_ROUNDS = 5
LEDGER_TOLERANCE = 0.05  # |wall.unaccounted_s| / wall in a traced run
PROCESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_cmd(cmd, timeout=PROCESS_TIMEOUT_S):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out after %ds: %s" % (timeout, " ".join(cmd)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no library sources at %s to build against" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = run_cmd(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        if r.returncode != 0:
            raise BenchError("configure failed:\n" + r.stdout[-2000:] +
                             r.stderr[-2000:])
    jobs = str(min(4, os.cpu_count() or 1))
    r = run_cmd(["cmake", "--build", BUILD, "--target", "bench_e2e",
                 "partition_file", "-j", jobs], timeout=800)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:] + r.stderr[-2000:])


def last_json(result, what):
    if result.returncode != 0:
        raise BenchError("%s failed (exit %d): %s" %
                         (what, result.returncode, result.stderr.strip()[-500:]))
    return json.loads(result.stdout.strip().splitlines()[-1])


def sha256(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def corpus_key(name, seed, smoke):
    """Every setting that shapes a workload's corpus."""
    w = WORKLOADS[name]
    scale, graphs = (w["smoke_scale"], 1) if smoke else (w["scale"],
                                                         w["graphs"])
    return "%s-x%r-g%d-z%d-seed%d" % (w["preset"], scale, graphs,
                                      w.get("shards", 0), seed)


def corpus(name, seed, smoke=False):
    """The workload's graphs for this seed, generated on first use and
    cached under corpus_key, and regenerated when bench_e2e changes. Beside
    the pinned seed's corpus one more stays cached, which bounds disk use."""
    w = WORKLOADS[name]
    base = os.path.join(BUILD, "corpus", name)
    key = corpus_key(name, seed, smoke)
    directory = os.path.join(base, key)
    manifest = os.path.join(directory, "corpus.json")
    generator = sha256([BENCH])
    cached = None
    if os.path.isfile(manifest):
        with open(manifest) as f:
            cached = json.load(f)
    if cached is None or cached["generator"] != generator:
        pinned = corpus_key(name, PINNED_SEED, False)
        for entry in os.listdir(base) if os.path.isdir(base) else []:
            if entry != pinned or entry == key:
                shutil.rmtree(os.path.join(base, entry))
        os.makedirs(directory)
        shards = w.get("shards", 0)
        graphs = []
        for j in range(1 if smoke else w["graphs"]):
            file = "g%d%s" % (j, ".adws" if shards else ".adw")
            cmd = [BENCH, "gen", w["preset"],
                   repr(w["smoke_scale"] if smoke else w["scale"]),
                   str(seed * 1000 + j), os.path.join(directory, file)]
            if shards:
                cmd.append(str(shards))
            out = last_json(run_cmd(cmd), "generating " + file)
            graphs.append(dict(file=file, edges=out["edges"],
                               pair_digest=out["pair_digest"]))
        files = sorted(os.path.join(directory, f)
                       for f in os.listdir(directory))
        cached = dict(generator=generator, graphs=graphs,
                      sha256=sha256(files))
        with open(manifest + ".tmp", "w") as f:
            json.dump(cached, f)
        os.replace(manifest + ".tmp", manifest)
    if seed == PINNED_SEED and not smoke:
        got = (sum(g["edges"] for g in cached["graphs"]), cached["sha256"])
        if got != PINNED[name]:
            raise BenchError(
                "%s: the seed %d corpus has %d edges and SHA-256 %s, pinned "
                "%d and %s; this tree generates or writes other inputs than "
                "the benchmark was defined on" %
                ((name, seed) + got + PINNED[name]))
    graphs = cached["graphs"]
    for graph in graphs:
        graph["path"] = os.path.join(directory, graph["file"])
    return graphs


def inputs(name, seed):
    """The corpus of a measured run, after checking the pinned one."""
    corpus(name, PINNED_SEED)
    return corpus(name, seed)


def output_path(name, graph):
    directory = os.path.join(BUILD, "out", name)
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, graph["file"] + ".txt")


def run_graph(name, graph, traced):
    """One bench_e2e process over one graph; returns its JSON result with
    "valid" false for any failure."""
    w = WORKLOADS[name]
    cmd = [BENCH, "run", graph["path"], w["algorithm"], str(w["k"]),
           output_path(name, graph), graph["pair_digest"]]
    if "checkpoint_every" in w:
        cmd += ["--checkpoint-every", str(w["checkpoint_every"])]
    if traced:
        cmd.append("--trace")
    r = run_cmd(cmd)
    if r.returncode != 0:
        return dict(valid=False, error=r.stderr.strip()[-500:] or
                    "exit %d" % r.returncode)
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if traced and result["valid"]:
        raw = result["raw"]
        if raw["dropped_events"] != 0:
            result.update(valid=False, error="trace dropped %d events" %
                          raw["dropped_events"])
        elif raw["ckpt_failures"] != 0:
            result.update(valid=False, error="%d checkpoint writes failed" %
                          raw["ckpt_failures"])
        elif abs(raw["unaccounted_ns"]) > LEDGER_TOLERANCE * result["wall_ns"]:
            result.update(valid=False, error="layers leave %.1f%% of wall "
                          "unaccounted" % (100.0 * raw["unaccounted_ns"] /
                                           result["wall_ns"]))
    return result


def ratio(num, den):
    return num / den if den else 0.0


def round_e2e(results):
    """End-to-end metrics of one round (every graph once)."""
    edges = sum(r["edges"] for r in results)
    return {
        "edges_per_s": edges / (sum(r["wall_ns"] for r in results) / 1e9),
        "cpu_per_edge_us": sum(r["cpu_ns"] for r in results) / 1e3 / edges,
        "setup_s": statistics.median(r["setup_ns"] for r in results) / 1e9,
        "replication_factor": statistics.fmean(r["replication"]
                                               for r in results),
        "load_balance": statistics.fmean(r["load_balance"] for r in results),
        "peak_rss_mb": statistics.fmean(r["peak_rss_kb"]
                                        for r in results) / 1024.0,
    }


def round_layers(results, untraced_wall_ns):
    """Per-layer metrics of one traced round: times in seconds and counts
    are sums over its graphs. A layer that does not run on a workload reads
    0 there."""
    def s(key):
        return sum(r["raw"][key] for r in results)
    def seconds(key):
        return s(key) / 1e9
    edges = sum(r["edges"] for r in results)
    spans = s("rescore_ns") + s("refill_ns") + s("drain_ns")
    return {
        "setup.open_s": seconds("setup_ns"),
        "io.next_s": seconds("next_ns"),
        "io.prefetch_wait_s": seconds("prefetch_wait_ns"),
        "io.bytes_per_edge": ratio(s("bytes_read"), edges),
        "partitioner.self_s": seconds("self_ns"),
        "core.batch_rescore_s": seconds("rescore_ns"),
        "core.window_refill_s": seconds("refill_ns"),
        "core.drain_walk_s": seconds("drain_ns"),
        "core.unattributed_s": (s("self_ns") - spans) / 1e9,
        "core.scores_per_edge": ratio(s("score_computations"), edges),
        "core.pops_per_edge": ratio(s("heap_pops"), s("assignments")),
        "core.forced_share": ratio(s("forced_secondary"), s("assignments")),
        "core.rescans_per_edge": ratio(s("secondary_rescans"),
                                       s("assignments")),
        "core.partitions_per_score": ratio(s("candidate_partitions"),
                                           s("score_computations")),
        "core.dense_share": ratio(s("dense_placements"),
                                  s("dense_placements") +
                                  s("sparse_placements")),
        "core.max_window": max(r["raw"]["max_window"] for r in results),
        "sink.emit_s": seconds("emit_ns"),
        "sink.collect_s": seconds("collect_ns"),
        "sink.durable_s": seconds("durable_ns"),
        "sink.bytes_per_edge": ratio(s("out_bytes"), edges),
        "ckpt.snapshot_s": seconds("snapshot_ns"),
        "ckpt.queue_stall_s": seconds("queue_stall_ns"),
        "ckpt.commit_s": seconds("commit_ns"),
        "ckpt.count": s("ckpt_count"),
        "ckpt.bytes": s("ckpt_bytes"),
        "driver.tail_s": seconds("tail_ns"),
        "instance.max_s": seconds("instance_max_ns"),
        "instance.mean_s": sum(r["raw"]["instance_sum_ns"] /
                               r["raw"]["instances"] for r in results) / 1e9,
        "instance.speedup": ratio(s("instance_sum_ns"), s("call_ns")),
        "wall.unaccounted_s": seconds("unaccounted_ns"),
        "trace.overhead": ratio(sum(r["wall_ns"] for r in results),
                                untraced_wall_ns),
    }


def summarize(rounds):
    """rounds: [(traced, [result per graph])]. Checks determinism, then
    aggregates every complete round. Returns attempted, failed and the
    per-round metric values."""
    attempted = sum(len(results) for _, results in rounds)
    failed = 0
    errors = []
    digests = {}
    for _, results in rounds:
        for j, r in enumerate(results):
            if r["valid"] and digests.setdefault(j, r["order_digest"]) != \
                    r["order_digest"]:
                r.update(valid=False, error="output differs from an earlier "
                         "repetition of the same graph")
            if not r["valid"]:
                failed += 1
                errors.append(r["error"])
    clean = [(traced, results) for traced, results in rounds
             if all(r["valid"] for r in results)]
    untraced = [results for traced, results in clean if not traced]
    e2e = [round_e2e(results) for results in untraced]
    layers = []
    if untraced:
        untraced_wall = statistics.median(sum(r["wall_ns"] for r in results)
                                          for results in untraced)
        layers = [round_layers(results, untraced_wall)
                  for traced, results in clean if traced]
    return dict(attempted=attempted, failed=failed, errors=errors,
                digests=digests, e2e=columns(e2e), layers=columns(layers))


def columns(rows):
    return {key: [row[key] for row in rows] for key in (rows[0] if rows else {})}


def run_rounds(name, graphs, traced):
    return (traced, [run_graph(name, g, traced) for g in graphs])


def gate(args):
    """One workload for --seconds: untraced rounds (each followed by a traced
    one under --trace 1) while the next would still end in time, at least
    one."""
    if args.workload not in WORKLOADS:
        raise BenchError("unknown workload %s (known: %s)" %
                         (args.workload, ", ".join(WORKLOADS)))
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    build()
    graphs = inputs(args.workload, args.seed)
    rounds = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rounds.append(run_rounds(args.workload, graphs, False))
        if args.trace:
            rounds.append(run_rounds(args.workload, graphs, True))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    summary = summarize(rounds)
    for error in summary["errors"]:
        log("invalid run: " + error)
    kind = "per_layer" if args.trace else "end_to_end"
    values = summary["layers"] if args.trace else summary["e2e"]
    metrics = {m["name"]: dict(value=statistics.median(values[m["name"]]),
                               unit=m["unit"])
               for m in spec[kind] if values.get(m["name"])}
    correct = summary["failed"] == 0 and len(metrics) == len(spec[kind])
    print(json.dumps(dict(correct=correct, attempted=summary["attempted"],
                          failed=summary["failed"], metrics=metrics)))
    return 0


def full_set(seed, rounds, smoke):
    corpora = {name: corpus(name, seed, True) if smoke else inputs(name, seed)
               for name in WORKLOADS}
    collected = {name: [] for name in WORKLOADS}
    for i in range(rounds):
        for name in WORKLOADS:
            log("round %d/%d %s" % (i + 1, rounds, name))
            collected[name].append(run_rounds(name, corpora[name], False))
    for name in WORKLOADS:
        log("traced round %s" % name)
        collected[name].append(run_rounds(name, corpora[name], True))
    return {name: summarize(collected[name]) for name in WORKLOADS}


def print_table(spec, summaries):
    print("%-18s %-26s %14s %-15s %14s %14s %3s" %
          ("workload", "metric", "median", "unit", "min", "max", "n"))
    for name, s in summaries.items():
        for kind, values in (("end_to_end", s["e2e"]),
                             ("per_layer", s["layers"])):
            for m in spec[kind]:
                v = values.get(m["name"], [])
                if v:
                    print("%-18s %-26s %14.6g %-15s %14.6g %14.6g %3d" %
                          (name, m["name"], statistics.median(v), m["unit"],
                           min(v), max(v), len(v)))
        print("%-18s %-26s %14.6g %-15s %14s %14s %3d" %
              (name, "failed_run_share", s["failed"] / s["attempted"],
               "share", "", "", s["attempted"]))


def report(spec, summaries, seed, rounds):
    results = dict(seed=seed, rounds=rounds, nproc=os.cpu_count(),
                   workloads={})
    for name, s in summaries.items():
        entry = dict(attempted=s["attempted"], failed=s["failed"],
                     failed_run_share=s["failed"] / s["attempted"],
                     errors=s["errors"])
        for kind, values in (("end_to_end", s["e2e"]),
                             ("per_layer", s["layers"])):
            entry[kind] = {
                m["name"]: dict(unit=m["unit"], values=values[m["name"]],
                                median=statistics.median(values[m["name"]]))
                for m in spec[kind] if values.get(m["name"])}
        results["workloads"][name] = entry
    with open(os.path.join(BUILD, "results.json"), "w") as f:
        json.dump(results, f, indent=1)


def full(args):
    spec = load_spec()
    build()
    rounds = 1 if args.smoke else FULL_ROUNDS
    summaries = full_set(args.seed, rounds, args.smoke)
    print_table(spec, summaries)
    report(spec, summaries, args.seed, rounds)
    for s in summaries.values():
        for error in s["errors"]:
            log("invalid run: " + error)
    return 1 if any(s["failed"] for s in summaries.values()) else 0


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def stability(args):
    """Two full sets back to back: per (workload, end-to-end metric) both
    medians and interquartile ranges over rounds, and whether the second
    median is within the metric's bound of the first; plus whether every
    output file of the second set is byte-identical to the first's."""
    spec = load_spec()
    build()
    sets = [full_set(args.seed, FULL_ROUNDS, False) for _ in range(2)]
    ok = all(s[name]["failed"] == 0 for s in sets for name in WORKLOADS)
    for name in WORKLOADS:
        same = sets[0][name]["digests"] == sets[1][name]["digests"]
        ok = ok and same
        print("%-18s output digests %s" %
              (name, "identical" if same else "DIFFERENT"))
    print("%-18s %-19s %13s %9s %13s %9s %8s %6s %s" %
          ("workload", "metric", "median_1", "iqr_1", "median_2", "iqr_2",
           "delta", "bound", "agree"))
    for name in WORKLOADS:
        for m in spec["end_to_end"]:
            a = sets[0][name]["e2e"].get(m["name"], [])
            b = sets[1][name]["e2e"].get(m["name"], [])
            if not a or not b:
                ok = False
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / ma
            agree = abs(delta) <= m["bound"]
            ok = ok and agree
            print("%-18s %-19s %13.6g %8.2f%% %13.6g %8.2f%% %+7.2f%% %5.0f%% %s"
                  % (name, m["name"], ma, 100 * iqr(a) / ma, mb,
                     100 * iqr(b) / mb, 100 * delta, 100 * m["bound"],
                     "yes" if agree else "NO"))
    return 0 if ok else 1


def parity(args):
    """Each workload's configuration on a small input through bench_e2e and
    through partition_file: the output files must be byte-identical."""
    build()
    ok = True
    for name, w in WORKLOADS.items():
        graph = corpus(name, args.seed, smoke=True)[0]
        result = run_graph(name, graph, False)
        cli_out = output_path(name, graph) + ".cli"
        cmd = [CLI, graph["path"], w["algorithm"], str(w["k"]), "-1",
               "--output", cli_out]
        if "checkpoint_every" in w:
            cmd += ["--checkpoint", cli_out + ".adwk", "--checkpoint-every",
                    str(w["checkpoint_every"])]
        cli = run_cmd(cmd)
        same = (result["valid"] and cli.returncode == 0 and
                filecmp.cmp(output_path(name, graph), cli_out, shallow=False))
        ok = ok and same
        print("%-18s %9d edges  %s" % (name, graph["edges"],
                                      "identical" if same else "DIFFERENT"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="gate run length (default: BENCHMARK.json "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--parity", action="store_true")
    mode.add_argument("--stability", action="store_true")
    args = parser.parse_args()
    try:
        if args.workload:
            return gate(args)
        if args.parity:
            return parity(args)
        if args.stability:
            return stability(args)
        return full(args)
    except BenchError as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
