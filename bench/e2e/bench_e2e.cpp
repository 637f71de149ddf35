// bench_e2e: the measured program of the end-to-end partitioning benchmark
// (bench/e2e/README.md; bench/e2e/run.py drives it).
//
//   bench_e2e gen <web|rmat|orkut> <scale> <seed> <out.adw|out.adws>
//                 [shards]
//       Writes one corpus graph in natural stream order: a version-2 .adw
//       (CRC trailer) or, with shards > 0, an .adws manifest over that many
//       shard files. Presets and scales mean what they mean for
//       examples/generate_graph. Prints {"edges": N, "pair_digest": "<hex>"},
//       the order-independent digest of the (u, v) records.
//
//   bench_e2e run <graph.adw|graph.adws> <algorithm> <k> <out.txt>
//                 <pair-digest> [--checkpoint-every N] [--trace]
//       Partitions the graph once through the calls examples/partition_file
//       makes for the same input and flags: restream_partition for an .adw,
//       run_with_checkpoints with --checkpoint-every, run_spotlight_sharded
//       for an .adws (spread k/z, one thread per shard up to the core
//       count). "u v p" lines go to out.txt.partial, which is made durable
//       and renamed to out.txt. After the timed region the output file is
//       validated against <pair-digest>, the digest gen printed for the
//       graph, and one JSON object is printed.
//
// Everything is timed from outside the library. A TimedPartitioner
// decorates whatever partitioner the driver call builds and wraps the
// EdgeStream, AssignmentSink and CheckpointHook it is handed. Without
// --trace it only stamps the return of the first next() (the end of
// set-up), and no ObsSink is attached. With --trace every stream, sink and
// hook call is timed, a metrics registry and a trace session are attached,
// and the JSON gains a "raw" object of per-layer sums (ns and counts) that
// run.py turns into the per-layer metrics.
//
// Exit codes: 0 the run completed (the JSON says whether its output was
// valid), 1 the run failed, 2 usage.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/core/adwise_partitioner.h"
#include "src/graph/generators.h"
#include "src/io/adw_format.h"
#include "src/io/adw_shards.h"
#include "src/io/binary_stream.h"
#include "src/obs/metric_names.h"
#include "src/obs/obs_sink.h"
#include "src/partition/checkpoint_run.h"
#include "src/partition/quality.h"
#include "src/partition/registry.h"
#include "src/partition/restream.h"
#include "src/partition/spotlight.h"

namespace {

using namespace adwise;

// User + system CPU of all threads of this process.
std::int64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(t.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

// Peak resident set of this process image, KiB. Not ru_maxrss: Linux
// carries the parent's pre-exec high-water mark across exec, so small runs
// would report the size of the interpreter that spawned them.
std::int64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  long long kb = -1;
  char line[256];
  while (kb < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) != 1) kb = -1;
  }
  std::fclose(f);
  if (kb < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kb;
}

// Order-independent digest term of one (u, v) record; the digest of a
// multiset of records is the wrapping sum of its terms.
std::uint64_t pair_hash(std::uint64_t u, std::uint64_t v) {
  std::uint64_t x = (u << 32) | v;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

// --- Timing decorators ------------------------------------------------------

// One partitioner instance's timings. Written only by the thread running the
// instance; read by the main thread after the driver call has returned.
struct Ledger {
  std::int64_t begin_ns = 0;       // partition() entered
  std::int64_t first_next_ns = 0;  // first next() returned: set-up is over
  std::int64_t end_ns = 0;         // partition() returned
  std::int64_t next_ns = 0;        // inside next(), first call excluded
  std::int64_t sink_ns = 0;        // inside the assignment sink
  std::int64_t hook_ns = 0;        // inside the checkpoint hook
};

class TimedStream final : public EdgeStream {
 public:
  TimedStream(EdgeStream& inner, Ledger& ledger, bool timed)
      : inner_(inner), ledger_(ledger), timed_(timed) {}

  bool next(Edge& out) override {
    if (ledger_.first_next_ns == 0) {
      const bool more = inner_.next(out);
      ledger_.first_next_ns = monotonic_now_ns();
      return more;
    }
    if (!timed_) return inner_.next(out);
    const std::int64_t start = monotonic_now_ns();
    const bool more = inner_.next(out);
    ledger_.next_ns += monotonic_now_ns() - start;
    return more;
  }

  [[nodiscard]] std::size_t size_hint() const override {
    return inner_.size_hint();
  }

 private:
  EdgeStream& inner_;
  Ledger& ledger_;
  const bool timed_;
};

class TimedPartitioner final : public EdgePartitioner {
 public:
  TimedPartitioner(std::unique_ptr<EdgePartitioner> inner, Ledger& ledger,
                   bool timed)
      : inner_(std::move(inner)), ledger_(ledger), timed_(timed) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

  void partition(EdgeStream& stream, PartitionState& state,
                 const AssignmentSink& sink) override {
    ledger_.begin_ns = monotonic_now_ns();
    TimedStream timed_stream(stream, ledger_, timed_);
    if (timed_ && sink) {
      inner_->partition(timed_stream, state,
                        [this, &sink](const Edge& e, PartitionId p) {
                          const std::int64_t start = monotonic_now_ns();
                          sink(e, p);
                          ledger_.sink_ns += monotonic_now_ns() - start;
                        });
    } else {
      inner_->partition(timed_stream, state, sink);
    }
    ledger_.end_ns = monotonic_now_ns();
  }

  bool enable_checkpoints(CheckpointHook hook) override {
    if (timed_ && hook.emit) {
      hook.emit = [this, emit = std::move(hook.emit)](
                      std::uint64_t assignments, std::uint64_t consumed,
                      std::span<const std::byte> blob) {
        const std::int64_t start = monotonic_now_ns();
        emit(assignments, consumed, blob);
        ledger_.hook_ns += monotonic_now_ns() - start;
      };
    }
    return inner_->enable_checkpoints(std::move(hook));
  }

  bool restore_algorithm_state(std::span<const std::byte> blob) override {
    return inner_->restore_algorithm_state(blob);
  }

 private:
  std::unique_ptr<EdgePartitioner> inner_;
  Ledger& ledger_;
  const bool timed_;
};

// --- Output file --------------------------------------------------------------

// partition_file's --output sink: "u v p" lines into FILE.partial, made
// durable and renamed to FILE on success.
class OutputFile {
 public:
  explicit OutputFile(std::string path)
      : path_(std::move(path)), partial_(path_ + ".partial") {
    file_ = std::fopen(partial_.c_str(), "wb");
    if (file_ == nullptr) {
      throw std::runtime_error("cannot open " + partial_ + ": " +
                               std::strerror(errno));
    }
  }
  ~OutputFile() {
    if (file_ != nullptr) std::fclose(file_);
  }
  OutputFile(const OutputFile&) = delete;
  OutputFile& operator=(const OutputFile&) = delete;

  void emit(const Edge& e, PartitionId p) {
    std::fprintf(file_, "%llu %llu %u\n", static_cast<unsigned long long>(e.u),
                 static_cast<unsigned long long>(e.v), p);
  }

  // Flush + fsync; returns the durable byte count.
  std::uint64_t make_durable() {
    const std::int64_t start = monotonic_now_ns();
    if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
      throw std::runtime_error("cannot flush " + partial_ + ": " +
                               std::strerror(errno));
    }
    const long pos = std::ftell(file_);
    if (pos < 0) throw std::runtime_error("ftell on " + partial_ + " failed");
    durable_ns_ += monotonic_now_ns() - start;
    return static_cast<std::uint64_t>(pos);
  }

  void finalize() {
    make_durable();
    const std::int64_t start = monotonic_now_ns();
    const int closed = std::fclose(file_);
    file_ = nullptr;
    if (closed != 0 || std::rename(partial_.c_str(), path_.c_str()) != 0) {
      throw std::runtime_error("cannot close and rename " + partial_ + ": " +
                               std::strerror(errno));
    }
    durable_ns_ += monotonic_now_ns() - start;
  }

  // Time in fsyncs, close and rename so far.
  [[nodiscard]] std::int64_t durable_ns() const { return durable_ns_; }

 private:
  std::string path_;
  std::string partial_;
  std::FILE* file_ = nullptr;
  std::int64_t durable_ns_ = 0;
};

// --- Output validation --------------------------------------------------------

struct Validation {
  std::uint64_t lines = 0;
  std::uint64_t pair_digest = 0;
  std::uint64_t order_digest = 0xcbf29ce484222325ULL;  // FNV-1a of the bytes
  double replication = 0.0;
  double load_balance = 1.0;  // analyze_quality's value for an empty run
  std::string error;  // first problem found; empty when well-formed
};

// One streaming pass over the output file: parses "u v p" lines strictly,
// hashes the bytes, and recomputes replication (Eq. 1) and load balance from
// per-vertex partition bitmaps, independently of PartitionState.
Validation read_output(const std::string& path, std::uint32_t k,
                       std::uint64_t num_vertices) {
  Validation out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    out.error = "cannot open output " + path;
    return out;
  }
  const std::size_t words = (k + 63) / 64;
  std::vector<std::uint64_t> bits(num_vertices * words, 0);
  std::vector<std::uint64_t> loads(k, 0);
  std::uint64_t field[3] = {0, 0, 0};
  int index = 0;
  bool digits = false;
  const auto fail = [&](const std::string& why) {
    if (out.error.empty()) {
      out.error = why + " at line " + std::to_string(out.lines + 1);
    }
  };
  std::vector<unsigned char> buf(std::size_t{1} << 20);
  for (;;) {
    const std::size_t n = std::fread(buf.data(), 1, buf.size(), f);
    if (n == 0 || !out.error.empty()) break;
    for (std::size_t i = 0; i < n && out.error.empty(); ++i) {
      const unsigned char c = buf[i];
      out.order_digest = (out.order_digest ^ c) * 0x100000001b3ULL;
      if (c >= '0' && c <= '9') {
        field[index] = field[index] * 10 + (c - '0');
        digits = true;
        if (field[index] > 0xffffffffULL) fail("number out of range");
      } else if (c == ' ' && digits && index < 2) {
        ++index;
        digits = false;
      } else if (c == '\n' && digits && index == 2) {
        const std::uint64_t u = field[0], v = field[1], p = field[2];
        if (u >= num_vertices || v >= num_vertices) {
          fail("vertex id beyond the input's max id");
        } else if (p >= k) {
          fail("partition id " + std::to_string(p) + " >= k");
        } else {
          out.pair_digest += pair_hash(u, v);
          ++loads[p];
          bits[u * words + p / 64] |= std::uint64_t{1} << (p % 64);
          bits[v * words + p / 64] |= std::uint64_t{1} << (p % 64);
          ++out.lines;
        }
        field[0] = field[1] = field[2] = 0;
        index = 0;
        digits = false;
      } else {
        fail("malformed line");
      }
    }
  }
  std::fclose(f);
  if (index != 0 || digits) fail("unterminated line");
  std::uint64_t total = 0, replicated = 0;
  for (std::uint64_t v = 0; v < num_vertices; ++v) {
    std::uint64_t count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      count += static_cast<std::uint64_t>(std::popcount(bits[v * words + w]));
    }
    total += count;
    replicated += count != 0 ? 1 : 0;
  }
  if (replicated != 0) {
    out.replication =
        static_cast<double>(total) / static_cast<double>(replicated);
  }
  if (out.lines != 0) {
    out.load_balance =
        static_cast<double>(*std::max_element(loads.begin(), loads.end())) /
        (static_cast<double>(out.lines) / static_cast<double>(k));
  }
  return out;
}

// --- Trace post-processing ------------------------------------------------------

// Self time per span name — duration minus the child spans on the same
// track — from the session's one-event-per-line JSON.
std::map<std::string, std::int64_t, std::less<>> span_self_ns(
    const obs::TraceSession& trace) {
  std::ostringstream json;
  trace.write_json(json);
  struct Open {
    std::string name;
    double begin_us;
    double child_us;
  };
  std::map<int, std::vector<Open>> stacks;
  std::map<std::string, double> self_us;
  std::istringstream lines(json.str());
  std::string line;
  char name[128];
  char ph = 0;
  int tid = 0;
  double ts = 0.0;
  while (std::getline(lines, line)) {
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%127[^\"]\",\"ph\":\"%c\",\"pid\":0,"
                    "\"tid\":%d,\"ts\":%lf}",
                    name, &ph, &tid, &ts) != 4) {
      continue;  // metadata and framing lines
    }
    auto& stack = stacks[tid];
    if (ph == 'B') {
      stack.push_back({name, ts, 0.0});
    } else if (ph == 'E' && !stack.empty()) {
      const Open open = stack.back();
      stack.pop_back();
      const double dur = ts - open.begin_us;
      self_us[open.name] += dur - open.child_us;
      if (!stack.empty()) stack.back().child_us += dur;
    }
  }
  std::map<std::string, std::int64_t, std::less<>> out;
  for (const auto& [span, us] : self_us) {
    out[span] = static_cast<std::int64_t>(us * 1000.0);
  }
  return out;
}

// --- JSON output ----------------------------------------------------------------

// Accumulates "name": value pairs of one flat JSON object.
class JsonObject {
 public:
  void add(const char* name, std::int64_t value) {
    append(name, std::to_string(value));
  }
  void add(const char* name, std::uint64_t value) {
    append(name, std::to_string(value));
  }
  void add(const char* name, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    append(name, buf);
  }
  void add(const char* name, bool value) {
    append(name, value ? "true" : "false");
  }
  void add(const char* name, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c == '\n' ? ' ' : c;
    }
    append(name, quoted + "\"");
  }
  void add_object(const char* name, const JsonObject& value) {
    append(name, value.str());
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void append(const char* name, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += name;
    body_ += "\": ";
    body_ += value;
  }
  std::string body_;
};

// --- run --------------------------------------------------------------------------

struct RunOptions {
  std::string input;
  std::string algorithm;
  std::uint32_t k = 32;
  std::string output;
  std::string pair_digest;             // the input's, as gen printed it
  std::uint64_t checkpoint_every = 0;  // 0 = no checkpoints
  bool trace = false;
};

std::unique_ptr<EdgePartitioner> make_partitioner(const std::string& algorithm,
                                                  std::uint32_t k,
                                                  obs::ObsSink* obs) {
  if (algorithm == "adwise") {
    AdwiseOptions options;  // defaults: partition_file with latency -1
    options.obs = obs;
    return std::make_unique<AdwisePartitioner>(options);
  }
  auto partitioner = make_baseline_partitioner(algorithm, k);
  if (!partitioner) throw std::runtime_error("unknown algorithm " + algorithm);
  return partitioner;
}

void run(const RunOptions& opts) {
  obs::MetricsRegistry registry;
  // The default cap of 256k events per track drops spans on the ADWISE
  // workloads; 4M holds every span of a benchmark-sized run.
  obs::TraceSession trace(std::size_t{1} << 22);
  obs::ObsSink traced;
  traced.metrics = &registry;
  traced.trace = &trace;
  obs::ObsSink* const obs = opts.trace ? &traced : nullptr;

  const bool sharded = is_adw_manifest(opts.input);
  std::uint64_t num_edges = 0;
  std::uint64_t num_vertices = 0;
  std::vector<Ledger> ledgers;
  std::vector<double> instance_seconds;
  std::int64_t emit_ns = 0;
  std::int64_t durable_in_hook_ns = 0;
  std::atomic<std::uint64_t> ckpt_bytes{0};
  std::int64_t call_begin_ns = 0;
  std::int64_t call_end_ns = 0;
  std::optional<PartitionState> final_state;

  // ---- timed region: open the input, partition, make the output durable ----
  const std::int64_t cpu0 = cpu_ns();
  const std::int64_t t0 = monotonic_now_ns();
  OutputFile out(opts.output);
  if (sharded) {
    const AdwManifest manifest = read_and_validate_adw_manifest(opts.input);
    const std::uint32_t z = manifest.num_shards();
    num_edges = manifest.num_edges();
    num_vertices = manifest.max_vertex_id() + 1;
    SpotlightOptions sopts;
    sopts.k = opts.k;
    sopts.num_partitioners = z;
    sopts.spread = opts.k % z == 0 ? opts.k / z : opts.k;
    sopts.run_threads = true;
    // partition_file runs one thread per shard; more threads than cores
    // would only time the scheduler.
    sopts.num_threads =
        std::min(z, std::max(1U, std::thread::hardware_concurrency()));
    sopts.obs = obs;
    ledgers.resize(z);
    const PartitionerFactory factory = [&](std::uint32_t instance,
                                           std::uint32_t local_k) {
      return std::make_unique<TimedPartitioner>(
          make_partitioner(opts.algorithm, local_k, obs), ledgers[instance],
          opts.trace);
    };
    call_begin_ns = monotonic_now_ns();
    SpotlightResult result = run_spotlight_sharded(
        opts.input, static_cast<VertexId>(num_vertices), factory, sopts);
    call_end_ns = monotonic_now_ns();
    for (const Assignment& a : result.assignments) {
      out.emit(a.edge, a.partition);
    }
    emit_ns = monotonic_now_ns() - call_end_ns;
    out.finalize();
    instance_seconds = result.instance_seconds;
    final_state.emplace(std::move(result.merged));
  } else {
    BinaryEdgeStream::Options bopts;
    bopts.obs = obs;
    BinaryEdgeStream stream(opts.input, bopts);
    num_edges = stream.header().num_edges;
    num_vertices = stream.header().max_vertex_id + 1;
    const auto nv = static_cast<VertexId>(num_vertices);
    ledgers.resize(1);
    AssignmentSink emit = [&out](const Edge& e, PartitionId p) {
      out.emit(e, p);
    };
    // Restream wraps the emit in its own clean-replay sink, so the emit is
    // timed separately; the checkpointed path hands it to the partitioner
    // directly, where the sink timer already covers it.
    if (opts.trace && opts.checkpoint_every == 0) {
      emit = [&out, &emit_ns](const Edge& e, PartitionId p) {
        const std::int64_t start = monotonic_now_ns();
        out.emit(e, p);
        emit_ns += monotonic_now_ns() - start;
      };
    }
    const auto factory = [&] {
      return std::make_unique<TimedPartitioner>(
          make_partitioner(opts.algorithm, opts.k, obs), ledgers[0],
          opts.trace);
    };
    if (opts.checkpoint_every != 0) {
      auto partitioner = factory();
      PartitionState state(opts.k, nv);
      CheckpointRunOptions copts;
      copts.checkpoint_path = opts.output + ".adwk";
      copts.every = opts.checkpoint_every;
      copts.async_io = true;
      copts.obs = obs;
      copts.durable_sink_bytes = [&out, &durable_in_hook_ns] {
        const std::int64_t before = out.durable_ns();
        const std::uint64_t bytes = out.make_durable();
        durable_in_hook_ns += out.durable_ns() - before;
        return bytes;
      };
      if (opts.trace) {
        // Runs on the checkpoint writer thread after each durable commit.
        copts.on_checkpoint = [&ckpt_bytes,
                               path = copts.checkpoint_path](std::uint64_t) {
          struct stat st {};
          if (::stat(path.c_str(), &st) == 0) {
            ckpt_bytes.fetch_add(static_cast<std::uint64_t>(st.st_size));
          }
        };
      }
      call_begin_ns = monotonic_now_ns();
      run_with_checkpoints(*partitioner, stream, state, emit, copts);
      call_end_ns = monotonic_now_ns();
      out.finalize();
      final_state.emplace(std::move(state));
    } else {
      call_begin_ns = monotonic_now_ns();
      RestreamResult result =
          restream_partition(stream, nv, opts.k, factory, 1, emit, obs);
      call_end_ns = monotonic_now_ns();
      out.finalize();
      final_state.emplace(std::move(result.final_state));
    }
  }
  const std::int64_t wall = monotonic_now_ns() - t0;
  const std::int64_t cpu = cpu_ns() - cpu0;
  const std::int64_t rss_kb = peak_rss_kb();
  // ---- end of timed region ----

  std::int64_t first_next_ns = 0;
  for (const Ledger& l : ledgers) {
    if (l.first_next_ns != 0 &&
        (first_next_ns == 0 || l.first_next_ns < first_next_ns)) {
      first_next_ns = l.first_next_ns;
    }
  }
  const std::int64_t setup = first_next_ns - t0;
  const QualityReport quality = analyze_quality(*final_state);
  const double state_rf = quality.replication_degree;
  const double state_lb = quality.load_balance;

  const Validation v = read_output(opts.output, opts.k, num_vertices);
  std::string error = v.error;
  if (error.empty() && v.lines != num_edges) {
    error = "output has " + std::to_string(v.lines) + " lines, input has " +
            std::to_string(num_edges) + " edges";
  }
  if (error.empty() && hex(v.pair_digest) != opts.pair_digest) {
    error = "output edge digest " + hex(v.pair_digest) +
            " differs from the input's " + opts.pair_digest;
  }
  if (error.empty() &&
      (v.replication != state_rf || v.load_balance != state_lb)) {
    error =
        "replication or load balance recomputed from the output differs from "
        "the in-process PartitionState";
  }

  JsonObject json;
  json.add("edges", num_edges);
  json.add("wall_ns", wall);
  json.add("setup_ns", setup);
  json.add("cpu_ns", cpu);
  json.add("peak_rss_kb", rss_kb);
  json.add("replication", state_rf);
  json.add("load_balance", state_lb);
  json.add("order_digest", hex(v.order_digest));
  json.add("valid", error.empty());
  json.add("error", error);

  if (opts.trace) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    const auto reg = [&](std::string_view name) {
      return static_cast<std::int64_t>(snap.value(name));
    };
    std::int64_t next = 0, sink = 0, hook = 0, self = 0, last_end = 0;
    for (const Ledger& l : ledgers) {
      next += l.next_ns;
      sink += l.sink_ns;
      hook += l.hook_ns;
      self += (l.end_ns - l.first_next_ns) - l.next_ns - l.sink_ns - l.hook_ns;
      last_end = std::max(last_end, l.end_ns);
    }
    // Instances: the spotlight instances, or the single partition() call.
    std::int64_t instance_sum = 0, instance_max = 0;
    if (sharded) {
      for (const double s : instance_seconds) {
        const auto ns = static_cast<std::int64_t>(s * 1e9);
        instance_sum += ns;
        instance_max = std::max(instance_max, ns);
      }
    } else {
      instance_sum = instance_max = ledgers[0].end_ns - ledgers[0].begin_ns;
    }
    // Sink calls = emission + the driver's own collection: restream's clean
    // replay, or the spotlight instances' assignment buffers (their
    // emission follows the merge). The checkpointed path's sink is the
    // emission alone.
    if (opts.checkpoint_every != 0) emit_ns = sink;
    const std::int64_t collect = sharded ? sink : sink - emit_ns;
    const std::int64_t queue_stall = reg(obs::names::kCkptQueueStallNs);
    const std::int64_t snapshot = hook - durable_in_hook_ns - queue_stall;
    // Checkpoint writer flush and join, or the spotlight merge.
    const std::int64_t tail = call_end_ns - last_end;
    const std::int64_t accounted =
        sharded ? setup + instance_max + tail + emit_ns + out.durable_ns()
                : setup + next + self + emit_ns + collect + out.durable_ns() +
                      snapshot + queue_stall + tail;
    const auto spans = span_self_ns(trace);
    const auto span = [&](std::string_view name) {
      const auto it = spans.find(name);
      return it == spans.end() ? std::int64_t{0} : it->second;
    };
    struct stat st {};
    const std::int64_t out_bytes =
        ::stat(opts.output.c_str(), &st) == 0 ? st.st_size : 0;

    JsonObject raw;
    raw.add("setup_ns", setup);
    raw.add("next_ns", next);
    raw.add("prefetch_wait_ns", reg(obs::names::kStreamPrefetchWaitNs));
    raw.add("bytes_read", reg(obs::names::kStreamBytesRead));
    raw.add("self_ns", self);
    raw.add("refill_ns", span(obs::names::kSpanWindowRefill));
    raw.add("rescore_ns", span(obs::names::kSpanBatchRescore));
    raw.add("drain_ns", span(obs::names::kSpanDrainWalk));
    // AdwisePartitioner publishes these at the end of each run; spotlight
    // instances add their counters, and the max_window gauge holds the
    // value of the instance that finished last. Zero for other algorithms.
    raw.add("assignments", reg(obs::names::kAdwiseAssignments));
    raw.add("score_computations", reg(obs::names::kAdwiseScoreComputations));
    raw.add("heap_pops", reg(obs::names::kAdwiseHeapPops));
    raw.add("forced_secondary", reg(obs::names::kAdwiseForcedSecondary));
    raw.add("secondary_rescans", reg(obs::names::kAdwiseSecondaryRescans));
    raw.add("candidate_partitions",
            reg(obs::names::kAdwiseCandidatePartitions));
    raw.add("dense_placements", reg(obs::names::kAdwiseDensePlacements));
    raw.add("sparse_placements", reg(obs::names::kAdwiseSparsePlacements));
    raw.add("max_window", reg(obs::names::kAdwiseMaxWindow));
    raw.add("emit_ns", emit_ns);
    raw.add("collect_ns", collect);
    raw.add("durable_ns", out.durable_ns());
    raw.add("out_bytes", out_bytes);
    raw.add("snapshot_ns", snapshot);
    raw.add("queue_stall_ns", queue_stall);
    raw.add("commit_ns", reg(obs::names::kCkptCommitNs));
    raw.add("ckpt_count", reg(obs::names::kCkptCommits));
    raw.add("ckpt_bytes", ckpt_bytes.load());
    raw.add("ckpt_failures", reg(obs::names::kCkptWriteFailures));
    raw.add("tail_ns", tail);
    raw.add("instances", static_cast<std::uint64_t>(ledgers.size()));
    raw.add("instance_max_ns", instance_max);
    raw.add("instance_sum_ns", instance_sum);
    raw.add("call_ns", call_end_ns - call_begin_ns);
    raw.add("unaccounted_ns", wall - accounted);
    raw.add("dropped_events", trace.dropped());
    json.add_object("raw", raw);
  }
  std::printf("%s\n", json.str().c_str());
}

// --- gen ------------------------------------------------------------------------

void gen(const std::string& preset, double scale, std::uint64_t seed,
         const std::string& out, std::uint32_t shards) {
  Graph graph;
  if (preset == "web") {
    graph = make_web_like(scale, seed).graph;
  } else if (preset == "orkut") {
    graph = make_orkut_like(scale, seed).graph;
  } else if (preset == "rmat") {
    RmatParams params;
    params.num_edges = static_cast<std::size_t>(1e6 * scale);
    params.seed = seed;
    graph = make_rmat(params);
  } else {
    throw std::invalid_argument("unknown preset " + preset);
  }
  std::uint64_t edges = 0;
  std::uint64_t digest = 0;
  for (const Edge& e : graph.edges()) {
    if (e.u == e.v) continue;  // the .adw writers drop self-loops
    digest += pair_hash(e.u, e.v);
    ++edges;
  }
  if (shards == 0) {
    AdwWriter::Options options;
    options.with_crc = true;
    write_adw_file(out, graph.edges(), options);
  } else {
    write_sharded_adw(out, graph.edges(), shards);
  }
  JsonObject json;
  json.add("edges", edges);
  json.add("pair_digest", hex(digest));
  std::printf("%s\n", json.str().c_str());
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e gen <web|rmat|orkut> <scale> <seed> "
               "<out.adw|out.adws> [shards]\n"
               "       bench_e2e run <graph.adw|graph.adws> <algorithm> <k> "
               "<out.txt> <pair-digest> [--checkpoint-every N] [--trace]\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0) usage();
  return v;
}

std::uint32_t parse_u32(const char* s) {
  const std::uint64_t v = parse_u64(s);
  if (v > 0xffffffffULL) usage();
  return static_cast<std::uint32_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    if (command == "gen") {
      if (argc != 6 && argc != 7) usage();
      char* end = nullptr;
      const double scale = std::strtod(argv[3], &end);
      if (end == argv[3] || *end != '\0' || !(scale > 0.0)) usage();
      gen(argv[2], scale, parse_u64(argv[4]), argv[5],
          argc == 7 ? parse_u32(argv[6]) : 0);
      return 0;
    }
    if (command != "run" || argc < 7) usage();
    RunOptions opts;
    opts.input = argv[2];
    opts.algorithm = argv[3];
    opts.k = parse_u32(argv[4]);
    opts.output = argv[5];
    opts.pair_digest = argv[6];
    if (opts.k == 0) usage();
    for (int i = 7; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--trace") {
        opts.trace = true;
      } else if (flag == "--checkpoint-every" && i + 1 < argc) {
        opts.checkpoint_every = parse_u64(argv[++i]);
      } else {
        usage();
      }
    }
    run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  return 0;
}
