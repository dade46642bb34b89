// Shared plumbing of the end-to-end benchmark: run options, sample
// statistics, payload digests, the span tracer of traced runs, host
// stamping, and the metric report whose last line is the result object.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "evencycle/api.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line settings of one benchmark process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";  ///< git commit or source-tree digest
  std::string reference_path;         ///< reference digests for kDefaultSeed
  std::string trace_out;              ///< Chrome trace-event file of a traced run
};

/// The seed whose payload digests are stored in reference.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Set-up is repeated this many times per process; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// Independent 64-bit stream value for (seed, a, b): every generated input
/// is a pure function of the workload seed and its position in the stream.
std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> sample, double q);
inline double median(const std::vector<double>& sample) { return quantile(sample, 0.5); }

/// FNV-1a over byte strings, folded in call order.
class Digest {
 public:
  void add(std::string_view bytes);
  void add_u64(std::uint64_t value);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The deterministic payload bytes of a detection result, exactly as the
/// wire protocol nests them under `result`.
std::string payload_bytes(const evencycle::api::DetectionResult& result);
/// Re-serializes a parsed JSON value with the library's one serializer.
std::string json_bytes(const evencycle::harness::JsonValue& value);

/// Layers of the system, named after the source modules a span calls into.
/// kBench is the benchmark's own client code around those calls.
enum class Layer : std::uint8_t { kBench, kGraph, kCongest, kCore, kQuantum, kEvencycle, kService };
inline constexpr int kLayerCount = 7;
const char* layer_name(Layer layer);

/// In-memory span recorder of one thread (traced runs only). Spans nest by
/// scope; `attribute` charges part of the innermost open span to another
/// layer from a counter the program returned (engine phase seconds, the
/// service's detect time), so self time can split a call that crosses
/// layers internally.
class Tracer {
 public:
  explicit Tracer(std::uint32_t thread = 0) : thread_(thread) {}

  struct Span {
    const char* name;
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = root
    std::uint64_t request;
    bool timed;  ///< recorded during the timed phase (not set-up)
    std::vector<std::pair<Layer, double>> attributed;  ///< counter-derived seconds
  };

  std::uint32_t open(const char* name, Layer layer, std::uint64_t request);
  void close(std::uint32_t id);
  void attribute(Layer layer, double seconds);
  void set_timed(bool timed) { timed_ = timed; }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint32_t thread() const { return thread_; }

 private:
  std::uint32_t thread_;
  bool timed_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, Layer layer, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name, layer, request) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Median duration (ms) of the spans with this name, set-up ones included.
double span_p50_ms(const std::vector<const Tracer*>& tracers, std::string_view name);

/// Host-speed probe, timed in milliseconds. The host's speed swings by a
/// third within minutes as the neighbours' load moves, and it moves every
/// call class of a run together, so each end-to-end time is reported at a
/// reference host speed: multiplied by the shape's reference time over the
/// run's median probe time, or over the time of the sample taken right
/// after it (last_scale), and throughputs divided. The probe runs no
/// repository code, and only while none of the program's work is in
/// progress. Its shape follows the workload's work:
///   kSort:  sorting a fixed array of 64 Ki keys, branchy integer work in
///           L2 like the detectors';
///   kFlood: two rounds of flooding a fixed random 4-out-regular graph of
///           2^16 nodes held in the probe's own arrays (~2.5 MB): every
///           node writes a word into each out-neighbour's inbox slot, then
///           folds its inbox, like the engine's send and scatter.
class HostProbe {
 public:
  enum class Shape : std::uint8_t { kSort, kFlood };
  explicit HostProbe(Shape shape = Shape::kSort);
  /// Runs the probe once and records its time.
  void sample();
  /// Runs the probe if a quarter second passed since the last sample;
  /// true when it ran.
  bool sample_periodically();
  double median_ms() const { return median(ms_); }
  std::size_t samples() const { return ms_.size(); }
  /// The probe time on the reference host (this one's, rounded).
  double reference_ms() const { return shape_ == Shape::kSort ? 5.0 : 3.5; }
  /// The reference time over the last sample's: a time taken next to that
  /// sample, multiplied by it, is at the reference host speed.
  double last_scale() const { return reference_ms() / ms_.back(); }

 private:
  void flood_round();

  Shape shape_;
  std::vector<std::uint32_t> keys_;     ///< sort input, or each out-arc's inbox slot
  std::vector<std::uint32_t> inbox_;    ///< kFlood: every node's inbox, node after node
  std::vector<std::uint32_t> offsets_;  ///< kFlood: where each node's inbox starts
  std::vector<std::uint32_t> state_;    ///< kFlood: each node's word
  std::uint32_t round_ = 0;
  std::vector<double> ms_;
  Clock::time_point last_{};
  std::uint32_t sink_ = 0;
};

/// /proc/stat aggregate CPU ticks, for the steal share of the timed phase.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();

/// Peak resident set (VmHWM) of this process in MB (10^6 bytes).
double peak_rss_mb();

/// Collects the run's metrics. Workloads fill the end-to-end values under
/// the names BENCHMARK.json declares, and print their own names as plain
/// report lines; the result line carries the end-to-end set on an untraced
/// run and the per-layer catalogue on a traced one.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  /// A report line: name, value, unit, sample count.
  void line(const std::string& name, double value, const std::string& unit,
            std::size_t samples);
  /// An end-to-end metric (untraced runs) as measured; the result carries
  /// it at the reference host speed of set_host_probe's run.
  void end_to_end(const std::string& name, double value, std::size_t samples);
  /// The probe whose median scales the end-to-end times; call before
  /// end_to_end.
  void set_host_probe(const HostProbe& probe);
  /// An end-to-end metric the workload put at the reference host speed
  /// itself; the value as measured is printed beside it.
  void end_to_end_at_reference(const std::string& name, double at_reference, double measured,
                               std::size_t samples);
  /// A per-layer metric (traced runs), also printed as a report line.
  void per_layer(const std::string& name, double value, std::size_t samples);
  void note(const std::string& text);

  /// Counts one failed check (printed with its reason).
  void fail(const std::string& reason);
  void set_attempted(std::uint64_t attempted) { attempted_ = attempted; }
  void add_failed_ops(std::uint64_t count) { failed_ += count; }

  /// Traced runs: each layer's self_share of the timed-phase self time, then
  /// the spans as a Chrome trace-event file.
  void trace_summary(const std::vector<const Tracer*>& tracers, std::size_t samples);

  /// Checks the digest against reference.json when the seed is the
  /// default one; prints the digest either way.
  void check_reference(const std::string& key, const std::string& digest);

  /// Prints the result object as the last stdout line; returns the exit code.
  int finish();

 private:
  const Options& options_;
  double time_scale_ = 1.0;  ///< the probe's reference time / the run's median probe time
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Prints the host / build / run-settings stamp as one JSON line.
void print_stamp(const Options& options, const std::string& pinned_threads);
/// Prints the steal share of the timed phase.
void print_steal(const CpuTicks& before, const CpuTicks& after);

// The three workloads; each returns the process exit code.
int run_paper_sparse(const Options& options);
int run_service_mix(const Options& options);
int run_flood_dense(const Options& options);

}  // namespace perfbench
