#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "harness/json.hpp"
#include "support/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

using evencycle::harness::JsonValue;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, in BENCHMARK.json order. Every workload reports
// all of them; README.md maps each onto the workload's own call classes.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},         {"tail_ms", "ms"},     {"heavy_p50_ms", "ms"},
};

// The per-layer catalogue, in BENCHMARK.json order. A traced run prints all
// of them; a layer the workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"engine.rounds", "count"},
    {"engine.quiet_rounds", "count"},
    {"engine.messages", "count"},
    {"engine.us_per_round", "us"},
    {"engine.compute_s", "s/call"},
    {"engine.finalize_s", "s/call"},
    {"engine.deliver_s", "s/call"},
    {"engine.compute_s.t1", "s/round"},
    {"engine.compute_s.t4", "s/round"},
    {"engine.deliver_s.t1", "s/round"},
    {"engine.deliver_s.t4", "s/round"},
    {"engine.finalize_s.t4", "s/round"},
    {"engine.idle_s.t4", "s/round"},
    {"engine.steals.t4", "count/round"},
    {"engine.ns_per_send.t1", "ns"},
    {"engine.placements_per_s.t1", "1/s"},
    {"engine.compute_inflation.t4", "ratio"},
    {"engine.peak_arena_bytes", "bytes"},
    {"engine.msgs_per_s.t1", "msg/s"},
    {"engine.msgs_per_s.t4", "msg/s"},
    {"engine.efficiency.t4", "ratio"},
    {"service.wait_ms.hit.p50", "ms"},
    {"service.wait_ms.hit.p99", "ms"},
    {"service.wait_ms.miss.p50", "ms"},
    {"service.lane_busy_ratio", "ratio"},
    {"cache.hit_ratio", "ratio"},
    {"cache.misses", "count"},
    {"cache.shared", "count"},
    {"cache.evictions", "count"},
    {"service.parse_us.p50", "us"},
    {"service.serialize_us.p50", "us"},
    {"service.stats_op_ms.p50", "ms"},
    {"service.stats_op_ms.max", "ms"},
    {"service.detect_ms.baseline-flooding.p50", "ms"},
    {"service.detect_ms.baseline-local-threshold.p50", "ms"},
    {"service.detect_ms.even-cycle.p50", "ms"},
    {"service.detect_ms.derandomized.p50", "ms"},
    {"service.detect_ms.bounded-cycle.p50", "ms"},
    {"service.detect_ms.quantum.p50", "ms"},
    {"service.detect_ms.engine-color-bfs.p50", "ms"},
    {"core.build_sets_ms.p50", "ms"},
    {"core.iteration_ms.p50", "ms"},
    {"core.iterations", "count"},
    {"quantum.base_runs", "count"},
    {"quantum.components", "count"},
    {"quantum.ms_per_base_run", "ms"},
    {"graph.generate_ms.p50", "ms"},
    {"graph.hash_ms.p50", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"self_share.bench", "ratio"},
    {"self_share.graph", "ratio"},
    {"self_share.congest", "ratio"},
    {"self_share.core", "ratio"},
    {"self_share.quantum", "ratio"},
    {"self_share.evencycle", "ratio"},
    {"self_share.service", "ratio"},
};

template <std::size_t N>
const char* unit_of(const MetricSpec (&table)[N], const std::string& name) {
  for (const auto& spec : table)
    if (name == spec.name) return spec.unit;
  return nullptr;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

std::string read_first_line_with(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return line;
  return "";
}

std::string read_file_trimmed(const std::string& path) {
  std::ifstream in(path);
  std::string text;
  std::getline(in, text);
  return text;
}

}  // namespace

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ULL);
  evencycle::splitmix64(state);
  state ^= b * 0xc2b2ae3d27d4eb4fULL;
  return evencycle::splitmix64(state);
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
  // Separator, so ("ab","c") and ("a","bc") digest differently.
  hash_ ^= 0xFF;
  hash_ *= 0x100000001b3ULL;
}

void Digest::add_u64(std::uint64_t value) { add(std::to_string(value)); }

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash_));
  return buffer;
}

std::string json_bytes(const JsonValue& value) {
  std::ostringstream os;
  evencycle::harness::write_json_value(os, value);
  return os.str();
}

std::string payload_bytes(const evencycle::api::DetectionResult& result) {
  return json_bytes(evencycle::api::result_to_json(result, /*with_timing=*/false));
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kGraph: return "graph";
    case Layer::kCongest: return "congest";
    case Layer::kCore: return "core";
    case Layer::kQuantum: return "quantum";
    case Layer::kEvencycle: return "evencycle";
    case Layer::kService: return "service";
  }
  return "unknown";
}

std::uint32_t Tracer::open(const char* name, Layer layer, std::uint64_t request) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
  spans_.push_back(Span{name, layer, now_ns(), 0, id, parent, request, timed_, {}});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::attribute(Layer layer, double seconds) {
  if (!stack_.empty()) spans_[stack_.back() - 1].attributed.emplace_back(layer, seconds);
}

double span_p50_ms(const std::vector<const Tracer*>& tracers, std::string_view name) {
  std::vector<double> ms;
  for (const Tracer* tracer : tracers)
    for (const auto& span : tracer->spans())
      if (name == span.name) ms.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
  return median(ms);
}

namespace {
// 64 Ki keys, 256 KiB: the sort stays in L2 and, like the detectors, is
// branchy integer work whose speed follows the core's clock, steal, and
// whatever shares its caches and execution units.
constexpr std::size_t kProbeKeys = std::size_t{1} << 16;
constexpr std::uint32_t kFloodNodes = std::uint32_t{1} << 16;
constexpr std::uint32_t kFloodDegree = 4;
constexpr int kFloodRounds = 2;
constexpr double kProbeIntervalS = 0.25;
}  // namespace

HostProbe::HostProbe(Shape shape) : shape_(shape) {
  std::uint64_t seed = 0x5eed;
  if (shape_ == Shape::kSort) {
    keys_.resize(kProbeKeys);
    for (auto& key : keys_) key = static_cast<std::uint32_t>(evencycle::splitmix64(seed) >> 32);
    return;
  }
  std::vector<std::uint32_t> target(std::size_t{kFloodNodes} * kFloodDegree);
  offsets_.assign(kFloodNodes + 1, 0);
  for (auto& v : target) {
    v = static_cast<std::uint32_t>(evencycle::splitmix64(seed) % kFloodNodes);
    ++offsets_[v + 1];
  }
  for (std::uint32_t v = 0; v < kFloodNodes; ++v) offsets_[v + 1] += offsets_[v];
  std::vector<std::uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  keys_.resize(target.size());
  for (std::size_t arc = 0; arc < target.size(); ++arc) keys_[arc] = next[target[arc]]++;
  inbox_.assign(target.size(), 0);
  state_.assign(kFloodNodes, 1);
}

void HostProbe::flood_round() {
  ++round_;
  for (std::uint32_t u = 0; u < kFloodNodes; ++u) {
    const std::uint32_t word = state_[u] * 2654435761U + round_;
    for (std::uint32_t i = 0; i < kFloodDegree; ++i)
      inbox_[keys_[std::size_t{u} * kFloodDegree + i]] = word + i;
  }
  for (std::uint32_t v = 0; v < kFloodNodes; ++v) {
    std::uint32_t folded = state_[v];
    for (std::uint32_t slot = offsets_[v]; slot < offsets_[v + 1]; ++slot) folded ^= inbox_[slot];
    state_[v] = folded | 1U;
  }
}

void HostProbe::sample() {
  if (shape_ == Shape::kFlood) {
    const auto start = Clock::now();
    for (int round = 0; round < kFloodRounds; ++round) flood_round();
    ms_.push_back(seconds_since(start) * 1e3);
    last_ = Clock::now();
    sink_ ^= state_[ms_.size() % state_.size()];
    return;
  }
  std::vector<std::uint32_t> keys = keys_;  // untimed: the same input every time
  const auto start = Clock::now();
  std::sort(keys.begin(), keys.end());
  ms_.push_back(seconds_since(start) * 1e3);
  last_ = Clock::now();
  sink_ ^= keys[ms_.size() % keys.size()];
}

bool HostProbe::sample_periodically() {
  if (!ms_.empty() && seconds_since(last_) < kProbeIntervalS) return false;
  sample();
  return true;
}

CpuTicks read_cpu_ticks() {
  std::istringstream in(read_first_line_with("/proc/stat", "cpu "));
  std::string label;
  in >> label;
  CpuTicks ticks;
  std::uint64_t value = 0;
  for (int field = 0; in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double peak_rss_mb() {
  std::istringstream in(read_first_line_with("/proc/self/status", "VmHWM:"));
  std::string label;
  double kb = 0.0;
  in >> label >> kb;
  return kb * 1024.0 / 1e6;
}

void Report::line(const std::string& name, double value, const std::string& unit,
                  std::size_t samples) {
  std::printf("metric %-48s %16.6f %-11s n=%zu\n", name.c_str(), value, unit.c_str(), samples);
}

void Report::set_host_probe(const HostProbe& probe) {
  const double probe_ms = probe.median_ms();
  if (probe_ms <= 0.0) {
    fail("host probe has no samples");
    return;
  }
  time_scale_ = probe.reference_ms() / probe_ms;
  note("host probe: median " + std::to_string(probe_ms) + " ms over " +
       std::to_string(probe.samples()) + " samples; times below are scaled by " +
       std::to_string(time_scale_) + " to a " + std::to_string(probe.reference_ms()) +
       " ms probe (as measured in parentheses)");
}

void Report::end_to_end(const std::string& name, double value, std::size_t samples) {
  const char* unit = unit_of(kEndToEnd, name);
  const std::string u = unit == nullptr ? "" : unit;
  const double scaled = u == "s" || u == "ms" ? value * time_scale_
                        : u == "1/s"          ? value / time_scale_
                                              : value;
  end_to_end_at_reference(name, scaled, value, samples);
}

void Report::end_to_end_at_reference(const std::string& name, double at_reference,
                                     double measured, std::size_t samples) {
  const char* unit = unit_of(kEndToEnd, name);
  if (unit == nullptr) {
    fail("unknown end-to-end metric " + name);
    return;
  }
  values_[name] = at_reference;
  std::printf("metric %-48s %16.6f %-11s n=%zu (%.6f)\n", name.c_str(), at_reference, unit,
              samples, measured);
}

void Report::per_layer(const std::string& name, double value, std::size_t samples) {
  const char* unit = unit_of(kPerLayer, name);
  if (unit == nullptr) {
    fail("unknown per-layer metric " + name);
    return;
  }
  values_[name] = value;
  line(name, value, unit, samples);
}

void Report::note(const std::string& text) { std::printf("# %s\n", text.c_str()); }

void Report::fail(const std::string& reason) {
  ++failed_;
  std::printf("FAILED %s\n", reason.c_str());
}

namespace {

/// Self time per layer over the timed-phase spans: each span's duration
/// minus its direct children and its counter-attributed seconds, which go
/// to their own layers.
std::vector<double> layer_self_seconds(const std::vector<const Tracer*>& tracers) {
  std::vector<double> self(kLayerCount, 0.0);
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    std::vector<double> child_seconds(spans.size(), 0.0);
    for (const auto& span : spans)
      if (span.parent != 0)
        child_seconds[span.parent - 1] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& span = spans[i];
      if (!span.timed) continue;
      double own = static_cast<double>(span.end_ns - span.start_ns) * 1e-9 - child_seconds[i];
      for (const auto& [layer, seconds] : span.attributed) {
        self[static_cast<int>(layer)] += seconds;
        own -= seconds;
      }
      self[static_cast<int>(span.layer)] += std::max(own, 0.0);
    }
  }
  return self;
}

/// Writes every span as Chrome trace-event JSON ("X" events, microsecond
/// timestamps; args carry the span id, parent id and request id).
void write_chrome_trace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace file %s\n", path.c_str());
    return;
  }
  std::int64_t origin = 0;
  bool first_span = true;
  for (const Tracer* tracer : tracers)
    for (const auto& span : tracer->spans())
      if (first_span || span.start_ns < origin) {
        origin = span.start_ns;
        first_span = false;
      }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Tracer* tracer : tracers) {
    for (const auto& span : tracer->spans()) {
      out << (first ? "" : ",") << "\n{\"name\":\"" << span.name << "\",\"cat\":\""
          << layer_name(span.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tracer->thread()
          << ",\"ts\":" << evencycle::harness::json_number(
                               static_cast<double>(span.start_ns - origin) * 1e-3)
          << ",\"dur\":" << evencycle::harness::json_number(
                                static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
          << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request;
      for (const auto& [layer, seconds] : span.attributed)
        out << ",\"" << layer_name(layer)
            << "_s\":" << evencycle::harness::json_number(seconds);
      out << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace

void Report::trace_summary(const std::vector<const Tracer*>& tracers, std::size_t samples) {
  const auto self = layer_self_seconds(tracers);
  double total = 0.0;
  for (const double seconds : self) total += seconds;
  for (int layer = 0; layer < kLayerCount; ++layer)
    per_layer(std::string("self_share.") + layer_name(static_cast<Layer>(layer)),
              total > 0.0 ? self[layer] / total : 0.0, samples);
  write_chrome_trace(options_.trace_out, tracers);
  note("trace written to " + options_.trace_out);
}

void Report::check_reference(const std::string& key, const std::string& digest) {
  std::string verdict = "not checked (seed " + std::to_string(options_.seed) +
                        " is not the reference seed " + std::to_string(kDefaultSeed) + ")";
  if (options_.seed == kDefaultSeed) {
    std::ifstream in(options_.reference_path);
    std::stringstream text;
    text << in.rdbuf();
    std::string expected;
    try {
      const JsonValue doc = evencycle::harness::parse_json(text.str());
      if (const JsonValue* entry = doc.get(key); entry != nullptr) expected = entry->as_string();
    } catch (const std::exception& e) {
      fail("cannot read reference digests from " + options_.reference_path + ": " + e.what());
      return;
    }
    if (expected == digest) {
      verdict = "matches reference.json";
    } else {
      fail("digest " + key + " = " + digest + ", reference.json has " +
           (expected.empty() ? "no entry" : expected));
      return;
    }
  }
  note("digest " + key + " " + digest + " " + verdict);
}

int Report::finish() {
  std::vector<std::pair<std::string, JsonValue>> metrics;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = values_.find(spec.name);
    if (it == values_.end() && required) fail(std::string("metric not measured: ") + spec.name);
    const double value = it == values_.end() ? 0.0 : it->second;
    metrics.emplace_back(spec.name, JsonValue::object({{"value", JsonValue::number(value)},
                                                       {"unit", JsonValue::string(spec.unit)}}));
  };
  if (options_.trace) {
    for (const auto& spec : kPerLayer) emit(spec, false);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec, true);
  }
  const bool correct = failed_ == 0;
  const JsonValue result = JsonValue::object({
      {"correct", JsonValue::boolean(correct)},
      {"attempted", JsonValue::uint(std::max<std::uint64_t>(attempted_, 1))},
      {"failed", JsonValue::uint(failed_)},
      {"metrics", JsonValue::object(std::move(metrics))},
  });
  std::printf("%s\n", json_bytes(result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void print_stamp(const Options& options, const std::string& pinned_threads) {
  std::string cpu = read_first_line_with("/proc/cpuinfo", "model name");
  if (const auto colon = cpu.find(':'); colon != std::string::npos) cpu = cpu.substr(colon + 2);
  const std::string llc = read_file_trimmed("/sys/devices/system/cpu/cpu0/cache/index3/size");
  const JsonValue stamp = JsonValue::object({
      {"workload", JsonValue::string(options.workload)},
      {"seed", JsonValue::uint(options.seed)},
      {"seconds", JsonValue::number(options.seconds)},
      {"trace", JsonValue::boolean(options.trace)},
      {"nproc", JsonValue::uint(std::thread::hardware_concurrency())},
      {"cpu", JsonValue::string(cpu.empty() ? "unknown" : cpu)},
      {"llc", JsonValue::string(llc.empty() ? "unknown" : llc)},
      {"build_type", JsonValue::string(PERFBENCH_BUILD_TYPE)},
      {"compiler", JsonValue::string(PERFBENCH_COMPILER)},
      {"source", JsonValue::string(options.source_id)},
      {"pinned_threads", JsonValue::string(pinned_threads)},
  });
  std::printf("stamp %s\n", json_bytes(stamp).c_str());
}

void print_steal(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t steal = after.steal - before.steal;
  const std::uint64_t total = after.total - before.total;
  std::printf("# steal ticks over the timed phase: %llu of %llu (%.2f%%)\n",
              static_cast<unsigned long long>(steal), static_cast<unsigned long long>(total),
              total == 0 ? 0.0 : 100.0 * static_cast<double>(steal) / static_cast<double>(total));
}

}  // namespace perfbench
