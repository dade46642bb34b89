// service-mix: an in-process closed loop of 3 clients sending NDJSON lines
// through service::handle_line into a DetectionService with 3 lanes and a
// cache well above the hot set. Every query pins "threads":1.
//   hot:  three tenants (one per client) query 16 cache-resident graphs
//         (4 families x n in {256, 1024} x graph seeds 1, 2), each request a
//         uniform pick of graph, then of detector among those the size
//         allows — all seven at n = 256, all but quantum and
//         engine-color-bfs at n = 1024 — played as a shuffled deck (see
//         hot_deck); a quarter of them carry a deadline-ms that never trips;
//   cold: one tenant sends one request in every 50 of each client's
//         stream: a fresh-seed torus at n = 2^18 with baseline-flooding.
//         The spec always misses, and since torus ignores its seed the
//         build also takes the content-dedupe path;
//   stats: every client sends a stats op every 100 requests, the clients
//         offset by a third of that.
// A traced run alternates chunks of 16 requests between handle_line and
// the same request replayed as parse_detect_request, submit().get() (split
// into detect and wait time) and result_to_json + write_json_value.
// Every half second the clients park between requests, and the host probe
// runs with every lane drained; parked time counts toward no metric.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "harness/json.hpp"
#include "service/detection_service.hpp"
#include "service/protocol.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

namespace api = evencycle::api;
namespace service = evencycle::service;
using evencycle::Rng;
using evencycle::harness::JsonValue;

constexpr std::uint32_t kClients = 3;
constexpr std::uint32_t kLanes = 3;
/// Above the 16 hot graphs with room for the cold entries to age out
/// before any hot graph becomes least recently used.
constexpr std::size_t kCacheCapacity = 32;
constexpr const char* kFamilies[] = {"planted-light", "planted-heavy", "near-regular",
                                     "erdos-renyi"};
constexpr std::uint64_t kSizes[] = {256, 1024};
constexpr std::uint64_t kGraphSeeds = 2;
constexpr std::uint64_t kHotGraphs = std::size(kFamilies) * std::size(kSizes) * kGraphSeeds;
/// Deck slots per hot graph: 5 x 7, whole rounds over either detector count.
constexpr std::uint64_t kSlotsPerGraph = 35;
constexpr std::uint64_t kColdEvery = 50;
constexpr std::uint64_t kStatsEvery = 100;
constexpr std::uint64_t kColdNodes = std::uint64_t{1} << 18;
constexpr std::uint64_t kDigestPerClient = 100;
constexpr std::uint64_t kTraceChunk = 16;
constexpr std::uint64_t kNeverTripsMs = 60000;

constexpr std::chrono::milliseconds kProbeInterval{500};
constexpr const char* kDetectors[] = {
    "baseline-flooding", "baseline-local-threshold", "even-cycle", "derandomized",
    "bounded-cycle",     "engine-color-bfs",         "quantum",
};
/// The first five detectors run on every hot graph; the last two at
/// n = 256 only.
constexpr std::uint64_t kLargeGraphDetectors = 5;

/// How many of kDetectors the mix sends to hot graph `graph_index`.
std::uint64_t detectors_for(std::uint64_t graph_index) {
  const bool small = (graph_index / kGraphSeeds) % std::size(kSizes) == 0;
  return small ? std::size(kDetectors) : kLargeGraphDetectors;
}

enum class Kind : std::uint8_t { kHot, kCold, kStats };

struct Request {
  Kind kind = Kind::kHot;
  std::string line;
  std::string key;  ///< what the payload is a pure function of
  std::string detector;
};

// The hot set is part of the workload and the same in every run: graph
// seeds 1 and 2, and the deck of hot queries below. The workload seed
// drives the order in which each client plays the deck. With a
// seed-derived hot set the median hot latency moved by a fifth between
// seeds on a quiet host, against 1% between runs of one seed; with
// independent draws from the deck, by a tenth.

/// Hot graph `index`.
api::GraphSpec hot_graph(std::uint64_t index) {
  const std::uint64_t family = index / (std::size(kSizes) * kGraphSeeds);
  const std::uint64_t size = (index / kGraphSeeds) % std::size(kSizes);
  return {kFamilies[family], kSizes[size], 2, 1 + index % kGraphSeeds};
}

std::string detect_line(const std::string& id, const std::string& tenant,
                        const api::GraphSpec& graph, const std::string& detector,
                        std::uint64_t detect_seed, std::uint64_t deadline_ms) {
  std::vector<std::pair<std::string, JsonValue>> members = {
      {"op", JsonValue::string("detect")},
      {"id", JsonValue::string(id)},
      {"tenant", JsonValue::string(tenant)},
      {"graph", JsonValue::object({{"family", JsonValue::string(graph.family)},
                                   {"nodes", JsonValue::uint(graph.nodes)},
                                   {"k", JsonValue::uint(graph.k)},
                                   {"seed", JsonValue::uint(graph.seed)}})},
      {"k", JsonValue::uint(2)},
      {"detector", JsonValue::string(detector)},
      {"seed", JsonValue::uint(detect_seed)},
      {"threads", JsonValue::uint(1)},
  };
  if (deadline_ms != 0) members.emplace_back("deadline-ms", JsonValue::uint(deadline_ms));
  return json_bytes(JsonValue::object(std::move(members)));
}

Request cold_request(std::uint64_t seed, std::uint64_t client, std::uint64_t index,
                     const std::string& id) {
  const api::GraphSpec graph{"torus", kColdNodes, 2, derive(seed, 300 + client, index)};
  return {Kind::kCold, detect_line(id, "cold", graph, "baseline-flooding", 1, 0),
          "torus|baseline-flooding", "baseline-flooding"};
}

/// One hot query: (graph, detector, detect seed).
struct HotQuery {
  std::uint64_t graph;
  std::uint64_t detector;
  std::uint64_t detect_seed;
};

/// Every hot graph gets kSlotsPerGraph slots, rotating through the
/// detectors its size allows with a new detect seed each round, so one
/// pass over the deck sends a uniform pick of graph, then of detector,
/// exactly.
std::vector<HotQuery> hot_deck() {
  std::vector<HotQuery> deck;
  for (std::uint64_t g = 0; g < kHotGraphs; ++g)
    for (std::uint64_t slot = 0; slot < kSlotsPerGraph; ++slot)
      deck.push_back({g, slot % detectors_for(g), 1 + slot / detectors_for(g)});
  return deck;
}

Request hot_request(const HotQuery& query, bool deadline, const std::string& tenant,
                    const std::string& id) {
  const api::GraphSpec graph = hot_graph(query.graph);
  const std::string name = kDetectors[query.detector];
  return {Kind::kHot,
          detect_line(id, tenant, graph, name, query.detect_seed, deadline ? kNeverTripsMs : 0),
          graph.key() + "|" + name + "|" + std::to_string(query.detect_seed), name};
}

/// The request stream of one client, a pure function of (seed, client):
/// the hot requests play the deck in a fresh seed-shuffled order per pass.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::uint64_t client)
      : seed_(seed), client_(client), deck_(hot_deck()), next_hot_(deck_.size()) {}

  Request next() {
    const std::uint64_t index = index_++;
    const std::string id = "c" + std::to_string(client_) + "-" + std::to_string(index);
    if (index % kColdEvery == derive(seed_, 200 + client_, index / kColdEvery) % kColdEvery)
      return cold_request(seed_, client_, index, id);
    if (index % kStatsEvery == client_ * (kStatsEvery / kClients))
      return {Kind::kStats, "{\"op\":\"stats\",\"id\":\"" + id + "\"}", "", ""};
    if (next_hot_ == deck_.size()) {
      Rng rng(derive(seed_, 100 + client_, passes_++));
      rng.shuffle(deck_);
      next_hot_ = 0;
    }
    const bool deadline = derive(seed_, 600 + client_, index) % 4 == 0;
    return hot_request(deck_[next_hot_++], deadline, "hot-" + std::to_string(client_), id);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t client_;
  std::vector<HotQuery> deck_;
  std::size_t next_hot_;
  std::uint64_t index_ = 0;
  std::uint64_t passes_ = 0;
};

/// One completed request as the client saw it.
struct Record {
  Kind kind = Kind::kHot;
  bool traced = false;
  double ms = 0.0;  ///< client-side latency of the request
  std::string response;  ///< handle_line output (untraced requests)
  // Traced requests keep the decoded outcome instead of a response line.
  std::string payload;
  bool ok = false;
  bool cache_hit = false;
  double outcome_s = 0.0;
  double detect_s = 0.0;
  std::string detector;
  std::string key;
};

struct Client {
  Tracer tracer;
  std::vector<Record> records;
  double finished_s = 0.0;
  double parked_s = 0.0;
  std::exception_ptr error;
  explicit Client(std::uint32_t id) : tracer(id) {}
};

/// Parks the clients between requests so the host probe runs while no
/// request is in flight. A closed-loop client waits for each response, so
/// with every client parked the lanes are idle and the probe times the
/// host alone, not what the program leaves of it.
class ProbeGate {
 public:
  explicit ProbeGate(std::uint32_t clients) : active_(clients) {}

  /// Client side, between requests: parks while a probe is pending and
  /// returns the seconds spent parked.
  double park_if_requested() {
    if (!requested_.load(std::memory_order_acquire)) return 0.0;
    const auto parked_at = Clock::now();
    std::unique_lock lock(mutex_);
    const std::uint64_t generation = generation_;
    ++parked_;
    changed_.notify_all();
    changed_.wait(lock, [&] { return generation_ != generation; });
    return seconds_since(parked_at);
  }

  /// Client side, once its run is over.
  void leave() {
    const std::lock_guard lock(mutex_);
    --active_;
    changed_.notify_all();
  }

  /// Main thread: waits up to `interval`; false once every client has left.
  bool running_after(std::chrono::milliseconds interval) {
    std::unique_lock lock(mutex_);
    return !changed_.wait_for(lock, interval, [&] { return active_ == 0; });
  }

  /// Main thread: parks every active client, samples the probe, releases.
  void probe_drained(HostProbe& probe) {
    std::unique_lock lock(mutex_);
    requested_.store(true, std::memory_order_release);
    changed_.wait(lock, [&] { return parked_ == active_; });
    probe.sample();
    requested_.store(false, std::memory_order_release);
    parked_ = 0;
    ++generation_;
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  std::atomic<bool> requested_{false};
  std::uint32_t active_;
  std::uint32_t parked_ = 0;
  std::uint64_t generation_ = 0;
};

Record traced_request(service::DetectionService& svc, const Request& request, Tracer& tracer,
                      std::uint64_t id) {
  Record record;
  record.kind = request.kind;
  record.traced = true;
  record.detector = request.detector;
  record.key = request.key;
  SpanScope root(&tracer, "service.request", Layer::kBench, id);
  if (request.kind == Kind::kStats) {
    SpanScope span(&tracer, "service.stats_op", Layer::kService, id);
    record.response = service::handle_line(svc, request.line);
    return record;
  }
  service::Query query;
  std::string request_id, message;
  api::ErrorCode code = api::ErrorCode::kOk;
  {
    SpanScope span(&tracer, "service.parse_detect_request", Layer::kService, id);
    code = service::parse_detect_request(request.line, &query, &request_id, &message);
  }
  if (code != api::ErrorCode::kOk) {
    record.payload = message;
    return record;
  }
  service::QueryOutcome outcome;
  {
    SpanScope span(&tracer, "service.submit_get", Layer::kService, id);
    outcome = svc.submit(query).get();
    tracer.attribute(Layer::kEvencycle, outcome.result.seconds);
  }
  {
    SpanScope span(&tracer, "evencycle.result_to_json", Layer::kEvencycle, id);
    record.payload = payload_bytes(outcome.result);
  }
  record.ok = outcome.result.ok();
  record.cache_hit = outcome.cache_hit;
  record.outcome_s = outcome.seconds;
  record.detect_s = outcome.result.seconds;
  return record;
}

/// Decodes an untraced response into the traced record shape; false when
/// the line is not a well-formed response.
bool decode(Record& record) {
  JsonValue doc;
  try {
    doc = evencycle::harness::parse_json(record.response);
  } catch (const std::exception&) {
    return false;
  }
  const JsonValue* ok = doc.get("ok");
  if (ok == nullptr || ok->kind() != JsonValue::Kind::kBool) return false;
  record.ok = ok->as_bool();
  if (record.kind == Kind::kStats) return !record.ok || doc.get("stats") != nullptr;
  if (!record.ok) {
    record.payload = record.response;
    return true;
  }
  const JsonValue* result = doc.get("result");
  const JsonValue* graph = doc.get("graph");
  const JsonValue* timing = doc.get("timing");
  if (result == nullptr || graph == nullptr || timing == nullptr) return false;
  record.payload = json_bytes(*result);
  record.cache_hit = graph->get("cache") != nullptr && graph->get("cache")->as_string() == "hit";
  record.outcome_s = timing->get("seconds") != nullptr ? timing->get("seconds")->as_number() : 0.0;
  return true;
}

/// Service construction, cache fill (every hot graph plus one torus, so the
/// first timed cold request already dedupes), and one untimed request per
/// (graph, detector) pair the hot mix sends, since a detector's cost
/// depends on the graph, plus a stats op.
std::unique_ptr<service::DetectionService> set_up(const Options& options, Report& report) {
  service::ServiceConfig config;
  config.lanes = kLanes;
  config.cache_capacity = kCacheCapacity;
  auto svc = std::make_unique<service::DetectionService>(config);
  std::vector<Request> warm;
  for (std::uint64_t g = 0; g < kHotGraphs; ++g)
    for (std::uint64_t d = 0; d < detectors_for(g); ++d)
      warm.push_back(hot_request({g, d, 1}, d % 2 == 1, "setup", "warm"));
  warm.push_back(cold_request(options.seed, kClients, 0, "fill-cold"));
  warm.push_back({Kind::kStats, "{\"op\":\"stats\",\"id\":\"warm\"}", "", ""});
  for (const Request& request : warm) {
    Record record;
    record.kind = request.kind;
    record.response = service::handle_line(*svc, request.line);
    if (!decode(record) || !record.ok) report.fail("set-up request failed: " + record.response);
  }
  return svc;
}

}  // namespace

int run_service_mix(const Options& options) {
  Report report(options);
  print_stamp(options, "clients=3 lanes=3 engine=1 (every query threads:1)");

  std::vector<double> setup_seconds;
  std::unique_ptr<service::DetectionService> svc;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    svc.reset();
    const auto start = Clock::now();
    svc = set_up(options, report);
    setup_seconds.push_back(seconds_since(start));
  }
  const auto cache_before = svc->stats().cache;
  HostProbe probe;
  ProbeGate gate(kClients);

  std::vector<std::unique_ptr<Client>> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) clients.push_back(std::make_unique<Client>(c));
  std::latch go(kClients + 1);
  const CpuTicks ticks_before = read_cpu_ticks();
  Clock::time_point start;
  const auto run_client = [&](Client& client) {
    RequestStream stream(options.seed, client.tracer.thread());
    for (std::uint64_t i = 0; seconds_since(start) < options.seconds; ++i) {
      client.parked_s += gate.park_if_requested();
      const Request request = stream.next();
      const bool traced = options.trace && (i / kTraceChunk) % 2 == 1;
      Record record;
      const auto sent = Clock::now();
      if (traced) {
        record = traced_request(*svc, request, client.tracer, i + 1);
      } else {
        record.kind = request.kind;
        record.detector = request.detector;
        record.key = request.key;
        record.response = service::handle_line(*svc, request.line);
      }
      record.ms = seconds_since(sent) * 1e3;
      client.records.push_back(std::move(record));
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients[c];
      client.tracer.set_timed(true);
      go.arrive_and_wait();
      try {
        run_client(client);
      } catch (...) {
        client.error = std::current_exception();
      }
      client.finished_s = seconds_since(start);
      gate.leave();
    });
  }

  start = Clock::now();
  go.arrive_and_wait();
  while (gate.running_after(kProbeInterval)) gate.probe_drained(probe);
  for (auto& thread : threads) thread.join();
  for (const auto& client : clients)
    if (client->error) std::rethrow_exception(client->error);

  const CpuTicks ticks_after = read_cpu_ticks();
  const auto cache_after = svc->stats().cache;

  // Check every response: a well-formed ok line, a payload identical to
  // every other answer to the same query, hot graphs served from the cache,
  // cold specs missing it. A closed-loop client's rate is its detects over
  // its own unparked time; the service's rate is their sum.
  std::vector<double> hot_ms, cold_ms, stats_ms;
  std::map<std::string, std::array<std::vector<double>, 2>> hot_ms_by_mode;
  std::vector<double> wait_hit_ms, wait_miss_ms;
  std::map<std::string, std::vector<double>> detect_ms;
  std::map<std::string, std::string> payload_of;
  std::uint64_t detects = 0, failed_ops = 0, hot_misses = 0, attempted = 0;
  double busy_s = 0.0, requests_per_s = 0.0, active_s = 0.0;
  Digest digest;
  for (auto& client : clients) {
    const std::uint64_t detects_before = detects;
    std::uint64_t digested = 0;
    for (Record& record : client->records) {
      ++attempted;
      const bool decoded = record.traced ? (record.kind != Kind::kStats || decode(record))
                                         : decode(record);
      if (!decoded || !record.ok) {
        ++failed_ops;
        if (failed_ops <= 5)
          report.note("failed request: " + (record.payload.empty() ? record.response
                                                                   : record.payload));
        continue;
      }
      if (record.kind == Kind::kStats) {
        stats_ms.push_back(record.ms);
        continue;
      }
      ++detects;
      busy_s += record.outcome_s;
      auto [it, inserted] = payload_of.emplace(record.key, record.payload);
      if (!inserted && it->second != record.payload) {
        ++failed_ops;
        report.note("payload mismatch for " + record.key);
      }
      if (digested < kDigestPerClient) {
        digest.add(record.payload);
        ++digested;
      }
      if (record.kind == Kind::kCold) {
        cold_ms.push_back(record.ms);
        if (record.cache_hit) {
          ++failed_ops;
          report.note("a fresh cold spec hit the cache");
        }
        if (record.traced) wait_miss_ms.push_back((record.outcome_s - record.detect_s) * 1e3);
      } else {
        hot_ms.push_back(record.ms);
        hot_ms_by_mode[record.detector][record.traced ? 1 : 0].push_back(record.ms);
        if (!record.cache_hit) ++hot_misses;
        if (record.traced) {
          (record.cache_hit ? wait_hit_ms : wait_miss_ms)
              .push_back((record.outcome_s - record.detect_s) * 1e3);
          detect_ms[record.detector].push_back(record.detect_s * 1e3);
        }
      }
    }
    if (digested < kDigestPerClient) report.fail("a client completed too few requests to digest");
    const double active = client->finished_s - client->parked_s;
    requests_per_s += static_cast<double>(detects - detects_before) / active;
    active_s += active / kClients;
  }
  if (hot_misses > 0) {
    failed_ops += hot_misses;
    report.note(std::to_string(hot_misses) + " hot requests missed the cache");
  }
  report.set_attempted(attempted);
  report.add_failed_ops(failed_ops);
  report.note("requests " + std::to_string(attempted) + " (" + std::to_string(detects) +
              " detect) in " + std::to_string(active_s) + " s unparked per client; probe " +
              std::to_string(probe.samples()) + " times with the lanes drained");
  print_steal(ticks_before, ticks_after);
  report.check_reference("service-mix", digest.hex());

  if (!options.trace) {
    report.line("requests_per_s", requests_per_s, "1/s", detects);
    report.line("hot_p50_ms", median(hot_ms), "ms", hot_ms.size());
    report.line("hot_p99_ms", quantile(hot_ms, 0.99), "ms", hot_ms.size());
    report.line("cold_p50_ms", median(cold_ms), "ms", cold_ms.size());
    report.line("stats_op_p50_ms", median(stats_ms), "ms", stats_ms.size());
    report.set_host_probe(probe);
    report.end_to_end("setup_s", median(setup_seconds), setup_seconds.size());
    report.end_to_end("peak_rss_mb", peak_rss_mb(), 1);
    report.end_to_end("ops_per_s", requests_per_s, detects);
    report.end_to_end("p50_ms", median(hot_ms), hot_ms.size());
    report.end_to_end("tail_ms", quantile(hot_ms, 0.99), hot_ms.size());
    report.end_to_end("heavy_p50_ms", median(cold_ms), cold_ms.size());
    return report.finish();
  }

  std::vector<const Tracer*> tracers;
  for (const auto& client : clients) tracers.push_back(&client->tracer);
  report.per_layer("service.wait_ms.hit.p50", median(wait_hit_ms), wait_hit_ms.size());
  report.per_layer("service.wait_ms.hit.p99", quantile(wait_hit_ms, 0.99), wait_hit_ms.size());
  report.per_layer("service.wait_ms.miss.p50", median(wait_miss_ms), wait_miss_ms.size());
  report.per_layer("service.lane_busy_ratio", busy_s / (kLanes * active_s), detects);
  const auto hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const auto misses = static_cast<double>(cache_after.misses - cache_before.misses);
  report.per_layer("cache.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
                   detects);
  report.per_layer("cache.misses", misses, detects);
  report.per_layer("cache.shared",
                   static_cast<double>(cache_after.shared - cache_before.shared), detects);
  report.per_layer("cache.evictions",
                   static_cast<double>(cache_after.evictions - cache_before.evictions), detects);
  report.per_layer("service.parse_us.p50",
                   span_p50_ms(tracers, "service.parse_detect_request") * 1e3, detects / 2);
  report.per_layer("service.serialize_us.p50",
                   span_p50_ms(tracers, "evencycle.result_to_json") * 1e3, detects / 2);
  report.per_layer("service.stats_op_ms.p50", median(stats_ms), stats_ms.size());
  report.per_layer("service.stats_op_ms.max", quantile(stats_ms, 1.0), stats_ms.size());
  for (const char* detector : kDetectors) {
    const auto& sample = detect_ms[detector];
    report.per_layer(std::string("service.detect_ms.") + detector + ".p50", median(sample),
                     sample.size());
  }
  // Per request, not per mode window: a cold build in one client's window
  // stalls the others whichever mode they are in. Each detector's median
  // hot latency is compared across the two modes, and the ratios are
  // averaged geometrically so the detector mix of each mode cancels out.
  double log_sum = 0.0;
  std::size_t ratios = 0;
  for (const auto& [detector, by_mode] : hot_ms_by_mode) {
    if (by_mode[0].empty() || by_mode[1].empty()) continue;
    log_sum += std::log(median(by_mode[0]) / median(by_mode[1]));
    ++ratios;
  }
  report.per_layer("trace.overhead_ratio", ratios == 0 ? 0.0 : std::exp(log_sum / ratios),
                   ratios);
  report.trace_summary(tracers, wait_hit_ms.size());
  return report.finish();
}

}  // namespace perfbench
