// paper-sparse: the paper's own workload. One client makes sequential
// api::detect calls at engine threads 1, cycling through a fixed,
// seed-shuffled order of call classes:
//   8 x Algorithm 1 (`even-cycle`): planted-light / planted-heavy, n = 4096,
//       k in {2, 3}, two graphs per shape;
//   1 x message-level `engine-color-bfs`: planted-light, n = 4096, k = 2;
//   1 x `quantum`: planted-light, n = 1024, k = 2, rotating over four graphs.
// Every call draws a fresh detect seed, so a run samples the cost
// distribution instead of a few fixed inputs. The traced run replays each
// cycle below the facade (core::build_sets / random_coloring /
// run_iteration, the engine with phase timings and the round profile,
// quantum_detect_even_cycle) right after running it through api::detect,
// and the two payloads must agree.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/even_cycle.hpp"
#include "core/params.hpp"
#include "engine_adapter.hpp"
#include "quantum/quantum_cycle.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

namespace api = evencycle::api;
using evencycle::Rng;

enum class Kind : std::uint8_t { kAlg1, kEngineBfs, kQuantum };

constexpr std::uint64_t kPaperN = 4096;
constexpr std::uint64_t kQuantumN = 1024;
constexpr std::uint64_t kGraphSeeds = 2;
/// Quantum cost depends on the graph's decomposition, so its calls rotate
/// over more graphs than the other classes.
constexpr std::uint64_t kQuantumGraphSeeds = 4;
/// Algorithm 1 shapes: (family, k). Each gets kGraphSeeds graphs, laid out
/// first in the graph list; the quantum graphs follow.
constexpr struct {
  const char* family;
  std::uint32_t k;
} kAlg1Shapes[] = {{"planted-light", 2}, {"planted-heavy", 2}, {"planted-light", 3},
                   {"planted-heavy", 3}};
constexpr std::size_t kQuantumGraphs = std::size(kAlg1Shapes) * kGraphSeeds;

struct Call {
  Kind kind;
  std::size_t graph;
  api::DetectionRequest request;
};

std::vector<api::GraphSpec> graph_specs(std::uint64_t seed) {
  std::vector<api::GraphSpec> specs;
  for (std::size_t shape = 0; shape < std::size(kAlg1Shapes); ++shape)
    for (std::uint64_t s = 0; s < kGraphSeeds; ++s)
      specs.push_back({kAlg1Shapes[shape].family, kPaperN, kAlg1Shapes[shape].k,
                       derive(seed, 10 + shape, s)});
  for (std::uint64_t s = 0; s < kQuantumGraphSeeds; ++s)
    specs.push_back({"planted-light", kQuantumN, 2, derive(seed, 20, s)});
  return specs;
}

/// Cycle `index` of the call stream: a pure function of (seed, index).
std::vector<Call> make_cycle(std::uint64_t seed, std::uint64_t index) {
  Rng rng(derive(seed, 1, index));
  std::vector<Call> calls;
  const auto request = [&rng](const char* detector, std::uint32_t k) {
    api::DetectionRequest r;
    r.detector = detector;
    r.k = k;
    r.seed = rng();
    r.threads = 1;
    return r;
  };
  for (std::size_t shape = 0; shape < std::size(kAlg1Shapes); ++shape)
    for (std::uint64_t s = 0; s < kGraphSeeds; ++s)
      calls.push_back({Kind::kAlg1, shape * kGraphSeeds + s,
                       request("even-cycle", kAlg1Shapes[shape].k)});
  // The light k = 2 graphs host the message-level color-BFS.
  calls.push_back({Kind::kEngineBfs, index % kGraphSeeds, request("engine-color-bfs", 2)});
  calls.push_back(
      {Kind::kQuantum, kQuantumGraphs + index % kQuantumGraphSeeds, request("quantum", 2)});
  rng.shuffle(calls);
  return calls;
}

/// Per-call observations of the traced replays.
struct LayerSamples {
  std::vector<double> engine_rounds, engine_quiet, engine_messages, engine_us_per_round;
  std::vector<double> engine_compute, engine_finalize, engine_deliver;
  std::vector<double> iterations;
  std::vector<double> base_runs, components, ms_per_base_run;
};

/// Algorithm 1 exactly as the `even-cycle` detector runs it (32 colorings,
/// stop at the first rejection), one span per set-up step and iteration.
api::DetectionResult replay_alg1(const evencycle::graph::Graph& g,
                                 const api::DetectionRequest& request, Tracer* tracer,
                                 std::uint64_t id, LayerSamples& samples) {
  namespace core = evencycle::core;
  core::PracticalTuning tuning;
  tuning.repetitions = 32;
  const auto params = core::Params::practical(
      request.k, std::max<evencycle::graph::VertexId>(g.vertex_count(), 4), tuning);
  Rng rng(request.seed);
  core::AlgorithmSets sets;
  {
    SpanScope span(tracer, "core.build_sets", Layer::kCore, id);
    sets = core::build_sets(g, params, rng);
  }
  api::DetectionResult result;
  std::uint64_t iterations = 0;
  for (std::uint64_t iter = 0; iter < params.repetitions; ++iter) {
    std::vector<std::uint8_t> colors;
    {
      SpanScope span(tracer, "core.random_coloring", Layer::kCore, id);
      colors = core::random_coloring(g.vertex_count(), 2 * params.k, rng);
    }
    core::IterationOutcome outcome;
    {
      SpanScope span(tracer, "core.run_iteration", Layer::kCore, id);
      outcome = core::run_iteration(g, params, sets, colors, rng);
    }
    ++iterations;
    for (const auto* call : {&outcome.light, &outcome.selected, &outcome.heavy}) {
      result.rounds_measured += call->rounds_measured;
      result.rounds_charged += call->rounds_charged;
      result.congestion = std::max(result.congestion, call->max_set_size);
      result.detected = result.detected || call->rejected;
    }
    if (result.detected) break;
  }
  result.extra.emplace_back("iterations", static_cast<double>(iterations));
  samples.iterations.push_back(static_cast<double>(iterations));
  return result;
}

/// The `quantum` detector's pipeline with its palette options.
api::DetectionResult replay_quantum(const evencycle::graph::Graph& g,
                                    const api::DetectionRequest& request, Tracer* tracer,
                                    std::uint64_t id, LayerSamples& samples) {
  evencycle::quantum::QuantumPipelineOptions options;
  options.base_repetitions = 16;
  options.max_base_runs = 400;
  options.delta = 0.1;
  Rng rng(request.seed);
  const auto start = Clock::now();
  evencycle::quantum::QuantumReport report;
  {
    SpanScope span(tracer, "quantum.quantum_detect_even_cycle", Layer::kQuantum, id);
    report = evencycle::quantum::quantum_detect_even_cycle(g, request.k, options, rng);
  }
  const double ms = seconds_since(start) * 1e3;
  samples.base_runs.push_back(static_cast<double>(report.base_runs_total));
  samples.components.push_back(static_cast<double>(report.components_processed));
  if (report.base_runs_total != 0)
    samples.ms_per_base_run.push_back(ms / static_cast<double>(report.base_runs_total));
  api::DetectionResult result;
  result.detected = report.cycle_detected;
  result.rounds_charged = report.rounds_charged;
  result.extra.emplace_back("classical_equivalent",
                            static_cast<double>(report.classical_rounds_equivalent));
  result.extra.emplace_back("colors", static_cast<double>(report.colors));
  result.extra.emplace_back("base_runs", static_cast<double>(report.base_runs_total));
  return result;
}

std::string replay_call(const Call& call, const api::GraphHandle& graph, Tracer* tracer,
                        std::uint64_t id, LayerSamples& samples) {
  static constexpr const char* kRootName[] = {"paper.even-cycle", "paper.engine-color-bfs",
                                              "paper.quantum"};
  SpanScope root(tracer, kRootName[static_cast<int>(call.kind)], Layer::kBench, id);
  api::DetectionResult result;
  switch (call.kind) {
    case Kind::kAlg1:
      result = replay_alg1(graph.graph(), call.request, tracer, id, samples);
      break;
    case Kind::kQuantum:
      result = replay_quantum(graph.graph(), call.request, tracer, id, samples);
      break;
    case Kind::kEngineBfs: {
      const auto replay = replay_engine_color_bfs(graph.graph(), call.request, tracer, id);
      const auto& c = replay.counters;
      samples.engine_rounds.push_back(static_cast<double>(c.rounds));
      samples.engine_quiet.push_back(static_cast<double>(c.quiet_rounds));
      samples.engine_messages.push_back(static_cast<double>(c.messages));
      samples.engine_compute.push_back(c.compute_s);
      samples.engine_finalize.push_back(c.finalize_s);
      samples.engine_deliver.push_back(c.deliver_s);
      if (c.rounds != 0)
        samples.engine_us_per_round.push_back((c.compute_s + c.finalize_s + c.deliver_s) * 1e6 /
                                              static_cast<double>(c.rounds));
      result = replay.result;
      break;
    }
  }
  SpanScope span(tracer, "evencycle.result_to_json", Layer::kEvencycle, id);
  return payload_bytes(result);
}

struct State {
  std::vector<api::GraphHandle> graphs;
  std::vector<std::string> first_cycle;  ///< payloads of cycle 0, call order
};

/// Graph generation plus one untimed pass over cycle 0 (every call class).
State set_up(const Options& options, Tracer* tracer, Report& report) {
  State state;
  for (const auto& spec : graph_specs(options.seed)) {
    {
      SpanScope span(tracer, "graph.generate", Layer::kGraph);
      state.graphs.push_back(api::GraphHandle::generate(spec));
    }
    if (tracer != nullptr) {
      SpanScope span(tracer, "graph.content_hash", Layer::kGraph);
      (void)api::graph_content_hash(state.graphs.back().graph());
    }
  }
  for (const Call& call : make_cycle(options.seed, 0)) {
    const auto result = api::detect(state.graphs[call.graph], call.request);
    if (!result.ok()) report.fail("set-up call " + call.request.detector + ": " + result.error);
    state.first_cycle.push_back(payload_bytes(result));
  }
  return state;
}

}  // namespace

int run_paper_sparse(const Options& options) {
  Report report(options);
  print_stamp(options, "engine=1 (every request threads:1)");
  Tracer tracer;
  Tracer* const trace = options.trace ? &tracer : nullptr;

  std::vector<double> setup_seconds;
  State state;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto start = Clock::now();
    State fresh = set_up(options, trace, report);
    setup_seconds.push_back(seconds_since(start));
    if (rep > 0 && fresh.first_cycle != state.first_cycle)
      report.fail("set-up repetitions produced different cycle-0 payloads");
    state = std::move(fresh);
  }
  Digest first_cycle;
  for (const auto& payload : state.first_cycle) first_cycle.add(payload);

  // Timed phase: whole cycles until the time is up, so every run has the
  // same class mix. A traced run follows each cycle's facade pass with the
  // same calls replayed under spans.
  std::vector<double> alg1_ms, bfs_ms, quantum_ms;
  LayerSamples samples;
  HostProbe probe;
  std::uint64_t calls = 0, failed_calls = 0, request_id = 0;
  double untraced_s = 0.0, traced_s = 0.0;
  std::uint64_t cycles = 0;
  tracer.set_timed(true);
  const CpuTicks ticks_before = read_cpu_ticks();
  const auto start = Clock::now();
  for (; cycles == 0 || seconds_since(start) < options.seconds; ++cycles) {
    const std::vector<Call> cycle = make_cycle(options.seed, cycles);
    std::vector<std::string> payloads;
    for (const Call& call : cycle) {
      const auto call_start = Clock::now();
      const auto result = api::detect(state.graphs[call.graph], call.request);
      const double seconds = seconds_since(call_start);
      untraced_s += seconds;
      (call.kind == Kind::kAlg1 ? alg1_ms : call.kind == Kind::kEngineBfs ? bfs_ms : quantum_ms)
          .push_back(seconds * 1e3);
      ++calls;
      if (!result.ok()) {
        ++failed_calls;
        report.note("call failed: " + call.request.detector + ": " + result.error);
      }
      payloads.push_back(payload_bytes(result));
      probe.sample_periodically();
    }
    if (cycles == 0 && payloads != state.first_cycle) {
      ++failed_calls;
      report.note("cycle 0 payloads differ between set-up and the timed phase");
    }
    if (trace == nullptr) continue;
    const auto replay_start = Clock::now();
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const Call& call = cycle[i];
      if (replay_call(call, state.graphs[call.graph], trace, ++request_id, samples) !=
          payloads[i]) {
        ++failed_calls;
        report.note("traced replay of " + call.request.detector + " seed " +
                    std::to_string(call.request.seed) + " disagrees with api::detect");
      }
    }
    traced_s += seconds_since(replay_start);
  }
  const double elapsed = seconds_since(start);
  const CpuTicks ticks_after = read_cpu_ticks();
  tracer.set_timed(false);

  report.set_attempted(calls);
  report.add_failed_ops(failed_calls);
  report.note("cycles " + std::to_string(cycles) + ", calls " + std::to_string(calls) +
              " in " + std::to_string(elapsed) + " s");
  print_steal(ticks_before, ticks_after);
  report.check_reference("paper-sparse", first_cycle.hex());

  if (!options.trace) {
    // The workload's own names first, then the end-to-end set they map onto.
    const double detections_per_s = static_cast<double>(calls) / untraced_s;
    report.line("detections_per_s", detections_per_s, "1/s", calls);
    report.line("alg1_p50_ms", median(alg1_ms), "ms", alg1_ms.size());
    report.line("alg1_p90_ms", quantile(alg1_ms, 0.9), "ms", alg1_ms.size());
    report.line("engine_bfs_p50_ms", median(bfs_ms), "ms", bfs_ms.size());
    report.line("quantum_p50_ms", median(quantum_ms), "ms", quantum_ms.size());
    report.set_host_probe(probe);
    report.end_to_end("setup_s", median(setup_seconds), setup_seconds.size());
    report.end_to_end("peak_rss_mb", peak_rss_mb(), 1);
    report.end_to_end("ops_per_s", detections_per_s, calls);
    report.end_to_end("p50_ms", median(alg1_ms), alg1_ms.size());
    report.end_to_end("tail_ms", quantile(alg1_ms, 0.9), alg1_ms.size());
    report.end_to_end("heavy_p50_ms", median(bfs_ms), bfs_ms.size());
    return report.finish();
  }

  const std::vector<const Tracer*> tracers = {&tracer};
  const std::size_t bfs_calls = samples.engine_rounds.size();
  report.per_layer("engine.rounds", median(samples.engine_rounds), bfs_calls);
  report.per_layer("engine.quiet_rounds", median(samples.engine_quiet), bfs_calls);
  report.per_layer("engine.messages", median(samples.engine_messages), bfs_calls);
  report.per_layer("engine.us_per_round", median(samples.engine_us_per_round), bfs_calls);
  report.per_layer("engine.compute_s", median(samples.engine_compute), bfs_calls);
  report.per_layer("engine.finalize_s", median(samples.engine_finalize), bfs_calls);
  report.per_layer("engine.deliver_s", median(samples.engine_deliver), bfs_calls);
  report.per_layer("core.build_sets_ms.p50", span_p50_ms(tracers, "core.build_sets"),
                   samples.iterations.size());
  report.per_layer("core.iteration_ms.p50", span_p50_ms(tracers, "core.run_iteration"),
                   samples.iterations.size());
  report.per_layer("core.iterations", median(samples.iterations), samples.iterations.size());
  report.per_layer("quantum.base_runs", median(samples.base_runs), samples.base_runs.size());
  report.per_layer("quantum.components", median(samples.components), samples.components.size());
  report.per_layer("quantum.ms_per_base_run", median(samples.ms_per_base_run),
                   samples.ms_per_base_run.size());
  report.per_layer("graph.generate_ms.p50", span_p50_ms(tracers, "graph.generate"),
                   graph_specs(options.seed).size() * kSetupRepeats);
  report.per_layer("graph.hash_ms.p50", span_p50_ms(tracers, "graph.content_hash"),
                   graph_specs(options.seed).size() * kSetupRepeats);
  // Both passes run the same calls, so the throughput ratio is a time ratio.
  report.per_layer("trace.overhead_ratio", traced_s > 0.0 ? untraced_s / traced_s : 0.0, cycles);
  report.trace_summary(tracers, cycles);
  return report.finish();
}

}  // namespace perfbench
