#include "engine_adapter.hpp"

#include <algorithm>

#include "congest/network.hpp"
#include "congest/workloads.hpp"
#include "core/color_bfs.hpp"
#include "core/engine_color_bfs.hpp"
#include "core/params.hpp"

namespace perfbench {

namespace {

EngineCounters snapshot(const evencycle::congest::Network& net) {
  const auto& m = net.metrics();
  EngineCounters c;
  c.rounds = m.rounds;
  c.messages = m.messages;
  c.busiest_round_messages = m.busiest_round_messages;
  c.peak_arena_bytes = m.peak_arena_bytes;
  c.quiet_rounds = static_cast<std::uint64_t>(
      std::count(m.round_profile.begin(), m.round_profile.end(), std::uint64_t{0}));
  c.steals = m.steal_count;
  c.compute_s = m.compute_seconds;
  c.finalize_s = m.reduce_seconds;
  c.deliver_s = m.deliver_seconds;
  c.idle_s = m.idle_seconds;
  return c;
}

}  // namespace

FloodEngine::FloodEngine(const evencycle::graph::Graph& g, std::uint32_t threads,
                         bool phase_timings) {
  evencycle::congest::Config config;
  config.threads = threads;
  config.collect_phase_timings = phase_timings;
  net_ = std::make_unique<evencycle::congest::Network>(g, config);
  net_->install(std::make_shared<evencycle::congest::FloodShardProgram>());
  net_->run_round();  // warm-up: sizes the arenas and staging lanes
}

FloodEngine::~FloodEngine() = default;

void FloodEngine::run(std::uint64_t rounds) { net_->run_rounds(rounds); }

EngineCounters FloodEngine::counters() const { return snapshot(*net_); }

EngineBfsReplay replay_engine_color_bfs(const evencycle::graph::Graph& g,
                                        const evencycle::api::DetectionRequest& request,
                                        Tracer* tracer, std::uint64_t request_id) {
  using evencycle::graph::VertexId;
  const VertexId n = g.vertex_count();
  evencycle::Rng rng(request.seed);
  const auto params = evencycle::core::Params::practical(request.k, std::max<VertexId>(n, 4));
  std::vector<std::uint8_t> colors;
  {
    SpanScope span(tracer, "core.random_coloring", Layer::kCore, request_id);
    colors = evencycle::core::random_coloring(n, 2 * request.k, rng);
  }
  evencycle::core::ColorBfsSpec spec;
  spec.cycle_length = 2 * request.k;
  spec.threshold = std::max<std::uint64_t>(params.threshold, 1);
  spec.colors = &colors;

  evencycle::congest::Config config;
  config.threads = request.threads;
  config.collect_phase_timings = true;
  config.collect_round_profile = true;
  std::unique_ptr<evencycle::congest::Network> net;
  {
    SpanScope span(tracer, "congest.network", Layer::kCongest, request_id);
    net = std::make_unique<evencycle::congest::Network>(g, config);
  }
  evencycle::core::EngineColorBfsResult out;
  EngineBfsReplay replay;
  {
    SpanScope span(tracer, "core.run_color_bfs_on_engine", Layer::kCore, request_id);
    out = evencycle::core::run_color_bfs_on_engine(*net, spec);
    replay.counters = snapshot(*net);
    // The compute phase runs the protocol's own on_round (core/); the
    // finalize and deliver phases are the engine's (congest/).
    if (tracer != nullptr)
      tracer->attribute(Layer::kCongest, replay.counters.finalize_s + replay.counters.deliver_s);
  }
  auto& result = replay.result;
  result.detected = out.rejected;
  result.rounds_measured = out.rounds;
  result.messages = out.messages;
  result.congestion = replay.counters.busiest_round_messages;
  result.extra.emplace_back("rejecting_nodes", static_cast<double>(out.rejecting_nodes.size()));
  result.extra.emplace_back("resolved_threads", static_cast<double>(net->thread_count()));
  return replay;
}

}  // namespace perfbench
