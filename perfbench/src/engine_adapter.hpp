// The benchmark's only door into the round-engine classes that ROADMAP
// plans to collapse or delete (congest::Network, which forwards every
// RoundEngine method, and the NodeProgram adapter behind it). Everything
// else in the benchmark goes through the evencycle/api.hpp facade, so the
// planned simplifications touch the benchmark here and nowhere else.
#pragma once

#include <cstdint>
#include <memory>

#include "bench.hpp"
#include "evencycle/api.hpp"

namespace evencycle::congest {
class Network;
}

namespace perfbench {

/// Counter snapshot of one engine (deterministic counts plus the timing
/// and scheduler diagnostics, which need phase timings switched on).
struct EngineCounters {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t busiest_round_messages = 0;
  std::uint64_t peak_arena_bytes = 0;
  std::uint64_t quiet_rounds = 0;  ///< rounds with no message (round profile)
  std::uint64_t steals = 0;
  double compute_s = 0.0;
  double finalize_s = 0.0;
  double deliver_s = 0.0;
  double idle_s = 0.0;
};

/// Maximal flooding (congest::FloodShardProgram) on a pinned thread count,
/// constructed and warmed up by one round.
class FloodEngine {
 public:
  FloodEngine(const evencycle::graph::Graph& g, std::uint32_t threads, bool phase_timings);
  ~FloodEngine();
  FloodEngine(const FloodEngine&) = delete;
  FloodEngine& operator=(const FloodEngine&) = delete;

  void run(std::uint64_t rounds);
  EngineCounters counters() const;

 private:
  std::unique_ptr<evencycle::congest::Network> net_;
};

/// The `engine-color-bfs` detector replayed below the facade: the same
/// coloring, spec, and engine run api::detect performs, with phase timings
/// and the round profile switched on. `result` must match api::detect's
/// payload byte for byte.
struct EngineBfsReplay {
  evencycle::api::DetectionResult result;
  EngineCounters counters;
};
EngineBfsReplay replay_engine_color_bfs(const evencycle::graph::Graph& g,
                                        const evencycle::api::DetectionRequest& request,
                                        Tracer* tracer, std::uint64_t request_id);

}  // namespace perfbench
