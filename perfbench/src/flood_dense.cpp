// flood-dense: maximal flooding (congest::FloodShardProgram) on degree-4
// near-regular graphs, the engine's densest load: every arc carries a word
// every round, so send, scatter and the scheduler do all the work.
//
// The untraced run times one engine thread on two working sets: 2^16
// nodes, which spill out of the 2 MB L2 into the LLC, and 2^12 nodes, which
// stay in L2. The timed phase alternates blocks between them, each block
// opening with an untimed warm-up round (the other engine just evicted this
// one's working set), so drift hits both alike; blocks are timed in batches
// of rounds. The host probe, a flood of the probe's own, runs after every
// set-up and every batch, and each is put at the reference host speed by the
// probe sample next to it: the host's speed moves within a run too.
//
// The traced run floods 2^18 nodes, whose working set sits near the 105 MB
// LLC, with one untraced 1-thread engine and phase-timed 1- and 4-thread
// ones. Neither 2^18 nodes nor 4 threads make a bounded end-to-end metric:
// on a shared 4-vCPU host their speed follows what the neighbours leave of
// the LLC and of the vCPUs, and it moved too far between runs even scaled
// by a host probe (README.md has the numbers).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine_adapter.hpp"

namespace perfbench {

namespace {

namespace api = evencycle::api;

constexpr std::uint64_t kNodes = std::uint64_t{1} << 16;
constexpr std::uint64_t kSmallNodes = std::uint64_t{1} << 12;
constexpr std::uint64_t kTracedNodes = std::uint64_t{1} << 18;
/// Rounds per timed batch: ~60 ms at 1 thread on 2^16 nodes, ~40 ms on
/// 2^12, ~160 ms on 2^18, so a batch spans more than a scheduler slice.
constexpr std::uint64_t kBatchRounds = 8;
constexpr std::uint64_t kSmallBatchRounds = 128;
constexpr std::uint64_t kTracedBatchRounds = 2;
/// Blocks per class in the timed phase (each class gets this many).
constexpr std::uint64_t kBlocksPerClass = 3;
/// Set-ups of an untraced run. One takes ~0.15 s, and such short set-ups
/// spread widely, so setup_s is the median of more of them than
/// kSetupRepeats.
constexpr int kUntracedSetups = 9;

/// Untraced runs: `t1` floods `graph` (2^16) and `small_t1` floods
/// `small_graph` (2^12). Traced runs: `t1`, `t1_timed` and `t4_timed` all
/// flood `graph` (2^18), the last two with phase timings on.
struct Engines {
  api::GraphHandle graph, small_graph;
  std::unique_ptr<FloodEngine> t1, small_t1;
  std::unique_ptr<FloodEngine> t1_timed, t4_timed;
};

Engines set_up(const Options& options, Tracer* tracer) {
  const auto generate = [&](std::uint64_t nodes) {
    SpanScope span(tracer, "graph.generate", Layer::kGraph);
    return api::GraphHandle::generate({"near-regular", nodes, 2, derive(options.seed, 30, nodes)});
  };
  Engines engines;
  engines.graph = generate(options.trace ? kTracedNodes : kNodes);
  if (!options.trace) engines.small_graph = generate(kSmallNodes);
  SpanScope span(tracer, "congest.flood_engines", Layer::kCongest);
  const auto& g = engines.graph.graph();
  engines.t1 = std::make_unique<FloodEngine>(g, 1, false);
  if (options.trace) {
    engines.t1_timed = std::make_unique<FloodEngine>(g, 1, true);
    engines.t4_timed = std::make_unique<FloodEngine>(g, 4, true);
  } else {
    engines.small_t1 = std::make_unique<FloodEngine>(engines.small_graph.graph(), 1, false);
  }
  return engines;
}

/// Runs one batch; returns its wall seconds and adds the counter deltas.
double run_batch(FloodEngine& engine, std::uint64_t rounds, Tracer* tracer, const char* name,
                 std::uint64_t id, EngineCounters* delta) {
  const EngineCounters before = engine.counters();
  SpanScope root(tracer, name, Layer::kBench, id);
  const auto start = Clock::now();
  {
    SpanScope span(tracer, "congest.run_rounds", Layer::kCongest, id);
    engine.run(rounds);
  }
  const double seconds = seconds_since(start);
  if (delta != nullptr) {
    const EngineCounters after = engine.counters();
    delta->rounds = after.rounds - before.rounds;
    delta->messages = after.messages - before.messages;
    delta->steals = after.steals - before.steals;
    delta->compute_s = after.compute_s - before.compute_s;
    delta->finalize_s = after.finalize_s - before.finalize_s;
    delta->deliver_s = after.deliver_s - before.deliver_s;
    delta->idle_s = after.idle_s - before.idle_s;
  }
  return seconds;
}

/// Per-round medians of a traced batch series.
struct PhaseSeries {
  std::vector<double> compute, finalize, deliver, idle, steals;
  void add(const EngineCounters& d) {
    const auto rounds = static_cast<double>(d.rounds);
    compute.push_back(d.compute_s / rounds);
    finalize.push_back(d.finalize_s / rounds);
    deliver.push_back(d.deliver_s / rounds);
    idle.push_back(d.idle_s / rounds);
    steals.push_back(static_cast<double>(d.steals) / rounds);
  }
};

/// One timed engine and what its batches add up to, as measured and (in
/// untraced runs) at the reference host speed.
struct FloodClass {
  FloodClass(FloodEngine* e, const char* n, std::uint64_t rounds_per_batch, bool t, double words)
      : engine(e), name(n), batch_rounds(rounds_per_batch), traced(t), words_per_round(words) {}

  FloodEngine* engine;
  const char* name;
  std::uint64_t batch_rounds;
  bool traced;  ///< spans and per-batch phase counters
  double words_per_round;
  std::vector<double> round_ms;            ///< per-round time of each batch
  std::vector<double> reference_round_ms;  ///< the same at the reference host speed
  double seconds = 0.0;
  double reference_seconds = 0.0;
  std::uint64_t rounds = 0;
  PhaseSeries phases;

  double msgs_per_s() const { return rate(seconds); }
  double reference_msgs_per_s() const { return rate(reference_seconds); }
  double rate(double over_seconds) const {
    return over_seconds > 0.0 ? words_per_round * static_cast<double>(rounds) / over_seconds : 0.0;
  }
};

/// Flooding sends exactly one word per arc per round.
double words_per_round(const api::GraphHandle& graph) {
  return 2.0 * static_cast<double>(graph.graph().edge_count());
}

}  // namespace

int run_flood_dense(const Options& options) {
  Report report(options);
  print_stamp(options, options.trace ? "engine=1 and 4 (Config::threads)"
                                     : "engine=1 (Config::threads)");
  Tracer tracer;
  Tracer* const trace = options.trace ? &tracer : nullptr;

  HostProbe probe(HostProbe::Shape::kFlood);
  std::vector<double> setup_seconds, reference_setup_seconds;
  Engines engines;
  const int setups = options.trace ? kSetupRepeats : kUntracedSetups;
  for (int rep = 0; rep < setups; ++rep) {
    engines = Engines{};
    const auto start = Clock::now();
    engines = set_up(options, trace);
    setup_seconds.push_back(seconds_since(start));
    if (!options.trace) {
      probe.sample();
      reference_setup_seconds.push_back(setup_seconds.back() * probe.last_scale());
    }
  }

  // Untraced: 2^16 then 2^12. Traced: 2^18 untraced, then t1 and t4 with
  // phase timings and spans.
  const double words = words_per_round(engines.graph);
  std::vector<FloodClass> classes;
  if (options.trace) {
    classes.emplace_back(engines.t1.get(), "flood.t1.untraced", kTracedBatchRounds, false, words);
    classes.emplace_back(engines.t1_timed.get(), "flood.t1", kTracedBatchRounds, true, words);
    classes.emplace_back(engines.t4_timed.get(), "flood.t4", kTracedBatchRounds, true, words);
  } else {
    classes.emplace_back(engines.t1.get(), "flood.t1", kBatchRounds, false, words);
    classes.emplace_back(engines.small_t1.get(), "flood.small.t1", kSmallBatchRounds, false,
                         words_per_round(engines.small_graph));
  }
  std::uint64_t batches = 0;
  const double block_s = options.seconds / static_cast<double>(kBlocksPerClass * classes.size());
  tracer.set_timed(true);
  const CpuTicks ticks_before = read_cpu_ticks();
  const auto start = Clock::now();
  for (std::uint64_t block = 0; block < kBlocksPerClass * classes.size(); ++block) {
    FloodClass& c = classes[block % classes.size()];
    c.engine->run(1);  // warm-up: the other engine just evicted this one's working set
    const auto block_start = Clock::now();
    do {
      EngineCounters delta;
      const double seconds = run_batch(*c.engine, c.batch_rounds, c.traced ? trace : nullptr,
                                       c.name, ++batches, c.traced ? &delta : nullptr);
      if (c.traced) c.phases.add(delta);
      c.round_ms.push_back(seconds * 1e3 / static_cast<double>(c.batch_rounds));
      c.seconds += seconds;
      c.rounds += c.batch_rounds;
      if (!options.trace) {
        probe.sample();
        c.reference_round_ms.push_back(c.round_ms.back() * probe.last_scale());
        c.reference_seconds += seconds * probe.last_scale();
        // The probe's flood evicts the engine's working set from L2; an
        // untimed round refills it before the next timed batch.
        c.engine->run(1);
      }
    } while (seconds_since(block_start) < block_s);
  }
  const double elapsed = seconds_since(start);
  const CpuTicks ticks_after = read_cpu_ticks();
  tracer.set_timed(false);

  // Every engine must have sent one word per arc per round, and in traced
  // runs the 4-thread engine must match the 1-thread ones' deterministic
  // counters: the busiest round and the peak arena bytes.
  std::uint64_t failed = 0;
  Digest digest;
  for (const FloodClass& c : classes) {
    const EngineCounters counters = c.engine->counters();
    if (static_cast<double>(counters.messages) !=
        static_cast<double>(counters.rounds) * c.words_per_round) {
      ++failed;
      report.note(std::string(c.name) + ": messages " + std::to_string(counters.messages) +
                  " != rounds " + std::to_string(counters.rounds) + " x 2m");
    }
    digest.add_u64(counters.busiest_round_messages);
    digest.add_u64(counters.peak_arena_bytes);
  }
  if (options.trace) {
    const EngineCounters a = engines.t1->counters();
    const EngineCounters b = engines.t4_timed->counters();
    if (a.busiest_round_messages != b.busiest_round_messages ||
        a.peak_arena_bytes != b.peak_arena_bytes) {
      ++failed;
      report.note("deterministic engine metrics differ between 1 and 4 threads");
    }
  }
  for (const api::GraphHandle* graph : {&engines.graph, &engines.small_graph}) {
    if (!graph->valid()) continue;
    digest.add_u64(graph->graph().vertex_count());
    digest.add_u64(graph->graph().edge_count());
    digest.add_u64(graph->content_hash());
  }
  report.set_attempted(batches);
  report.add_failed_ops(failed);
  report.note(std::to_string(batches) + " batches in " + std::to_string(elapsed) + " s; n " +
              std::to_string(engines.graph.graph().vertex_count()) + ", m " +
              std::to_string(engines.graph.graph().edge_count()));
  print_steal(ticks_before, ticks_after);
  report.check_reference(options.trace ? "flood-dense.trace" : "flood-dense", digest.hex());

  if (!options.trace) {
    const FloodClass& heavy = classes[0];
    const FloodClass& small = classes[1];
    report.line("msgs_per_s_t1", heavy.msgs_per_s(), "msg/s", heavy.round_ms.size());
    report.line("round_p50_ms", median(heavy.round_ms), "ms", heavy.round_ms.size());
    report.line("small_round_p50_ms", median(small.round_ms), "ms", small.round_ms.size());
    report.line("small_round_p90_ms", quantile(small.round_ms, 0.9), "ms", small.round_ms.size());
    report.note("host probe: median " + std::to_string(probe.median_ms()) + " ms over " +
                std::to_string(probe.samples()) + " samples; each set-up and batch below is " +
                "scaled by the sample after it to a " + std::to_string(probe.reference_ms()) +
                " ms probe (as measured in parentheses)");
    const double rss_mb = peak_rss_mb();
    const std::size_t n_heavy = heavy.round_ms.size();
    const std::size_t n_small = small.round_ms.size();
    report.end_to_end_at_reference("setup_s", median(reference_setup_seconds),
                                   median(setup_seconds), setup_seconds.size());
    report.end_to_end_at_reference("peak_rss_mb", rss_mb, rss_mb, 1);
    report.end_to_end_at_reference("ops_per_s", heavy.reference_msgs_per_s(), heavy.msgs_per_s(),
                                   n_heavy);
    report.end_to_end_at_reference("p50_ms", median(small.reference_round_ms),
                                   median(small.round_ms), n_small);
    report.end_to_end_at_reference("tail_ms", quantile(small.reference_round_ms, 0.9),
                                   quantile(small.round_ms, 0.9), n_small);
    report.end_to_end_at_reference("heavy_p50_ms", median(heavy.reference_round_ms),
                                   median(heavy.round_ms), n_heavy);
    return report.finish();
  }

  const FloodClass& untraced = classes[0];
  const PhaseSeries& p1 = classes[1].phases;
  const PhaseSeries& p4 = classes[2].phases;
  const std::size_t n = p1.compute.size();
  const std::size_t n4 = p4.compute.size();
  const double compute_t1 = median(p1.compute);
  const double deliver_t1 = median(p1.deliver);
  const double compute_t4 = median(p4.compute);
  const double t1_rate = classes[1].msgs_per_s();
  const double t4_rate = classes[2].msgs_per_s();
  report.per_layer("engine.msgs_per_s.t1", t1_rate, n);
  report.per_layer("engine.msgs_per_s.t4", t4_rate, n4);
  report.per_layer("engine.efficiency.t4", t4_rate / t1_rate / 4.0, n4);
  report.per_layer("engine.compute_s.t1", compute_t1, n);
  report.per_layer("engine.compute_s.t4", compute_t4, n4);
  report.per_layer("engine.deliver_s.t1", deliver_t1, n);
  report.per_layer("engine.deliver_s.t4", median(p4.deliver), n4);
  report.per_layer("engine.finalize_s.t4", median(p4.finalize), n4);
  report.per_layer("engine.idle_s.t4", median(p4.idle), n4);
  report.per_layer("engine.steals.t4", median(p4.steals), n4);
  report.per_layer("engine.ns_per_send.t1", compute_t1 / words * 1e9, n);
  report.per_layer("engine.placements_per_s.t1", deliver_t1 > 0.0 ? words / deliver_t1 : 0.0, n);
  report.per_layer("engine.compute_inflation.t4", compute_t1 > 0.0 ? compute_t4 / compute_t1 : 0.0,
                   n4);
  report.per_layer("engine.peak_arena_bytes",
                   static_cast<double>(engines.t1->counters().peak_arena_bytes), 1);
  const std::vector<const Tracer*> tracers = {&tracer};
  report.per_layer("graph.generate_ms.p50", span_p50_ms(tracers, "graph.generate"),
                   kSetupRepeats);
  // The same 1-thread flood on the same graph, traced and untraced.
  report.per_layer("trace.overhead_ratio", t1_rate / untraced.msgs_per_s(), n);
  report.trace_summary(tracers, n);
  return report.finish();
}

}  // namespace perfbench
