// fig7-reach: the Fig. 7 reproduction. Both reference systems, DeFT, MTR
// and RC, k = 1..8 faulty VL channels (exhaustive, then Monte-Carlo) on a
// 4-wide pool. Set-up (VL-table synthesis and the MTR plan) dominates;
// no simulation cycles run.
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

using deft::Algorithm;
using deft::ExperimentContext;
using deft::ReachabilityAnalyzer;
using deft::ReachabilitySweepPoint;

constexpr int kWorkers = 4;
constexpr Algorithm kAlgorithms[] = {Algorithm::deft, Algorithm::mtr,
                                     Algorithm::rc};

struct Shape {
  std::vector<int> systems;
  int max_faults;
  std::uint64_t enum_limit;
  std::uint64_t samples;
  int setup_reps;
  int trace_reps;  ///< fixed work per traced run, so layer sums compare
};

Shape shape_for(Size size) {
  if (size == Size::tiny) {
    return {{4}, 2, 40'000, 200, 1, 2};
  }
  // bench_fig7_reachability's budgets.
  return {{4, 6}, 8, 40'000, 2'500, 3, 10};
}

using Contexts = std::vector<std::unique_ptr<ExperimentContext>>;

Contexts build_contexts(const Shape& shape, std::uint64_t ctx_seed,
                        Tracer* tracer) {
  Contexts out;
  for (int chiplets : shape.systems) {
    out.push_back(reference_context(chiplets, ctx_seed, tracer));
  }
  return out;
}

/// One full reproduction: every (system, algorithm, k) point, in order.
std::vector<ReachabilitySweepPoint> sweep_all(const Contexts& contexts,
                                              const Shape& shape,
                                              std::uint64_t mc_seed,
                                              const deft::SweepRunner& pool,
                                              Tracer* tracer) {
  std::vector<ReachabilitySweepPoint> all;
  for (const auto& ctx : contexts) {
    std::vector<std::unique_ptr<ReachabilityAnalyzer>> analyzers;
    for (Algorithm a : kAlgorithms) {
      const Span span(tracer, "core.reachability", "build");
      analyzers.push_back(std::make_unique<ReachabilityAnalyzer>(*ctx, a));
    }
    const std::size_t n = static_cast<std::size_t>(shape.max_faults) * 3;
    const Span fan_out(tracer, "core.runner", "parallel_map");
    const int fan_out_id = fan_out.id();
    // Job i covers algorithm i % 3 at k = i / 3 + 1 (bench_fig7's order).
    const auto points = pool.parallel_map<ReachabilitySweepPoint>(
        n, [&](std::size_t i) {
          const Span point(tracer, "core.runner", "point",
                           static_cast<std::int64_t>(i), fan_out_id);
          const Span sweep(tracer, "core.reachability", "sweep",
                           static_cast<std::int64_t>(i));
          auto p = analyzers[i % 3]->sweep(static_cast<int>(i / 3) + 1,
                                           shape.enum_limit, shape.samples,
                                           mc_seed);
          if (tracer != nullptr) {
            tracer->count("core.reachability.patterns",
                          static_cast<double>(p.patterns));
          }
          return p;
        });
    all.insert(all.end(), points.begin(), points.end());
  }
  return all;
}

Digest digest_of(const std::vector<ReachabilitySweepPoint>& points) {
  Digest d;
  for (const auto& p : points) {
    d.add(p);
  }
  return d;
}

/// Checks every point of one reproduction.
void check_points(const std::vector<ReachabilitySweepPoint>& points,
                  Report& report) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ReachabilitySweepPoint& p = points[i];
    const bool deft = i % 3 == 0;
    const bool ok =
        p.patterns > 0 && p.worst >= 0.0 && p.worst <= p.average &&
        p.average <= 1.0 && (!deft || (p.average == 1.0 && p.worst == 1.0));
    report.op(ok, "fig7-reach point " + std::to_string(i) + " (k=" +
                      std::to_string(p.faulty_vls) + ")");
  }
}

}  // namespace

void run_fig7_reach(const Options& opt, Report& report, Tracer& tracer) {
  const Shape shape = shape_for(opt.size);
  // The reference systems keep bench_fig7's design seed, so set-up does
  // the same work on every workload seed; the seed drives the
  // Monte-Carlo fault-pattern sampling.
  const std::uint64_t ctx_seed = 42;
  std::uint64_t state = opt.seed;
  const std::uint64_t mc_seed = deft::split_mix64(state);
  const deft::SweepRunner pool(kWorkers);

  if (opt.trace) {
    const Contexts contexts = build_contexts(shape, ctx_seed, &tracer);
    std::vector<ReachabilitySweepPoint> untraced;
    std::vector<ReachabilitySweepPoint> traced;
    std::vector<double> plain;
    std::vector<double> walls;
    for (int r = 0; r < shape.trace_reps; ++r) {
      auto t0 = Clock::now();
      untraced = sweep_all(contexts, shape, mc_seed, pool, nullptr);
      plain.push_back(seconds_since(t0));
      t0 = Clock::now();
      traced = sweep_all(contexts, shape, mc_seed, pool, &tracer);
      walls.push_back(seconds_since(t0));
    }
    check_points(traced, report);
    report.op(digest_of(traced).value() == digest_of(untraced).value(),
              "fig7-reach: traced sweep differs from untraced sweep");
    report_layer_metrics(tracer, kWorkers, report);
    report.metric("trace.overhead_frac", median(walls) / median(plain) - 1.0,
                  "ratio");
    return;
  }

  Contexts contexts;
  std::vector<double> walls;
  std::uint64_t first_digest = 0;
  const auto rep = [&] {
    const auto t0 = Clock::now();
    const auto points = sweep_all(contexts, shape, mc_seed, pool, nullptr);
    walls.push_back(seconds_since(t0));
    check_points(points, report);
    const Digest digest = digest_of(points);
    if (first_digest == 0) {
      first_digest = digest.value();
      check_digest(opt, digest, report);
    } else {
      report.op(digest.value() == first_digest,
                "fig7-reach: repetition changed the results");
    }
  };
  const auto setups = interleaved(
      shape.setup_reps, opt.seconds, [&] { contexts.clear(); },
      [&] { contexts = build_contexts(shape, ctx_seed, nullptr); }, rep);

  report.metric("setup_s", median(setups), "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
