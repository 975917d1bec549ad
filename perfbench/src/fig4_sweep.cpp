// fig4-sweep: a reduced Fig. 4 + Fig. 8 latency sweep through SweepRunner
// on 4 workers. Both reference systems; DeFT, MTR and RC; uniform and
// hotspot traffic; 0/2/4 static faults. Each system's top rate is past
// every algorithm's saturation knee, so those points run into the drain
// budget and become stragglers. Default simulation knobs throughout.
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

using deft::Algorithm;
using deft::ExperimentContext;
using deft::ExperimentGrid;
using deft::ExperimentPoint;
using deft::SimResults;

constexpr int kWorkers = 4;

/// One SweepRunner::run call: a grid over one system.
struct Sweep {
  int system = 0;  ///< index into the contexts
  ExperimentGrid grid;
  std::vector<ExperimentPoint> points;  ///< expand_grid, set-up time
};

struct Shape {
  std::vector<int> chiplets;
  std::vector<double> light;  ///< per system: well below every knee
  std::vector<double> heavy;  ///< per system: past every knee
  std::vector<int> fault_counts;
  deft::SimKnobs knobs;
  int setup_reps;
};

Shape shape_for(Size size) {
  if (size == Size::tiny) {
    deft::SimKnobs knobs;
    knobs.warmup = 500;
    knobs.measure = 1'000;
    knobs.drain_max = 4'000;
    knobs.watchdog_cycles = 2'000;
    return {{4}, {0.004}, {0.032}, {2}, knobs, 1};
  }
  return {{4, 6}, {0.004, 0.003}, {0.032, 0.022}, {2, 4}, {}, 2};
}

/// Per system: the fault-free latency curves (Fig. 4: light and heavy
/// load), then the faulty ones at light load (Fig. 8).
std::vector<Sweep> make_sweeps(const Shape& shape) {
  std::vector<Sweep> sweeps;
  for (std::size_t s = 0; s < shape.chiplets.size(); ++s) {
    Sweep curves;
    curves.system = static_cast<int>(s);
    curves.grid.algorithms = {Algorithm::deft, Algorithm::mtr, Algorithm::rc};
    curves.grid.traffic_patterns = {"uniform", "hotspot"};
    curves.grid.injection_rates = {shape.light[s], shape.heavy[s]};
    sweeps.push_back(curves);
    Sweep faulty = curves;
    faulty.grid.fault_counts = shape.fault_counts;
    faulty.grid.injection_rates = {shape.light[s]};
    sweeps.push_back(faulty);
  }
  return sweeps;
}

using Contexts = std::vector<std::unique_ptr<ExperimentContext>>;

/// Design-time set-up: contexts, their VL tables and MTR plans, and the
/// fault patterns of every grid.
Contexts set_up(const Shape& shape, std::uint64_t ctx_seed,
                std::vector<Sweep>& sweeps, Tracer* tracer) {
  Contexts contexts;
  for (int chiplets : shape.chiplets) {
    contexts.push_back(reference_context(chiplets, ctx_seed, tracer));
  }
  for (Sweep& sweep : sweeps) {
    const Span span(tracer, "fault", "pattern");
    sweep.points = deft::expand_grid(
        *contexts[static_cast<std::size_t>(sweep.system)], sweep.grid);
  }
  return contexts;
}

/// Checks one point's seed-independent invariants.
bool point_ok(const ExperimentPoint& p, const SimResults& r) {
  return r.cycles_run > 0 && conserved(r) &&
         (p.algorithm != Algorithm::deft || !r.deadlock_detected);
}

}  // namespace

void run_fig4_sweep(const Options& opt, Report& report, Tracer& tracer) {
  const Shape shape = shape_for(opt.size);
  std::uint64_t state = opt.seed;
  const std::uint64_t ctx_seed = deft::split_mix64(state);
  const deft::SweepRunner runner(kWorkers);
  std::vector<Sweep> sweeps = make_sweeps(shape);

  // The library path: SweepRunner::run over every grid.
  const auto run_all = [&](const Contexts& contexts) {
    std::vector<SimResults> out;
    for (const Sweep& sweep : sweeps) {
      for (auto& r : runner.run(
               *contexts[static_cast<std::size_t>(sweep.system)], sweep.grid,
               shape.knobs)) {
        out.push_back(std::move(r.results));
      }
    }
    return out;
  };

  if (opt.trace) {
    const Contexts contexts = set_up(shape, ctx_seed, sweeps, &tracer);
    // One repetition each way: fixed work, so layer sums compare.
    auto t0 = Clock::now();
    const std::vector<SimResults> untraced = run_all(contexts);
    const double plain_s = seconds_since(t0);
    // The traced replay: the same points through the pool, each one
    // stepped phase by phase.
    std::vector<deft::SimWorkspace> workspaces(kWorkers);
    std::vector<SimResults> traced;
    t0 = Clock::now();
    for (const Sweep& sweep : sweeps) {
      const ExperimentContext& ctx =
          *contexts[static_cast<std::size_t>(sweep.system)];
      const Span fan_out(&tracer, "core.runner", "parallel_map");
      const int fan_out_id = fan_out.id();
      auto results = runner.parallel_map_workers<SimResults>(
          sweep.points.size(), [&](int worker, std::size_t i) {
            const ExperimentPoint& p = sweep.points[i];
            const auto op = static_cast<std::int64_t>(traced.size() + i);
            const Span point(&tracer, "core.runner", "point", op,
                             fan_out_id);
            std::unique_ptr<deft::RoutingAlgorithm> alg;
            {
              const Span span(&tracer, "routing", "make_algorithm", op);
              alg = ctx.make_algorithm(p.algorithm, p.faults,
                                       shape.knobs.num_vcs, p.vl_strategy);
            }
            std::unique_ptr<deft::TrafficGenerator> traffic;
            {
              const Span span(&tracer, "traffic", "make", op);
              traffic = deft::make_traffic(ctx.topo(), p.traffic_pattern,
                                           p.injection_rate);
            }
            deft::SimKnobs knobs = shape.knobs;
            knobs.seed = p.sim_seed;
            deft::Simulator sim(ctx.topo(), *alg, *traffic, knobs, p.faults,
                                p.timeline, sweep.grid.in_flight_policy);
            return stepped_run(sim,
                               workspaces[static_cast<std::size_t>(worker)],
                               knobs, &tracer, op);
          });
      for (auto& r : results) {
        traced.push_back(std::move(r));
      }
    }
    const double traced_s = seconds_since(t0);
    std::size_t i = 0;
    for (const Sweep& sweep : sweeps) {
      for (const ExperimentPoint& p : sweep.points) {
        Digest a;
        Digest b;
        a.add(traced[i]);
        b.add(untraced[i]);
        report.op(point_ok(p, traced[i]) && a.value() == b.value(),
                  "fig4-sweep: stepped replay of point " + std::to_string(i) +
                      " differs from SweepRunner::run");
        ++i;
      }
    }
    report_layer_metrics(tracer, kWorkers, report);
    report.metric("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio");
    return;
  }

  Contexts contexts;
  std::vector<double> walls;
  std::uint64_t first_digest = 0;
  const auto rep = [&] {
    const auto t0 = Clock::now();
    const std::vector<SimResults> results = run_all(contexts);
    walls.push_back(seconds_since(t0));
    Digest digest;
    std::size_t i = 0;
    for (const Sweep& sweep : sweeps) {
      for (const ExperimentPoint& p : sweep.points) {
        const SimResults& r = results[i++];
        report.op(point_ok(p, r),
                  "fig4-sweep point " + std::to_string(i - 1) + " (" +
                      deft::algorithm_name(p.algorithm) + ", " +
                      p.traffic_pattern + ")");
        digest.add(r);
      }
    }
    if (first_digest == 0) {
      first_digest = digest.value();
      check_digest(opt, digest, report);
    } else {
      report.op(digest.value() == first_digest,
                "fig4-sweep: repetition changed the results");
    }
  };
  const auto setups = interleaved(
      shape.setup_reps, opt.seconds, [&] { contexts.clear(); },
      [&] { contexts = set_up(shape, ctx_seed, sweeps, nullptr); }, rep);

  report.metric("setup_s", median(setups), "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
