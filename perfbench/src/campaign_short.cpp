// campaign-short: an in-process CampaignEngine::run_batch on 4 workers.
// A closed batch - every request submitted at once, like a spool
// directory - of short requests generated from the seed as config text.
// They mix algorithms, traffic, static fault sets and fault_events
// timelines over two context seeds, so after the priming batch the
// artifact cache mostly hits and per-run fixed costs dominate.
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "service/campaign.hpp"
#include "topology/builder.hpp"

namespace perfbench {
namespace {

using deft::CampaignRequest;
using deft::RequestOutcome;
using deft::ResultRow;
using deft::SimResults;

constexpr int kWorkers = 4;
constexpr int kChiplets = 4;

struct Shape {
  std::size_t requests;
  int setup_reps;
};

Shape shape_for(Size size) {
  return size == Size::tiny ? Shape{40, 1} : Shape{1000, 3};
}

/// The generated inputs: the priming batch (one request per design key)
/// and the measured batch.
struct Inputs {
  std::vector<CampaignRequest> prime;
  std::vector<CampaignRequest> batch;
};

/// A VL channel in config syntax: "<vl>v" (down half) or "<vl>^" (up).
std::string channel_text(deft::VlChannelId c) {
  std::string out = std::to_string(c / 2);
  out += c % 2 == 0 ? 'v' : '^';
  return out;
}

std::string fault_text(const deft::VlFaultSet& faults) {
  std::string out;
  for (deft::VlChannelId c : faults.channels()) {
    if (!out.empty()) {
      out += ' ';
    }
    out += channel_text(c);
  }
  return out;
}

Inputs make_inputs(std::uint64_t seed, std::size_t count) {
  const deft::Topology topo(deft::make_reference_spec(kChiplets));
  // The design points - two context seeds, and per seed no faults, one
  // faulty channel and two - are fixed, so every workload seed exercises
  // the same designs; the seed draws the request stream over them.
  const std::uint64_t ctx_seeds[] = {42, 43};
  deft::Rng design_rng(42);
  std::vector<std::vector<deft::VlFaultSet>> fault_sets;
  for (int s = 0; s < 2; ++s) {
    fault_sets.push_back({{}});
    for (int k : {1, 2}) {
      fault_sets.back().push_back(
          *deft::sample_fault_scenario(topo, k, design_rng));
    }
  }
  deft::Rng rng(seed);
  const char* designs[][2] = {{"deft", "table"},
                              {"deft", "distance"},
                              {"mtr", "table"},
                              {"rc", "table"}};
  const char* traffics[] = {"uniform", "localized", "hotspot", "transpose"};

  const auto request = [&](const std::string& id, int s, int design,
                           int faults, bool with_events) {
    const deft::VlFaultSet& static_set = fault_sets[static_cast<std::size_t>(
        s)][static_cast<std::size_t>(faults)];
    std::ostringstream text;
    const deft::Cycle warmup =
        300 + 100 * static_cast<deft::Cycle>(rng.uniform(3));
    text << "chiplets = " << kChiplets << "\n"
         << "seed = " << ctx_seeds[s] << "\n"
         << "algorithm = " << designs[design][0] << "\n"
         << "vl_strategy = " << designs[design][1] << "\n"
         << "traffic = " << traffics[rng.uniform(4)] << "\n"
         << "rate = " << 0.002 + 0.001 * static_cast<double>(rng.uniform(5))
         << "\n"
         << "warmup = " << warmup << "\n"
         << "measure = " << 800 + 200 * static_cast<deft::Cycle>(rng.uniform(4))
         << "\n";
    if (!static_set.empty()) {
      text << "faults = " << fault_text(static_set) << "\n";
    }
    if (with_events) {
      // A transient fault on a healthy channel that disconnects no
      // chiplet together with the static set.
      for (;;) {
        const auto c = static_cast<deft::VlChannelId>(
            rng.uniform(static_cast<std::uint64_t>(topo.num_vl_channels())));
        deft::VlFaultSet with = static_set;
        with.set_faulty(c);
        if (static_set.is_faulty(c) || with.disconnects_any_chiplet(topo)) {
          continue;
        }
        const std::string ch = channel_text(c);
        text << "fault_events = " << warmup + 100 << ":" << ch << " "
             << warmup + 500 << ":" << ch << ":repair\n"
             << "fault_policy = " << (rng.uniform(2) == 0 ? "drop" : "reroute")
             << "\n";
        break;
      }
    }
    return CampaignRequest{id, "", text.str()};
  };

  Inputs in;
  for (int s = 0; s < 2; ++s) {
    for (int design = 0; design < 4; ++design) {
      for (int faults = 0; faults < 3; ++faults) {
        in.prime.push_back(request("prime-" + std::to_string(in.prime.size()),
                                   s, design, faults, false));
      }
    }
  }
  // Every (context seed, design, fault set) cell gets an equal share of the
  // batch, to within one request; the seed draws the rest of each request
  // and the order.
  std::vector<int> cells(count);
  for (std::size_t i = 0; i < count; ++i) {
    cells[i] = static_cast<int>(i % 24);
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.uniform(i)]);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const int s = cells[i] / 12;
    const int design = cells[i] / 3 % 4;
    const int faults = cells[i] % 3;
    // Dynamic timelines on DeFT only: its fault tolerance is what
    // guarantees every generated request completes.
    const bool events = design < 2 && rng.uniform(5) == 0;
    in.batch.push_back(
        request("req-" + std::to_string(i), s, design, faults, events));
  }
  return in;
}

/// The simulation fields of a row, as a digest.
std::uint64_t row_digest(const ResultRow& row) {
  Digest d;
  d.add(row.id);
  d.add(static_cast<std::uint64_t>(row.outcome));
  d.add(static_cast<std::uint64_t>(row.has_results));
  d.add(static_cast<std::uint64_t>(row.sim_outcome));
  d.add(static_cast<std::uint64_t>(row.drained));
  d.add(static_cast<std::uint64_t>(row.cycles));
  d.add(row.packets_created);
  d.add(row.packets_delivered);
  d.add(row.packets_lost);
  d.add(row.latency_mean);
  d.add(row.latency_p95);
  return d.value();
}

/// Replays requests outside the engine - validate_request, ArtifactCache,
/// SimulationConfig::make_traffic and a phase-stepped SimStepper, as the
/// engine's run_one does - on a 4-wide WorkerPool. Returns each request's
/// row and full SimResults. With a tracer, every call gets a span and each
/// timeline event's RoutingAlgorithm::set_faults is replayed and timed.
class Replayer {
 public:
  explicit Replayer(Tracer* tracer)
      : tracer_(tracer), pool_(kWorkers - 1), workspaces_(kWorkers) {}

  void run(const std::vector<CampaignRequest>& requests,
           std::vector<ResultRow>& rows, std::vector<SimResults>& results,
           int workers = kWorkers) {
    rows.assign(requests.size(), ResultRow{});
    results.assign(requests.size(), SimResults{});
    const auto errors = pool_.run_jobs(
        workers, requests.size(), [&](int worker, std::size_t i) {
          replay(worker, static_cast<std::int64_t>(i), requests[i], rows[i],
                 results[i]);
        });
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (errors[i]) {
        rows[i].outcome = RequestOutcome::failed;
      }
    }
  }

 private:
  void replay(int worker, std::int64_t op, const CampaignRequest& request,
              ResultRow& row, SimResults& out) {
    const Span root(tracer_, "service.campaign", "request", op);
    row.id = request.id;
    deft::ValidatedRequest validated;
    {
      const Span span(tracer_, "service.request", "validate", op);
      validated = deft::validate_request(request.text, deft::RunBudget{});
    }
    if (!validated.ok()) {
      row.outcome = RequestOutcome::rejected;
      return;
    }
    const deft::SimulationConfig& config = validated.config;
    std::shared_ptr<const deft::ExperimentContext> ctx;
    {
      const Span span(tracer_, "service.artifact_cache", "context", op);
      bool hit = false;
      ctx = cache_.context(config.chiplets, config.knobs.seed, &hit);
      if (!hit) {
        // Build the lazy design-time artifacts here, so their time lands
        // in their own layers rather than inside the algorithm checkout.
        {
          const Span vl(tracer_, "vlsel", "vl_tables", op);
          ctx->vl_tables();
        }
        const Span mtr(tracer_, "routing", "mtr_plan", op);
        ctx->mtr_plan();
      }
    }
    const deft::VlFaultSet faults = config.faults(ctx->topo());
    const deft::FaultTimeline timeline = config.fault_events(ctx->topo());
    std::unique_ptr<deft::TrafficGenerator> traffic;
    {
      const Span span(tracer_, "traffic", "make", op);
      traffic = config.make_traffic(ctx->topo());
    }
    const deft::DesignKey key{config.chiplets,     config.knobs.seed,
                              config.algorithm,    config.vl_strategy,
                              config.knobs.num_vcs, faults.to_string()};
    std::unique_ptr<deft::RoutingAlgorithm> alg;
    {
      const std::int64_t t0 = Tracer::now_ns();
      const Span span(tracer_, "service.artifact_cache", "checkout_algorithm",
                      op);
      bool hit = false;
      alg = cache_.checkout_algorithm(key, *ctx, faults, &hit);
      if (!hit && tracer_ != nullptr) {
        // A miss is a make_algorithm call inside the checkout.
        tracer_->add("routing", "make_algorithm", t0, Tracer::now_ns(),
                     span.id(), op);
      }
    }
    const deft::FaultTimeline* timeline_ptr =
        timeline.empty() ? nullptr : &timeline;
    deft::Simulator sim(ctx->topo(), *alg, *traffic, config.knobs, faults,
                        timeline_ptr, config.fault_policy);
    out = stepped_run(sim, workspaces_[static_cast<std::size_t>(worker)],
                      config.knobs, tracer_, op);
    if (timeline_ptr == nullptr) {
      const Span span(tracer_, "service.artifact_cache", "check_in", op);
      cache_.check_in(key, std::move(alg));
    } else if (tracer_ != nullptr) {
      // The run applied each event through set_faults; replay the same
      // fault-set sequence on the instance to time those rebuilds.
      deft::VlFaultSet current = faults;
      alg->set_faults(current);
      for (const deft::FaultEvent& e : timeline.events()) {
        if (e.kind == deft::FaultEventKind::fail) {
          current.set_faulty(e.channel);
        } else {
          current.clear(e.channel);
        }
        const Span span(tracer_, "fault", "set_faults", op);
        alg->set_faults(current);
      }
    }
    row.has_results = true;
    row.sim_outcome = out.outcome;
    row.drained = out.drained;
    row.cycles = out.cycles_run;
    row.packets_created = out.packets_created_measured;
    row.packets_delivered = out.packets_delivered_measured;
    row.packets_lost = out.packets_lost;
    row.latency_mean = out.network_latency.mean;
    row.latency_p95 = out.network_latency.p95;
    row.outcome = out.outcome == deft::RunOutcome::deadlocked
                      ? RequestOutcome::deadlocked
                  : out.drained ? RequestOutcome::ok
                                : RequestOutcome::timeout;
  }

  Tracer* tracer_;
  deft::ArtifactCache cache_;
  deft::WorkerPool pool_;
  std::vector<deft::SimWorkspace> workspaces_;
};

/// Checks the engine's rows against the replay: every row is `ok` (the
/// generated requests all complete), its simulation fields equal the
/// replay's, and the replayed run conserves packets.
void check_rows(const std::vector<ResultRow>& rows,
                const std::vector<ResultRow>& replayed,
                const std::vector<SimResults>& results, Report& report) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    report.op(rows[i].outcome == RequestOutcome::ok &&
                  row_digest(rows[i]) == row_digest(replayed[i]) &&
                  conserved(results[i]),
              "campaign-short: request " + rows[i].id + " came back " +
                  deft::request_outcome_name(rows[i].outcome) +
                  (row_digest(rows[i]) == row_digest(replayed[i])
                       ? ""
                       : " and differs from its replay"));
  }
}

deft::CampaignOptions engine_options() {
  deft::CampaignOptions options;
  options.workers = kWorkers;
  return options;
}

}  // namespace

void run_campaign_short(const Options& opt, Report& report, Tracer& tracer) {
  const Shape shape = shape_for(opt.size);
  const Inputs in = make_inputs(opt.seed, shape.requests);

  if (opt.trace) {
    deft::CampaignEngine engine(engine_options());
    engine.run_batch(in.prime);
    const auto before = engine.cache().counters();
    std::vector<ResultRow> rows;
    const auto t0 = Clock::now();
    {
      const Span span(&tracer, "service.campaign", "run_batch");
      rows = engine.run_batch(in.batch);
    }
    const double plain_s = seconds_since(t0);
    const auto after = engine.cache().counters();

    Replayer replayer(&tracer);
    std::vector<ResultRow> replayed;
    std::vector<SimResults> results;
    // Priming runs serially: a concurrent first request would otherwise
    // wait on the context's lazy build inside its algorithm checkout.
    replayer.run(in.prime, replayed, results, 1);
    const auto t1 = Clock::now();
    replayer.run(in.batch, replayed, results);
    const double traced_s = seconds_since(t1);
    check_rows(rows, replayed, results, report);

    double busy = 0.0;
    for (const ResultRow& row : rows) {
      busy += row.seconds;
    }
    const auto frac = [](std::uint64_t hits, std::uint64_t misses) {
      return hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0;
    };
    report_layer_metrics(tracer, kWorkers, report);
    report.metric("service.cache.context_hit_frac",
                  frac(after.context_hits - before.context_hits,
                       after.context_misses - before.context_misses),
                  "ratio");
    report.metric("service.cache.algorithm_hit_frac",
                  frac(after.algorithm_hits - before.algorithm_hits,
                       after.algorithm_misses - before.algorithm_misses),
                  "ratio");
    report.metric("service.cache.evictions",
                  static_cast<double>(after.evictions - before.evictions),
                  "count");
    report.metric("service.campaign.busy_frac",
                  busy / (plain_s * kWorkers), "ratio");
    report.metric("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio");
    return;
  }

  // Set-up: a fresh engine and its priming batch, which builds the
  // design-time artifacts of every design key.
  std::unique_ptr<deft::CampaignEngine> engine;
  std::vector<double> walls;
  std::vector<ResultRow> first;
  const auto rep = [&] {
    const auto t0 = Clock::now();
    std::vector<ResultRow> rows = engine->run_batch(in.batch);
    walls.push_back(seconds_since(t0));
    if (first.empty()) {
      first = std::move(rows);
      return;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      report.op(row_digest(rows[i]) == row_digest(first[i]),
                "campaign-short: repetition changed request " + rows[i].id);
    }
  };
  const auto setups = interleaved(
      shape.setup_reps, opt.seconds, [&] { engine.reset(); },
      [&] {
        engine = std::make_unique<deft::CampaignEngine>(engine_options());
        for (const ResultRow& row : engine->run_batch(in.prime)) {
          report.op(row.outcome == RequestOutcome::ok,
                    "campaign-short: priming request " + row.id +
                        " came back " +
                        deft::request_outcome_name(row.outcome));
        }
      },
      rep);

  // The workload's own footprint, before the verification replay below.
  const double rss_mb = peak_rss_mb();

  // Outside the timed section: replay the batch to check every row,
  // including the simulation fields the engine's rows do not carry.
  engine.reset();
  Replayer replayer(nullptr);
  std::vector<ResultRow> replayed;
  std::vector<SimResults> results;
  replayer.run(in.batch, replayed, results);
  check_rows(first, replayed, results, report);
  Digest digest;
  for (std::size_t i = 0; i < first.size(); ++i) {
    digest.add(row_digest(first[i]));
    digest.add(results[i]);
  }
  check_digest(opt, digest, report);

  report.metric("setup_s", median(setups), "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("peak_rss_mb", rss_mb, "MB");
}

}  // namespace perfbench
