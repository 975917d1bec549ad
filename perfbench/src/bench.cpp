#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ----------------------------------------------------------------- digest

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
}

namespace {
void add_latency(Digest& d, const deft::LatencySummary& l) {
  d.add(l.count);
  for (double v : {l.mean, l.min, l.max, l.p50, l.p95, l.p99}) {
    d.add(v);
  }
}
}  // namespace

void Digest::add(const deft::SimResults& r) {
  add_latency(*this, r.network_latency);
  add_latency(*this, r.total_latency);
  for (std::uint64_t v :
       {r.packets_created, r.packets_created_measured,
        r.packets_delivered_measured, r.packets_dropped_unroutable,
        r.flits_ejected_in_window, r.flit_hops, r.packets_lost,
        r.packets_lost_measured, r.fault_window_created,
        r.fault_window_delivered}) {
    add(v);
  }
  add(static_cast<std::uint64_t>(r.cycles_run));
  add(static_cast<std::uint64_t>(r.measure_cycles));
  add(static_cast<std::uint64_t>(r.reconvergence_latency));
  add(static_cast<std::uint64_t>(r.deadlock_detected));
  add(static_cast<std::uint64_t>(r.drained));
  add(static_cast<std::uint64_t>(r.outcome));
  for (const auto& region : r.region_vc_flits) {
    for (std::uint64_t v : region) {
      add(v);
    }
  }
  for (std::uint64_t v : r.vl_channel_flits) {
    add(v);
  }
}

void Digest::add(const deft::ReachabilitySweepPoint& p) {
  add(static_cast<std::uint64_t>(p.faulty_vls));
  add(p.average);
  add(p.worst);
  add(p.patterns);
  add(static_cast<std::uint64_t>(p.exhaustive));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

// ----------------------------------------------------------------- report

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) {
    return;
  }
  ++failed_;
  if (logged_++ < 20) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    // %.17g round-trips every double: the value is printed as measured.
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += (first ? "" : ", ");
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // program launched from a larger parent would report the parent's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void release_free_memory() { malloc_trim(0); }

void check_digest(const Options& opt, const Digest& digest, Report& report) {
  std::fprintf(stderr, "perfbench: %s seed %" PRIu64 " digest %s\n",
               opt.workload.c_str(), opt.seed, digest.hex().c_str());
  if (!opt.expect_digest.empty()) {
    report.op(digest.hex() == opt.expect_digest,
              "statistics digest " + digest.hex() + " != recorded " +
                  opt.expect_digest);
  }
}

bool conserved(const deft::SimResults& r) {
  const std::uint64_t resolved =
      r.packets_delivered_measured + r.packets_lost_measured;
  if (resolved > r.packets_created_measured) {
    return false;
  }
  return !r.drained || resolved == r.packets_created_measured;
}

// ----------------------------------------------------------------- tracer

namespace {
thread_local std::vector<int> open_spans;
}  // namespace

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(const char* layer, const char* call, std::int64_t op,
                  int parent) {
  if (!enabled_) {
    return -1;
  }
  if (parent == kCurrent) {
    parent = open_spans.empty() ? -1 : open_spans.back();
  }
  const std::int64_t t = now_ns();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(SpanRecord{layer, call, t, t, parent, op});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) {
    return;
  }
  const std::int64_t t = now_ns();
  if (!open_spans.empty() && open_spans.back() == id) {
    open_spans.pop_back();
  }
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

int Tracer::add(const char* layer, const char* call, std::int64_t start_ns,
                std::int64_t end_ns, int parent, std::int64_t op) {
  if (!enabled_) {
    return -1;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{layer, call, start_ns, end_ns, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::count(const std::string& name, double v) {
  if (!enabled_) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += v;
}

double Tracer::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations(const std::string& layer,
                                      const std::string& call) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans()) {
    if (layer == s.layer && call == s.call) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<std::vector<int>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) {
      children[static_cast<std::size_t>(all[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    // Union of the children's intervals clipped to the span (children on
    // pool workers overlap one another).
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (int c : children[i]) {
      const SpanRecord& k = all[static_cast<std::size_t>(c)];
      const std::int64_t a = std::max(k.start_ns, s.start_ns);
      const std::int64_t b = std::min(k.end_ns, s.end_ns);
      if (b > a) {
        iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    self[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  for (const SpanRecord& s : spans()) {
    out << "{\"layer\": \"" << s.layer << "\", \"call\": \"" << s.call
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}\n";
  }
}

Span::Span(Tracer* tracer, const char* layer, const char* call,
           std::int64_t op, int parent)
    : tracer_(tracer),
      id_(tracer != nullptr ? tracer->begin(layer, call, op, parent) : -1) {}

Span::~Span() {
  if (tracer_ != nullptr) {
    tracer_->end(id_);
  }
}

std::unique_ptr<deft::ExperimentContext> reference_context(
    int chiplets, std::uint64_t seed, Tracer* tracer) {
  std::unique_ptr<deft::ExperimentContext> ctx;
  {
    const Span span(tracer, "topology", "build");
    ctx = std::make_unique<deft::ExperimentContext>(
        deft::ExperimentContext::reference(chiplets, seed));
  }
  {
    const Span span(tracer, "vlsel", "vl_tables");
    ctx->vl_tables();
  }
  const Span span(tracer, "routing", "mtr_plan");
  ctx->mtr_plan();
  return ctx;
}

const deft::SimResults& stepped_run(deft::Simulator& sim,
                                    deft::SimWorkspace& ws,
                                    const deft::SimKnobs& knobs,
                                    Tracer* tracer, std::int64_t op) {
  deft::SimStepper stepper;
  {
    const Span span(tracer, "sim", "start", op);
    stepper.start(sim, ws);
  }
  {
    const Span span(tracer, "sim", "warmup", op);
    stepper.advance(knobs.warmup);
  }
  {
    const Span span(tracer, "sim", "measure", op);
    stepper.advance(knobs.warmup + knobs.measure);
  }
  {
    const Span span(tracer, "sim", "drain", op);
    stepper.advance();
  }
  const deft::SimResults* results = nullptr;
  {
    const Span span(tracer, "sim", "finish", op);
    results = &stepper.finish();
  }
  if (tracer != nullptr) {
    tracer->count("sim.cycles", static_cast<double>(results->cycles_run));
    tracer->count("sim.flit_hops", static_cast<double>(results->flit_hops));
    tracer->count("sim.packets_delivered",
                  static_cast<double>(results->packets_delivered_measured));
  }
  return *results;
}

// ---------------------------------------------------------- layer metrics

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"topology.build_s", "s"},
      {"vlsel.vl_tables_s", "s"},
      {"routing.mtr_plan_s", "s"},
      {"routing.make_algorithm_count", "count"},
      {"routing.make_algorithm_us_p50", "us"},
      {"routing.make_algorithm_us_p99", "us"},
      {"fault.pattern_s", "s"},
      {"fault.set_faults_count", "count"},
      {"fault.set_faults_us", "us"},
      {"core.reachability.build_s", "s"},
      {"core.reachability.sweep_s", "s"},
      {"core.reachability.ns_per_pattern", "ns"},
      {"core.runner.point_s_p50", "s"},
      {"core.runner.point_s_p99", "s"},
      {"core.runner.busy_frac", "ratio"},
      {"core.runner.tail_s", "s"},
      {"traffic.make_us", "us"},
      {"service.request.validate_us", "us"},
      {"service.cache.context_hit_frac", "ratio"},
      {"service.cache.algorithm_hit_frac", "ratio"},
      {"service.cache.evictions", "count"},
      {"service.campaign.busy_frac", "ratio"},
      {"sim.start_us", "us"},
      {"sim.warmup_s", "s"},
      {"sim.measure_s", "s"},
      {"sim.drain_s", "s"},
      {"sim.finish_us", "us"},
      {"sim.cycles", "count"},
      {"sim.flit_hops", "count"},
      {"sim.packets_delivered", "count"},
      {"sim.ns_per_cycle", "ns"},
      {"sim.ns_per_flit_hop", "ns"},
      {"trace.overhead_frac", "ratio"},
      {"topology.self_s", "s"},
      {"vlsel.self_s", "s"},
      {"routing.self_s", "s"},
      {"fault.self_s", "s"},
      {"traffic.self_s", "s"},
      {"sim.self_s", "s"},
      {"core.runner.self_s", "s"},
      {"core.reachability.self_s", "s"},
      {"service.request.self_s", "s"},
      {"service.artifact_cache.self_s", "s"},
      {"service.campaign.self_s", "s"},
  };
  return names;
}

namespace {
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return s;
}
}  // namespace

void report_layer_metrics(const Tracer& tracer, int workers, Report& report) {
  const auto d = [&](const char* layer, const char* call) {
    return tracer.durations(layer, call);
  };
  const auto us = [](double s) { return s * 1e6; };

  report.metric("topology.build_s", sum(d("topology", "build")), "s");
  report.metric("vlsel.vl_tables_s", sum(d("vlsel", "vl_tables")), "s");
  report.metric("routing.mtr_plan_s", sum(d("routing", "mtr_plan")), "s");
  const auto make = d("routing", "make_algorithm");
  report.metric("routing.make_algorithm_count",
                static_cast<double>(make.size()), "count");
  report.metric("routing.make_algorithm_us_p50", us(percentile(make, 0.5)),
                "us");
  report.metric("routing.make_algorithm_us_p99", us(percentile(make, 0.99)),
                "us");
  report.metric("fault.pattern_s", sum(d("fault", "pattern")), "s");
  const auto set_faults = d("fault", "set_faults");
  report.metric("fault.set_faults_count",
                static_cast<double>(set_faults.size()), "count");
  report.metric("fault.set_faults_us", us(median(set_faults)), "us");
  report.metric("core.reachability.build_s",
                sum(d("core.reachability", "build")), "s");
  report.metric("core.reachability.sweep_s",
                sum(d("core.reachability", "sweep")), "s");
  report.metric("traffic.make_us", us(median(d("traffic", "make"))), "us");
  report.metric("service.request.validate_us",
                us(median(d("service.request", "validate"))), "us");
  report.metric("sim.start_us", us(median(d("sim", "start"))), "us");
  report.metric("sim.warmup_s", sum(d("sim", "warmup")), "s");
  report.metric("sim.measure_s", sum(d("sim", "measure")), "s");
  report.metric("sim.drain_s", sum(d("sim", "drain")), "s");
  report.metric("sim.finish_us", us(median(d("sim", "finish"))), "us");
  const double cycles = tracer.counter("sim.cycles");
  const double hops = tracer.counter("sim.flit_hops");
  const double stepping_ns =
      1e9 * (sum(d("sim", "warmup")) + sum(d("sim", "measure")) +
             sum(d("sim", "drain")));
  report.metric("sim.cycles", cycles, "count");
  report.metric("sim.flit_hops", hops, "count");
  report.metric("sim.packets_delivered",
                tracer.counter("sim.packets_delivered"), "count");
  report.metric("sim.ns_per_cycle", cycles > 0 ? stepping_ns / cycles : 0.0,
                "ns");
  report.metric("sim.ns_per_flit_hop", hops > 0 ? stepping_ns / hops : 0.0,
                "ns");
  const double patterns = tracer.counter("core.reachability.patterns");
  report.metric("core.reachability.ns_per_pattern",
                patterns > 0
                    ? 1e9 * sum(d("core.reachability", "sweep")) / patterns
                    : 0.0,
                "ns");

  // Pool scheduling: point spans are the children of each fan-out span.
  const std::vector<SpanRecord> spans = tracer.spans();
  std::vector<double> points;
  double fan_out_s = 0.0;
  double tail_s = 0.0;
  for (std::size_t f = 0; f < spans.size(); ++f) {
    if (std::strcmp(spans[f].layer, "core.runner") != 0 ||
        std::strcmp(spans[f].call, "parallel_map") != 0) {
      continue;
    }
    fan_out_s += static_cast<double>(spans[f].end_ns - spans[f].start_ns) *
                 1e-9;
    // Sweep the point start/end events; time with fewer than `workers`
    // points running is tail time.
    std::vector<std::pair<std::int64_t, int>> events;
    for (const SpanRecord& s : spans) {
      if (s.parent == static_cast<int>(f) &&
          std::strcmp(s.call, "point") == 0) {
        points.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
        events.emplace_back(s.start_ns, +1);
        events.emplace_back(s.end_ns, -1);
      }
    }
    events.emplace_back(spans[f].end_ns, 0);
    std::sort(events.begin(), events.end());
    int running = 0;
    std::int64_t last = spans[f].start_ns;
    for (const auto& [t, delta] : events) {
      if (running < workers) {
        tail_s += static_cast<double>(t - last) * 1e-9;
      }
      running += delta;
      last = t;
    }
  }
  report.metric("core.runner.point_s_p50", percentile(points, 0.5), "s");
  report.metric("core.runner.point_s_p99", percentile(points, 0.99), "s");
  report.metric("core.runner.busy_frac",
                fan_out_s > 0.0 ? sum(points) / (fan_out_s * workers) : 0.0,
                "ratio");
  report.metric("core.runner.tail_s", tail_s, "s");

  const std::map<std::string, double> self = tracer.self_seconds();
  for (const char* layer :
       {"topology", "vlsel", "routing", "fault", "traffic", "sim",
        "core.runner", "core.reachability", "service.request",
        "service.artifact_cache", "service.campaign"}) {
    const auto it = self.find(layer);
    report.metric(std::string(layer) + ".self_s",
                  it == self.end() ? 0.0 : it->second, "s");
  }
}

}  // namespace perfbench
