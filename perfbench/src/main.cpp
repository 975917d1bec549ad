// perfbench: the repository benchmark program (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--trace-out PATH] [--expect-digest HEX]
//
// Prints one JSON result line last on stdout. With --trace 0 it holds the
// end-to-end metrics of the untraced run; with --trace 1 the per-layer
// metrics of a separate traced run. Exits non-zero when any correctness
// check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig7-reach|fig4-sweep|campaign-short --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--trace-out "
               "PATH] [--expect-digest HEX]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") {
          usage("--size takes full or tiny");
        }
        opt.size = value == "tiny" ? Size::tiny : Size::full;
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else if (flag == "--expect-digest") {
        opt.expect_digest = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) {
    usage("--seconds must be positive");
  }

  Report report;
  Tracer tracer(opt.trace);
  try {
    if (opt.workload == "fig7-reach") {
      run_fig7_reach(opt, report, tracer);
    } else if (opt.workload == "fig4-sweep") {
      run_fig4_sweep(opt, report, tracer);
    } else if (opt.workload == "campaign-short") {
      run_campaign_short(opt, report, tracer);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    report.op(false, std::string("workload threw: ") + e.what());
  }

  if (opt.trace) {
    // Every traced run reports the full per-layer set; a layer the
    // workload does not exercise reads 0.
    for (const auto& [name, unit] : layer_metric_names()) {
      if (!report.has(name)) {
        report.metric(name, 0.0, unit);
      }
    }
    tracer.write(opt.trace_out);
  }
  std::printf("%s\n", report.json().c_str());
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
