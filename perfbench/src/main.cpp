// perfbench: the deployment benchmark's measuring program.
//
//   perfbench --workload <batch-week|live-ingest|serve-steady> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--fault reply|snapshot]
//             [--read-share F] [--work-dir DIR] [--report FILE] [--commit SHA]
//             [--source-digest HEX]
//
// --read-share sets the open-loop read rate as a share of the measured
// serving capacity (default 0.10); it exists for sensitivity sweeps, and
// run.py never passes it.
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics;
// --trace 1 runs the layer ledger (every workload re-composed from its
// public calls with spans, next to untraced runs of the same work) and
// reports the per-layer metrics, with the self-time shares and tracing
// overhead of the selected workload.  Either way the outputs are checked,
// the full report goes to --report as JSON, and the last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
// code is non-zero when any check failed.
#include <sys/stat.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"batch-week", "live-ingest", "serve-steady"};
const char* const kModules[] = {"sim", "flow", "pipeline", "analytics", "ingest", "serve"};

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << (std::isfinite(value) ? value : 0.0);
  return out.str();
}

std::string metric_map(const std::map<std::string, Metric>& metrics, bool notes) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += quote(name) + ": {\"value\": " + number(m.value) + ", \"unit\": " + quote(m.unit);
    if (notes && !m.note.empty()) out += ", \"note\": " + quote(m.note);
    out += "}";
  }
  return out + "}";
}

std::string trace_json(const LedgerPart& part) {
  const TraceSummary& t = part.summary;
  std::string out = "{\"root_ms\": " + number(t.root_ms) +
                    ", \"traced_ms\": " + number(part.traced_ms) +
                    ", \"untraced_ms\": " + number(part.untraced_ms) +
                    ", \"excluded_ms\": " + number(part.excluded_ms) +
                    ", \"overhead_share\": " + number(part.overhead_share()) +
                    ", \"self_total_ms\": " + number(t.self_total_ms) + ", \"layers\": {";
  bool first = true;
  for (const auto& [layer, e] : t.layers) {
    out += (first ? "" : ", ") + quote(layer) + ": {\"calls\": " + std::to_string(e.calls) +
           ", \"total_ms\": " + number(e.total_ms) + ", \"self_ms\": " + number(e.self_ms) +
           ", \"self_share\": " + number(t.self_share(layer)) + "}";
    first = false;
  }
  out += "}, \"calls\": {";
  first = true;
  for (const auto& [call, e] : t.calls) {
    out += (first ? "" : ", ") + quote(call) + ": {\"calls\": " + std::to_string(e.calls) +
           ", \"total_ms\": " + number(e.total_ms) + ", \"self_ms\": " + number(e.self_ms) + "}";
    first = false;
  }
  return out + "}}";
}

void print_ledger(const std::string& workload, const LedgerPart& part) {
  std::printf("  %s: traced %.4g ms (untraced %.4g ms, overhead %+.1f%%)\n", workload.c_str(),
              part.traced_ms, part.untraced_ms, 100.0 * part.overhead_share());
  for (const auto& [layer, e] : part.summary.layers) {
    std::printf("    %-10s self %10.2f ms  share %5.1f%%  (%llu spans)\n", layer.c_str(),
                e.self_ms, 100.0 * part.summary.self_share(layer),
                static_cast<unsigned long long>(e.calls));
  }
}

void run_ledger(const Options& options, Sheet& sheet, std::map<std::string, LedgerPart>& parts) {
  record_common_params(options, sheet);
  parts["batch-week"] = ledger_batch_week(options, sheet);
  parts["live-ingest"] = ledger_live_ingest(options, sheet);
  parts["serve-steady"] = ledger_serve_steady(options, sheet);
  const LedgerPart& selected = parts[options.workload];
  sheet.layers["trace.overhead_share"] = {selected.overhead_share(), "ratio",
                                          "traced / untraced wall - 1, " + options.workload};
  for (const char* module : kModules) {
    sheet.layers[std::string("self_share.") + module] = {
        selected.summary.self_share(module), "ratio", "share of all span self time"};
  }
  for (const auto& [workload, part] : parts) {
    sheet.counters["ledger." + workload + ".overhead_share"] = part.overhead_share();
  }
}

int usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.work_dir = ".bench_out/work";
  options.report_path = ".bench_out/report.json";
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
      trace_given = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--fault") {
      options.fault = value();
    } else if (arg == "--read-share") {
      options.read_share = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--report") {
      options.report_path = value();
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--source-digest") {
      options.source_digest = value();
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), options.workload) ==
      std::end(kWorkloads)) {
    return usage("--workload must be batch-week, live-ingest or serve-steady");
  }
  if (!trace_given || !(options.seconds > 0.0)) return usage("--trace and --seconds > 0 required");
  if (!(options.read_share > 0.0 && options.read_share <= 1.0)) {
    return usage("--read-share must be in (0, 1]");
  }
  if (!options.fault.empty() && options.fault != "reply" && options.fault != "snapshot") {
    return usage("--fault must be reply or snapshot");
  }
  std::signal(SIGPIPE, SIG_IGN);
  ::mkdir(options.work_dir.c_str(), 0700);

  Sheet sheet;
  std::map<std::string, LedgerPart> parts;
  try {
    if (options.trace) {
      run_ledger(options, sheet, parts);
    } else if (options.workload == "batch-week") {
      run_batch_week(options, sheet);
    } else if (options.workload == "live-ingest") {
      run_live_ingest(options, sheet);
    } else {
      run_serve_steady(options, sheet);
    }
  } catch (const std::exception& error) {
    sheet.check(false, std::string("aborted: ") + error.what());
  }
  sheet.attempted = std::max<std::uint64_t>(sheet.attempted, 1);
  const std::map<std::string, Metric>& reported = options.trace ? sheet.layers : sheet.headline;
  for (const auto& [name, m] : reported) {
    sheet.check(std::isfinite(m.value), "metric " + name + " is not a finite number");
  }
  const bool correct = sheet.failed == 0 && sheet.failures.empty();
  sheet.metrics["error_share"] = {static_cast<double>(sheet.failed) /
                                      static_cast<double>(sheet.attempted),
                                  "ratio", std::to_string(sheet.attempted) + " attempted"};

  // Human-readable summary.
  std::printf("== perfbench %s seed=%llu seconds=%g trace=%d%s ==\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " (smoke)" : "");
  for (const auto& [name, m] : sheet.metrics) {
    std::printf("  %-22s %14.4f %-9s %s\n", name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
  }
  for (const auto& [workload, part] : parts) print_ledger(workload, part);
  for (const auto& [name, m] : sheet.layers) {
    std::printf("  %-36s %16.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& failure : sheet.failures) std::printf("  FAILED: %s\n", failure.c_str());

  // Full report.
  {
    std::ofstream report(options.report_path);
    report << "{\"workload\": " << quote(options.workload) << ", \"seed\": " << options.seed
           << ", \"seconds\": " << number(options.seconds)
           << ", \"trace\": " << (options.trace ? 1 : 0) << ",\n \"meta\": ";
    mtscope::benchx::write_meta_json(report);
    report << ",\n \"params\": {";
    bool first = true;
    for (const auto& [key, value] : sheet.params) {
      report << (first ? "" : ", ") << quote(key) << ": " << quote(value);
      first = false;
    }
    report << "},\n \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << sheet.attempted << ", \"failed\": " << sheet.failed
           << ",\n \"failures\": [";
    first = true;
    for (const std::string& failure : sheet.failures) {
      report << (first ? "" : ", ") << quote(failure);
      first = false;
    }
    report << "],\n \"headline\": " << metric_map(sheet.headline, true)
           << ",\n \"metrics\": " << metric_map(sheet.metrics, true)
           << ",\n \"layers\": " << metric_map(sheet.layers, true) << ",\n \"counters\": {";
    first = true;
    for (const auto& [name, value] : sheet.counters) {
      report << (first ? "" : ", ") << quote(name) << ": " << number(value);
      first = false;
    }
    report << "},\n \"traces\": {";
    first = true;
    for (const auto& [workload, part] : parts) {
      report << (first ? "" : ",\n  ") << quote(workload) << ": " << trace_json(part);
      first = false;
    }
    report << "}}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(sheet.attempted),
              static_cast<unsigned long long>(sheet.failed), metric_map(reported, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
