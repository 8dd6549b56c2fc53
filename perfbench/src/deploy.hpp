// The deployment path as the benchmark drives it: run options, the
// simulated universe for a seed, and the one-shot batch build
// (ParallelCollector → spoof tolerance → parallel funnel → snapshot +
// analytics → MTSNAP bytes) shared by batch-week, serve-steady's set-up and
// live-ingest's batch reference.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/parallel.hpp"
#include "routing/special_purpose.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

/// The open-loop read rate of a workload, as a share of the serving
/// reactor's measured capacity.  No public source gives deployment query
/// rates for a telescope map, so the rate is tied to the server itself: one
/// connection with one request outstanding (closed loop, depth 1) measures
/// what a single client can get from the reactor, and the reader offers
/// `kReadShare` of that.  The reactor then runs at the same light load on
/// any host and after any change to the serve plane's speed.
inline constexpr double kReadShare = 0.10;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       // seconds-long self-test sizes
  std::string fault;        // "", "reply" or "snapshot": deliberate corruption
  double read_share = kReadShare;  // open-loop rate / capacity (sensitivity sweeps)
  std::string work_dir;     // scratch files (FIFO, snapshots), inside the checkout
  std::string report_path;  // the full JSON report
  std::string commit;
  std::string source_digest;
};

/// Load-generating threads + connections may not exceed this (nproc).
[[nodiscard]] unsigned load_budget();

struct ReadRate {
  double capacity_qps = 0.0;  // closed-loop depth-1 replies/s, one connection
  std::uint64_t rate_qps = 0;  // share x capacity, at least 100
};

/// Measures the capacity on `port` with 1 thread and 1 connection (400 ms)
/// and returns the rate for `share`; typed error when the probe fails.
[[nodiscard]] mtscope::util::Result<ReadRate> measure_read_rate(
    std::uint16_t port, mtscope::serve::WireProtocol proto, double share, std::uint64_t seed);

/// Worker threads for collect/funnel: 4, clamped to the host's cores.
[[nodiscard]] unsigned pipeline_threads();
inline constexpr unsigned kShards = 16;

/// One CPU of the allowed set for role `slot` when the host has at least
/// four (so a server reactor, its clients and the load generator never
/// trade places between runs); empty — no pinning — otherwise.
[[nodiscard]] std::vector<int> cpu_for(int slot);

/// Every workload watches one simulated Internet, as a deployment does;
/// --seed picks which week of its traffic a run sees.  A universe per seed
/// would vary the measured structure itself: across seeds the same
/// workload's per-flow cost swung by up to 1.8x, far above any bound.
inline constexpr std::uint64_t kUniverseSeed = 42;

/// First day of the week the run's seed selects: 7 * (seed % 52), a Monday.
[[nodiscard]] int first_day(const Options& options);

/// The full-scale universe (14 IXPs), or the tiny one in smoke runs.
[[nodiscard]] mtscope::sim::SimConfig universe(const Options& options);

/// Every workload parameter recorded in the report.
void record_common_params(const Options& options, Sheet& sheet);

/// Work counts of one collect, read from public accessors.
struct StoreCounts {
  std::uint64_t flows = 0;
  std::uint64_t rows = 0;
  std::uint64_t memory_bytes = 0;
  double load_factor = 0.0;
  std::uint64_t arena_spills = 0;
  std::uint64_t arena_allocated = 0;
  std::uint64_t arena_wasted = 0;
  std::uint64_t analytics_cells = 0;

  void read(const mtscope::pipeline::VantageStats& stats);
  void record(Sheet& sheet, const std::string& prefix) const;
};

/// One batch build and what it produced.
struct BuildResult {
  mtscope::serve::TelescopeSnapshot snapshot;
  std::vector<std::uint8_t> bytes;
  std::uint64_t tolerance = 0;
  StoreCounts store;
  mtscope::pipeline::CollectProfile profile;
  double wall_ms = 0.0;  // collect through serialize
  // wall_ms by stage: collect; tolerance + funnel + snapshot; analytics;
  // serialize.  Four clock reads, so the build stays untraced.
  std::array<double, 4> stage_ms{};
};

using MetaFn = std::function<mtscope::serve::RunMetadata(
    const mtscope::pipeline::VantageStats& stats, std::uint64_t tolerance)>;

/// collect → tolerance → funnel → snapshot + analytics → serialize, through
/// the production calls only.
[[nodiscard]] BuildResult build_map(const mtscope::sim::Simulation& simulation,
                                    std::span<const std::size_t> ixps,
                                    std::span<const int> days, unsigned threads,
                                    const MetaFn& meta);

/// Provenance stamped by batch-week and serve-steady builds.
[[nodiscard]] MetaFn bench_meta(unsigned threads, std::uint32_t days, const char* source);

/// Funnel arithmetic a published snapshot must satisfy: each step keeps a
/// subset of the previous one, and the three classes partition the last.
[[nodiscard]] bool funnel_consistent(const mtscope::serve::TelescopeSnapshot& snapshot);

/// Flip one byte in the middle of `bytes` (deliberate-corruption self-test).
void corrupt(std::vector<std::uint8_t>& bytes);

/// A QueryServer with its reactors running on a background thread.
class RunningServer {
 public:
  RunningServer() = default;
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  ~RunningServer() { stop(); }

  /// Load the snapshot, bind, and run the reactors; typed error on failure.
  [[nodiscard]] mtscope::util::Result<bool> start(const mtscope::serve::ServerConfig& config,
                                                  mtscope::obs::MetricsRegistry* metrics,
                                                  const std::vector<int>& reactor_cpus);
  /// Graceful drain and join; idempotent.  The server's registry (if any)
  /// is complete once this returns.
  void stop();

  [[nodiscard]] mtscope::serve::QueryServer& server() { return *server_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<mtscope::serve::QueryServer> server_;
  std::thread thread_;
};

}  // namespace perfbench
