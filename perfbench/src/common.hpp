// Shared plumbing of the deployment benchmark: clocks, order statistics,
// the resident-memory sampler, loopback sockets, and the result sheet every
// workload fills in.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Seconds / milliseconds on the steady clock, from an arbitrary origin.
[[nodiscard]] double now_s();
[[nodiscard]] inline double now_ms() { return now_s() * 1e3; }
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process while sampling is on: VmRSS is read
/// every few milliseconds on a background thread, so memory freed by the
/// set-up phase does not count toward the workload.
class RssSampler {
 public:
  RssSampler() = default;
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  ~RssSampler() { stop(); }

  void start();
  /// Stops sampling; returns the peak in MiB.
  double stop();

 private:
  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> peak_kb_{0};
  std::thread thread_;
};

/// Current VmRSS in KiB (0 when /proc is unavailable).
[[nodiscard]] std::int64_t current_rss_kb();

/// Give freed heap back to the kernel, so the next RSS window starts from
/// live data only.
void release_free_heap();

/// CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Restricts the calling thread (and threads it creates from now on) to
/// `cpus`; the previous mask comes back on destruction.  An empty list, or
/// one naming CPUs outside the allowed set, changes nothing.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const std::vector<int>& cpus);
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;
  ~ScopedAffinity();

 private:
  std::vector<int> saved_;
};

/// Restricts an already running thread to `cpus` (no-op when empty).
void pin_thread(std::thread& thread, const std::vector<int>& cpus);

/// Loopback client socket with TCP_NODELAY; -1 on failure.
[[nodiscard]] int connect_loopback(std::uint16_t port);
[[nodiscard]] bool send_all(int fd, const std::string& data);
/// Reads exactly `size` bytes into `out` (cleared first).
[[nodiscard]] bool recv_exact(int fd, std::size_t size, std::string& out);

/// Cheap content fingerprint (FNV-1a 64) for determinism checks.
[[nodiscard]] std::uint64_t fingerprint(const void* data, std::size_t size);

/// The numbers one run produces.
///  * `headline`: the four end-to-end metrics BENCHMARK.json names, printed
///    in the last stdout line (untraced runs only).
///  * `metrics`: the workload-level end-to-end metrics of this workload by
///    their own names (flows_per_s, line_qps, binary_p99_us, ...).
///  * `layers`: the per-layer metrics of the traced run.
///  * `counters`: hardware-independent work counts read from public
///    accessors, plus every workload parameter.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count, percentile actually reported, ...
};

struct Sheet {
  std::map<std::string, Metric> headline;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::map<std::string, double> counters;
  std::map<std::string, std::string> params;
  std::vector<std::string> failures;  // human-readable, one per failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one checked operation; a false `ok` records `what` as failed.
  void check(bool ok, const std::string& what, std::uint64_t weight = 1);
};

}  // namespace perfbench
