// In-memory span recorder for the traced run.
//
// A span is one call into a module's public function, recorded by the
// benchmark around that call: layer (module name), call name, start, end,
// and the span that caused it.  Each thread appends to its own buffer, so
// recording takes no lock after a thread's first span; nothing is written
// out until the run ends.  A worker thread adopts the span that spawned it
// as the parent of its top-level spans, so self time can be computed
// across threads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  struct Span {
    std::string_view layer;  // module: sim, flow, pipeline, analytics, ingest, serve
    std::string_view name;   // the public call
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = kNone;
    std::uint64_t parent = kNone;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread.  `layer` and `name` must be
  /// string literals (they are stored as views).
  std::uint64_t open(std::string_view layer, std::string_view name);
  void close(std::uint64_t id);

  /// Top-level spans the calling thread opens from now on are children of
  /// `parent` (a span opened on another thread).
  void adopt(std::uint64_t parent);

  /// Every recorded span (closed or not), grouped by thread.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<std::size_t> open;  // indices into spans, innermost last
    std::uint64_t adopted = kNone;
    std::uint64_t thread = 0;
  };
  ThreadBuffer& buffer();

  const std::uint64_t serial_;
  mutable std::mutex mutex_;  // guards buffers_ (registration and readout)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view layer, std::string_view name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(layer, name) : Tracer::kNone) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { end(); }

  void end() {
    if (tracer_ != nullptr) tracer_->close(id_);
    tracer_ = nullptr;
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

/// Per-call and per-layer totals of one traced composition.  Self time is
/// a span's duration minus the part of its interval its children cover.
struct TraceSummary {
  struct Entry {
    std::uint64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Entry> calls;   // "layer/name"
  std::map<std::string, Entry> layers;  // "layer"
  double root_ms = 0.0;                 // wall time of the root span
  double self_total_ms = 0.0;           // sum of every span's self time

  /// Summed duration of every span called `layer/name`, in ms.
  [[nodiscard]] double total_ms(const std::string& call) const;
  [[nodiscard]] std::uint64_t count(const std::string& call) const;
  /// A layer's share of all self time (0 when the layer never ran).
  [[nodiscard]] double self_share(const std::string& layer) const;
};

/// Summarize the spans under `root` (inclusive).
[[nodiscard]] TraceSummary summarize(const std::vector<Tracer::Span>& spans, std::uint64_t root);

}  // namespace perfbench
