#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_serial{1};

/// The calling thread's buffer for the tracer with a given serial.  Keyed
/// by serial rather than address, so a later tracer allocated at a freed
/// tracer's address never inherits a dangling buffer.
struct ThreadCache {
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache cache;

}  // namespace

Tracer::Tracer() : serial_(next_serial.fetch_add(1)) {}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (cache.serial == serial_) return *static_cast<ThreadBuffer*>(cache.buffer);
  const std::lock_guard<std::mutex> lock(mutex_);
  auto fresh = std::make_unique<ThreadBuffer>();
  fresh->thread = buffers_.size();
  fresh->spans.reserve(1 << 12);
  buffers_.push_back(std::move(fresh));
  cache = {serial_, buffers_.back().get()};
  return *buffers_.back();
}

std::uint64_t Tracer::open(std::string_view layer, std::string_view name) {
  ThreadBuffer& buf = buffer();
  Span span;
  span.layer = layer;
  span.name = name;
  span.id = (buf.thread << 32) | buf.spans.size();
  span.parent = buf.open.empty() ? buf.adopted : buf.spans[buf.open.back()].id;
  buf.open.push_back(buf.spans.size());
  span.start_ns = now_ns();
  buf.spans.push_back(span);
  return span.id;
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t end = now_ns();
  ThreadBuffer& buf = buffer();
  const std::size_t index = static_cast<std::size_t>(id & 0xffffffffu);
  buf.spans[index].end_ns = end;
  // Spans close innermost-first (Scope is RAII), so this pops `index`.
  while (!buf.open.empty()) {
    const std::size_t top = buf.open.back();
    buf.open.pop_back();
    if (top == index) break;
  }
}

void Tracer::adopt(std::uint64_t parent) { buffer().adopted = parent; }

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buf : buffers_) out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  return out;
}

double TraceSummary::total_ms(const std::string& call) const {
  const auto it = calls.find(call);
  return it == calls.end() ? 0.0 : it->second.total_ms;
}

std::uint64_t TraceSummary::count(const std::string& call) const {
  const auto it = calls.find(call);
  return it == calls.end() ? 0 : it->second.calls;
}

double TraceSummary::self_share(const std::string& layer) const {
  const auto it = layers.find(layer);
  return it == layers.end() || self_total_ms <= 0.0 ? 0.0 : it->second.self_ms / self_total_ms;
}

TraceSummary summarize(const std::vector<Tracer::Span>& spans, std::uint64_t root) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Keep only the root's subtree: walk each span's parent chain.
  std::vector<int> in_tree(spans.size(), -1);  // -1 unknown, 0 no, 1 yes
  const auto resolve = [&](std::size_t i) {
    std::vector<std::size_t> chain;
    std::size_t at = i;
    int verdict = 0;
    while (true) {
      if (in_tree[at] != -1) {
        verdict = in_tree[at];
        break;
      }
      chain.push_back(at);
      if (spans[at].id == root) {
        verdict = 1;
        break;
      }
      const auto parent = index.find(spans[at].parent);
      if (parent == index.end()) break;
      at = parent->second;
    }
    for (const std::size_t c : chain) in_tree[c] = verdict;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) resolve(i);

  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (in_tree[i] != 1 || spans[i].id == root) continue;
    const auto parent = index.find(spans[i].parent);
    if (parent != index.end()) children[parent->second].push_back(i);
  }

  TraceSummary summary;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (in_tree[i] != 1) continue;
    const Tracer::Span& span = spans[i];
    const std::int64_t start = span.start_ns;
    const std::int64_t end = std::max(span.end_ns, span.start_ns);
    // Union of the children's intervals, clipped to this span.  Children
    // on worker threads may overlap each other.
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t s = std::max(start, spans[c].start_ns);
      const std::int64_t e = std::min(end, spans[c].end_ns);
      if (e > s) cover.emplace_back(s, e);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = start;
    for (const auto& [s, e] : cover) {
      const std::int64_t from = std::max(s, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    const double total_ms = static_cast<double>(end - start) / 1e6;
    const double self_ms = static_cast<double>(end - start - covered) / 1e6;
    const std::string layer(span.layer);
    auto& call = summary.calls[layer + "/" + std::string(span.name)];
    call.calls += 1;
    call.total_ms += total_ms;
    call.self_ms += self_ms;
    auto& per_layer = summary.layers[layer];
    per_layer.calls += 1;
    per_layer.total_ms += total_ms;
    per_layer.self_ms += self_ms;
    summary.self_total_ms += self_ms;
    if (span.id == root) summary.root_ms = total_ms;
  }
  return summary;
}

}  // namespace perfbench
