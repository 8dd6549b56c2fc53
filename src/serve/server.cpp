#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/analytics_format.hpp"
#include "serve/wire.hpp"
#include "util/strings.hpp"

namespace mtscope::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The one server receiving process signals (install_signal_handlers).
std::atomic<QueryServer*> g_signal_server{nullptr};

extern "C" void mtscope_serve_signal_handler(int signum) {
  // Async-signal-safe: one atomic load plus the eventfd writes inside the
  // request_* methods.
  QueryServer* server = g_signal_server.load(std::memory_order_acquire);
  if (server == nullptr) return;
  if (signum == SIGHUP) {
    server->request_reload();
  } else {
    server->request_stop();
  }
}

util::Error socket_error(const char* what) {
  return util::make_error("serve.socket",
                          std::string(what) + ": " + std::strerror(errno));
}

/// How much of a garbage request line gets echoed back in the "invalid"
/// reply — enough to recognize, never enough to amplify.
constexpr std::size_t kInvalidEchoBytes = 64;

}  // namespace

std::string format_verdict(net::Ipv4Addr addr,
                           const std::optional<TelescopeIndex::Verdict>& verdict) {
  if (!verdict.has_value()) return addr.to_string() + " none";
  std::string out = addr.to_string();
  out += ' ';
  out += to_string(verdict->cls);
  out += ' ';
  out += verdict->prefix ? verdict->prefix->to_string() : "-";
  out += ' ';
  out += verdict->origin ? verdict->origin->to_string() : "-";
  return out;
}

void append_sanitized_echo(std::string& out, std::string_view token, std::size_t limit) {
  const std::size_t n = std::min(token.size(), limit);
  for (std::size_t i = 0; i < n; ++i) {
    const auto byte = static_cast<unsigned char>(token[i]);
    out += (byte >= 0x20 && byte <= 0x7e) ? token[i] : '.';
  }
}

/// Per-client state.  `out` is drained from `out_off` so flushing never
/// memmoves; the string is recycled once empty.  Fresh replies for a batch
/// are built in the reactor's scratch buffer and coalesced with the
/// leftover `out` bytes into one sendmsg — only what the kernel refuses
/// (or the fairness cap defers) is copied into `out`.
struct QueryServer::Connection {
  /// Decided by the first bytes: exactly the MTBIN preamble switches to
  /// fixed-width binary frames, anything else locks in the line protocol.
  /// Undecided only while the received bytes are a strict prefix of the
  /// preamble.
  enum class Proto : std::uint8_t { kUndecided, kLine, kBinary };

  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  Clock::time_point last_activity{};
  std::uint32_t interest = 0;
  Proto proto = Proto::kUndecided;
  bool paused = false;       // back-pressure: reply backlog over the cap
  bool read_closed = false;  // peer EOF (or drain): no further requests
  bool fatal = false;        // protocol violation: close once out drains

  [[nodiscard]] std::size_t pending() const noexcept { return out.size() - out_off; }
};

// ---------------------------------------------------------------------------
// Reactor: one event loop, one SO_REUSEPORT listener, one connection
// table.  Everything it mutates is thread-confined; it reaches into the
// parent only for the shared SnapshotManager, the config, and the relaxed
// monotonic counters.

class QueryServer::Reactor {
 public:
  Reactor(QueryServer& server, int index)
      : server_(server), index_(index) {
    if (server_.metrics_ != nullptr) {
      registry_ = std::make_unique<obs::MetricsRegistry>();
      queries_counter_ = &registry_->counter("serve.server.queries");
      invalid_counter_ = &registry_->counter("serve.server.invalid");
      connections_counter_ = &registry_->counter("serve.server.connections");
      drops_counter_ = &registry_->counter("serve.server.drops");
      timeouts_counter_ = &registry_->counter("serve.server.timeouts");
      partial_flush_counter_ = &registry_->counter("serve.server.partial_flushes");
      active_gauge_ = &registry_->gauge("serve.server.active");
      request_timer_ = &registry_->timer("serve.server.request_us");
    }
  }

  ~Reactor() {
    for (auto& [fd, conn] : conns_) {
      loop_.remove(fd);
      ::close(fd);
    }
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind + listen on `port` (0 = kernel-assigned, first reactor only)
  /// and create the wake eventfd.  With more than one reactor every
  /// listener sets SO_REUSEPORT so the kernel spreads accepts.
  [[nodiscard]] util::Result<std::uint16_t> open(std::uint16_t port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return socket_error("socket");
    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
    if (server_.config_.reactors > 1) {
      if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &enable, sizeof(enable)) != 0) {
        return socket_error("setsockopt(SO_REUSEPORT)");
      }
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return socket_error("bind");
    }
    if (::listen(listen_fd_, 128) != 0) return socket_error("listen");

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
      return socket_error("getsockname");
    }

    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return socket_error("eventfd");

    loop_.add(listen_fd_, EPOLLIN);
    loop_.add(wake_fd_, EPOLLIN);
    return ntohs(bound.sin_port);
  }

  /// Async-signal-safe: one write(2) on an fd that is set once in open()
  /// and never changes while the reactor may run.
  void wake() noexcept {
    const std::uint64_t one = 1;
    if (wake_fd_ >= 0) {
      [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
    }
  }

  void run() {
    std::vector<EventLoop::Event> events;
    while (true) {
      if (draining_) {
        if (conns_.empty()) break;
        if (Clock::now() >= drain_deadline_) {
          for (auto it = conns_.begin(); it != conns_.end();) {
            const int fd = it->first;
            ++it;
            close_connection(fd);
          }
          break;
        }
      }

      loop_.wait(events, next_timeout_ms());
      for (const auto& event : events) {
        if (event.fd == wake_fd_) {
          handle_wake();
        } else if (event.fd == listen_fd_) {
          accept_ready();
        } else {
          connection_ready(event.fd, event.events);
        }
      }
      // Signals may land without a consumable wake event (EINTR during
      // epoll_wait); the flags are the source of truth.
      if (server_.reload_requested_.load(std::memory_order_acquire) ||
          server_.stop_requested_.load(std::memory_order_acquire)) {
        handle_wake();
      }
      maybe_sweep();
      if (index_ == 0) server_.check_watch();
    }
  }

  [[nodiscard]] std::uint64_t accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const obs::MetricsRegistry* registry() const noexcept {
    return registry_.get();
  }

 private:
  /// The idle sweep runs on a coarse deadline — a quarter of the idle
  /// timeout — instead of recomputing every connection's deadline on
  /// every wakeup, which was O(conns) per event.  A connection is retired
  /// between idle_timeout and idle_timeout + cadence after its last
  /// progress, which the timeout contract allows (it promises "no sooner
  /// than", not "exactly at").
  [[nodiscard]] std::int64_t sweep_cadence_ms() const noexcept {
    return std::max<std::int64_t>(1, server_.config_.idle_timeout_ms / 4);
  }

  [[nodiscard]] int next_timeout_ms() const {
    const bool watching =
        index_ == 0 && server_.config_.watch_interval_ms > 0 && !draining_;
    if (conns_.empty() && !draining_ && !watching) return -1;
    const auto now = Clock::now();
    std::int64_t timeout_ms = 60'000;
    const auto until = [&](Clock::time_point deadline) {
      return std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
    };
    if (!conns_.empty()) timeout_ms = std::min(timeout_ms, until(next_sweep_));
    if (watching) timeout_ms = std::min(timeout_ms, until(server_.next_watch_));
    if (draining_) timeout_ms = std::min(timeout_ms, until(drain_deadline_));
    // +1 rounds the sub-millisecond remainder up so a deadline poll never
    // spins hot at timeout 0.
    return static_cast<int>(std::clamp<std::int64_t>(timeout_ms + 1, 1, 60'000));
  }

  void handle_wake() {
    std::uint64_t drained = 0;
    [[maybe_unused]] const auto n = ::read(wake_fd_, &drained, sizeof(drained));

    // Reactor 0 owns the reload: the SnapshotManager install is a single
    // epoch swap every reactor's next batch observes, so loading once is
    // both sufficient and what keeps the file read off the other loops.
    if (index_ == 0 &&
        server_.reload_requested_.exchange(false, std::memory_order_acq_rel)) {
      server_.do_reload();
    }
    if (server_.stop_requested_.load(std::memory_order_acquire) && !draining_) {
      begin_drain();
    }
  }

  void begin_drain() {
    draining_ = true;
    drain_deadline_ =
        Clock::now() + std::chrono::milliseconds(server_.config_.drain_timeout_ms);
    if (listen_fd_ >= 0) {
      loop_.remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Answer everything already received, then let flush_output /
    // update_interest retire each connection as its backlog empties.  A
    // connection whose backlog fits the socket buffer right now must be
    // closed here — with reads off and nothing pending its interest mask
    // is empty, so no event would ever fire to retire it.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& conn = *it->second;
      ++it;  // close_connection erases the entry
      conn.read_closed = true;
      batch_.clear();
      process_input(conn);
      if (!flush_output(conn, batch_) || conn.pending() == 0) {
        close_connection(conn.fd);
        continue;
      }
      update_interest(conn);
    }
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;  // transient accept failure (e.g. ECONNABORTED): keep serving
      }
      // max_conns caps the whole server; with several reactors accepting
      // concurrently the check is best-effort (a burst can overshoot by
      // at most reactors-1), which is the usual REUSEPORT trade.
      if (server_.active_.load(std::memory_order_relaxed) >=
          static_cast<std::uint64_t>(server_.config_.max_conns)) {
        ::close(fd);
        server_.drops_.fetch_add(1, std::memory_order_relaxed);
        if (drops_counter_ != nullptr) drops_counter_->add(1);
        continue;
      }
      const int enable = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->last_activity = Clock::now();
      conn->interest = EPOLLIN | EPOLLRDHUP;
      loop_.add(fd, conn->interest);
      if (conns_.empty()) next_sweep_ = Clock::now() + std::chrono::milliseconds(sweep_cadence_ms());
      conns_.emplace(fd, std::move(conn));
      server_.active_.fetch_add(1, std::memory_order_relaxed);

      accepted_.fetch_add(1, std::memory_order_relaxed);
      server_.connections_.fetch_add(1, std::memory_order_relaxed);
      if (connections_counter_ != nullptr) {
        connections_counter_->add(1);
        active_gauge_->set(static_cast<std::int64_t>(conns_.size()));
      }
    }
  }

  void connection_ready(int fd, std::uint32_t events) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;  // closed earlier in this dispatch batch
    Connection& conn = *it->second;

    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      close_connection(fd);
      return;
    }

    batch_.clear();
    if ((events & (EPOLLIN | EPOLLRDHUP)) != 0 && !conn.read_closed && !conn.fatal) {
      // One bounded chunk per event: level-triggered epoll re-arms while
      // input remains, so a pipelining client cannot balloon `in`/`out`
      // between back-pressure checks.
      char chunk[16 * 1024];
      std::size_t want = sizeof(chunk);
      if (conn.proto != Connection::Proto::kBinary && !conn.in.empty()) {
        // A partial line (or preamble prefix) is already buffered: cap the
        // read so `in` can never grow past max_request_bytes plus the one
        // byte that proves the violation — previously a client could park
        // max_request_bytes + 16KiB - 1 unanswered bytes here.  Binary
        // mode is exempt: frames are fixed-width, so the residual after
        // process_input is always shorter than one frame.
        const std::size_t cap = server_.config_.max_request_bytes + 1;
        want = std::min(want, cap > conn.in.size() ? cap - conn.in.size() : std::size_t{1});
      }
      const auto n = ::recv(fd, chunk, want, 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<std::size_t>(n));
        conn.last_activity = Clock::now();
        process_input(conn);
      } else if (n == 0) {
        // Peer finished sending (possibly via shutdown(SHUT_WR)); answer
        // what is buffered, flush, then close.
        conn.read_closed = true;
        process_input(conn);
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        close_connection(fd);
        return;
      }
    }

    if (!flush_output(conn, batch_)) {
      close_connection(fd);
      return;
    }
    if (conn.pending() > server_.config_.max_pending_bytes) conn.paused = true;
    if ((conn.read_closed || conn.fatal) && conn.pending() == 0) {
      close_connection(fd);
      return;
    }
    update_interest(conn);
  }

  /// Answer every complete request in `conn.in` — lines or MTBIN frames,
  /// per the negotiated protocol — appending the replies to the reactor's
  /// scratch batch buffer; the caller coalesces it into one sendmsg via
  /// flush_output(conn, batch_).
  void process_input(Connection& conn) {
    if (conn.proto == Connection::Proto::kUndecided && !negotiate(conn)) return;

    // One index grab per batch: the lock-free reader path.  Everything in
    // this batch is answered from one consistent epoch even if a reload
    // lands concurrently with the next batch.
    const std::shared_ptr<const TelescopeIndex> index = server_.manager_.current();
    if (conn.proto == Connection::Proto::kBinary) {
      process_binary(conn, *index);
      return;
    }

    std::size_t start = 0;
    for (;;) {
      const std::size_t newline = conn.in.find('\n', start);
      if (newline == std::string::npos) break;
      if (newline - start > server_.config_.max_request_bytes) {
        kill_overlong(conn, std::string_view(conn.in).substr(start, newline - start));
        return;
      }
      answer_line(std::string_view(conn.in).substr(start, newline - start), *index);
      start = newline + 1;
    }
    conn.in.erase(0, start);

    if (conn.in.size() > server_.config_.max_request_bytes) {
      kill_overlong(conn, conn.in);
    }
  }

  /// First bytes decide the protocol.  Exactly the MTBIN preamble flips
  /// the connection to binary frames; any divergence — which includes
  /// every line-protocol opener, since no dotted quad, comment or verb
  /// starts with "MTBIN/1\n" — locks in line mode with all bytes kept.
  /// A strict prefix of the preamble waits for more input, unless the
  /// peer already half-closed (then it is a line-mode leftover).
  /// Returns false while still undecided.
  bool negotiate(Connection& conn) {
    const std::size_t probe = std::min(conn.in.size(), wire::kPreamble.size());
    if (conn.in.compare(0, probe, wire::kPreamble.data(), probe) != 0) {
      conn.proto = Connection::Proto::kLine;
      return true;
    }
    if (probe == wire::kPreamble.size()) {
      conn.proto = Connection::Proto::kBinary;
      conn.in.erase(0, wire::kPreamble.size());
      return true;
    }
    if (conn.read_closed) {
      conn.proto = Connection::Proto::kLine;
      return true;
    }
    return false;
  }

  /// A request line past the cap — complete or still unterminated — is a
  /// protocol violation, not a slow write: one sanitized "invalid" reply,
  /// then hang up.  Per the counting contract it is a produced reply
  /// (queries) that was invalid (invalid) and killed the connection
  /// (drops).
  void kill_overlong(Connection& conn, std::string_view line) {
    append_sanitized_echo(batch_, line, kInvalidEchoBytes);
    batch_ += " invalid\n";
    conn.in.clear();
    conn.fatal = true;
    server_.queries_.fetch_add(1, std::memory_order_relaxed);
    server_.invalid_.fetch_add(1, std::memory_order_relaxed);
    server_.drops_.fetch_add(1, std::memory_order_relaxed);
    if (queries_counter_ != nullptr) queries_counter_->add(1);
    if (invalid_counter_ != nullptr) invalid_counter_->add(1);
    if (drops_counter_ != nullptr) drops_counter_->add(1);
  }

  /// Answer every complete fixed-width MTBIN frame.  A malformed frame
  /// gets one invalid-frame response and decoding resumes at the next
  /// 12-byte boundary — fixed widths mean a corrupt frame can never
  /// desync the stream, so the connection stays up.
  void process_binary(Connection& conn, const TelescopeIndex& index) {
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(conn.in.data()), conn.in.size());
    std::size_t consumed = 0;
    while (bytes.size() - consumed >= wire::kRequestSize) {
      answer_frame(bytes.subspan(consumed, wire::kRequestSize), index);
      consumed += wire::kRequestSize;
    }
    conn.in.erase(0, consumed);
  }

  void answer_frame(std::span<const std::uint8_t> frame, const TelescopeIndex& index) {
    const auto t0 = request_timer_ != nullptr ? Clock::now() : Clock::time_point{};
    const auto decoded = wire::decode_request(frame);
    if (!decoded.ok()) {
      wire::append_response(batch_, wire::invalid_response_for(frame, decoded.error()));
      server_.invalid_.fetch_add(1, std::memory_order_relaxed);
      if (invalid_counter_ != nullptr) invalid_counter_->add(1);
    } else if (decoded.value().verb == wire::Verb::kLookup) {
      const net::Ipv4Addr addr = decoded.value().addr;
      wire::append_response(batch_, wire::make_verdict_response(addr, index.lookup(addr)));
    } else {
      // count-in canonicalizes the base (host bits masked off) and echoes
      // the canonical form, mirroring what the index actually counted.
      const auto prefix =
          net::Prefix::canonical(decoded.value().addr, decoded.value().plen);
      wire::append_response(
          batch_, wire::make_count_response(prefix.base(), decoded.value().plen,
                                            index.count_in(prefix)));
    }
    server_.queries_.fetch_add(1, std::memory_order_relaxed);
    if (queries_counter_ != nullptr) queries_counter_->add(1);
    if (request_timer_ != nullptr) {
      request_timer_->record_us(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count()));
    }
  }

  void answer_line(std::string_view line, const TelescopeIndex& index) {
    const auto token = util::trim(line);  // strips CRLF and padding
    if (token.empty() || token.front() == '#') return;

    // Analytics verbs (top-ports / outages / scanners) share one
    // formatter with `mtscope analyze`, so the wire and the CLI can never
    // drift; everything else stays on the IPv4 fast path below.
    if (is_analytics_verb(token)) {
      const auto verb_t0 = request_timer_ != nullptr ? Clock::now() : Clock::time_point{};
      batch_ += answer_analytics_query(index, token);
      batch_ += '\n';
      server_.queries_.fetch_add(1, std::memory_order_relaxed);
      if (queries_counter_ != nullptr) queries_counter_->add(1);
      if (request_timer_ != nullptr) {
        request_timer_->record_us(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - verb_t0)
                .count()));
      }
      return;
    }

    const auto t0 = request_timer_ != nullptr ? Clock::now() : Clock::time_point{};
    const auto addr = net::Ipv4Addr::parse(token);
    if (!addr.has_value()) {
      append_sanitized_echo(batch_, token, kInvalidEchoBytes);
      batch_ += " invalid\n";
      server_.invalid_.fetch_add(1, std::memory_order_relaxed);
      if (invalid_counter_ != nullptr) invalid_counter_->add(1);
    } else {
      batch_ += format_verdict(*addr, index.lookup(*addr));
      batch_ += '\n';
    }
    server_.queries_.fetch_add(1, std::memory_order_relaxed);
    if (queries_counter_ != nullptr) queries_counter_->add(1);
    if (request_timer_ != nullptr) {
      request_timer_->record_us(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count()));
    }
  }

  /// Flush the leftover per-connection buffer plus this event's fresh
  /// batch as one vectored send.  At most max_flush_bytes_per_event bytes
  /// leave per call — past the cap the remainder stays queued and
  /// EPOLLOUT re-arms, so a huge backlog on one connection yields the
  /// reactor to every other ready connection (the fairness contract).
  /// Returns false when the peer is gone (EPIPE / ECONNRESET).
  bool flush_output(Connection& conn, std::string_view batch = {}) {
    std::size_t budget = server_.config_.max_flush_bytes_per_event;
    std::size_t batch_off = 0;
    bool peer_gone = false;
    while (budget > 0 && (conn.pending() > 0 || batch.size() > batch_off)) {
      iovec iov[2];
      int iov_count = 0;
      std::size_t want = 0;
      if (conn.pending() > 0) {
        const std::size_t len = std::min(conn.pending(), budget);
        iov[iov_count++] = {const_cast<char*>(conn.out.data()) + conn.out_off, len};
        want += len;
      }
      if (want < budget && batch.size() > batch_off) {
        const std::size_t len = std::min(batch.size() - batch_off, budget - want);
        iov[iov_count++] = {const_cast<char*>(batch.data()) + batch_off, len};
        want += len;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iov_count);
      const auto n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
      if (n > 0) {
        std::size_t sent = static_cast<std::size_t>(n);
        budget -= std::min(budget, sent);
        const std::size_t from_out = std::min(sent, conn.pending());
        conn.out_off += from_out;
        batch_off += sent - from_out;
        conn.last_activity = Clock::now();
        continue;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) peer_gone = true;
      break;
    }
    if (conn.pending() == 0 && conn.out_off > 0) {
      conn.out.clear();
      conn.out_off = 0;
    }
    // What the kernel refused (or the cap deferred) queues for EPOLLOUT.
    if (batch_off < batch.size()) conn.out.append(batch, batch_off, std::string::npos);
    if (peer_gone) return false;
    if (budget == 0 && conn.pending() > 0) {
      server_.partial_flushes_.fetch_add(1, std::memory_order_relaxed);
      if (partial_flush_counter_ != nullptr) partial_flush_counter_->add(1);
    }
    if (conn.paused && conn.pending() < server_.config_.max_pending_bytes / 2) {
      conn.paused = false;  // back-pressure released
    }
    return true;
  }

  void update_interest(Connection& conn) {
    std::uint32_t wanted = 0;
    if (!conn.paused && !conn.read_closed && !conn.fatal) wanted |= EPOLLIN | EPOLLRDHUP;
    if (conn.pending() > 0) wanted |= EPOLLOUT;
    if (wanted != conn.interest) {
      loop_.modify(conn.fd, wanted);
      conn.interest = wanted;
    }
  }

  void close_connection(int fd) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    loop_.remove(fd);
    ::close(fd);
    conns_.erase(it);
    server_.active_.fetch_sub(1, std::memory_order_relaxed);
    if (active_gauge_ != nullptr) {
      active_gauge_->set(static_cast<std::int64_t>(conns_.size()));
    }
  }

  void maybe_sweep() {
    if (conns_.empty()) return;
    const auto now = Clock::now();
    if (now < next_sweep_) return;
    next_sweep_ = now + std::chrono::milliseconds(sweep_cadence_ms());
    const auto limit = std::chrono::milliseconds(server_.config_.idle_timeout_ms);
    std::vector<int> expired;
    for (const auto& [fd, conn] : conns_) {
      if (now - conn->last_activity > limit) expired.push_back(fd);
    }
    for (const int fd : expired) {
      // Covers the back-pressured slow reader: paused connections make no
      // read progress and a full socket buffer blocks write progress, so
      // their last_activity freezes until this sweep retires them.
      server_.timeouts_.fetch_add(1, std::memory_order_relaxed);
      if (timeouts_counter_ != nullptr) timeouts_counter_->add(1);
      close_connection(fd);
    }
  }

  QueryServer& server_;
  const int index_;
  EventLoop loop_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  bool draining_ = false;
  Clock::time_point drain_deadline_{};
  Clock::time_point next_sweep_{};
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::string batch_;  // scratch reply buffer, one event's verdicts
  std::atomic<std::uint64_t> accepted_{0};

  // Private registry + resolved handles (map nodes are stable); all null
  // without a parent registry so the hot path stays free of lookups.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* queries_counter_ = nullptr;
  obs::Counter* invalid_counter_ = nullptr;
  obs::Counter* connections_counter_ = nullptr;
  obs::Counter* drops_counter_ = nullptr;
  obs::Counter* timeouts_counter_ = nullptr;
  obs::Counter* partial_flush_counter_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::TimingHistogram* request_timer_ = nullptr;
};

// ---------------------------------------------------------------------------
// QueryServer: lifecycle, reactor fan-out, and the shared reload path.

QueryServer::QueryServer(ServerConfig config, obs::MetricsRegistry* metrics)
    : config_(std::move(config)), metrics_(metrics) {
  if (config_.reactors < 1) config_.reactors = 1;
}

QueryServer::~QueryServer() {
  QueryServer* expected = this;
  g_signal_server.compare_exchange_strong(expected, nullptr);
  reactors_.clear();
}

util::Result<bool> QueryServer::start() {
  const auto installed = manager_.load_and_install(config_.snapshot_path, metrics_);
  if (!installed.ok()) return installed.error();

  reactors_.reserve(static_cast<std::size_t>(config_.reactors));
  for (int i = 0; i < config_.reactors; ++i) {
    auto reactor = std::make_unique<Reactor>(*this, i);
    // Reactor 0 resolves port 0 to the kernel's pick; the rest bind the
    // same port through SO_REUSEPORT so accepts spread across loops.
    const auto opened = reactor->open(i == 0 ? config_.port : bound_port_);
    if (!opened.ok()) return opened.error();
    if (i == 0) bound_port_ = opened.value();
    reactors_.push_back(std::move(reactor));
  }

  if (config_.watch_interval_ms > 0) {
    // Record the identity of the file just loaded so the first poll only
    // fires once a publisher actually replaces it.
    watch_sig_valid_ = stat_snapshot(watch_sig_);
    next_watch_ = Clock::now() + std::chrono::milliseconds(config_.watch_interval_ms);
  }
  started_ = true;
  return true;
}

void QueryServer::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  for (const auto& reactor : reactors_) reactor->wake();
}

void QueryServer::request_reload() noexcept {
  reload_requested_.store(true, std::memory_order_release);
  if (!reactors_.empty()) reactors_.front()->wake();
}

void QueryServer::install_signal_handlers() {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction action{};
  action.sa_handler = mtscope_serve_signal_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: epoll_wait returns EINTR and re-checks flags
  ::sigaction(SIGHUP, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

ServerStats QueryServer::stats() const noexcept {
  ServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.active = active_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.drops = drops_.load(std::memory_order_relaxed);
  s.partial_flushes = partial_flushes_.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::uint64_t> QueryServer::reactor_connections() const {
  std::vector<std::uint64_t> out;
  out.reserve(reactors_.size());
  for (const auto& reactor : reactors_) out.push_back(reactor->accepted());
  return out;
}

int QueryServer::run() {
  if (!started_) return 1;
  std::vector<std::thread> threads;
  threads.reserve(reactors_.size() - 1);
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    threads.emplace_back([reactor = reactors_[i].get()] { reactor->run(); });
  }
  reactors_.front()->run();
  for (auto& thread : threads) thread.join();

  // Deterministic metrics handoff: fold every reactor's private registry
  // into the attached one in reactor-index order (counters add, gauges
  // max, timers pool) — totals are then independent of scheduling.
  if (metrics_ != nullptr) {
    for (const auto& reactor : reactors_) metrics_->merge(*reactor->registry());
  }
  return 0;
}

void QueryServer::do_reload() {
  const auto installed = manager_.load_and_install(config_.snapshot_path, metrics_);
  if (installed.ok()) {
    reloads_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->counter("serve.server.reloads").add(1);
  } else {
    // The previous epoch keeps serving; operators see the failure in the
    // stats and the unchanged serve.snapshot.epoch gauge.
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->counter("serve.server.reload_failures").add(1);
  }
  // Either way the watcher's reference point is what is on disk now: a
  // failed load must not be re-attempted every poll tick, only once the
  // publisher replaces the file again.
  if (config_.watch_interval_ms > 0) watch_sig_valid_ = stat_snapshot(watch_sig_);
}

bool QueryServer::stat_snapshot(FileSig& out) const noexcept {
  struct ::stat st{};
  if (::stat(config_.snapshot_path.c_str(), &st) != 0) return false;
  out.dev = static_cast<std::uint64_t>(st.st_dev);
  out.ino = static_cast<std::uint64_t>(st.st_ino);
  out.size = static_cast<std::int64_t>(st.st_size);
  out.mtime_s = static_cast<std::int64_t>(st.st_mtim.tv_sec);
  out.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_nsec);
  return true;
}

void QueryServer::check_watch() {
  if (config_.watch_interval_ms <= 0) return;
  if (stop_requested_.load(std::memory_order_acquire)) return;
  const auto now = Clock::now();
  if (now < next_watch_) return;
  next_watch_ = now + std::chrono::milliseconds(config_.watch_interval_ms);
  FileSig sig;
  if (!stat_snapshot(sig)) return;  // transient (publisher mid-swap?); next tick retries
  if (watch_sig_valid_ && sig == watch_sig_) return;
  do_reload();
}

}  // namespace mtscope::serve
