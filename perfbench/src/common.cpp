#include "common.hpp"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::int64_t current_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      std::int64_t kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

void RssSampler::start() {
  stop();
  peak_kb_.store(current_rss_kb());
  running_.store(true);
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_relaxed)) {
      const std::int64_t kb = current_rss_kb();
      std::int64_t seen = peak_kb_.load(std::memory_order_relaxed);
      while (kb > seen && !peak_kb_.compare_exchange_weak(seen, kb)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

double RssSampler::stop() {
  if (thread_.joinable()) {
    running_.store(false);
    thread_.join();
    const std::int64_t kb = current_rss_kb();
    if (kb > peak_kb_.load()) peak_kb_.store(kb);
  }
  return static_cast<double>(peak_kb_.load()) / 1024.0;
}

void release_free_heap() { ::malloc_trim(0); }

namespace {

bool set_mask(pthread_t thread, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return !cpus.empty() && ::pthread_setaffinity_np(thread, sizeof(set), &set) == 0;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

ScopedAffinity::ScopedAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpus.empty() || ::pthread_getaffinity_np(::pthread_self(), sizeof(set), &set) != 0) return;
  std::vector<int> previous;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) previous.push_back(cpu);
  }
  if (set_mask(::pthread_self(), cpus)) saved_ = std::move(previous);
}

ScopedAffinity::~ScopedAffinity() { set_mask(::pthread_self(), saved_); }

void pin_thread(std::thread& thread, const std::vector<int>& cpus) {
  set_mask(thread.native_handle(), cpus);
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  // A reply that never comes fails the read instead of hanging the run.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const auto n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_exact(int fd, std::size_t size, std::string& out) {
  out.resize(size);
  std::size_t got = 0;
  while (got < size) {
    const auto n = ::recv(fd, out.data() + got, size - got, 0);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t fingerprint(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

void Sheet::check(bool ok, const std::string& what, std::uint64_t weight) {
  attempted += weight;
  if (!ok) {
    failed += weight;
    failures.push_back(what);
  }
}

}  // namespace perfbench
