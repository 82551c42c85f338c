#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace bpm::serve {

namespace {

/// How long `stop()` lets connections finish sending before it shuts
/// their sockets down entirely, so a client that never reads cannot
/// hold a connection thread in `send` forever.
constexpr auto kStopGrace = std::chrono::milliseconds(500);

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("transport: " + what + ": " +
                           std::strerror(errno));
}

/// Sends all of `bytes`; false once the peer or `stop()` ends the socket.
bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

SocketTransport::SocketTransport(SessionContext& context,
                                 TransportOptions options)
    : context_(context), options_(std::move(options)) {
  obs::Registry& reg = obs::Registry::global();
  metrics_.accepted = &reg.counter("serve.transport.accepted");
  metrics_.lines = &reg.counter("serve.transport.lines");
  metrics_.errors = &reg.counter("serve.transport.errors");
  metrics_.open_connections = &reg.gauge("serve.transport.open_connections");
  // 5 us … ~42 s: a cached request's line takes tens of microseconds.
  metrics_.line_ms = &reg.histogram(
      "serve.transport.line_ms",
      obs::Histogram::exponential_bounds(0.005, 2.0, 24));

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("transport: bad bind address '" +
                             options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    const int error = errno;
    ::close(listen_fd_);
    errno = error;
    throw_errno("bind/listen on " + options_.host + ":" +
                std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

SocketTransport::~SocketTransport() { stop(); }

void SocketTransport::wait_shutdown() {
  std::unique_lock lock(state_mutex_);
  state_cv_.wait(lock, [&] { return shutdown_requested_ || stopping_; });
}

bool SocketTransport::shutdown_requested() const {
  const std::lock_guard lock(state_mutex_);
  return shutdown_requested_;
}

void SocketTransport::stop() {
  {
    std::unique_lock lock(state_mutex_);
    if (stopping_) {
      // A concurrent or repeated stop: wait for the first one to finish.
      state_cv_.wait(lock, [&] { return stopped_; });
      return;
    }
    stopping_ = true;
    state_cv_.notify_all();
  }
  // Shutting the listener down wakes the acceptor's blocking accept.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  {
    std::unique_lock lock(conns_mutex_);
    // Every blocking recv returns at once; a connection running a command
    // finishes it and sends the response first.
    for (const auto& [id, c] : conns_)
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    const auto all_ended = [&] { return live_ == 0; };
    if (!conns_cv_.wait_for(lock, kStopGrace, all_ended))
      for (const auto& [id, c] : conns_)
        if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
    // A connection blocked in `wait` ends once its ticket completes.
    conns_cv_.wait(lock, all_ended);
    reap();
  }
  {
    const std::lock_guard lock(state_mutex_);
    stopped_ = true;
    state_cv_.notify_all();
  }
}

void SocketTransport::reap() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (!it->second->done) {
      ++it;
      continue;
    }
    it->second->thread.join();  // already past its last locked step
    it = conns_.erase(it);
  }
}

TransportStats SocketTransport::stats() const {
  const std::lock_guard lock(conns_mutex_);
  TransportStats s = stats_;
  s.open = live_;
  for (const auto& [id, c] : conns_)
    if (!c->done) s.errors += c->session->errors();
  for (const TransportClientStats& c : closed_clients_) s.errors += c.errors;
  return s;
}

std::vector<TransportClientStats> SocketTransport::client_stats() const {
  const std::lock_guard lock(conns_mutex_);
  std::vector<TransportClientStats> out = closed_clients_;
  for (const auto& [id, c] : conns_)
    if (!c->done)
      out.push_back({.id = c->id,
                     .open = true,
                     .authed = c->session->authed(),
                     .requests = c->session->requests(),
                     .errors = c->session->errors(),
                     .quota_rejections = c->session->quota_rejections(),
                     .quota = options_.session.quota});
  return out;
}

std::vector<std::string> SocketTransport::stats_lines() const {
  std::vector<std::string> out;
  const std::vector<TransportClientStats> clients = client_stats();
  for (const TransportClientStats& c : clients) {
    std::ostringstream os;
    os << "client id=" << c.id << " open=" << (c.open ? 1 : 0)
       << " authed=" << (c.authed ? 1 : 0) << " requests=" << c.requests
       << " quota=" << c.quota << " errors=" << c.errors
       << " quota_rejected=" << c.quota_rejections;
    out.push_back(os.str());
  }
  const TransportStats s = stats();
  std::ostringstream os;
  // Deliberately the LAST line of a transport `stats` response: clients
  // reading a multi-line stats reply consume until this prefix.
  os << "transport open=" << s.open << " accepted=" << s.accepted
     << " refused=" << s.refused << " closed=" << s.closed
     << " lines=" << s.lines << " errors=" << s.errors;
  out.push_back(os.str());
  return out;
}

void SocketTransport::accept_loop() {
  while (!stopping_) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      // Out of descriptors or memory: give open connections time to end.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;  // also EINTR, ECONNABORTED, and stop()'s shutdown
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const std::lock_guard lock(conns_mutex_);
    reap();  // finished connections never count against the cap
    if (stopping_) {
      ::close(fd);
      break;
    }
    if (live_ < options_.max_clients) {
      auto owned = std::make_unique<Conn>();
      Conn& conn = *owned;
      conn.fd = fd;
      conn.id = next_conn_id_;
      conn.session = std::make_unique<Session>(context_, options_.session);
      try {
        conn.thread = std::thread([this, &conn] { serve(conn); });
      } catch (const std::system_error&) {
        owned.reset();  // no thread to serve it: refuse like a full server
      }
      if (owned) {
        conns_.emplace(next_conn_id_++, std::move(owned));
        ++live_;
        ++stats_.accepted;
        metrics_.accepted->inc();
        metrics_.open_connections->set(static_cast<double>(live_));
        continue;
      }
    }
    const std::string refusal =
        proto::error_line({proto::ErrorCode::kUnavailable,
                           "server full (" +
                               std::to_string(options_.max_clients) +
                               " clients)"}) +
        "\n";
    [[maybe_unused]] const ssize_t n = ::send(
        fd, refusal.data(), refusal.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    ::close(fd);
    ++stats_.refused;
  }
}

void SocketTransport::serve(Conn& conn) {
  const std::size_t budget = options_.session.limits.max_line_bytes;
  std::string in;
  std::size_t start = 0;  // first byte of `in` not yet split off
  char chunk[16384];
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (const std::size_t nl = in.find('\n', start); nl != std::string::npos) {
      std::string_view line(in.data() + start, nl - start);
      if (line.ends_with('\r')) line.remove_suffix(1);
      start = nl + 1;
      if (!execute(conn, line)) break;
      continue;
    }
    in.erase(0, start);
    start = 0;
    if (in.size() > budget) {
      // An unterminated line past the budget: the stream's framing is
      // gone — answer once, drop the blob, end the connection.
      (void)send_all(conn.fd,
                     proto::error_line(
                         {proto::ErrorCode::kLineTooLong,
                          "unterminated line past the " +
                              std::to_string(budget) + "-byte budget"}) +
                         "\n");
      metrics_.errors->inc();
      const std::lock_guard lock(conns_mutex_);
      ++stats_.errors;
      break;
    }
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0)
      in.append(chunk, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR)
      break;  // EOF, a socket error, or stop() shut reads down
  }

  const std::lock_guard lock(conns_mutex_);
  closed_clients_.push_back(
      {.id = conn.id,
       .open = false,
       .authed = conn.session->authed(),
       .requests = conn.session->requests(),
       .errors = conn.session->errors(),
       .quota_rejections = conn.session->quota_rejections(),
       .quota = options_.session.quota});
  ::close(conn.fd);
  conn.fd = -1;
  conn.done = true;
  --live_;
  ++stats_.closed;
  metrics_.open_connections->set(static_cast<double>(live_));
  conns_cv_.notify_all();
}

bool SocketTransport::execute(Conn& conn, std::string_view line) {
  const auto decoded = std::chrono::steady_clock::now();
  const Session::Outcome outcome = conn.session->execute(line);
  std::string response;
  std::uint64_t errors = 0;
  for (const std::string& l : outcome.lines) {
    if (l.starts_with("error ")) ++errors;
    response += l;
    response += '\n';
  }
  if (outcome.stats)
    for (const std::string& l : stats_lines()) {
      response += l;
      response += '\n';
    }
  {
    const std::lock_guard lock(conns_mutex_);
    ++stats_.lines;
  }
  metrics_.lines->inc();
  if (errors > 0) metrics_.errors->add(errors);
  const bool sent = send_all(conn.fd, response);
  metrics_.line_ms->observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - decoded)
          .count());
  if (outcome.shutdown) {
    const std::lock_guard lock(state_mutex_);
    shutdown_requested_ = true;
    state_cv_.notify_all();
  }
  return sent && !outcome.close;
}

// --- LineClient --------------------------------------------------------------

LineClient::LineClient(const std::string& host, std::uint16_t port,
                       int connect_timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(connect_timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("line client: bad address '" + host + "'");
  for (;;) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return;
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    if (std::chrono::steady_clock::now() >= deadline)
      throw std::runtime_error("line client: cannot connect to " + host +
                               ":" + std::to_string(port));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

LineClient::~LineClient() { close(); }

void LineClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void LineClient::send_raw(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("line client: send failed: " +
                               std::string(std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
}

void LineClient::send_line(std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  send_raw(framed);
}

std::optional<std::string> LineClient::recv_line(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return std::nullopt;
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left));
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return std::nullopt;  // timeout
    }
    char buf[8192];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;  // EOF or error
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> LineClient::recv_until(std::string_view prefix,
                                                  int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return std::nullopt;
    std::optional<std::string> line = recv_line(static_cast<int>(left));
    if (!line) return std::nullopt;
    if (line->starts_with(prefix)) return line;
  }
}

}  // namespace bpm::serve
