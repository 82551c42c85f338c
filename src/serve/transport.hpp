#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/session.hpp"

namespace bpm::serve {

struct TransportOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back from `port()`.
  std::uint16_t port = 0;
  /// Connections beyond this are refused with `error code=unavailable`.
  /// Each admitted connection runs on its own thread.
  std::size_t max_clients = 64;
  /// Ignored: every connection runs its commands on its own thread, so
  /// there is no shared executor pool to size.  Kept only for source
  /// compatibility with callers that still assign it.
  unsigned executors = 0;
  /// Auth token, per-client quota, and line budget for every connection.
  Session::Options session;
};

/// Lifetime counters of a transport (mirrors `ServiceStats` style).
struct TransportStats {
  std::uint64_t accepted = 0;  ///< connections admitted
  std::uint64_t refused = 0;   ///< connections over max_clients
  std::uint64_t closed = 0;    ///< connections torn down
  std::uint64_t lines = 0;     ///< protocol lines executed
  std::uint64_t errors = 0;    ///< `error ...` responses sent
  std::size_t open = 0;        ///< snapshot: currently connected
};

/// One connection's accounting, served under `stats` as a `client ...`
/// line and queryable in-process for benches/tests.
struct TransportClientStats {
  std::uint64_t id = 0;
  bool open = false;
  bool authed = false;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t quota_rejections = 0;
  std::uint64_t quota = 0;  ///< configured limit (0 = unlimited)
};

/// A line-protocol socket server multiplexing N concurrent clients onto
/// one `MatchingService`, one thread per connection.
///
/// An acceptor thread admits connections up to `max_clients` and starts
/// a thread for each.  That thread reads with blocking `recv`, splits
/// protocol lines (enforcing the per-connection line budget), executes
/// each through the connection's `Session`, and sends the response with
/// a blocking `send` before it reads the next line — so each client sees
/// strict FIFO request/response order, and one client's blocking `wait`
/// never delays another client.  Every response is produced by a
/// per-connection `Session`, so quotas, auth, and the never-crash
/// malformed-input guarantees are identical to the stdin driver.
///
/// A client's `shutdown` command drains the service, answers
/// `ok shutdown`, and unblocks `wait_shutdown()`; the owner then calls
/// `stop()`, which stops accepting, ends every connection after the
/// command it is running, and joins all threads.
///
/// ```
/// serve::SessionContext ctx(service);
/// serve::SocketTransport transport(ctx, {.port = 0, .max_clients = 16});
/// std::cout << "listening on " << transport.port() << "\n";
/// transport.wait_shutdown();   // until a client sends `shutdown`
/// transport.stop();
/// ```
class SocketTransport {
 public:
  /// Binds and starts serving immediately; throws `std::runtime_error`
  /// if the socket cannot be bound.
  explicit SocketTransport(SessionContext& context)
      : SocketTransport(context, TransportOptions()) {}
  SocketTransport(SessionContext& context, TransportOptions options);
  ~SocketTransport();

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks until a client issues `shutdown` or `stop()` is called.
  void wait_shutdown();
  [[nodiscard]] bool shutdown_requested() const;

  /// Stops accepting and ends every connection: reads are shut down at
  /// once, a connection still sending after a bounded grace has its
  /// socket shut down too, and a connection blocked in `wait` ends when
  /// its ticket completes.  Joins every thread.  Idempotent.
  void stop();

  [[nodiscard]] TransportStats stats() const;
  [[nodiscard]] std::vector<TransportClientStats> client_stats() const;

 private:
  struct Conn {
    int fd = -1;  ///< closed and reset by its own thread on exit
    std::uint64_t id = 0;
    std::unique_ptr<Session> session;
    std::thread thread;
    bool done = false;  ///< the thread has finished; join and erase it
  };

  void accept_loop();
  /// The connection thread: read, split, execute, send — until EOF,
  /// a session-ending line, a socket error, or `stop()`.
  void serve(Conn& conn);
  /// Executes one line and sends its response; false ends the connection.
  bool execute(Conn& conn, std::string_view line);
  /// Joins and erases finished connections.  Caller holds conns_mutex_.
  void reap();
  /// `client ...` lines + the final `transport ...` summary appended to
  /// every `stats` response served over this transport.
  [[nodiscard]] std::vector<std::string> stats_lines() const;

  SessionContext& context_;
  TransportOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  struct Metrics {
    obs::Counter* accepted = nullptr;
    obs::Counter* lines = nullptr;
    obs::Counter* errors = nullptr;
    obs::Gauge* open_connections = nullptr;
    obs::Histogram* line_ms = nullptr;
  };
  Metrics metrics_;

  mutable std::mutex conns_mutex_;
  std::condition_variable conns_cv_;  ///< signalled as connections end
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::size_t live_ = 0;  ///< connections whose thread is still running
  std::uint64_t next_conn_id_ = 1;
  TransportStats stats_;
  /// Accounting of already-closed connections folded into client_stats.
  std::vector<TransportClientStats> closed_clients_;

  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;
  /// Read lock-free by connection threads between lines; written under
  /// state_mutex_ so `wait_shutdown` sees it.
  std::atomic<bool> stopping_{false};
  bool shutdown_requested_ = false;
  bool stopped_ = false;

  std::thread accept_thread_;
};

/// Minimal blocking line-protocol client for benches and tests: connects
/// (with retry until `connect_timeout_ms`, so a just-forked server is not
/// a race), sends single lines, and reads newline-terminated responses
/// with a timeout.  Throws `std::runtime_error` on connect/send failure;
/// `recv_line` returns nullopt on EOF or timeout.
class LineClient {
 public:
  LineClient(const std::string& host, std::uint16_t port,
             int connect_timeout_ms = 5000);
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send_line(std::string_view line);
  /// Sends raw bytes without the newline (oversized-line tests).
  void send_raw(std::string_view bytes);
  [[nodiscard]] std::optional<std::string> recv_line(int timeout_ms = 30000);
  /// Reads lines until one starts with `prefix` (e.g. "transport " to
  /// consume a whole multi-line `stats` response); returns that line.
  [[nodiscard]] std::optional<std::string> recv_until(
      std::string_view prefix, int timeout_ms = 30000);
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace bpm::serve
