#ifndef ARIEL_SERVER_CONNECTION_H_
#define ARIEL_SERVER_CONNECTION_H_

#include <chrono>
#include <deque>
#include <memory>
#include <string>

#include "server/session.h"
#include "util/status.h"

namespace ariel::server {

/// Marks an fd non-blocking (used for accepted sockets and the listener).
[[nodiscard]] Status SetNonBlocking(int fd);

/// Per-connection state machine owned by the server's event loop: raw-byte
/// buffers on both sides, the decoded-but-unexecuted request queue
/// (pipelining), and the session that executes them.
///
/// Backpressure (ISSUE 7 tentpole): `output` is bounded by the server's
/// max_output_buffer_bytes. While the peer is slower than the engine the
/// buffer fills; past the cap the server parks the connection — no further
/// requests are executed and the socket's read interest is dropped — until
/// a flush drains it below the cap. Pipelined requests already decoded stay
/// queued, so responses are never reordered or lost.
class Connection {
 public:
  Connection(int fd, std::unique_ptr<Session> session)
      : fd_(fd),
        session_(std::move(session)),
        last_activity_(std::chrono::steady_clock::now()) {}
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Drains the socket into `input`. Sets read_closed on EOF and returns
  /// the byte count read; a hard socket error returns ExecutionError.
  [[nodiscard]] Result<size_t> ReadAvailable();

  /// Writes as much of `output` as the socket accepts; returns true when
  /// the buffer fully drained. A hard socket error returns ExecutionError
  /// (EPIPE/ECONNRESET: the peer is gone).
  [[nodiscard]] Result<bool> FlushOutput();

  int fd() const { return fd_; }
  Session& session() { return *session_; }

  void Touch() { last_activity_ = std::chrono::steady_clock::now(); }
  std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }

  std::string input;                 // raw bytes, not yet framed
  std::deque<std::string> requests;  // decoded, not yet executed
  std::string output;                // encoded replies, not yet flushed

  /// EOF seen: execute what was pipelined, flush, then close.
  bool read_closed = false;
  /// Fatal framing or socket error: flush the error reply if possible and
  /// close; pending requests are dropped.
  bool broken = false;
  /// In backpressure stall (output over the cap); tracked so the stall
  /// metric counts episodes, not polls.
  bool stalled = false;
  /// Rendered framing-error reply, emitted after the replies to every
  /// request decoded before the framing broke, then the connection closes.
  std::string pending_error;
  /// Interest bits currently registered with the event loop (owned by the
  /// server; cached to skip redundant Modify calls).
  bool loop_read = true;
  bool loop_write = false;

 private:
  int fd_;
  std::unique_ptr<Session> session_;
  std::chrono::steady_clock::time_point last_activity_;
};

}  // namespace ariel::server

#endif  // ARIEL_SERVER_CONNECTION_H_
