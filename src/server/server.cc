#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "server/protocol.h"
#include "util/env.h"
#include "util/metrics.h"

namespace ariel::server {

namespace {

Status Errno(const char* what) {
  return Status::ExecutionError(std::string(what) + ": " + strerror(errno));
}

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions options;
  options.port = static_cast<uint16_t>(EnvSizeOr(
      "ARIEL_PORT", options.port, std::numeric_limits<uint16_t>::max()));
  options.max_connections =
      EnvSizeOr("ARIEL_SERVER_MAX_CONNECTIONS", options.max_connections);
  options.idle_timeout_ms = static_cast<int>(
      EnvSizeOr("ARIEL_SERVER_IDLE_TIMEOUT_MS",
                static_cast<size_t>(options.idle_timeout_ms),
                static_cast<size_t>(std::numeric_limits<int>::max())));
  options.max_frame_bytes =
      EnvSizeOr("ARIEL_SERVER_MAX_FRAME_BYTES", options.max_frame_bytes);
  const char* backend = std::getenv("ARIEL_EVENT_BACKEND");
  if (backend != nullptr) options.event_backend = backend;
  return options;
}

ArielServer::ArielServer(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

ArielServer::~ArielServer() {
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

const char* ArielServer::backend_name() const {
  return loop_ != nullptr ? loop_->name() : "unstarted";
}

Status ArielServer::Start() {
  ARIEL_ASSIGN_OR_RETURN(loop_, MakeEventLoop(options_.event_backend));

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (options_.host.empty() || options_.host == "*" ||
      options_.host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) !=
             1) {
    return Status::InvalidArgument("cannot parse listen host \"" +
                                   options_.host + "\" (want IPv4 dotted)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return Errno("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    return Errno("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);
  ARIEL_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) return Errno("pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  ARIEL_RETURN_NOT_OK(SetNonBlocking(wake_read_fd_));
  ARIEL_RETURN_NOT_OK(SetNonBlocking(wake_write_fd_));

  ARIEL_RETURN_NOT_OK(loop_->Add(listen_fd_, /*read=*/true, /*write=*/false));
  ARIEL_RETURN_NOT_OK(
      loop_->Add(wake_read_fd_, /*read=*/true, /*write=*/false));
  return Status::OK();
}

void ArielServer::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    // One byte to pop the loop out of Wait; if the pipe is full the loop is
    // already awake. write(2) is async-signal-safe.
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, "s", 1);
  }
}

Status ArielServer::Run() {
  if (loop_ == nullptr) {
    return Status::InvalidArgument("Run() before Start()");
  }
  std::vector<IoEvent> events;
  while (true) {
    if (!draining_ && shutdown_requested_.load(std::memory_order_acquire)) {
      // Graceful shutdown: stop accepting and treat every connection as
      // read-closed — whatever was already received still executes, the
      // replies flush, open transactions abort at teardown.
      draining_ = true;
      drain_deadline_ =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      if (listen_fd_ >= 0) {
        ARIEL_IGNORE_STATUS(loop_->Remove(listen_fd_));
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      for (auto& conn : connections_) {
        // Final read: requests the kernel already buffered count as
        // received and still execute; only bytes after this instant are
        // refused.
        ReadAndDecode(*conn);
        conn->read_closed = true;
      }
    }

    // Closing a connection can free the transaction gate and make other
    // sessions' deferred requests runnable, so keep pumping until quiescent
    // — Wait() would otherwise block on I/O that is never coming.
    bool work = true;
    while (work) {
      work = Pump();
      FlushAndUpdateInterest();
      work = CloseEligible() || work;
    }

    if (draining_ &&
        (connections_.empty() ||
         std::chrono::steady_clock::now() >= drain_deadline_)) {
      break;
    }

    ARIEL_RETURN_NOT_OK(loop_->Wait(ComputeTimeoutMs(), &events));
    for (const IoEvent& event : events) {
      if (event.fd == wake_read_fd_) {
        char sink[64];
        while (::read(wake_read_fd_, sink, sizeof sink) > 0) {
        }
        continue;
      }
      if (event.fd == listen_fd_) {
        if (event.readable) AcceptNew();
        continue;
      }
      for (auto& conn : connections_) {
        if (conn->fd() != event.fd) continue;
        if (event.readable || event.hangup) ReadAndDecode(*conn);
        // Writability is consumed by FlushAndUpdateInterest below; hangup
        // with nothing readable means the peer is gone.
        if (event.hangup && !event.readable) conn->read_closed = true;
        break;
      }
    }
  }
  // Teardown (forced after the grace period, or the drain completed):
  // session destructors abort any transaction still open.
  while (!connections_.empty()) CloseConnection(connections_.size() - 1);
  return Status::OK();
}

int ArielServer::ComputeTimeoutMs() const {
  if (draining_) return 50;
  if (options_.idle_timeout_ms > 0) {
    return std::min(options_.idle_timeout_ms, 200);
  }
  return -1;
}

void ArielServer::AcceptNew() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient error: the loop will retry
    }
    if (connections_.size() >= options_.max_connections) {
      Metrics().server_connections_rejected.Increment();
      const std::string reply = EncodeResponse(
          kRespError, "error: server at maximum connections (" +
                          std::to_string(options_.max_connections) + ")\n");
      // Best-effort courtesy reply on a fresh socket; the close is the
      // real answer. MSG_NOSIGNAL: the peer may already be gone.
      [[maybe_unused]] ssize_t n =
          ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    if (Status nb = SetNonBlocking(fd); !nb.ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>(
        fd, std::make_unique<Session>(db_, next_conn_id_++));
    if (Status added = loop_->Add(fd, /*read=*/true, /*write=*/false);
        !added.ok()) {
      continue;  // conn destructor closes the socket
    }
    connections_.push_back(std::move(conn));
    Metrics().server_connections_accepted.Increment();
    Metrics().server_active_connections.Set(
        static_cast<int64_t>(connections_.size()));
  }
}

void ArielServer::ReadAndDecode(Connection& conn) {
  if (conn.broken) return;
  if (Result<size_t> got = conn.ReadAvailable(); !got.ok()) {
    conn.broken = true;
    return;
  }
  while (conn.pending_error.empty() &&
         conn.requests.size() < options_.max_pipelined_requests) {
    std::string text;
    std::string error;
    DecodeStatus decoded =
        DecodeRequest(&conn.input, options_.max_frame_bytes, &text, &error);
    if (decoded == DecodeStatus::kNeedMore) break;
    if (decoded == DecodeStatus::kMalformed) {
      Metrics().server_frame_errors.Increment();
      conn.pending_error = "error: protocol: " + error + "\n";
      break;
    }
    conn.requests.push_back(std::move(text));
  }
}

Session* ArielServer::TransactionOwner() {
  for (auto& conn : connections_) {
    if (conn->session().owns_transaction()) return &conn->session();
  }
  return nullptr;
}

bool ArielServer::Pump() {
  bool any = false;
  bool progress = true;
  while (progress) {
    progress = false;
    Session* owner = TransactionOwner();
    for (auto& conn : connections_) {
      if (conn->broken) continue;
      if (conn->output.size() >= options_.max_output_buffer_bytes) {
        if (!conn->stalled) {
          conn->stalled = true;
          Metrics().server_backpressure_stalls.Increment();
        }
        continue;
      }
      conn->stalled = false;
      if (conn->requests.empty()) {
        if (!conn->pending_error.empty()) {
          // Every earlier reply is already in `output`, in order; emit the
          // framing error and stop reading this connection for good.
          conn->output += EncodeResponse(kRespError, conn->pending_error);
          conn->pending_error.clear();
          conn->read_closed = true;
          progress = true;
        }
        continue;
      }
      // While a session holds the explicit transaction, only it may reach
      // the engine; everyone else's pipeline stays queued (executing them
      // would silently enroll their commands in the owner's transaction,
      // and a read would observe its uncommitted writes).
      if (owner != nullptr && owner != &conn->session()) continue;
      std::string request = std::move(conn->requests.front());
      conn->requests.pop_front();
      Session::Reply reply = conn->session().HandleRequest(request);
      conn->output += EncodeResponse(reply.kind, reply.payload);
      conn->Touch();
      owner = TransactionOwner();
      progress = true;
    }
    any = any || progress;
  }
  return any;
}

void ArielServer::FlushAndUpdateInterest() {
  for (auto& conn : connections_) {
    if (conn->broken) continue;
    if (!conn->output.empty()) {
      if (Result<bool> drained = conn->FlushOutput(); !drained.ok()) {
        conn->broken = true;
        continue;
      }
    }
    const bool want_read =
        !conn->read_closed && !conn->stalled &&
        conn->requests.size() < options_.max_pipelined_requests &&
        conn->pending_error.empty();
    const bool want_write = !conn->output.empty();
    if (want_read != conn->loop_read || want_write != conn->loop_write) {
      if (loop_->Modify(conn->fd(), want_read, want_write).ok()) {
        conn->loop_read = want_read;
        conn->loop_write = want_write;
      }
    }
  }
}

bool ArielServer::CloseEligible() {
  bool closed_any = false;
  const auto now = std::chrono::steady_clock::now();
  for (size_t i = connections_.size(); i-- > 0;) {
    Connection& conn = *connections_[i];
    if (conn.broken) {
      CloseConnection(i);
      closed_any = true;
      continue;
    }
    if (conn.read_closed && conn.requests.empty() &&
        conn.pending_error.empty() && conn.output.empty()) {
      CloseConnection(i);
      closed_any = true;
      continue;
    }
    if (options_.idle_timeout_ms > 0 && !draining_ &&
        now - conn.last_activity() >
            std::chrono::milliseconds(options_.idle_timeout_ms)) {
      Metrics().server_idle_disconnects.Increment();
      conn.output +=
          EncodeResponse(kRespError, "error: idle timeout, disconnecting\n");
      ARIEL_IGNORE_STATUS(conn.FlushOutput().status());
      CloseConnection(i);
      closed_any = true;
    }
  }
  return closed_any;
}

void ArielServer::CloseConnection(size_t index) {
  Connection& conn = *connections_[index];
  ARIEL_IGNORE_STATUS(loop_->Remove(conn.fd()));
  // The Connection destructor tears down the Session first, aborting any
  // transaction the peer left open.
  connections_.erase(connections_.begin() +
                     static_cast<std::ptrdiff_t>(index));
  Metrics().server_connections_closed.Increment();
  Metrics().server_active_connections.Set(
      static_cast<int64_t>(connections_.size()));
}

}  // namespace ariel::server
