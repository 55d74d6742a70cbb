#include "server/session.h"

#include <utility>
#include <vector>

#include "server/protocol.h"
#include "util/metrics.h"

namespace ariel::server {

Session::Reply Session::HandleRequest(const std::string& text) {
  Result<std::vector<CommandResult>> results = [&] {
    ScopedTimer timer(Metrics().server_command_ns);
    return db_->ExecuteAll(text);
  }();
  // The engine has a single explicit-transaction slot and the server only
  // dispatches to this session when that slot is free or already ours, so
  // "open after the request" means ours.
  owns_txn_ = db_->txn().in_explicit();
  if (!results.ok()) {
    if (results.status().IsIncompleteInput()) {
      return Reply{kRespIncomplete, results.status().ToString() + "\n"};
    }
    return Reply{kRespError, "error: " + results.status().ToString() + "\n"};
  }
  commands_ += results->size();
  Metrics().server_commands.Increment(results->size());
  if (results->empty()) return Reply{kRespOk, "ok\n"};
  std::string payload;
  for (const CommandResult& result : *results) {
    payload += RenderCommandResult(result);
  }
  return Reply{kRespOk, std::move(payload)};
}

void Session::OnDisconnect() {
  if (!owns_txn_ || !db_->txn().in_explicit()) {
    owns_txn_ = false;
    return;
  }
  // The peer vanished mid-transaction: abort, never commit. Routed through
  // Execute so audit builds get their post-abort network cross-check.
  Metrics().server_txn_aborts_on_disconnect.Increment();
  Result<CommandResult> aborted = db_->Execute("abort");
  if (!aborted.ok()) {
    // Nobody is left to report to; the undo layer has already restored
    // what it could, and the auditor will flag residue at quiescence.
    (void)aborted.status();
  }
  owns_txn_ = false;
}

}  // namespace ariel::server
