// Lifecycle tests for the resolution service: concurrent tenants must get
// byte-identical results to in-process sessions, eviction + restore must be
// invisible mid-stream, and hostile bytes on the wire must never crash the
// daemon.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "checkpoint_canon.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "scratch_dir.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/script.h"
#include "server/server.h"
#include "server/session_manager.h"
#include "server/wire.h"
#include "util/serde.h"

namespace minoan {
namespace server {
namespace {

std::string SyntheticSource(uint64_t seed, uint32_t entities = 120,
                            uint32_t kbs = 3, uint32_t center = 1) {
  return "synthetic:" + std::to_string(seed) + ":" + std::to_string(entities) +
         ":" + std::to_string(kbs) + ":" + std::to_string(center);
}

/// The in-process ground truth: one ResolutionSession over the same corpus
/// and options a served batch session uses, run to completion.
std::vector<MatchEvent> InProcessMatches(const std::string& source,
                                         double threshold) {
  auto collection = LoadCorpus(source);
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  WorkflowOptions options;
  options.progressive.matcher.threshold = threshold;
  auto session = ResolutionSession::Open(*collection, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  session->Step(0);
  return session->Report().progressive.run.matches;
}

void ExpectSameMatches(const std::vector<MatchEvent>& got,
                       const std::vector<MatchEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << "match " << i;
    EXPECT_EQ(got[i].b, want[i].b) << "match " << i;
    EXPECT_EQ(got[i].comparisons_done, want[i].comparisons_done)
        << "match " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "match " << i;
  }
}

/// Drives one tenant end to end over its own connection: create, step in
/// uneven installments until finished, return the full match log.
std::vector<MatchEvent> DriveTenant(uint16_t port, const std::string& tenant,
                                    const std::string& source,
                                    double threshold) {
  auto client = Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  auto session = (*client)->CreateSession(tenant, SessionKind::kBatch, source,
                                          threshold);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  // Deliberately uneven budgets: slicing must be invisible in the results.
  const uint64_t budgets[] = {37, 500, 111, 0};
  for (const uint64_t budget : budgets) {
    auto step = (*client)->Step(*session, budget);
    EXPECT_TRUE(step.ok()) << step.status().ToString();
    if (step.ok() && step->finished) break;
  }
  auto matches = (*client)->Matches(*session);
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  EXPECT_TRUE((*client)->Close(*session).ok());
  return matches.ok() ? *matches : std::vector<MatchEvent>{};
}

void RunConcurrentTenants(uint32_t num_threads) {
  const std::string source_a = SyntheticSource(11);
  const std::string source_b = SyntheticSource(29, 90, 4, 2);
  const std::vector<MatchEvent> want_a = InProcessMatches(source_a, 0.35);
  const std::vector<MatchEvent> want_b = InProcessMatches(source_b, 0.30);
  ASSERT_FALSE(want_a.empty());
  ASSERT_FALSE(want_b.empty());

  ServerOptions options;
  const testutil::ScratchDir state_dir("server-tenants");
  options.state_dir = state_dir.str();
  options.num_threads = num_threads;
  options.installment = 64;  // force many fair-share admissions per step
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::vector<MatchEvent> got_a;
  std::vector<MatchEvent> got_b;
  std::thread tenant_a([&] {
    got_a = DriveTenant((*server)->port(), "alice", source_a, 0.35);
  });
  std::thread tenant_b([&] {
    got_b = DriveTenant((*server)->port(), "bob", source_b, 0.30);
  });
  tenant_a.join();
  tenant_b.join();
  (*server)->Shutdown();

  ExpectSameMatches(got_a, want_a);
  ExpectSameMatches(got_b, want_b);
}

TEST(ServerTest, ConcurrentTenantsMatchInProcessSingleThread) {
  RunConcurrentTenants(1);
}

TEST(ServerTest, ConcurrentTenantsMatchInProcessFourThreads) {
  RunConcurrentTenants(4);
}

TEST(ServerTest, EvictRestoreMidStreamIsInvisible) {
  // Big enough that a 50-comparison first step cannot finish the run.
  const std::string source = SyntheticSource(7, 400);
  const std::vector<MatchEvent> want = InProcessMatches(source, 0.35);
  ASSERT_FALSE(want.empty());

  ServerOptions options;
  const testutil::ScratchDir state_dir("server-evict");
  options.state_dir = state_dir.str();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto session =
      (*client)->CreateSession("carol", SessionKind::kBatch, source, 0.35);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto first = (*client)->Step(*session, 50);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->finished);

  // Forcibly evict between two steps of one stream; the next request must
  // restore from the checkpoint transparently.
  ASSERT_TRUE((*server)->sessions().Evict(*session).ok());
  EXPECT_EQ((*server)->sessions().live_sessions(), 0u);

  auto second = (*client)->Step(*session, 0);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->finished);
  EXPECT_EQ((*server)->sessions().live_sessions(), 1u);

  auto matches = (*client)->Matches(*session);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  ExpectSameMatches(*matches, want);
  (*server)->Shutdown();
}

TEST(ServerTest, OnlineEvictRestoreMatchesUninterruptedRun) {
  // Two servers, same request sequence; one is force-evicted mid-stream.
  // Every reply after the eviction must be identical.
  const std::string doc =
      "<http://a.org/e1> <http://xmlns.com/foaf/0.1/name> \"Ada "
      "Lovelace\" .\n"
      "<http://a.org/e1> <http://a.org/city> \"London\" .\n"
      "<http://b.org/e1> <http://xmlns.com/foaf/0.1/name> \"Ada "
      "Lovelace\" .\n"
      "<http://b.org/e1> <http://b.org/town> \"London\" .\n"
      "<http://b.org/e2> <http://xmlns.com/foaf/0.1/name> \"Alan "
      "Turing\" .\n";

  struct Run {
    std::unique_ptr<testutil::ScratchDir> state_dir;  // outlives the server
    std::unique_ptr<Server> server;
    std::unique_ptr<Client> client;
    uint64_t session = 0;
  };
  auto start = [&](const char* tag) {
    Run run;
    run.state_dir =
        std::make_unique<testutil::ScratchDir>(std::string("server-") + tag);
    ServerOptions options;
    options.state_dir = run.state_dir->str();
    auto server = Server::Start(options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    run.server = std::move(server).value();
    auto client = Client::Connect("127.0.0.1", run.server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    run.client = std::move(client).value();
    auto session =
        run.client->CreateSession("dave", SessionKind::kOnline, "", 0.2);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    run.session = *session;
    return run;
  };

  Run plain = start("online-plain");
  Run evicted = start("online-evict");
  std::vector<EntityId> plain_ids;
  for (Run* run : {&plain, &evicted}) {
    auto ids = run->client->Ingest(run->session, "cloud", doc);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    if (run == &plain) {
      plain_ids = *ids;
    } else {
      EXPECT_EQ(*ids, plain_ids);
    }
    auto step = run->client->ResolveBudget(run->session, 2);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
  }

  ASSERT_TRUE(evicted.server->sessions().Evict(evicted.session).ok());

  for (Run* run : {&plain, &evicted}) {
    auto step = run->client->ResolveBudget(run->session, 0);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
  }
  ASSERT_FALSE(plain_ids.empty());
  auto plain_hits = plain.client->Query(plain.session, plain_ids[0], 4);
  auto evicted_hits = evicted.client->Query(evicted.session, plain_ids[0], 4);
  ASSERT_TRUE(plain_hits.ok()) << plain_hits.status().ToString();
  ASSERT_TRUE(evicted_hits.ok()) << evicted_hits.status().ToString();
  ASSERT_EQ(plain_hits->size(), evicted_hits->size());
  for (size_t i = 0; i < plain_hits->size(); ++i) {
    EXPECT_EQ((*plain_hits)[i].id, (*evicted_hits)[i].id);
    EXPECT_EQ((*plain_hits)[i].similarity, (*evicted_hits)[i].similarity);
    EXPECT_EQ((*plain_hits)[i].matched, (*evicted_hits)[i].matched);
  }
  auto plain_matches = plain.client->Matches(plain.session);
  auto evicted_matches = evicted.client->Matches(evicted.session);
  ASSERT_TRUE(plain_matches.ok());
  ASSERT_TRUE(evicted_matches.ok());
  ExpectSameMatches(*evicted_matches, *plain_matches);
  plain.server->Shutdown();
  evicted.server->Shutdown();
}

TEST(ServerTest, LruCapEvictsAndRestoresTransparently) {
  ServerOptions options;
  const testutil::ScratchDir state_dir("server-cap");
  options.state_dir = state_dir.str();
  options.max_sessions = 1;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::string source = SyntheticSource(3);
  auto first =
      (*client)->CreateSession("erin", SessionKind::kBatch, source, 0.35);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second =
      (*client)->CreateSession("erin", SessionKind::kBatch, source, 0.35);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Cap 1: creating the second session evicted the first...
  EXPECT_EQ((*server)->sessions().live_sessions(), 1u);
  EXPECT_EQ((*server)->sessions().num_sessions(), 2u);
  // ...but both still answer (the first restores on touch, evicting the
  // other right back).
  for (const uint64_t id : {*first, *second}) {
    auto step = (*client)->Step(id, 0);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    EXPECT_TRUE(step->finished);
  }
  (*server)->Shutdown();
}

/// Raw socket for hostile-bytes tests — the typed Client refuses to send
/// malformed frames, so speak TCP directly.
class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;  // server already dropped us — fine
      sent += static_cast<size_t>(n);
    }
  }

  /// Signals end-of-requests, then reads until the server closes its end;
  /// returns everything received. (Without the write-side shutdown the
  /// server would rightly keep a healthy connection open forever.)
  std::string DrainToEof() {
    ::shutdown(fd_, SHUT_WR);
    std::string all;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return all;
      all.append(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

std::string FrameBytes(uint16_t id, const std::string& body) {
  std::ostringstream out;
  serde::WriteU32(out, static_cast<uint32_t>(3 + body.size()));
  serde::WriteU8(out, kProtocolVersion);
  serde::WriteU16(out, id);
  out << body;
  return out.str();
}

TEST(ServerTest, MalformedFramesAreRejectedWithoutCrashing) {
  ServerOptions options;
  const testutil::ScratchDir state_dir("server-fuzz");
  options.state_dir = state_dir.str();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  const auto expect_still_alive = [&] {
    auto probe = Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_TRUE((*probe)->Ping().ok());
  };

  {  // Oversized length prefix: must be refused, not allocated.
    RawConnection conn(port);
    ASSERT_TRUE(conn.connected());
    std::ostringstream out;
    serde::WriteU32(out, kMaxFrameBytes + 1);
    conn.Send(out.str());
    conn.DrainToEof();
    expect_still_alive();
  }
  {  // Length prefix too small to hold version + id.
    RawConnection conn(port);
    std::ostringstream out;
    serde::WriteU32(out, 2);
    out << "xx";
    conn.Send(out.str());
    conn.DrainToEof();
    expect_still_alive();
  }
  {  // Truncated frame: prefix promises more bytes than ever arrive.
    RawConnection conn(port);
    std::ostringstream out;
    serde::WriteU32(out, 100);
    out << "short";
    conn.Send(out.str());
    // Close without sending the rest (the destructor closes).
  }
  expect_still_alive();
  {  // Wrong protocol version.
    RawConnection conn(port);
    std::ostringstream out;
    serde::WriteU32(out, 3);
    serde::WriteU8(out, 99);
    serde::WriteU16(out, 11);  // Ping
    conn.Send(out.str());
    conn.DrainToEof();
    expect_still_alive();
  }
  {  // Unknown message id: an error reply, and the connection survives.
    RawConnection conn(port);
    conn.Send(FrameBytes(0x7777, ""));
    conn.Send(FrameBytes(static_cast<uint16_t>(MessageId::kPing), ""));
    const std::string replies = conn.DrainToEof();
    EXPECT_GE(replies.size(), 8u);  // two framed replies came back
  }
  {  // Well-framed requests with truncated bodies, for every message id.
    for (uint16_t id = 0; id <= 12; ++id) {
      RawConnection conn(port);
      conn.Send(FrameBytes(id, "\x01"));
      conn.DrainToEof();
    }
    expect_still_alive();
  }
  {  // Deterministic garbage: random bytes must never take the daemon down.
    std::mt19937 rng(20260807);
    for (int round = 0; round < 64; ++round) {
      RawConnection conn(port);
      std::string junk(1 + rng() % 96, '\0');
      for (char& c : junk) c = static_cast<char>(rng());
      conn.Send(junk);
    }
    expect_still_alive();
  }
  (*server)->Shutdown();
}

TEST(ServerTest, SyntheticSourceFieldsAreRangeChecked) {
  // Entities, KBs and center KBs are u32: a larger value is rejected, not
  // wrapped (4294967301 would otherwise build a 5-entity cloud).
  for (const char* source :
       {"synthetic:1:4294967301:6:2", "synthetic:1:600:4294967296:2",
        "synthetic:18446744073709551616:600:6:2", "synthetic:1:-5:6:2",
        "synthetic:1:600:6:2x", "synthetic:1:600:6"}) {
    const auto collection = LoadCorpus(source);
    ASSERT_FALSE(collection.ok()) << source;
    EXPECT_EQ(collection.status().code(), StatusCode::kInvalidArgument)
        << source;
  }
  EXPECT_TRUE(LoadCorpus("synthetic:18446744073709551615:40:2:1").ok());
}

/// How many descriptors this process has open (the listing's own
/// descriptor included, so two counts compare like for like).
size_t OpenFdCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(ServerTest, ShutdownLeavesRecycledDescriptorsAlone) {
  ServerOptions options;
  const testutil::ScratchDir state_dir("server-fds");
  options.state_dir = state_dir.str();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const size_t baseline = OpenFdCount();
  {
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->Ping().ok());
  }
  // Wait until the server closed its side too: both numbers are free.
  for (int i = 0; i < 500 && OpenFdCount() > baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(OpenFdCount(), baseline);
  // The lowest free numbers: the pair reuses the two just freed, one of
  // which the server's connection handler had.
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  (*server)->Shutdown();
  for (const auto& [from, to] : {std::pair{0, 1}, std::pair{1, 0}}) {
    char byte = 'x';
    EXPECT_EQ(::send(pair[from], &byte, 1, MSG_NOSIGNAL), 1);
    byte = 0;
    EXPECT_EQ(::recv(pair[to], &byte, 1, MSG_DONTWAIT), 1);
    EXPECT_EQ(byte, 'x');
  }
  ::close(pair[0]);
  ::close(pair[1]);
}

/// Live threads of this process (entries of /proc/self/task).
size_t ThreadCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// This process's address-space size in KiB (VmSize of /proc/self/status).
size_t VirtualKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

TEST(ServerTest, FinishedConnectionHandlersAreJoined) {
  // Each connection gets a handler thread that ends with it; the accept
  // loop joins the finished ones before it adds the next handler. An ended
  // thread leaves /proc/self/task at once, but until it is joined its stack
  // stays mapped, so the address space shows unjoined handlers: 64 of them
  // would keep 64 stacks (8 MiB each by default).
  ServerOptions options;
  const testutil::ScratchDir state_dir("server-churn");
  options.state_dir = state_dir.str();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const size_t threads_before = ThreadCount();
  const size_t vm_before = VirtualKib();
  for (int i = 0; i < 64; ++i) {
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->Ping().ok()) << "connection " << i;
  }
  // The last handlers see their client's close asynchronously.
  for (int i = 0; i < 500 && ThreadCount() > threads_before + 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(ThreadCount(), threads_before + 2);
  EXPECT_LT(VirtualKib(), vm_before + 256 * 1024);
}

TEST(ServerTest, ServerSideErrorsLeaveTheConnectionUsable) {
  ServerOptions options;
  const testutil::ScratchDir state_dir("server-errors");
  options.state_dir = state_dir.str();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Unknown session.
  EXPECT_FALSE((*client)->Step(999, 10).ok());
  // Bad corpus source.
  EXPECT_FALSE((*client)
                   ->CreateSession("t", SessionKind::kBatch, "nope:", 0.35)
                   .ok());
  // Kind mismatch: batch session asked for an online request.
  auto session = (*client)->CreateSession("t", SessionKind::kBatch,
                                          SyntheticSource(5), 0.35);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_FALSE((*client)->ResolveBudget(*session, 10).ok());
  EXPECT_FALSE((*client)->Query(*session, 0, 3).ok());
  // The connection is still fine after all of the above.
  auto step = (*client)->Step(*session, 0);
  EXPECT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_TRUE((*client)->Ping().ok());
  (*server)->Shutdown();
}

// ---------------------------------------------------------------------------
// The script interpreter (`minoan connect`)
// ---------------------------------------------------------------------------

/// Runs `script` against a fresh client of `port`; returns the status and
/// everything the script printed.
std::pair<Status, std::string> RunScriptText(uint16_t port,
                                             const std::string& script) {
  auto client = Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  std::istringstream in(script);
  std::ostringstream out;
  const Status status = RunScript(**client, in, out);
  return {status, out.str()};
}

TEST(ScriptTest, ScriptReplayIsDeterministic) {
  datagen::LodCloudConfig config;
  config.seed = 99;
  config.num_real_entities = 100;
  config.num_kbs = 3;
  config.center_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(config);
  ASSERT_TRUE(cloud.ok());
  const testutil::ScratchDir cloud_dir("server-script-cloud");
  const std::string dir = cloud_dir.str();
  ASSERT_TRUE(cloud->WriteTo(dir).ok());
  const auto ingest = [&](const datagen::GeneratedKb& kb) {
    return "ingest cold " + kb.name + " " + dir + "/" + kb.name + ".nt\n";
  };
  // A cold online session: stream two KBs, resolve, stream the third,
  // resolve again, then read everything back.
  const std::string script = "# replayed on two servers\n"
                             "create cold online - 0.3\n" +
                             ingest(cloud->kbs[0]) + ingest(cloud->kbs[1]) +
                             "resolve cold 50\n" + ingest(cloud->kbs[2]) +
                             "resolve cold 100\n"
                             "query cold 0 5\n"
                             "matches cold\n"
                             "links cold\n";

  const auto run_once = [&](const char* tag) {
    ServerOptions options;
    const testutil::ScratchDir state_dir(std::string("server-") + tag);
    options.state_dir = state_dir.str();
    auto server = Server::Start(options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    auto [status, out] = RunScriptText((*server)->port(), script);
    EXPECT_TRUE(status.ok()) << status.ToString();
    (*server)->Shutdown();
    return out;
  };
  const std::string first = run_once("script-a");
  const std::string second = run_once("script-b");
  EXPECT_EQ(first, second);
  // The interleaving actually resolved something.
  EXPECT_NE(first.find("\nmatch "), std::string::npos) << first;
  EXPECT_NE(first.find("owl#sameAs"), std::string::npos) << first;
}

TEST(ScriptTest, BadCommandsFailAndPrintNothing) {
  ServerOptions options;
  const testutil::ScratchDir state_dir("server-script-errors");
  options.state_dir = state_dir.str();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();
  for (const std::string bad :
       {"frobnicate 3", "step nosuch 5", "create x online - abc"}) {
    auto [status, out] = RunScriptText(port, bad + "\n");
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_EQ(out, "") << bad;
  }
  // Malformed numbers are Status errors, never exceptions, wraps or zeros:
  // only the create line before them prints.
  for (const std::string bad : {"resolve x ten", "resolve x -5"}) {
    auto [status, out] =
        RunScriptText(port, "create x online - 0.3\n" + bad + "\n");
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_EQ(out.rfind("created x = session ", 0), 0u) << out;
    EXPECT_EQ(out.find('\n'), out.size() - 1) << out;
  }
  (*server)->Shutdown();
}

// ---------------------------------------------------------------------------
// The live observability plane: kStats v2, per-tenant scoping, exporter,
// event log — and its out-of-band parity guarantee.
// ---------------------------------------------------------------------------

TEST(ServerStatsTest, StatsV2TwoTenantBreakdownSumsToProcessTotals) {
  // The breakdown reconciles against the process registry, so start this
  // test from zeroed counters (names survive; other tests in this binary
  // run sequentially).
  obs::MetricsRegistry::Default().ResetAll();

  const std::string source_a = SyntheticSource(41);
  const std::string source_b = SyntheticSource(43, 90, 4, 2);
  ServerOptions options;
  const testutil::ScratchDir state_dir("server-stats-v2");
  options.state_dir = state_dir.str();
  options.installment = 64;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::thread tenant_a(
      [&] { DriveTenant((*server)->port(), "alice", source_a, 0.35); });
  std::thread tenant_b(
      [&] { DriveTenant((*server)->port(), "bob", source_b, 0.30); });
  tenant_a.join();
  tenant_b.join();

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Both tenants closed their sessions, so the session-store count of live
  // sessions reads zero — the tenant breakdown below still remembers their
  // lifetime totals.
  auto full = (*client)->StatsFull();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->live_sessions, 0u);
  ASSERT_EQ(full->tenants.size(), 2u);
  EXPECT_EQ(full->tenants[0].tenant, "alice");
  EXPECT_EQ(full->tenants[1].tenant, "bob");

  uint64_t sum_sessions = 0, sum_comparisons = 0, sum_matches = 0;
  for (const obs::TenantBreakdown& tenant : full->tenants) {
    EXPECT_GT(tenant.sessions, 0u) << tenant.tenant;
    EXPECT_GT(tenant.requests, 0u) << tenant.tenant;
    EXPECT_GT(tenant.comparisons, 0u) << tenant.tenant;
    EXPECT_GT(tenant.matches, 0u) << tenant.tenant;
    EXPECT_LE(tenant.p50_request_micros, tenant.p95_request_micros)
        << tenant.tenant;
    EXPECT_LE(tenant.p95_request_micros, tenant.p99_request_micros)
        << tenant.tenant;
    sum_sessions += tenant.sessions;
    sum_comparisons += tenant.comparisons;
    sum_matches += tenant.matches;
  }
  // The dual-write contract: tenant shadows and process counters are
  // incremented at the same instrumentation site, so the sums reconcile
  // exactly — not approximately.
  EXPECT_EQ(sum_sessions, full->CounterValue("server.sessions.created"));
  EXPECT_EQ(sum_comparisons, full->CounterValue("server.comparisons"));
  EXPECT_EQ(sum_matches, full->CounterValue("server.matches"));
  EXPECT_GT(sum_comparisons, 0u);

  // The registry snapshot came through: request counters and the latency
  // histogram with monotone quantiles.
  EXPECT_GT(full->CounterValue("server.requests.create"), 0u);
  bool saw_request_micros = false;
  for (const auto& [name, histogram] : full->histograms) {
    if (name != "server.request_micros") continue;
    saw_request_micros = true;
    EXPECT_GT(histogram.count, 0u);
    EXPECT_LE(histogram.p50, histogram.p95);
    EXPECT_LE(histogram.p95, histogram.p99);
    EXPECT_GE(histogram.p50, static_cast<double>(histogram.min));
    EXPECT_LE(histogram.p99, static_cast<double>(histogram.max));
  }
  EXPECT_TRUE(saw_request_micros);
  (*server)->Shutdown();
}

TEST(ServerStatsTest, EmptyStatsBodyIsRejected) {
  ServerOptions options;
  const testutil::ScratchDir state_dir("server-stats-empty");
  options.state_dir = state_dir.str();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // An empty kStats body is a truncated request: a ParseError reply, and
  // the connection goes on serving the Ping sent after it.
  RawConnection conn((*server)->port());
  ASSERT_TRUE(conn.connected());
  conn.Send(FrameBytes(static_cast<uint16_t>(MessageId::kStats), ""));
  conn.Send(FrameBytes(static_cast<uint16_t>(MessageId::kPing), ""));
  std::istringstream in(conn.DrainToEof());
  const auto reply_status = [&in](MessageId want) {
    uint32_t length = 0;
    uint8_t version = 0;
    uint16_t id = 0;
    if (!serde::ReadU32(in, length) || length < 3 ||
        !serde::ReadU8(in, version) || !serde::ReadU16(in, id)) {
      return Status::IoError("missing reply frame");
    }
    EXPECT_EQ(id, static_cast<uint16_t>(want));
    std::string body(length - 3, '\0');
    in.read(body.data(), static_cast<std::streamsize>(body.size()));
    std::istringstream body_in(body);
    return ReadStatusPrefix(body_in);
  };
  EXPECT_EQ(reply_status(MessageId::kStats).code(), StatusCode::kParseError);
  EXPECT_TRUE(reply_status(MessageId::kPing).ok());

  // An unknown stats-body discriminator is an error reply, not a crash.
  RawConnection bad((*server)->port());
  bad.Send(FrameBytes(static_cast<uint16_t>(MessageId::kStats), "\x09"));
  EXPECT_GE(bad.DrainToEof().size(), 8u);

  auto probe = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE((*probe)->Ping().ok());
  (*server)->Shutdown();
}

TEST(ServerStatsTest, ExporterWritesRollingSnapshotsAndEventLog) {
  const testutil::ScratchDir state_dir("server-exporter");
  const std::string dir = state_dir.str();
  ServerOptions options;
  options.state_dir = dir;
  options.stats_path = dir + "/stats.json";
  options.stats_every_seconds = 0.02;
  options.event_log_path = dir + "/events.jsonl";
  options.slow_request_millis = 0.001;  // 1us: every request is "slow"
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto session = (*client)->CreateSession("frank", SessionKind::kBatch,
                                          SyntheticSource(13, 200), 0.35);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto first = (*client)->Step(*session, 40);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE((*server)->sessions().Evict(*session).ok());
  auto second = (*client)->Step(*session, 0);  // transparent restore
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  // The rolling exporter must produce a complete, never-torn snapshot
  // while the server keeps running. Wait for one taken after the tenant
  // appeared: on a loaded machine the latest installment may predate it.
  std::string rolling;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream in(options.stats_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    rolling = buf.str();
    if (rolling.find("\"tenants\":{\"frank\":") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(rolling.empty())
      << "exporter never wrote " << options.stats_path;
  EXPECT_NE(rolling.find("\"schema\":\"minoan-stats-v1\""), std::string::npos);
  EXPECT_NE(rolling.find("\"tenants\":{\"frank\":"), std::string::npos);
  EXPECT_EQ(rolling.back(), '\n');  // complete file, not a torn prefix

  (*server)->Shutdown();  // writes the final authoritative snapshots

  std::ifstream events_in(options.event_log_path, std::ios::binary);
  std::ostringstream events_buf;
  events_buf << events_in.rdbuf();
  const std::string events = events_buf.str();
  EXPECT_NE(events.find("\"kind\":\"session_evicted\""), std::string::npos);
  EXPECT_NE(events.find("\"kind\":\"session_restored\""), std::string::npos);
  EXPECT_NE(events.find("\"kind\":\"slow_request\""), std::string::npos);
  EXPECT_NE(events.find("\"tenant\":\"frank\""), std::string::npos);
  // Every line is one self-contained JSON object.
  std::istringstream lines(events);
  std::string line;
  size_t num_lines = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++num_lines;
  }
  EXPECT_GT(num_lines, 0u);
}

/// One served run of two tenants with uneven step budgets, returning every
/// tenant-visible byte: the match stream, the rendered links document, and
/// the (canonicalized) checkpoint file.
struct ServedArtifacts {
  std::map<std::string, std::vector<MatchEvent>> matches;
  std::map<std::string, std::string> links;
  std::map<std::string, std::string> checkpoints;
};

ServedArtifacts RunServed(uint32_t num_threads, bool observed) {
  const testutil::ScratchDir state_dir(observed ? "server-parity-observed"
                                                : "server-parity-plain");
  ServerOptions options;
  options.state_dir = state_dir.str();
  options.num_threads = num_threads;
  options.installment = 64;
  if (observed) {
    options.stats_path = options.state_dir + "/stats.json";
    options.stats_every_seconds = 0.01;  // exporter races the requests
    options.enable_trace = true;
    options.event_log_path = options.state_dir + "/events.jsonl";
    options.slow_request_millis = 0.001;  // event log fires constantly
  }
  auto server = Server::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();

  ServedArtifacts artifacts;
  std::mutex mu;
  const auto drive = [&](const std::string& tenant, uint64_t seed,
                         double threshold) {
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    auto session = (*client)->CreateSession(
        tenant, SessionKind::kBatch, SyntheticSource(seed, 150), threshold);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    for (const uint64_t budget : {uint64_t{53}, uint64_t{700}, uint64_t{0}}) {
      auto step = (*client)->Step(*session, budget);
      EXPECT_TRUE(step.ok()) << step.status().ToString();
      if (step.ok() && step->finished) break;
    }
    auto matches = (*client)->Matches(*session);
    EXPECT_TRUE(matches.ok()) << matches.status().ToString();
    auto links = (*client)->Links(*session);
    EXPECT_TRUE(links.ok()) << links.status().ToString();
    auto bytes = (*client)->Checkpoint(*session);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    std::ifstream ckpt_in(
        options.state_dir + "/session-" + std::to_string(*session) + ".ckpt",
        std::ios::binary);
    std::ostringstream ckpt;
    ckpt << ckpt_in.rdbuf();

    std::lock_guard<std::mutex> lock(mu);
    artifacts.matches[tenant] = matches.ok() ? *matches
                                             : std::vector<MatchEvent>{};
    artifacts.links[tenant] = links.ok() ? *links : "";
    artifacts.checkpoints[tenant] =
        testutil::CanonicalizeCheckpoint(ckpt.str());
  };
  std::thread tenant_a([&] { drive("alice", 61, 0.35); });
  std::thread tenant_b([&] { drive("bob", 67, 0.30); });
  tenant_a.join();
  tenant_b.join();

  if (observed) {
    // Guard against silently comparing two unobserved runs: the plane must
    // actually have recorded traffic.
    EXPECT_GT((*server)->TenantBreakdowns().size(), 0u);
    EXPECT_GT((*server)->events().size(), 0u);
    EXPECT_NE((*server)->trace(), nullptr);
  }
  (*server)->Shutdown();
  return artifacts;
}

void RunServedParity(uint32_t num_threads) {
  SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
  const ServedArtifacts plain = RunServed(num_threads, /*observed=*/false);
  const ServedArtifacts observed = RunServed(num_threads, /*observed=*/true);
  for (const std::string tenant : {"alice", "bob"}) {
    SCOPED_TRACE(tenant);
    ExpectSameMatches(observed.matches.at(tenant), plain.matches.at(tenant));
    EXPECT_EQ(observed.links.at(tenant), plain.links.at(tenant));
    ASSERT_FALSE(plain.checkpoints.at(tenant).empty());
    EXPECT_EQ(observed.checkpoints.at(tenant), plain.checkpoints.at(tenant));
  }
}

TEST(ObsParityTest, ServedResultsUnaffectedByObservabilityPlane1Thread) {
  RunServedParity(1);
}

TEST(ObsParityTest, ServedResultsUnaffectedByObservabilityPlane4Threads) {
  RunServedParity(4);
}

TEST(FairShareTest, ChargesAndAdmitsByVirtualTime) {
  FairShare gate(1);
  {
    FairShare::Slot slot = gate.Acquire("heavy");
    slot.Charge(1000);
  }
  EXPECT_EQ(gate.TenantCost("heavy"), 1000u);
  // Uncontended re-acquire works and keeps accumulating.
  {
    FairShare::Slot slot = gate.Acquire("heavy");
    slot.Charge(50);
  }
  EXPECT_EQ(gate.TenantCost("heavy"), 1050u);
  EXPECT_EQ(gate.TenantCost("light"), 0u);
}

TEST(FairShareTest, ThrowingScopeReleasesItsSlot) {
  FairShare gate(1);
  EXPECT_THROW(
      {
        FairShare::Slot slot = gate.Acquire("crashy");
        throw std::bad_alloc();
      },
      std::bad_alloc);
  // Charged the minimum of 1, and the only slot is free again: this
  // Acquire returns at once instead of waiting on a slot nobody holds.
  EXPECT_EQ(gate.TenantCost("crashy"), 1u);
  FairShare::Slot next = gate.Acquire("next");
  next.Charge(5);
}

TEST(FairShareTest, ManyTenantsDrainWithoutDeadlock) {
  FairShare gate(2);
  std::vector<std::thread> tenants;
  std::atomic<uint64_t> done{0};
  for (int t = 0; t < 8; ++t) {
    tenants.emplace_back([&gate, &done, t] {
      const std::string name = "tenant-" + std::to_string(t);
      for (int i = 0; i < 25; ++i) {
        FairShare::Slot slot = gate.Acquire(name);
        slot.Charge(10);
        done.fetch_add(1);
      }
    });
  }
  for (std::thread& t : tenants) t.join();
  EXPECT_EQ(done.load(), 200u);
}

}  // namespace
}  // namespace server
}  // namespace minoan
