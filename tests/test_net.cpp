// In-process integration tests for the networked tier: the ShardConn pool
// (no head-of-line blocking, connection reuse), servers refusing element
// counts their frame cannot hold before allocating, leader parity with the
// in-process sharded backend under interleaved + concurrent updates, a
// parked leader read that neither blocks an ingest nor serves its stale
// epoch, a shard-server restart healing through stamp-mismatch
// re-bootstrap, and journal-shipped replication (ReplicationHub +
// ReplicaNode over a loopback ServiceServer) with reconnect-resume from the
// last applied generation.
// Process-level crash scenarios (SIGKILL) live in net_harness.cpp.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/replicate.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

namespace g = mpcmst::graph;
namespace svc = mpcmst::service;
namespace net = mpcmst::service::net;

namespace {

g::Instance make_instance(std::size_t n, std::uint64_t seed) {
  auto tree = g::random_recursive_tree(n, seed);
  g::assign_random_tree_weights(tree, 1, 40, seed + 2);
  return g::make_mst_instance(std::move(tree), 2 * n, seed + 4, /*slack=*/4);
}

/// Deterministic event stream over the instance: reweights on both edge
/// kinds, inserts (including colliding ones both sides refuse identically),
/// and deletes.
std::vector<svc::EdgeEvent> event_round(const g::Instance& inst, int round) {
  const auto n = static_cast<g::Vertex>(inst.n());
  std::vector<svc::EdgeEvent> evs;
  const auto& nt = inst.nontree[static_cast<std::size_t>(round * 3) %
                                inst.nontree.size()];
  evs.push_back({svc::UpdateOp::kReweight, nt.u, nt.v, nt.w + 3 + round});
  const g::Vertex c = (round + 1) % n == inst.tree.root
                          ? (round + 2) % n
                          : (round + 1) % n;
  evs.push_back({svc::UpdateOp::kReweight, c,
                 inst.tree.parent[static_cast<std::size_t>(c)],
                 1 + (round % 5)});
  evs.push_back({svc::UpdateOp::kAddEdge, (7 * round + 1) % n,
                 (11 * round + 3) % n, 2 + round});
  const auto& del = inst.nontree[static_cast<std::size_t>(round * 5 + 1) %
                                 inst.nontree.size()];
  evs.push_back({svc::UpdateOp::kRemoveEdge, del.u, del.v, 0});
  return evs;
}

void expect_parity(svc::QueryService& a, svc::QueryService& b,
                   const g::Instance& inst, const char* what) {
  auto qs = mpcmst::test::probe_queries(inst);
  qs.push_back(svc::Query::still_mst({{0, 1, 2}, {1, 2, 50}}));
  const auto xs = a.answer_batch(qs);
  const auto ys = b.answer_batch(qs);
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < qs.size(); ++i)
    ASSERT_EQ(xs[i], ys[i]) << what << ": query " << i << " "
                            << svc::to_string(qs[i]);
}

void expect_receipts_match(const std::vector<svc::UpdateReceipt>& xs,
                           const std::vector<svc::UpdateReceipt>& ys,
                           const char* what) {
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].report.status, ys[i].report.status) << what << " " << i;
    EXPECT_EQ(xs[i].report.cls, ys[i].report.cls) << what << " " << i;
    EXPECT_EQ(xs[i].old_fingerprint, ys[i].old_fingerprint) << what << " "
                                                            << i;
    EXPECT_EQ(xs[i].new_fingerprint, ys[i].new_fingerprint) << what << " "
                                                            << i;
    EXPECT_EQ(xs[i].generation, ys[i].generation) << what << " " << i;
  }
}

bool wait_until(const std::function<bool()>& cond, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

TEST(NetServer, ConnectionChurnReapsFinishedThreads) {
  if constexpr (mpcmst::kMetricsCompiledOut)
    GTEST_SKIP() << "MPCMST_NO_METRICS";
  mpcmst::Gauge& held =
      mpcmst::MetricsRegistry::instance().gauge("net_server_connections");
  net::ShardServer server(net::Listener::bind("127.0.0.1:0"));
  server.start();
  const std::int64_t base = held.value();
  // Connect, ping (so the server has accepted and is serving), and return
  // the socket; dropping it closes the connection.
  const auto ping = [&] {
    net::Socket s = net::dial(server.endpoint(), net::NetOptions{});
    net::send_frame(s, net::MsgType::kPing, mpcmst::ByteWriter());
    EXPECT_EQ(net::recv_frame(s).type, net::MsgType::kPong);
    return s;
  };
  {
    const net::Socket open = ping();
    EXPECT_EQ(held.value(), base + 1);
  }
  for (int i = 0; i < 200; ++i) (void)ping();
  // Each accept joins every connection thread that has finished; one still
  // winding down when the last accept ran is reaped by the next one.
  EXPECT_TRUE(wait_until(
      [&] {
        (void)ping();
        return held.value() <= base + 1;
      },
      5000))
      << "connection threads held: " << held.value() - base;
  server.stop();
  EXPECT_EQ(held.value(), base);
}

/// Forwards every frame to `upstream` over a fresh connection; once armed
/// with a type, parks the next frame of that type until release().
class ParkingProxy final : public net::FrameServer {
 public:
  ParkingProxy(net::Listener l, std::string upstream)
      : FrameServer(std::move(l), net::NetOptions{}),
        upstream_(std::move(upstream)) {}
  ~ParkingProxy() override {
    release();
    stop();
  }

  void arm(net::MsgType t) {
    park_type_.store(t, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
  }
  bool parked() const { return parked_.load(std::memory_order_acquire); }
  void release() { released_.store(true, std::memory_order_release); }

 private:
  bool handle_frame(net::Socket& s, const net::Frame& f) override {
    if (f.type == park_type_.load(std::memory_order_relaxed) &&
        armed_.exchange(false, std::memory_order_acq_rel)) {
      parked_.store(true, std::memory_order_release);
      while (!released_.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    try {
      net::Socket up = net::dial(upstream_, net::NetOptions{});
      const auto req = net::pack_frame(f.type, f.body.data(), f.body.size());
      up.send_all(req.data(), req.size());
      const net::Frame r = net::recv_frame(up);
      const auto rep = net::pack_frame(r.type, r.body.data(), r.body.size());
      s.send_all(rep.data(), rep.size());
    } catch (const svc::ServiceError&) {
      return false;
    }
    return true;
  }

  const std::string upstream_;
  std::atomic<net::MsgType> park_type_{net::MsgType::kError};
  std::atomic<bool> armed_{false};
  std::atomic<bool> parked_{false};
  std::atomic<bool> released_{false};
};

TEST(NetClient, SlowExchangeDoesNotBlockOtherCallers) {
  net::ShardServer server(net::Listener::bind("127.0.0.1:0"));
  server.start();
  ParkingProxy proxy(net::Listener::bind("127.0.0.1:0"), server.endpoint());
  proxy.start();
  proxy.arm(net::MsgType::kPing);
  net::ShardConn conn(proxy.endpoint(), net::NetOptions{});
  const auto ping = [&] {
    return conn.call(net::MsgType::kPing, mpcmst::ByteWriter()).type;
  };
  auto slow = std::async(std::launch::async, ping);
  const bool parked = wait_until([&] { return proxy.parked(); }, 5000);
  if (!parked) proxy.release();
  ASSERT_TRUE(parked);
  auto fast = std::async(std::launch::async, ping);
  const bool overtook =
      fast.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  proxy.release();
  EXPECT_TRUE(overtook)
      << "a parked exchange blocked a second caller of the same ShardConn";
  EXPECT_EQ(fast.get(), net::MsgType::kPong);
  EXPECT_EQ(slow.get(), net::MsgType::kPong);
  proxy.stop();
  server.stop();
}

TEST(NetClient, PoolReusesIdleConnections) {
  if constexpr (mpcmst::kMetricsCompiledOut)
    GTEST_SKIP() << "MPCMST_NO_METRICS";
  mpcmst::Counter& dials = net::net_counter("client_dials");
  mpcmst::Gauge& held =
      mpcmst::MetricsRegistry::instance().gauge("net_server_connections");
  net::ShardServer server(net::Listener::bind("127.0.0.1:0"));
  server.start();
  const std::int64_t base_conns = held.value();
  const std::uint64_t base_dials = dials.total();
  net::ShardConn conn(server.endpoint(), net::NetOptions{});
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(conn.call(net::MsgType::kPing, mpcmst::ByteWriter()).type,
              net::MsgType::kPong);
  EXPECT_EQ(dials.total() - base_dials, 1u);

  // The pool grows to the peak number of concurrent callers, no further.
  constexpr int kCallers = 4;
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&] {
      for (int i = 0; i < 50; ++i)
        EXPECT_EQ(conn.call(net::MsgType::kPing, mpcmst::ByteWriter()).type,
                  net::MsgType::kPong);
    });
  for (std::thread& t : callers) t.join();
  EXPECT_LE(dials.total() - base_dials, static_cast<std::uint64_t>(kCallers));
  EXPECT_EQ(static_cast<std::uint64_t>(held.value() - base_conns),
            dials.total() - base_dials);
  server.stop();
}

/// Peak resident set of this process, in bytes (Linux reports KiB).
std::int64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;
}

TEST(NetServer, RefusesCountsTheFrameCannotHoldBeforeAllocating) {
  const g::Instance inst = make_instance(24, 91);
  net::ShardServer shard(net::Listener::bind("127.0.0.1:0"));
  shard.start();
  auto eng = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig cfg;
  cfg.engine = &eng;
  cfg.instance = &inst;
  cfg.live = true;
  cfg.remote_shards = {shard.endpoint()};
  std::shared_ptr<svc::QueryService> leader = svc::QueryService::open(cfg);
  net::ServiceServer front(net::Listener::bind("127.0.0.1:0"),
                           [leader] { return leader; });
  front.set_ingest_handler([leader](const std::vector<svc::EdgeEvent>& evs) {
    return leader->ingest(evs);
  });
  front.start();

  // A body that is only an element count of 2^24: sized up front, that is
  // ~1 GiB of Query or ~512 MiB of EdgeEvent before the first decode
  // fails.  The reply must be an error, and the connection keeps serving.
  const auto refuse = [](const std::string& endpoint, net::MsgType t,
                         net::MsgType probe, net::MsgType probe_reply) {
    net::Socket sock = net::dial(endpoint, net::NetOptions{});
    const unsigned char count_le[8] = {0, 0, 0, 1, 0, 0, 0, 0};
    const std::vector<unsigned char> frame =
        net::pack_frame(t, count_le, sizeof count_le);
    sock.send_all(frame.data(), frame.size());
    EXPECT_EQ(net::recv_frame(sock).type, net::MsgType::kError)
        << net::to_string(t);
    net::send_frame(sock, probe, mpcmst::ByteWriter());
    EXPECT_EQ(net::recv_frame(sock).type, probe_reply) << net::to_string(t);
  };
  const std::int64_t rss0 = peak_rss_bytes();
  refuse(shard.endpoint(), net::MsgType::kAnswerRun, net::MsgType::kMeta,
         net::MsgType::kMetaReply);
  refuse(front.endpoint(), net::MsgType::kIngest, net::MsgType::kStats,
         net::MsgType::kStatsReply);
  EXPECT_LT(peak_rss_bytes() - rss0, std::int64_t{64} << 20);
  EXPECT_EQ(leader->answer(svc::Query::top_k_fragile(3)).status,
            svc::Status::kOk);

  front.stop();
  shard.stop();
}

TEST(NetLeader, ParityUnderInterleavedAndConcurrentUpdates) {
  const g::Instance inst = make_instance(40, 31);

  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<net::ShardServer>(
        net::Listener::bind("127.0.0.1:0")));
    servers.back()->start();
    endpoints.push_back(servers.back()->endpoint());
  }

  auto eng1 = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig local_cfg;
  local_cfg.engine = &eng1;
  local_cfg.instance = &inst;
  local_cfg.sharded = true;
  local_cfg.num_shards = 3;
  local_cfg.live = true;
  auto local = svc::QueryService::open(local_cfg);

  auto eng2 = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig net_cfg;
  net_cfg.engine = &eng2;
  net_cfg.instance = &inst;
  net_cfg.live = true;
  net_cfg.remote_shards = endpoints;
  auto leader = svc::QueryService::open(net_cfg);

  // Concurrent readers hammer the leader across every ingest below, one
  // per read shape: a top-k fan-out, a batch of point runs (two-probe
  // resolution), and a still_mst certification.  Stamp-checked merges
  // re-pin until they are whole-epoch, so every answer must equal the
  // in-process oracle at some generation the leader published between the
  // call's start and its end: never a torn merge, an uncommitted epoch or
  // an error.
  std::vector<svc::Query> points;
  for (const svc::Query& q : mpcmst::test::probe_queries(inst))
    if (q.kind != svc::QueryKind::kTopKFragile && points.size() < 24)
      points.push_back(q);
  const g::Vertex c = inst.tree.root == 1 ? 2 : 1;
  const g::Vertex pc = inst.tree.parent[static_cast<std::size_t>(c)];
  const g::WEdge& nt = inst.nontree[0];
  const svc::Query scenario =
      svc::Query::still_mst({{c, pc, 60}, {nt.u, nt.v, 1}});
  const std::vector<std::vector<svc::Query>> shapes = {
      {svc::Query::top_k_fragile(5)}, points, {scenario}};
  // generation -> per-shape oracle answers.
  std::map<std::uint64_t, std::vector<std::vector<svc::Answer>>> oracle;
  const auto record_oracle = [&] {
    auto& at = oracle[local->backend().generation()];
    for (const auto& shape : shapes) at.push_back(local->answer_batch(shape));
  };
  record_oracle();

  struct Read {
    std::uint64_t lo = 0, hi = 0;
    std::vector<svc::Answer> answers;
  };
  std::atomic<bool> done{false};
  std::vector<std::vector<Read>> reads(shapes.size());
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < shapes.size(); ++r)
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        Read rd;
        rd.lo = leader->backend().generation();
        rd.answers = leader->answer_batch(shapes[r]);
        rd.hi = leader->backend().generation();
        reads[r].push_back(std::move(rd));
      }
    });

  for (int round = 0; round < 6; ++round) {
    const auto evs = event_round(inst, round);
    const auto lr = local->ingest(evs);
    record_oracle();
    const auto nr = leader->ingest(evs);
    expect_receipts_match(lr, nr, "round receipt");
    const g::Instance now = local->updatable_backend()->instance_snapshot();
    expect_parity(*local, *leader, now, "round");
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (std::size_t r = 0; r < shapes.size(); ++r) {
    EXPECT_GT(reads[r].size(), 0u) << "shape " << r;
    for (const Read& rd : reads[r]) {
      bool matched = false;
      for (auto it = oracle.lower_bound(rd.lo);
           !matched && it != oracle.end() && it->first <= rd.hi; ++it)
        matched = it->second[r] == rd.answers;
      EXPECT_TRUE(matched) << "shape " << r << ": no oracle generation in ["
                           << rd.lo << ", " << rd.hi << "] matches";
    }
  }
  EXPECT_EQ(leader->backend().generation(), local->backend().generation());
  EXPECT_EQ(leader->backend().fingerprint(), local->backend().fingerprint());

  for (auto& s : servers) s->stop();
}

TEST(NetLeader, ParkedReadNeitherBlocksIngestNorServesItsStaleEpoch) {
  const g::Instance inst = make_instance(24, 61);
  net::ShardServer shard0(net::Listener::bind("127.0.0.1:0"));
  net::ShardServer shard1(net::Listener::bind("127.0.0.1:0"));
  shard0.start();
  shard1.start();
  ParkingProxy proxy(net::Listener::bind("127.0.0.1:0"), shard0.endpoint());
  proxy.start();

  auto eng1 = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig local_cfg;
  local_cfg.engine = &eng1;
  local_cfg.instance = &inst;
  local_cfg.sharded = true;
  local_cfg.num_shards = 2;
  local_cfg.live = true;
  auto local = svc::QueryService::open(local_cfg);

  auto eng2 = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig net_cfg;
  net_cfg.engine = &eng2;
  net_cfg.instance = &inst;
  net_cfg.live = true;
  net_cfg.remote_shards = {proxy.endpoint(), shard1.endpoint()};
  auto leader = svc::QueryService::open(net_cfg);

  // A point read whose first probe goes to shard 0 parks in the proxy
  // after pinning its epoch.  The ingest must not wait for it; the read
  // then meets a reply stamped with the newly committed epoch, re-pins
  // once, and answers at that epoch.
  const g::Vertex c = inst.tree.root == 1 ? 2 : 1;
  const svc::Query q = svc::Query::corridor_headroom(
      c, inst.tree.parent[static_cast<std::size_t>(c)]);
  const std::uint64_t retries0 = net::net_counter("epoch_retries").total();
  proxy.arm(net::MsgType::kAnswerRun);
  auto read = std::async(std::launch::async, [&] { return leader->answer(q); });
  const bool parked = wait_until([&] { return proxy.parked(); }, 5000);
  if (!parked) proxy.release();
  ASSERT_TRUE(parked);
  const auto evs = event_round(inst, 0);
  auto ingest =
      std::async(std::launch::async, [&] { return leader->ingest(evs); });
  const bool ingested =
      ingest.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  proxy.release();
  EXPECT_TRUE(ingested) << "an ingest waited for a parked read";
  const svc::Answer stale = local->answer(q);
  expect_receipts_match(local->ingest(evs), ingest.get(), "receipt");
  const svc::Answer fresh = local->answer(q);
  ASSERT_NE(stale, fresh) << "the ingest must move the parked read's answer";
  EXPECT_EQ(read.get(), fresh);
  if (mpcmst::metrics_enabled()) {
    EXPECT_EQ(net::net_counter("epoch_retries").total() - retries0, 1u);
  }

  proxy.stop();
  shard0.stop();
  shard1.stop();
}

TEST(NetLeader, ShardRestartHealsViaRebootstrap) {
  const g::Instance inst = make_instance(24, 51);

  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 2; ++i) {
    servers.push_back(std::make_unique<net::ShardServer>(
        net::Listener::bind("127.0.0.1:0")));
    servers.back()->start();
    endpoints.push_back(servers.back()->endpoint());
  }

  auto eng1 = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig local_cfg;
  local_cfg.engine = &eng1;
  local_cfg.instance = &inst;
  local_cfg.sharded = true;
  local_cfg.num_shards = 2;
  local_cfg.live = true;
  auto local = svc::QueryService::open(local_cfg);

  auto eng2 = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig net_cfg;
  net_cfg.engine = &eng2;
  net_cfg.instance = &inst;
  net_cfg.live = true;
  net_cfg.remote_shards = endpoints;
  auto leader = svc::QueryService::open(net_cfg);
  expect_parity(*local, *leader, inst, "pre-restart");

  // Kill shard 1 and restart an empty server on the same endpoint: the
  // leader detects the lost slice (connection fault or foreign stamp) and
  // re-bootstraps it from the authoritative core on the next query.
  servers[1]->stop();
  servers[1].reset();
  servers[1] =
      std::make_unique<net::ShardServer>(net::Listener::bind(endpoints[1]));
  servers[1]->start();

  const std::uint64_t reboots_before =
      net::net_counter("shard_rebootstraps").total();
  // Same-generation parity holds across the restart: point reads always
  // cross the wire, so the leader hits the empty server, suspects the tier,
  // and re-bootstraps the lost slice from its authoritative core — the
  // batch then answers correctly.
  expect_parity(*local, *leader, inst, "post-restart");

  // A fan-out query answers correctly too, and the re-bootstrap is counted.
  const svc::Query fresh = svc::Query::top_k_fragile(2);
  EXPECT_EQ(leader->answer(fresh), local->answer(fresh));
  if (mpcmst::metrics_enabled()) {
    EXPECT_GT(net::net_counter("shard_rebootstraps").total(), reboots_before);
  }

  // And updates flow again end to end.
  const auto evs = event_round(inst, 1);
  expect_receipts_match(local->ingest(evs), leader->ingest(evs),
                        "post-restart receipt");
  const g::Instance now = local->updatable_backend()->instance_snapshot();
  expect_parity(*local, *leader, now, "post-restart ingest");

  for (auto& s : servers) s->stop();
}

TEST(NetReplication, CatchUpLiveTailAndReconnectResume) {
  mpcmst::test::ScratchDir scratch("net_replication");
  const g::Instance inst = make_instance(32, 71);

  auto eng = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig cfg;
  cfg.engine = &eng;
  cfg.instance = &inst;
  cfg.live = true;
  // A huge snapshot cadence keeps the journal un-truncated, so resumes can
  // always bridge from it (the snapshot path is exercised by the fresh
  // replica's bootstrap below).
  cfg.persist = svc::PersistenceConfig{scratch.str(), svc::SyncMode::kCommit,
                                       1 << 20};
  auto leader = svc::QueryService::open(cfg);

  auto hub = std::make_shared<net::ReplicationHub>(scratch.str());
  leader->updatable_backend()->set_commit_listener(
      [hub](const std::vector<svc::JournalRecord>& recs) {
        hub->publish(recs);
      });

  std::shared_ptr<svc::QueryService> shared_leader = std::move(leader);
  net::ServiceServer server(net::Listener::bind("127.0.0.1:0"),
                            [shared_leader] { return shared_leader; });
  server.set_subscribe_handler(
      [hub](net::Socket s, std::uint64_t last_gen, bool have_state) {
        hub->subscribe(std::move(s), last_gen, have_state);
      });
  server.start();

  // Fresh replica: bootstraps from the generation-0 snapshot + journal tail.
  net::ReplicaNode node(server.endpoint());
  node.start();
  ASSERT_TRUE(wait_until([&] { return node.service() != nullptr; }, 10000));

  // Live tail: every committed batch is pushed to the subscriber.
  for (int round = 0; round < 3; ++round)
    shared_leader->ingest(event_round(inst, round));
  const std::uint64_t gen1 = shared_leader->backend().generation();
  ASSERT_TRUE(
      wait_until([&] { return node.applied_generation() == gen1; }, 10000));
  auto replica_svc = node.service();
  ASSERT_NE(replica_svc, nullptr);
  EXPECT_EQ(replica_svc->backend().fingerprint(),
            shared_leader->backend().fingerprint());
  const g::Instance now =
      shared_leader->updatable_backend()->instance_snapshot();
  expect_parity(*shared_leader, *replica_svc, now, "caught-up replica");

  // Disconnect, commit more while the replica is away, reconnect: the node
  // re-subscribes from its last applied generation and resumes via the
  // journal tail alone — no snapshot is re-shipped.
  const std::uint64_t snaps_before =
      net::net_counter("snapshots_shipped").total();
  node.stop();
  for (int round = 3; round < 6; ++round)
    shared_leader->ingest(event_round(inst, round));
  const std::uint64_t gen2 = shared_leader->backend().generation();
  ASSERT_GT(gen2, gen1);
  node.start();
  ASSERT_TRUE(
      wait_until([&] { return node.applied_generation() == gen2; }, 10000));
  if (mpcmst::metrics_enabled()) {
    EXPECT_EQ(net::net_counter("snapshots_shipped").total(), snaps_before);
  }
  replica_svc = node.service();
  ASSERT_NE(replica_svc, nullptr);
  EXPECT_EQ(replica_svc->backend().fingerprint(),
            shared_leader->backend().fingerprint());
  const g::Instance now2 =
      shared_leader->updatable_backend()->instance_snapshot();
  expect_parity(*shared_leader, *replica_svc, now2, "resumed replica");

  // The replica keeps serving its last contiguous generation after the
  // leader goes away entirely (the in-process stand-in for leader SIGKILL;
  // the process-level version lives in the net harness).
  server.stop();
  hub->close_all();
  auto lone = node.service();
  ASSERT_NE(lone, nullptr);
  EXPECT_EQ(lone->backend().generation(), gen2);
  const auto probe = lone->answer(svc::Query::top_k_fragile(3));
  EXPECT_EQ(probe.status, svc::Status::kOk);
  node.stop();
}

}  // namespace
