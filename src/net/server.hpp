// Server half of the networked shard tier.
//
// ShardHost is the state one shard-server process holds: the tier meta, one
// IndexShard slice, full parent/weight mirrors of the tree (so kCertify can
// answer global path questions locally), and the TreeTopology view built
// from them.  Its RPC evaluators are the per-shard halves of the router's
// merges (router.cpp): kAnswerRun resolves only in the local endpoint map
// (the client runs the two-probe protocol), kTopK returns the first
// min(k, |order|) fragility entries, kCertify certifies the local roster
// against a resolved batch.  kPatch applies one committed update through
// the shard patch primitives (shard.hpp).
//
// LocalShard is one shard host behind a lock: an optional ShardHost, reads
// guarded by a shared mutex against kBootstrap/kPatch writers, and the one
// per-frame dispatch every shard request goes through.  ShardServer puts it
// behind a socket; ShardConn's in-memory mode (client.hpp) calls it
// directly, so an in-process tier runs the same evaluators and payload
// codecs as a networked one.
//
// Both servers run one FrameServer accept loop (thread-per-connection,
// finished connections reaped on each accept) and differ only in their
// per-frame handler.  ShardServer serves a LocalShard.  ServiceServer serves a
// whole QueryService (leader or replica) behind one endpoint: kQuery/kStats
// always, kIngest when a mutation handler is installed (else kNotLeader),
// kSubscribe handed to the replication hub.
#pragma once

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/service.hpp"

namespace mpcmst::service::net {

/// One shard host's resident state + RPC evaluators.  Not internally
/// synchronized — LocalShard's shared_mutex is the guard.
class ShardHost {
 public:
  explicit ShardHost(ShardHostState st);

  const WireMeta& meta() const { return meta_; }
  const IndexShard& shard() const { return shard_; }

  /// min(v / stride, num_shards - 1): the client-side partition arithmetic,
  /// mirrored here to derive patch-entry ownership.
  std::size_t shard_of(Vertex v) const;

  // RPC evaluators: decode the request body from `req`, write the reply
  // body into `rep` and return the reply type (kError bodies are written on
  // malformed requests).
  MsgType answer_run(ByteReader& req, ByteWriter& rep) const;
  MsgType top_k(ByteReader& req, ByteWriter& rep) const;
  MsgType certify(ByteReader& req, ByteWriter& rep) const;
  MsgType find_run(ByteReader& req, ByteWriter& rep) const;
  MsgType nontree_info(ByteReader& req, ByteWriter& rep) const;

  /// Apply one committed update's repairs through the shard patch
  /// primitives.
  void apply_patch(const WirePatch& p);

 private:
  WireStamp stamp() const {
    return WireStamp{meta_.generation, meta_.fingerprint};
  }

  WireMeta meta_;
  IndexShard shard_;
  std::vector<Vertex> parent_;  // full tree mirror (structure)
  std::vector<Weight> tree_w_;  // full tree mirror (weights)
  verify::TreeTopology topo_;
};

/// The bootstrap payload of shard `i` of `idx` (the leader's side of
/// kBootstrap): its slice plus the full tree mirrors.  One shard at a time,
/// so a bootstrap never holds more than one payload.
ShardHostState make_host_state(const ShardedSensitivityIndex& idx,
                               std::size_t i, const CostReceipt& receipt);

/// One shard host behind a reader-writer lock: kUnavailable until
/// bootstrapped or installed.  dispatch() is the whole shard RPC surface
/// (every request type but kShutdown, which belongs to the server); it
/// never throws — faults come back as kError bodies.
class LocalShard {
 public:
  /// Preload a slice (static deployments); kBootstrap replaces it.
  void install(ShardHostState st);

  /// Evaluate one request: decode `req`, write the reply body into `rep`,
  /// return the reply type.
  MsgType dispatch(MsgType t, ByteReader& req, ByteWriter& rep);

 private:
  mutable std::shared_mutex mu_;  // host_ swap/patch vs. readers
  std::unique_ptr<ShardHost> host_;
};

/// The accept loop both servers share: thread-per-connection, each frame
/// handed to handle_frame().  Finished connection threads are joined on
/// every accept, so connection churn holds no memory beyond the live
/// connections; the `net_server_connections` gauge counts the threads held.
/// Subclasses must call stop() in their own destructor, before the state
/// handle_frame() reads is destroyed.
class FrameServer {
 public:
  virtual ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  void start();
  void stop();
  /// Blocks until a kShutdown frame stops the server (process mode).
  void wait();

  const std::string& endpoint() const { return listener_.endpoint(); }

 protected:
  FrameServer(Listener listener, NetOptions opts);

  /// One request/reply exchange; returns false when the connection should
  /// wind down: the peer is gone, a kShutdown stopped the whole server, or
  /// the socket was handed off (moved out of `s`) to another owner.
  virtual bool handle_frame(Socket& s, const Frame& f) = 0;

  /// Reply kOk to a kShutdown and stop accepting (called from a handler).
  void shut_down(Socket& s);

 private:
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_conn(Socket s);
  /// Join and drop every finished connection.  Caller holds conns_mu_.
  void reap_locked();

  Listener listener_;
  NetOptions opts_;
  std::atomic<bool> stop_{false};
  std::mutex conns_mu_;
  std::list<Conn> conns_;  // stable addresses: each thread flags its own
  std::thread accept_thread_;
};

/// One shard server process: a LocalShard behind a socket.
class ShardServer final : public FrameServer {
 public:
  ShardServer(Listener listener, NetOptions opts = {});
  ~ShardServer() override;

  /// Preload a slice (static deployments); kBootstrap replaces it.
  void install(ShardHostState st) { shard_.install(std::move(st)); }

 private:
  bool handle_frame(Socket& s, const Frame& f) override;

  LocalShard shard_;
};

/// A whole QueryService behind one endpoint (leader or replica front door).
class ServiceServer final : public FrameServer {
 public:
  /// `provider` is re-invoked per request so a replica can swap in a fresh
  /// service after each snapshot install; returning null serves
  /// kUnavailable.
  using ServiceProvider = std::function<std::shared_ptr<QueryService>()>;
  using IngestHandler = std::function<std::vector<UpdateReceipt>(
      const std::vector<EdgeEvent>&)>;
  /// Takes ownership of the connection after a kSubscribe (replication hub).
  using SubscribeHandler =
      std::function<void(Socket, std::uint64_t last_gen, bool have_state)>;

  ServiceServer(Listener listener, ServiceProvider provider,
                NetOptions opts = {});
  ~ServiceServer() override;

  void set_ingest_handler(IngestHandler h) { ingest_ = std::move(h); }
  void set_subscribe_handler(SubscribeHandler h) { subscribe_ = std::move(h); }

 private:
  bool handle_frame(Socket& s, const Frame& f) override;

  ServiceProvider provider_;
  IngestHandler ingest_;        // null: kNotLeader
  SubscribeHandler subscribe_;  // null: kNotLeader
};

}  // namespace mpcmst::service::net
