// Client half of the shard tier.
//
// ShardConn is a pool of connections to one shard server: each call checks
// an idle socket out (or dials one), so concurrent callers never queue
// behind each other's round trips; reconnect-and-retry on transport faults
// and per-RPC latency/bytes meters ride every exchange.  Its in-memory mode
// runs the exchange against a LocalShard (server.hpp) in this process
// instead: the same request and reply bodies, meters and call_all
// semantics, no socket and no thread.  On top of it client.cpp implements
// the two IndexBackend faces of the tier:
//
//   - RemoteShardBackend (make_remote_backend): read-only attach to a set
//     of already-running shard servers.  It mirrors QueryRouter's merges
//     over RPC — point queries run the same two-probe resolution the
//     in-process resolve() does (first shard_of(u), then shard_of(v)),
//     top-k is a k-way merge of per-shard sorted prefixes, still_mst
//     resolves the batch remotely and merges per-shard certificate rosters.
//     Every fan-out sends to all shards before reading any reply.  Every
//     multi-RPC operation checks that all reply stamps agree and retries
//     (refreshing metas) before surfacing kEpochRetry.
//
//   - LiveShardedBackend: the UpdatableBackend that owns the tier, over TCP
//     shard servers (make_leader_backend) or k in-memory shard hosts.  It
//     is a LiveBackend (service/update.hpp) — the same core and commit path
//     as the monolith — whose publish hook ships each event's labels to the
//     shard hosts as one kPatch (a full relabel re-bootstraps them).  A
//     query pins the leader's committed epoch under the reader lock (stamp,
//     routing view, still_mst batches resolved against the core), releases
//     the lock, and fans out; every reply must carry the pinned stamp.  A
//     reply from a newer epoch means a commit landed mid-read: the query
//     re-pins, which waits for that commit, and after two re-pins it reads
//     under the lock.  An older or foreign stamp means a shard lost its
//     state (restart): the tier is re-verified and the shard re-bootstrapped
//     on the spot.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/update.hpp"

namespace mpcmst::graph {
struct Instance;
}
namespace mpcmst::mpc {
class Engine;
}

namespace mpcmst::service::net {

class LocalShard;  // server.hpp

/// A pool of connections to one peer; callers may share a ShardConn across
/// threads.  call() checks an idle socket out — dialing a new one when none
/// is idle, so the pool grows to the peak number of concurrent callers —
/// and returns it after the reply, so a slow exchange never blocks another
/// caller's.  A transport fault closes the faulted socket and drops every
/// idle one (after a peer restart the next exchange re-dials); call()
/// retries it up to opts.reconnect_attempts times with backoff, decodes
/// kError replies into thrown ServiceError, and feeds the per-RPC meters.
/// Transport-level retry resends the request, so callers of non-idempotent
/// RPCs should pass reconnect_attempts = 0; every RPC in this tier
/// (queries, patches, bootstraps) is idempotent.
class ShardConn {
 public:
  ShardConn(std::string endpoint, NetOptions opts);

  /// In-memory peer: send() runs `shard`'s dispatch on the calling thread
  /// and receive() hands its reply back.  `name` stands in for the endpoint
  /// in error messages.
  static std::shared_ptr<ShardConn> in_memory(
      std::shared_ptr<LocalShard> shard, std::string name);

  const std::string& endpoint() const { return endpoint_; }

  /// One request/reply exchange.  Throws ServiceError: the decoded status
  /// of a kError reply, or kTimeout/kWireError after retries ran out.
  Frame call(MsgType t, const ByteWriter& body);

  /// One exchange with each conns[i] whose bodies[i] is non-null (the other
  /// reply slots stay empty), without threads: every request is sent on its
  /// own pooled socket before any reply is read, so the fan-out costs the
  /// slowest peer's round trip rather than the sum.  A peer whose socket
  /// faults falls back to call()'s retry path; errors throw as in call(),
  /// after every reply has been read.
  static std::vector<Frame> call_all(
      const std::vector<std::shared_ptr<ShardConn>>& conns, MsgType t,
      const std::vector<const ByteWriter*>& bodies);

 private:
  /// A request written on a checked-out socket, awaiting its reply (or, in
  /// memory, already answered).
  struct InFlight {
    MsgType type = MsgType::kError;
    Socket sock;
    std::uint64_t pool_epoch = 0;  // the epoch_ it was checked out at
    std::size_t tx = 0;
    std::uint64_t t0 = 0;
    Frame reply;  // in-memory mode only
  };

  /// Fault path: close `faulted`, drop every idle socket, and retire the
  /// ones checked out now (a restarted peer closed them all).
  void drop_pool(Socket& faulted);
  InFlight send(MsgType t, const ByteWriter& body);
  Frame receive(InFlight x);
  /// Count a failed exchange; rethrows (endpoint-qualified) unless it was a
  /// transport fault with retries left, in which case it backs off.
  void after_fault(const ServiceError& e, int attempt);
  Frame call_from(MsgType t, const ByteWriter& body, int first_attempt);
  Frame checked(Frame reply) const;

  const std::string endpoint_;
  const NetOptions opts_;
  std::shared_ptr<LocalShard> local_;  // non-null: in-memory mode
  std::mutex mu_;  // guards idle_ and epoch_, never held across I/O
  std::vector<Socket> idle_;
  std::uint64_t epoch_ = 0;  // bumped by each fault: older sockets retire
};

/// Read-only attach to a running shard tier; one endpoint per shard, in
/// shard order.  Fetches and cross-validates every shard's kMeta before
/// returning.  Throws ServiceError when the tier is unreachable or the
/// metas are inconsistent with each other or with the endpoint list.
///
/// Freshness: fingerprint()/generation() report the newest epoch this
/// attach has *observed* — every wire round-trip advances them.  Point
/// queries and top-k always cross the wire.  Only still_mst can be served
/// from a stale observed epoch: a QueryService cache hit does not touch the
/// wire, so a still_mst answer cached before a remote update stays servable
/// until the next round-trip observes the new stamp.  The leader's own
/// service never has this window (its epoch advances synchronously with
/// ingest); read-only attaches that need fresh still_mst answers should
/// serve with cache_capacity = 0.
std::shared_ptr<const IndexBackend> make_remote_backend(
    const std::vector<std::string>& endpoints, NetOptions opts = {});

/// Build the index here (one distributed run), bootstrap the shard servers
/// with their slices, and return the LiveShardedBackend that drives them
/// with per-update patches.  Requires endpoints.size() <= max(1, n) (the
/// shard-count policy of clamp_shard_count).
std::shared_ptr<UpdatableBackend> make_leader_backend(
    mpc::Engine& eng, const graph::Instance& inst,
    const std::vector<std::string>& endpoints, NetOptions opts = {});

}  // namespace mpcmst::service::net

namespace mpcmst::service {

/// The sharded live tier: the LiveBackend commit path with publish()
/// shipping one kPatch RPC per shard host (the hosts apply it through the
/// shard patch primitives).  A shard whose patch RPC fails — or that
/// answers a query with a foreign stamp after a restart — is marked dirty
/// and re-bootstrapped from the authoritative core on the next unique-lock
/// section; the leader itself never poisons on shard faults, only on its
/// own journal-commit failures.  Snapshots are monolithic (the core's).
class LiveShardedBackend final : public LiveBackend {
 public:
  /// k = clamp_shard_count(num_shards, n) in-memory shard hosts: the
  /// networked tier's code, RPC codecs included, without sockets or
  /// threads.
  LiveShardedBackend(graph::Instance inst,
                     std::shared_ptr<const SensitivityIndex> snapshot,
                     std::size_t num_shards);

  /// One connection per shard host, in shard order, each bootstrapped with
  /// its slice here.  Requires 1 <= conns.size() <= max(1, n).
  LiveShardedBackend(graph::Instance inst,
                     std::shared_ptr<const SensitivityIndex> snapshot,
                     std::vector<std::shared_ptr<net::ShardConn>> conns);

  /// One distributed build, then k in-memory shard hosts.
  static std::shared_ptr<LiveShardedBackend> build(mpc::Engine& eng,
                                                   const graph::Instance& i,
                                                   std::size_t num_shards);

  Answer answer(const Query& q) const override;
  std::vector<Answer> answer_many(const std::vector<Query>& qs) const override;
  std::size_t num_shards() const override { return conns_.size(); }
  bool batched_runs() const override { return true; }
  /// Partition arithmetic only, lock-free (the batch fast path calls this
  /// while workers hold the shared lock) — mirrors QueryRouter's.
  std::size_t shard_hint(const Query& q) const override;

 private:
  struct Pin;  // client.cpp: what a read takes from one committed epoch

  /// Caller holds mu_ (shared or unique).
  Pin pin_locked(const std::vector<Query>& qs) const;
  /// Heal restarted shards before an ingest advances the epoch.
  void before_apply() override { resync_locked(); }
  /// Re-verify every dirty shard (cheap kMeta probe against the leader's
  /// epoch) and re-bootstrap the ones that really lost their slice.  Caller
  /// holds the unique lock.
  void resync_locked() const;
  /// Ship shards `which` their slice of the core stamped with `epoch`, one
  /// payload at a time.  A failure marks the shard dirty instead of
  /// throwing.  Returns how many took.  Caller holds the unique lock (or is
  /// the constructor).
  std::size_t bootstrap_locked(const std::vector<std::size_t>& which,
                               std::uint64_t epoch) const;
  /// Broadcast one committed update's repairs.  Never throws on a shard
  /// fault — the shard is marked dirty instead.
  void publish(const ChangedSet& changed, std::uint64_t epoch) override;

  std::vector<std::shared_ptr<net::ShardConn>> conns_;
  mutable std::atomic<std::size_t> n_{0};
  mutable std::atomic<std::size_t> stride_{1};
  // Shard health: dirty_ entries flip under the unique lock (or the ctor);
  // dirty_any_ is the lock-free fast-path summary; tier_suspect_ carries a
  // reader's failure report to the next unique-lock resync.
  mutable std::vector<char> dirty_;
  mutable std::atomic<bool> dirty_any_{false};
  mutable std::atomic<bool> tier_suspect_{false};
};

}  // namespace mpcmst::service
