// Client half of the networked shard tier.
//
// ShardConn is a pool of connections to one shard server: each call checks
// an idle socket out (or dials one), so concurrent callers never queue
// behind each other's round trips; reconnect-and-retry on transport faults
// and per-RPC latency/bytes meters ride every exchange.  On top of it
// client.cpp implements the two IndexBackend faces of the tier:
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
//   - LeaderShardedBackend (make_leader_backend): the UpdatableBackend that
//     owns the tier.  It is a LiveBackend (service/update.hpp) — the same
//     core and commit path as the in-process backends — whose publish hook
//     ships each event's labels to the owning shard servers as one kPatch
//     (a full relabel re-splits and re-bootstraps).  A query pins the
//     leader's committed epoch under the reader lock (stamp, routing view,
//     still_mst batches resolved against the core), releases the lock, and
//     fans out; every reply must carry the pinned stamp.  A reply from a
//     newer epoch means a commit landed mid-read: the query re-pins, which
//     waits for that commit, and after two re-pins it reads under the lock.
//     An older or foreign stamp means a shard lost its state (restart): the
//     tier is re-verified and the shard re-bootstrapped on the spot.
#pragma once

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
  /// A request written on a checked-out socket, awaiting its reply.
  struct InFlight {
    MsgType type = MsgType::kError;
    Socket sock;
    std::uint64_t pool_epoch = 0;  // the epoch_ it was checked out at
    std::size_t tx = 0;
    std::uint64_t t0 = 0;
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
/// with their slices, and return the UpdatableBackend that drives them with
/// per-update patches.  Requires endpoints.size() <= max(1, n) (the same
/// shard-count policy clamp_shard_count enforces in-process).
std::shared_ptr<UpdatableBackend> make_leader_backend(
    mpc::Engine& eng, const graph::Instance& inst,
    const std::vector<std::string>& endpoints, NetOptions opts = {});

}  // namespace mpcmst::service::net
