// Client half of the networked shard tier.
//
// ShardConn is one lazily-dialed, mutex-guarded connection to a shard
// server, with reconnect-and-retry on transport faults and per-RPC
// latency/bytes meters.  On top of it client.cpp implements the two
// IndexBackend faces of the tier:
//
//   - RemoteShardBackend (make_remote_backend): read-only attach to a set
//     of already-running shard servers.  It mirrors QueryRouter's merges
//     over RPC — point queries run the same two-probe resolution the
//     in-process resolve() does (first shard_of(u), then shard_of(v)),
//     top-k is a k-way merge of per-shard sorted prefixes, still_mst
//     resolves the batch remotely and merges per-shard certificate rosters.
//     Every multi-RPC operation checks that all reply stamps agree and
//     retries (refreshing metas) before surfacing kEpochRetry.
//
//   - LeaderShardedBackend (make_leader_backend): the UpdatableBackend that
//     owns the tier.  It is a LiveBackend (service/update.hpp) — the same
//     core and commit path as the in-process backends — whose publish hook
//     ships each event's labels to the owning shard servers as one kPatch
//     (a full relabel re-splits and re-bootstraps).  Queries fan out
//     to the shard servers under the reader lock and must come back stamped
//     with the leader's own epoch; a shard that lost its state (restart) is
//     detected by the stamp mismatch and re-bootstrapped on the spot.
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

/// One connection to a peer, serialized by an internal mutex (callers may
/// share a ShardConn across threads).  call() dials lazily, retries
/// transport faults up to opts.reconnect_attempts times (reconnecting with
/// backoff), decodes kError replies into thrown ServiceError, and feeds the
/// per-RPC meters.  Transport-level retry resends the request, so callers
/// of non-idempotent RPCs should pass reconnect_attempts = 0; every RPC in
/// this tier (queries, patches, bootstraps) is idempotent.
class ShardConn {
 public:
  ShardConn(std::string endpoint, NetOptions opts);

  const std::string& endpoint() const { return endpoint_; }

  /// One request/reply exchange.  Throws ServiceError: the decoded status
  /// of a kError reply, or kTimeout/kWireError after retries ran out.
  Frame call(MsgType t, const ByteWriter& body);

  /// Drop the cached connection (next call re-dials).
  void invalidate();

 private:
  std::mutex mu_;
  const std::string endpoint_;
  const NetOptions opts_;
  Socket sock_;
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
