// Journal shipping: a leader streams its committed v2 journal frames to
// replicas that replay them through the ordinary update path.
//
// ReplicationHub is the leader side: installed as the backend's
// CommitListener (so it observes exactly the durable, generation-ordered
// records) and as the ServiceServer's SubscribeHandler.  A subscribing
// replica announces the last generation it applied; the hub catches it up
// from the persistence directory — the newest snapshot FILE verbatim when
// the journal can no longer bridge the gap (checkpoints truncate it),
// otherwise just the missing journal records — and then keeps it live by
// broadcasting every subsequently committed batch.
//
// ReplicaNode is the follower side: one background thread that subscribes,
// installs the shipped snapshot (parse_snapshot_bytes — the same validation
// recovery applies to disk bytes), replays each journal record through
// replay_journal_record (generation contiguity checked here, the
// fingerprint chain and classification checked inside, exactly like
// recovery), and republishes a fresh QueryService after every install.  A
// generation gap or a dropped leader connection is not fatal: the node
// reconnects with its last applied generation and resumes without the
// whole log being re-shipped, serving reads at the last contiguous
// generation the entire time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/service.hpp"

namespace mpcmst::service::net {

/// Leader-side fan-out of committed journal records (thread-safe).
class ReplicationHub {
 public:
  /// `persist_dir` must be the leader's PersistenceConfig::dir — subscribe
  /// catch-up reads the snapshot files and journal living there.
  explicit ReplicationHub(std::string persist_dir);
  ~ReplicationHub();

  /// The CommitListener tap: broadcast one durable batch to every
  /// subscriber (dead connections are dropped).  Called inside the
  /// backend's writer section — sends are bounded by the subscriber
  /// socket's io timeout.
  void publish(const std::vector<JournalRecord>& recs);

  /// The SubscribeHandler: catch the replica up from disk, register it for
  /// live frames.  Takes ownership of the socket; on any transport fault
  /// the connection is simply dropped (the replica re-dials).
  void subscribe(Socket s, std::uint64_t last_gen, bool have_state);

  std::size_t subscriber_count() const;
  void close_all();

 private:
  const std::string dir_;
  mutable std::mutex mu_;
  std::vector<Socket> subs_;
};

/// Follower: subscribes to a leader, maintains a replayed live backend, and
/// hands out the QueryService over it (null until the first snapshot
/// installs).  start()/stop() bound the background thread.
class ReplicaNode {
 public:
  ReplicaNode(std::string leader_endpoint, NetOptions opts = {},
              ServiceOptions svc_opts = {});
  ~ReplicaNode();

  void start();
  void stop();

  /// The current serving view; swapped atomically when a snapshot installs.
  /// Null until the replica holds any state.
  std::shared_ptr<QueryService> service() const;

  std::uint64_t applied_generation() const {
    return applied_.load(std::memory_order_acquire);
  }
  bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }

 private:
  void run();
  void install_snapshot(const Frame& f);
  /// Apply one kJournal frame; false = generation gap (resubscribe from
  /// applied_generation(), without dropping the serving state).
  bool apply_journal(const Frame& f);

  const std::string leader_;
  const NetOptions opts_;
  const ServiceOptions svc_opts_;
  mutable std::mutex mu_;
  std::shared_ptr<QueryService> svc_;
  std::shared_ptr<UpdatableBackend> backend_;
  std::atomic<std::uint64_t> applied_{0};
  std::atomic<bool> have_state_{false};
  std::atomic<bool> connected_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace mpcmst::service::net
