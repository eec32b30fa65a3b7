// Incremental edge updates: the mutable generation layer over the snapshot
// indexes, turning the precompute-once service into a long-lived system.
//
// A confirmed price change lands here instead of forcing a distributed
// rerun.  Each update is classified and repaired with the cheapest move
// that keeps the labels byte-identical to a fresh full rebuild:
//   - tree-edge reweight within headroom (new_w <= mc): patch w/sens in
//     place and repair the covering maxima of the non-tree edges straddling
//     the edge's cut (the only labels its weight can reach);
//   - tree-edge raised past its replacement: swap in the precomputed argmin
//     cover [Tar82], restructure the tree along the reversed parent chain,
//     and relabel host-side (SensitivityIndex::build_host — the sequential
//     oracles, never the distributed pass; Kor-Korman-Peleg lower bounds are
//     why the update path must not pay distributed verification per change);
//   - non-tree reweight that stays out (new_w >= maxpath): patch w/sens and
//     update the edge's covering contribution (mc/replacement/sens) along
//     its tree path, plus the duplicate resolution of its endpoint key;
//   - non-tree edge undercutting its path maximum: it enters the tree, the
//     heaviest path edge leaves (same exchange + host relabel).
// Ties follow Definition 1.2 throughout: a change that creates a tie keeps
// T optimal, so w == mc / w == maxpath stays a reweight, never a swap.
//
// Topology churn rides the same machinery: add_edge inserts a non-tree edge
// (covering-contribution offer along its tree path, or a swap when it
// undercuts the path max; a fresh endpoint attaches as a leaf tree edge) and
// remove_edge deletes one (a non-tree delete tombstones its slot — the
// canonical dead slot is WEdge{0,0,0}, and ANY u == v slot counts as dead —
// and repairs the mc/replacement labels that leaned on it; a tree delete
// promotes the precomputed replacement, or refuses with kWouldDisconnect
// when the edge is a bridge).  Batch ingest absorbs a raw EdgeEvent stream
// under one writer section with a single group-committed journal append.
//
// Generation safety: every applied change rotates the instance fingerprint
// (recomputed from the canonical post-update instance, so it always equals
// what a fresh build of that instance would carry) and advances a strictly
// increasing generation counter.  The service's LRU keys on the fingerprint
// — a stale generation can never be served — and revalidates inserts on the
// generation so an update racing a query cannot poison an older key.  The
// sharded tier (LiveShardedBackend, net/client.hpp) stamps every shard host
// with the new epoch, and its reads merge only replies carrying the epoch
// they pinned.
//
// An in-process live tier holds exactly one copy of the labels: the core.
// Sharding is the networked leader's business, where each shard host holds
// only its slice.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "service/index.hpp"
#include "service/journal.hpp"
#include "service/query.hpp"
#include "service/router.hpp"

namespace mpcmst::service {

class Persistence;  // snapshot.hpp: journal + snapshot coordinator
struct TierImage;   // snapshot.hpp: one loaded snapshot file

enum class UpdateClass : std::uint8_t {
  kNoChange,          // new weight equals the current one (no mutation)
  kTreeReweight,      // tree edge, stays within headroom (new_w <= mc)
  kTreeSwap,          // tree edge raised past its replacement: exchange
  kNonTreeReweight,   // non-tree edge, stays out (new_w >= maxpath)
  kNonTreeSwap,       // non-tree edge undercuts its path: exchange
  kNonTreeInsert,     // add_edge: new edge stays out (w >= path max)
  kInsertSwap,        // add_edge: new edge undercuts its path: exchange
  kVertexAttach,      // add_edge: fresh endpoint joins T as a leaf edge
  kNonTreeDelete,     // remove_edge: non-tree slot tombstoned + labels repaired
  kTreeDeletePromote  // remove_edge: tree edge replaced by its argmin cover
};

/// Topology-churn operation kind — journaled per record (journal v2) so
/// replay re-dispatches each event through the same entry point.
enum class UpdateOp : std::uint8_t {
  kReweight = 0,
  kAddEdge = 1,
  kRemoveEdge = 2,
};

/// One element of a raw edge stream: reweight / insert / delete.  `w` is the
/// new absolute price (ignored for kRemoveEdge).  Batch ingest absorbs
/// vectors of these the way a streaming-graph system consumes its input.
struct EdgeEvent {
  UpdateOp op = UpdateOp::kReweight;
  Vertex u = 0;
  Vertex v = 0;
  Weight w = 0;

  friend bool operator==(const EdgeEvent&, const EdgeEvent&) = default;
};

/// What one canonical instance transformation did (shared by the live layer
/// and the churn-test oracle, so both sides mutate identically).
struct UpdateReport {
  Status status = Status::kOk;  // kUnknownEdge: {u, v} resolves nowhere
  UpdateClass cls = UpdateClass::kNoChange;
  EdgeRef edge;                     // pre-update resolution of {u, v}
  Weight old_w = 0;
  Weight new_w = 0;
  Vertex swapped_out = -1;          // child of the tree edge that left T
  std::int64_t swapped_in = -1;     // non-tree slot that entered T
};

/// Apply one confirmed weight change to the instance itself, in canonical
/// form: {u, v} resolves exactly like the index (tree edge first, then the
/// lightest duplicate), a swapped-out tree edge is written as
/// {child, old parent} into the vacated non-tree slot (orig_ids of every
/// other edge are stable), and the reversed parent chain keeps each edge's
/// weight with the edge.  Both the update layer and a from-scratch oracle
/// rebuild go through this one definition.
UpdateReport apply_update_to_instance(graph::Instance& inst, Vertex u,
                                      Vertex v, Weight new_w);

/// Canonical topology transforms, same contract as apply_update_to_instance
/// (the live layer and the churn-test oracle both go through these
/// definitions).  A dead non-tree slot is the tombstone WEdge{0,0,0}; ANY
/// slot with u == v counts as dead (excluded from resolution, covering
/// nothing).  add_edge allocates the lowest dead slot, else appends; with
/// exactly one endpoint == n (the next fresh vertex id) it attaches a new
/// leaf tree edge instead.  remove_edge of a tree edge promotes the argmin
/// cover into the tree, or refuses with Status::kWouldDisconnect (no
/// mutation) when the edge is a bridge.
UpdateReport add_edge_to_instance(graph::Instance& inst, Vertex u, Vertex v,
                                  Weight w);
UpdateReport remove_edge_from_instance(graph::Instance& inst, Vertex u,
                                       Vertex v);
/// Dispatch one EdgeEvent through the canonical transform for its op.
UpdateReport apply_event_to_instance(graph::Instance& inst,
                                     const EdgeEvent& ev);

/// Labels touched by one in-place repair (what the sharded tier ships to
/// its shard hosts); `full` marks a swap, after which everything was
/// relabeled.  Topology churn generalizes the patches: `nontree_ids` may
/// name slots that are new, tombstoned, or whose owning shard changed (the
/// hosts move them), and an endpoints entry carrying EdgeRef{false, -1}
/// means "erase this key" (the last duplicate of the key was deleted).
struct ChangedSet {
  bool full = false;
  std::vector<Vertex> tree_children;
  std::vector<std::int64_t> nontree_ids;
  std::vector<std::pair<std::uint64_t, EdgeRef>> endpoints;  // re-resolved
};

/// Per-update receipt: classification, fingerprint rotation, repair size.
struct UpdateReceipt {
  UpdateReport report;
  std::uint64_t old_fingerprint = 0;
  std::uint64_t new_fingerprint = 0;
  std::uint64_t generation = 0;          // epoch after this update
  std::size_t patched_tree_edges = 0;    // labels repaired in place
  std::size_t patched_nontree_edges = 0;
  bool full_relabel = false;  // swap path: host-side relabel (still no MPC)
};

/// The single-sourced update engine: one mutable monolithic generation
/// (instance + SensitivityIndex value; the structure-only topology view
/// travels inside the index — see SensitivityIndex::topology()).
/// Every live backend delegates here, so the monolith and the sharded tier
/// can never disagree on what an update means.  Not internally
/// synchronized — the owning backend holds the lock.
class LiveCore {
 public:
  /// `snapshot` must be the index of `inst` (fingerprints are checked).
  LiveCore(graph::Instance inst,
           std::shared_ptr<const SensitivityIndex> snapshot);

  const graph::Instance& instance() const { return inst_; }
  const SensitivityIndex& index() const { return idx_; }

  struct Outcome {
    UpdateReport report;
    ChangedSet changed;
  };
  /// Classify and apply one confirmed change.  Requires the current
  /// generation to be an MST (violations() == 0): updates are defined
  /// against Definition 1.2, which needs one.
  Outcome apply(Vertex u, Vertex v, Weight new_w);

  /// Insert a new edge.  Non-tree inserts allocate the lowest tombstoned
  /// slot (else append) and either stay out (covering-contribution offer
  /// along the tree path) or swap in; one endpoint == n attaches a fresh
  /// leaf vertex.  Mirrors add_edge_to_instance exactly.
  Outcome add_edge(Vertex u, Vertex v, Weight w);

  /// Delete an edge.  A non-tree delete tombstones the slot and repairs the
  /// mc/replacement labels that leaned on it; a tree delete promotes the
  /// precomputed replacement, or refuses with Status::kWouldDisconnect
  /// (no mutation).  Mirrors remove_edge_from_instance exactly.
  Outcome remove_edge(Vertex u, Vertex v);

  /// Dispatch one EdgeEvent to apply / add_edge / remove_edge.
  Outcome apply_event(const EdgeEvent& ev);

 private:
  void tree_reweight(Vertex c, Weight new_w, ChangedSet& changed);
  void nontree_reweight(std::int64_t id, Weight new_w, ChangedSet& changed);
  /// Swap path: the instance was already exchanged; relabel everything
  /// host-side (the rebuilt index carries a fresh topology view).
  void relabel(ChangedSet& changed);
  /// Move mc/replacement of tree edge `child` (updating sens + order).
  void set_mc(Vertex child, Weight mc, std::int64_t repl, ChangedSet& changed);
  /// Re-sort one child inside fragile_order_ after its sens moved.
  void reposition(Vertex child, Weight old_sens);
  /// Max tree weight on the path u..v skipping edge {skip, p(skip)}.
  Weight path_max_excluding(Vertex u, Vertex v, Vertex skip) const;
  /// Recompute the lightest-duplicate resolution of one endpoint key from
  /// the per-key duplicate bucket (O(duplicates), not O(m)); may insert or
  /// erase the map entry as duplicates appear and disappear.  Tree entries
  /// shadow: the key resolves to the tree edge regardless of duplicates.
  void re_resolve_key(Vertex u, Vertex v, ChangedSet& changed);

  /// Rebuild free_slots_ / dup_of_key_ from the current label columns
  /// (construction and every relabel; incremental ops maintain them).
  void rebuild_slot_caches();

  /// Lowest tombstoned non-tree slot, else append a fresh one — a pure
  /// function of the instance, so the canonical transform agrees.  Writes
  /// `e` into both the instance and the label columns.
  std::int64_t allocate_nontree_slot(const graph::WEdge& e);

  /// The index's weight-agnostic topology view (valid across reweights;
  /// swaps replace the whole index, topology included).
  const verify::TreeTopology& topo() const { return idx_.topology(); }

  graph::Instance inst_;
  SensitivityIndex idx_;  // mutated through friendship

  // Slot caches for topology churn, rebuilt on relabel and maintained on
  // insert/delete: tombstoned slots (ascending) for allocation, and the
  // live duplicate slots of every endpoint key (ascending) so duplicate
  // re-resolution costs O(duplicates of that key) instead of O(m).
  std::vector<std::int64_t> free_slots_;
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> dup_of_key_;
};

/// A backend that absorbs confirmed changes.  `generation()` (inherited)
/// advances on every applied update; `instance_snapshot()` hands the
/// canonical current instance to oracles and operators.
///
/// ingest() is the single mutation entry point: the journal v2 op byte
/// already discriminates reweight / insert / delete, so every other mutator
/// is a one-line wrapper building a single-event batch.  LiveBackend (below)
/// is the one implementation: its lock/journal/poison commit path serves the
/// monolith and the sharded leader, which differ only in their publish
/// hook.
class UpdatableBackend : public IndexBackend {
 public:
  /// Absorb one confirmed weight change: ingest of a single kReweight event.
  UpdateReceipt apply_update(Vertex u, Vertex v, Weight new_w) {
    return ingest({EdgeEvent{UpdateOp::kReweight, u, v, new_w}}).front();
  }
  /// Topology churn: insert / delete an edge (same receipt contract as
  /// apply_update; a refused tree delete reports Status::kWouldDisconnect
  /// without mutating or advancing the epoch).
  UpdateReceipt add_edge(Vertex u, Vertex v, Weight w) {
    return ingest({EdgeEvent{UpdateOp::kAddEdge, u, v, w}}).front();
  }
  UpdateReceipt remove_edge(Vertex u, Vertex v) {
    return ingest({EdgeEvent{UpdateOp::kRemoveEdge, u, v, 0}}).front();
  }
  /// Absorb a raw edge stream under ONE writer critical section: every
  /// event is applied and journaled (group commit — one buffered append +
  /// fsync for the whole batch), and the new generation becomes visible
  /// only once the batch is durable.  Nothing is acknowledged before the
  /// commit, so a crash mid-batch replays a consistent prefix.
  virtual std::vector<UpdateReceipt> ingest(
      const std::vector<EdgeEvent>& events) = 0;
  virtual graph::Instance instance_snapshot() const = 0;

  /// Observer of durable commits: invoked inside the writer critical
  /// section, after the batch's journal records are durable and the new
  /// generation is published, with the records in generation order.  This is
  /// the journal-shipping tap the replication tier (net/replicate.hpp)
  /// subscribes to; in-process deployments never set it.  Install before
  /// serving traffic — the setter is not synchronized against ingest.
  using CommitListener = std::function<void(const std::vector<JournalRecord>&)>;
  void set_commit_listener(CommitListener fn) {
    commit_listener_ = std::move(fn);
  }

  /// Attach a journal + snapshot coordinator (snapshot.hpp): every
  /// subsequently applied change is committed to the journal before the new
  /// generation is visible to queries, and the snapshot_every_n compaction
  /// policy runs inside the same writer critical section.
  virtual void attach_persistence(std::shared_ptr<Persistence> p) = 0;

  /// Force a snapshot + journal compaction of the current generation
  /// (no-op when no persistence is attached).
  virtual void checkpoint() = 0;

 protected:
  CommitListener commit_listener_;  // null: nobody listening
};

/// Replay one committed journal record through the ordinary update path,
/// holding the outcome to the record: the pre-state fingerprint must chain,
/// and the replayed classification / fingerprint / generation must equal
/// what the journal promised — or ModelError.  The caller owns the
/// generation-contiguity check (recovery fails hard on a gap; a journal-
/// shipped replica treats a gap as "resubscribe from my generation").
UpdateReceipt replay_journal_record(UpdatableBackend& backend,
                                    const JournalRecord& rec);

/// The one live commit path: LiveCore behind a reader-writer lock, with the
/// journal group commit, fail-stop poison, epoch publish and checkpoint
/// policy defined exactly once.  The two deployments derive from it and
/// differ only in where a committed repair goes (publish()) and how they
/// answer queries:
///   - LiveMonolithBackend answers straight from the core;
///   - LiveShardedBackend (net/client.hpp) ships patches to its shard
///     hosts, over TCP or in memory, and answers by fanning out to them.
/// Metadata reads (n, fingerprint, find, ...) are served from the core,
/// which every deployment keeps authoritative, and snapshots are the
/// core's (monolithic).
class LiveBackend : public UpdatableBackend {
 public:
  std::size_t n() const override;
  std::size_t num_nontree() const override;
  bool is_mst() const override;
  std::size_t violations() const override;
  std::uint64_t fingerprint() const override;
  /// The distributed build was paid exactly once and its receipt is carried
  /// verbatim across generations, so this is a stable construction-time
  /// copy — safe to read without holding the lock.
  const CostReceipt& receipt() const override { return receipt_; }
  std::uint64_t generation() const override {
    return generation_.load(std::memory_order_acquire);
  }
  std::optional<EdgeRef> find(Vertex u, Vertex v) const override;
  std::optional<NonTreeEdgeInfo> nontree_info(
      std::int64_t orig_id) const override;

  /// Single mutation path (see UpdatableBackend): apply each event and
  /// publish() its repairs under the writer lock (in-process readers are
  /// excluded for the duration, and the networked leader's readers refuse
  /// replies stamped past the epoch they pinned, so publishing pre-commit
  /// is safe), group-commit the journal records (fail-stop on a throwing
  /// commit), THEN store the epoch — after publish(), so a lock-free
  /// generation() reader can never observe epoch N+1 while published
  /// labels are still at N.
  std::vector<UpdateReceipt> ingest(const std::vector<EdgeEvent>& events) final;
  graph::Instance instance_snapshot() const final;
  void attach_persistence(std::shared_ptr<Persistence> p) final;
  void checkpoint() final;

 protected:
  /// `initial_generation` restores the epoch counter when reconstructing a
  /// persisted tier; fresh builds leave it 0.  The receipt defaults to the
  /// snapshot's; the sharded tier sets its shard count in its constructor.
  LiveBackend(graph::Instance inst,
              std::shared_ptr<const SensitivityIndex> snapshot,
              std::uint64_t initial_generation);

  /// Throws ServiceError(kPoisoned) once a commit has failed.
  void check_not_poisoned() const;

  /// Deployment hooks, both called under the writer lock.  publish() moves
  /// one applied event's repairs to wherever queries read them and stamps
  /// them with `epoch`; before_apply() runs once per ingest before the
  /// first event.
  virtual void publish(const ChangedSet& changed, std::uint64_t epoch) = 0;
  virtual void before_apply() {}

  mutable std::shared_mutex mu_;
  LiveCore core_;
  CostReceipt receipt_;  // written only by constructors
  std::atomic<std::uint64_t> generation_;

 private:
  std::shared_ptr<Persistence> persist_;  // null: in-memory only
  // Fail-stop: set when a journal commit (or checkpoint) throws while the
  // core already holds the new state.  Acknowledged state must equal
  // journaled state, so a backend that cannot journal refuses to serve —
  // every entry point throws ServiceError(kPoisoned) until the tier is
  // recovered from its (consistent) persistence directory.
  std::atomic<bool> poisoned_{false};
};

/// The monolithic snapshot made live: queries read the core directly.
class LiveMonolithBackend final : public LiveBackend {
 public:
  LiveMonolithBackend(graph::Instance inst,
                      std::shared_ptr<const SensitivityIndex> snapshot,
                      std::uint64_t initial_generation = 0);

  /// One distributed build, then serve-and-absorb.
  static std::shared_ptr<LiveMonolithBackend> build(mpc::Engine& eng,
                                                    const graph::Instance& i);

  Answer answer(const Query& q) const override;
  /// One poison check and one reader-lock acquisition for the whole run.
  std::vector<Answer> answer_many(const std::vector<Query>& qs) const override;
  std::size_t num_shards() const override { return 1; }

 private:
  void publish(const ChangedSet&, std::uint64_t) override {}
};

/// Serve a loaded snapshot image (recovery, or a replica's install) on a
/// LiveMonolithBackend.  An image that also carries a shard set (written
/// by an older sharded tier) was validated on load; the set is dropped.
std::shared_ptr<LiveBackend> make_live_backend(TierImage image);

}  // namespace mpcmst::service
