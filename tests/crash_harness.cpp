// Crash-injection harness for the persistence layer, driven by the CI
// `recovery` job (and registered with CTest at a small iteration count).
//
// The parent builds a persistent live tier once, then repeatedly re-execs
// itself as a --child that recovers the tier, applies a deterministic stream
// of confirmed changes — reweights plus topology churn (non-tree inserts,
// vertex attaches, non-tree deletes) — and SIGKILLs itself at a randomized
// commit-path
// point (mid-record through the journal write-fault hook, post-commit after
// the fsync, or mid-snapshot during a checkpoint).  After each death the
// parent recovers in-process and holds the tier to the oracle:
//   - the recovered instance must equal the canonical replay of exactly
//     generation() updates of the same deterministic stream;
//   - all four query kinds must answer byte-identically to a fresh
//     distributed rebuild of that instance (monolith and sharded tiers);
//   - atomicity: the update being applied at the kill either committed
//     (post-commit / mid-snapshot kills: generation == intent) or vanished
//     (mid-record kills: generation == intent - 1, with a torn tail).
//
// Every event of the stream is effective by construction (a reweight's new
// price differs from the resolved edge's current one; inserts always apply;
// deletes only target non-tree edges whose key no tree edge shadows — never
// a refusable bridge), so attempt index == generation and the parent can
// replay the committed prefix exactly.
//
//   usage: crash_harness <dir> [--iters K] [--seed S] [--shards N]
//          (N = 0, the default, runs both the monolith and a 3-shard tier)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "graph/generators.hpp"
#include "service/journal.hpp"
#include "service/router.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/update.hpp"
#include "test_util.hpp"

namespace g = mpcmst::graph;
namespace svc = mpcmst::service;
using mpcmst::hash_combine;

namespace {

constexpr std::size_t kSnapshotEveryN = 6;
const char* const kPhases[] = {"journal-mid-record", "journal-post-commit",
                               "snapshot-mid-write"};

// --- deterministic workload -------------------------------------------------

g::Instance base_instance(std::uint64_t seed) {
  auto tree = g::random_recursive_tree(48, seed);
  g::assign_random_tree_weights(tree, 1, 40, seed + 2);
  return g::make_mst_instance(std::move(tree), 96, seed + 4, /*slack=*/4);
}

/// Current weight of {u, v} under the index's resolution precedence (tree
/// edge first, then the lightest duplicate).
g::Weight resolved_weight(const g::Instance& inst, g::Vertex u, g::Vertex v) {
  for (const g::Vertex c : {u, v}) {
    const g::Vertex other = (c == u) ? v : u;
    if (c != inst.tree.root &&
        inst.tree.parent[static_cast<std::size_t>(c)] == other)
      return inst.tree.weight[static_cast<std::size_t>(c)];
  }
  g::Weight best = g::kPosInfW;
  for (const g::WEdge& e : inst.nontree) {
    if (e.u == e.v) continue;  // tombstoned slot: resolves nowhere
    if ((e.u == u && e.v == v) || (e.u == v && e.v == u))
      best = std::min(best, e.w);
  }
  return best;
}

/// Is {u, v} the key of a current tree edge?  remove_edge resolves tree
/// edges first, so the stream only deletes non-tree edges whose key no tree
/// edge shadows (a tree delete could refuse — not effective).
bool is_tree_key(const g::Instance& inst, g::Vertex u, g::Vertex v) {
  for (const g::Vertex c : {u, v}) {
    const g::Vertex other = (c == u) ? v : u;
    if (c != inst.tree.root &&
        inst.tree.parent[static_cast<std::size_t>(c)] == other)
      return true;
  }
  return false;
}

/// Attempt `i` of the stream: a pure function of (seed, i, current
/// instance), effective by construction — so the child and the parent's
/// oracle replay can never disagree about what attempt `i` was.  Mix:
/// reweights of tree and live non-tree edges, inserts (duplicates allowed),
/// fresh-vertex attaches, and non-tree deletes (which tombstone slots later
/// inserts reuse) — the full journal-v2 op surface under SIGKILL.
svc::EdgeEvent pick_event(const g::Instance& inst, std::uint64_t seed,
                          std::uint64_t i) {
  const std::uint64_t h1 = hash_combine(seed, i, 1);
  const std::uint64_t h2 = hash_combine(seed, i, 2);
  const std::uint64_t h3 = hash_combine(seed, i, 3);
  const auto n = static_cast<g::Vertex>(inst.n());
  std::vector<std::size_t> live;  // non-tombstoned non-tree slots
  for (std::size_t s = 0; s < inst.nontree.size(); ++s)
    if (inst.nontree[s].u != inst.nontree[s].v) live.push_back(s);
  g::Weight w = 1 + static_cast<g::Weight>(h3 % 60);

  const std::uint64_t kind = h1 % 8;
  if (kind < 3) {  // reweight a tree edge
    auto c = static_cast<g::Vertex>(h2 % inst.n());
    if (c == inst.tree.root) c = (c + 1) % n;
    const g::Vertex p = inst.tree.parent[static_cast<std::size_t>(c)];
    if (w == resolved_weight(inst, c, p)) w = (w % 60) + 1;
    return {svc::UpdateOp::kReweight, c, p, w};
  }
  if (kind < 5 && !live.empty()) {  // reweight a live non-tree edge
    const g::WEdge& e = inst.nontree[live[h2 % live.size()]];
    if (w == resolved_weight(inst, e.u, e.v)) w = (w % 60) + 1;
    return {svc::UpdateOp::kReweight, e.u, e.v, w};
  }
  if (kind == 7 && !live.empty()) {  // delete a non-shadowed non-tree edge
    for (std::size_t probe = 0; probe < live.size(); ++probe) {
      const g::WEdge& e =
          inst.nontree[live[(h2 + probe) % live.size()]];
      if (!is_tree_key(inst, e.u, e.v))
        return {svc::UpdateOp::kRemoveEdge, e.u, e.v, 0};
    }
    // Every live edge shadowed (vanishingly unlikely): insert instead.
  }
  if (h2 % 5 == 0 && inst.n() < 96)  // attach a fresh leaf vertex
    return {svc::UpdateOp::kAddEdge, n,
            static_cast<g::Vertex>(h3 % inst.n()), w};
  auto u = static_cast<g::Vertex>(h2 % inst.n());
  auto v = static_cast<g::Vertex>((h2 >> 16) % inst.n());
  if (u == v) v = (v + 1) % n;
  return {svc::UpdateOp::kAddEdge, u, v, w};
}

using mpcmst::test::probe_queries;

// --- intent file: atomicity evidence across the SIGKILL ---------------------

std::string intent_path(const std::string& dir) { return dir + "/intent.bin"; }

/// "Iteration `iter` is about to apply the update producing generation
/// `intent`" — one fsync'd 16-byte pwrite, so it survives the kill.
void write_intent(int fd, std::uint64_t iter, std::uint64_t intent) {
  std::uint64_t rec[2] = {iter, intent};
  if (::pwrite(fd, rec, sizeof rec, 0) != sizeof rec || ::fsync(fd) != 0) {
    std::cerr << "child: intent write failed\n";
    ::_exit(3);
  }
}

bool read_intent(const std::string& dir, std::uint64_t& iter,
                 std::uint64_t& intent) {
  const int fd = ::open(intent_path(dir).c_str(), O_RDONLY);
  if (fd < 0) return false;
  std::uint64_t rec[2] = {0, 0};
  const bool ok = ::pread(fd, rec, sizeof rec, 0) == sizeof rec;
  ::close(fd);
  iter = rec[0];
  intent = rec[1];
  return ok;
}

// --- child: recover, update, die at the chosen commit-path point ------------

struct KillSpec {
  const char* phase = "";
  int countdown = 0;
};
KillSpec g_kill;

void crash_hook(const char* phase) {
  if (std::strcmp(phase, g_kill.phase) != 0) return;
  if (--g_kill.countdown == 0) {
    ::kill(::getpid(), SIGKILL);
    for (;;) ::pause();  // unreachable: SIGKILL is not deliverable-deferred
  }
}

int run_child(const std::string& dir, std::uint64_t seed, int phase,
              int countdown, int max_steps, std::uint64_t iter) {
  g_kill = KillSpec{kPhases[phase], countdown};
  svc::set_persist_crash_hook(&crash_hook);
  svc::PersistenceConfig cfg{dir, svc::SyncMode::kCommit, kSnapshotEveryN};
  auto service =
      svc::QueryService::open({.persist = cfg, .recover_existing = true});
  const int intent_fd =
      ::open(intent_path(dir).c_str(), O_CREAT | O_WRONLY, 0644);
  if (intent_fd < 0) return 3;
  for (int step = 0; step < max_steps; ++step) {
    const std::uint64_t gen = service->backend().generation();
    write_intent(intent_fd, iter, gen + 1);
    const auto inst = service->updatable_backend()->instance_snapshot();
    const svc::EdgeEvent ev = pick_event(inst, seed, gen);
    svc::UpdateReceipt r;
    switch (ev.op) {
      case svc::UpdateOp::kReweight:
        r = service->apply_update(ev.u, ev.v, ev.w);
        break;
      case svc::UpdateOp::kAddEdge:
        r = service->add_edge(ev.u, ev.v, ev.w);
        break;
      case svc::UpdateOp::kRemoveEdge:
        r = service->remove_edge(ev.u, ev.v);
        break;
    }
    if (r.report.status != svc::Status::kOk ||
        r.report.cls == svc::UpdateClass::kNoChange) {
      std::cerr << "child: attempt " << gen << " was not effective\n";
      return 3;
    }
  }
  return 0;  // the kill point was never reached: a crash-free iteration
}

// --- parent: spawn children, verify each recovery against the oracle --------

/// Recover `dir` in-process and hold it to the oracle; throws (caught in
/// main) on any divergence.  Returns the recovered generation.
std::uint64_t verify_recovery(const std::string& dir, const g::Instance& base,
                              std::uint64_t seed, std::uint64_t iter,
                              int phase, bool killed) {
  svc::PersistenceConfig cfg{dir, svc::SyncMode::kCommit, kSnapshotEveryN};
  svc::RecoveredInfo info;
  auto service = svc::QueryService::open(
      {.persist = cfg, .recover_existing = true, .recovered = &info});
  const std::uint64_t gen = service->backend().generation();

  // The committed prefix must be exactly the first `gen` attempts of the
  // deterministic stream, applied through the canonical transform.
  g::Instance oracle = base;
  for (std::uint64_t i = 0; i < gen; ++i) {
    const svc::EdgeEvent ev = pick_event(oracle, seed, i);
    const auto rep = svc::apply_event_to_instance(oracle, ev);
    MPCMST_ASSERT(rep.status == svc::Status::kOk &&
                      rep.cls != svc::UpdateClass::kNoChange,
                  "oracle attempt " << i << " not effective");
  }
  const auto recovered = service->updatable_backend()->instance_snapshot();
  MPCMST_ASSERT(recovered.tree.parent == oracle.tree.parent &&
                    recovered.tree.weight == oracle.tree.weight &&
                    recovered.nontree == oracle.nontree,
                "recovered instance differs from the canonical replay at "
                "generation "
                    << gen);
  MPCMST_ASSERT(service->backend().fingerprint() ==
                    svc::SensitivityIndex::fingerprint_of(oracle),
                "recovered fingerprint mismatch at generation " << gen);

  // Byte-identical answers vs a fresh distributed rebuild, all four kinds.
  auto eng = mpcmst::test::make_engine(64 * oracle.input_words());
  const svc::MonolithicBackend rebuild(
      svc::SensitivityIndex::build(eng, oracle));
  for (const auto& q : probe_queries(oracle))
    MPCMST_ASSERT(service->backend().answer(q) == rebuild.answer(q),
                  "answer diverged from fresh rebuild: " << to_string(q));

  // Atomicity of the in-flight update, when the kill hit this iteration's
  // stream (a kill inside recover()'s own compaction leaves a stale tag).
  std::uint64_t tag = 0, intent = 0;
  if (killed && read_intent(dir, tag, intent) && tag == iter) {
    if (phase == 0) {
      MPCMST_ASSERT(gen == intent - 1, "mid-record kill: update at intent "
                                           << intent << " half-committed");
      MPCMST_ASSERT(info.journal_was_torn,
                    "mid-record kill left no torn tail");
    } else {
      MPCMST_ASSERT(gen == intent,
                    "post-commit kill lost the acknowledged update at intent "
                        << intent);
    }
  }
  return gen;
}

int run_parent(const std::string& root, std::uint64_t seed, int iters,
               std::size_t shards_arg, const char* self) {
  for (const std::size_t shards :
       shards_arg ? std::vector<std::size_t>{shards_arg}
                  : std::vector<std::size_t>{1, 3}) {
    const std::string dir =
        root + (shards == 1 ? "/mono" : "/shard" + std::to_string(shards));
    const g::Instance base = base_instance(seed);
    {
      // One distributed build seeds the tier; everything after is
      // recover -> update -> die -> recover.
      auto eng = mpcmst::test::make_engine(64 * base.input_words());
      svc::PersistenceConfig cfg{dir, svc::SyncMode::kCommit, kSnapshotEveryN};
      (void)svc::QueryService::open(
          {.engine = &eng, .instance = &base, .sharded = shards > 1,
           .num_shards = shards, .live = true, .persist = cfg});
    }
    ::unlink(intent_path(dir).c_str());  // a previous run's atomicity tag

    std::uint64_t generation = 0;
    for (int iter = 0; iter < iters; ++iter) {
      const std::uint64_t h = hash_combine(seed, iter, 99);
      const int phase = static_cast<int>(h % 3);
      const int countdown =
          phase == 2 ? 1 : 1 + static_cast<int>((h >> 8) % 6);
      const int max_steps = phase == 2 ? 20 : countdown + 6;

      // Argument strings are built before fork(): the child must only
      // execv (allocating between fork and exec in a multithreaded parent
      // risks a held malloc lock).
      const std::string seed_s = std::to_string(seed);
      const std::string phase_s = std::to_string(phase);
      const std::string countdown_s = std::to_string(countdown);
      const std::string steps_s = std::to_string(max_steps);
      const std::string iter_s = std::to_string(iter);
      const char* child_argv[] = {self,
                                  "--child",
                                  dir.c_str(),
                                  seed_s.c_str(),
                                  phase_s.c_str(),
                                  countdown_s.c_str(),
                                  steps_s.c_str(),
                                  iter_s.c_str(),
                                  nullptr};
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Exec a fresh single-threaded child (the parent's pool threads do
        // not survive fork, so the child must not reuse this image's state).
        ::execv(self, const_cast<char**>(child_argv));
        ::_exit(127);
      }
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid) {
        std::cerr << "FAIL: waitpid\n";
        return 1;
      }
      const bool killed =
          WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
      if (!killed && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
        std::cerr << "FAIL: child exited abnormally (status " << status
                  << ")\n";
        return 1;
      }
      generation = verify_recovery(dir, base, seed, iter, phase, killed);
      std::cout << "  " << dir << " iter " << iter << ": "
                << (killed ? kPhases[phase] : "no-crash") << " -> generation "
                << generation << " verified\n";
    }
    if (generation == 0) {
      std::cerr << "FAIL: " << dir << " never committed an update\n";
      return 1;
    }
  }
  std::cout << "crash harness PASSED\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 8 && std::string(argv[1]) == "--child")
      return run_child(argv[2], std::stoull(argv[3]), std::stoi(argv[4]),
                       std::stoi(argv[5]), std::stoi(argv[6]),
                       std::stoull(argv[7]));

    std::string root;
    std::uint64_t seed = 7;
    int iters = 10;
    std::size_t shards = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--iters" && i + 1 < argc)
        iters = std::stoi(argv[++i]);
      else if (arg == "--seed" && i + 1 < argc)
        seed = std::stoull(argv[++i]);
      else if (arg == "--shards" && i + 1 < argc)
        shards = std::stoul(argv[++i]);
      else if (root.empty() && arg[0] != '-')
        root = arg;
      else {
        std::cerr << "usage: crash_harness <dir> [--iters K] [--seed S] "
                     "[--shards N]\n";
        return 2;
      }
    }
    if (root.empty()) {
      std::cerr << "usage: crash_harness <dir> [--iters K] [--seed S] "
                   "[--shards N]\n";
      return 2;
    }
    char self[4096];
    const ssize_t len = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (len <= 0) {
      std::cerr << "FAIL: cannot resolve /proc/self/exe\n";
      return 1;
    }
    self[len] = '\0';
    return run_parent(root, seed, iters, shards, self);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
}
