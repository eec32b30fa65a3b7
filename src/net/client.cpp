#include "net/client.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <queue>
#include <shared_mutex>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "graph/instance.hpp"
#include "net/server.hpp"

namespace mpcmst::service::net {

// --- ShardConn ------------------------------------------------------------

ShardConn::ShardConn(std::string endpoint, NetOptions opts)
    : endpoint_(std::move(endpoint)), opts_(opts) {}

std::shared_ptr<ShardConn> ShardConn::in_memory(
    std::shared_ptr<LocalShard> shard, std::string name) {
  auto conn = std::make_shared<ShardConn>(std::move(name), NetOptions{});
  conn->local_ = std::move(shard);
  return conn;
}

void ShardConn::drop_pool(Socket& faulted) {
  faulted.close();
  std::lock_guard lock(mu_);
  ++epoch_;
  idle_.clear();
}

ShardConn::InFlight ShardConn::send(MsgType t, const ByteWriter& body) {
  InFlight x;
  x.type = t;
  x.t0 = metrics_enabled() ? metrics_now_ns() : 0;
  if (local_) {
    // Metered as the frame the socket path would have carried.
    ByteReader req(body.data().data(), body.size());
    ByteWriter rep;
    x.reply.type = local_->dispatch(t, req, rep);
    x.reply.body = std::move(rep).take();
    x.tx = kFrameOverhead + body.size();
    return x;
  }
  {
    std::lock_guard lock(mu_);
    x.pool_epoch = epoch_;
    if (!idle_.empty()) {
      x.sock = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  try {
    if (!x.sock.valid()) {
      x.sock = dial(endpoint_, opts_);
      net_counter("client_dials").inc();
    }
    x.tx = send_frame(x.sock, t, body);
  } catch (const ServiceError&) {
    drop_pool(x.sock);
    throw;
  }
  return x;
}

Frame ShardConn::receive(InFlight x) {
  Frame reply = std::move(x.reply);
  std::size_t rx = kFrameOverhead + reply.body.size();
  if (!local_) {
    try {
      reply = recv_frame(x.sock, &rx);
    } catch (const ServiceError&) {
      drop_pool(x.sock);
      throw;
    }
  }
  RpcMetrics& m = rpc_metrics(x.type);
  m.calls->inc();
  m.bytes_tx->inc(x.tx);
  m.bytes_rx->inc(rx);
  if (x.t0 != 0) m.latency->record(metrics_now_ns() - x.t0);
  if (local_) return reply;
  // A socket checked out before the latest fault may lead to the same dead
  // peer; it retires instead of rejoining the pool.
  std::lock_guard lock(mu_);
  if (x.pool_epoch == epoch_) idle_.push_back(std::move(x.sock));
  return reply;
}

void ShardConn::after_fault(const ServiceError& e, int attempt) {
  const bool transport = e.status() == ServiceStatus::kTimeout ||
                         e.status() == ServiceStatus::kWireError;
  net_counter(e.status() == ServiceStatus::kTimeout ? "timeouts"
                                                    : "wire_errors")
      .inc();
  if (!transport || attempt >= opts_.reconnect_attempts)
    throw ServiceError(e.status(), endpoint_ + ": " + e.what());
  if (opts_.reconnect_backoff_ms > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts_.reconnect_backoff_ms));
  net_counter("reconnects").inc();
}

Frame ShardConn::checked(Frame reply) const {
  if (reply.type == MsgType::kError) {
    ServiceStatus status = ServiceStatus::kWireError;
    std::string msg;
    ByteReader r(reply.body.data(), reply.body.size());
    if (!decode_error(r, status, msg)) msg = "malformed error reply";
    throw ServiceError(status, endpoint_ + ": " + msg);
  }
  return reply;
}

Frame ShardConn::call_from(MsgType t, const ByteWriter& body,
                           int first_attempt) {
  for (int attempt = first_attempt;; ++attempt) {
    Frame reply;
    try {
      reply = receive(send(t, body));
    } catch (const ServiceError& e) {
      after_fault(e, attempt);
      continue;
    }
    return checked(std::move(reply));
  }
}

Frame ShardConn::call(MsgType t, const ByteWriter& body) {
  return call_from(t, body, 0);
}

std::vector<Frame> ShardConn::call_all(
    const std::vector<std::shared_ptr<ShardConn>>& conns, MsgType t,
    const std::vector<const ByteWriter*>& bodies) {
  const std::size_t n = conns.size();
  std::vector<std::optional<InFlight>> sent(n);
  std::vector<Frame> out(n);
  std::vector<char> faulted(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (bodies[i] == nullptr) continue;
    try {
      sent[i] = conns[i]->send(t, *bodies[i]);
    } catch (const ServiceError& e) {
      conns[i]->after_fault(e, 0);
      faulted[i] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!sent[i]) continue;
    try {
      out[i] = conns[i]->receive(*std::move(sent[i]));
    } catch (const ServiceError& e) {
      conns[i]->after_fault(e, 0);
      faulted[i] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (faulted[i])
      out[i] = conns[i]->call_from(t, *bodies[i], 1);
    else if (bodies[i] != nullptr)
      out[i] = conns[i]->checked(std::move(out[i]));
  }
  return out;
}

namespace {

// --- shared merge machinery -----------------------------------------------

/// The networked reading of the router's epoch barrier: every state-reading
/// reply that contributes to one merged answer must carry the same stamp.
/// The leader pre-fills `expect` with its authoritative epoch; the read-only
/// backend starts empty and requires mutual agreement.
struct StampCheck {
  std::optional<WireStamp> expect;
  /// Set when the mismatch was a reply from a later generation than
  /// `expect` (the leader reads that as a commit landing mid-read).
  bool newer = false;

  void observe(const WireStamp& s, const std::string& endpoint) {
    if (!expect) {
      expect = s;
      return;
    }
    if (!(*expect == s)) {
      newer = s.generation > expect->generation;
      throw ServiceError(
          ServiceStatus::kEpochRetry,
          endpoint + ": reply stamped generation " +
              std::to_string(s.generation) + ", merge pinned to " +
              std::to_string(expect->generation));
    }
  }
};

bool retryable(ServiceStatus s) {
  return s == ServiceStatus::kEpochRetry || s == ServiceStatus::kTimeout ||
         s == ServiceStatus::kWireError || s == ServiceStatus::kUnavailable;
}

void expect_reply(const ShardConn& c, MsgType req, const Frame& f,
                  MsgType want) {
  if (f.type != want)
    throw ServiceError(ServiceStatus::kWireError,
                       c.endpoint() + ": unexpected " +
                           std::string(to_string(f.type)) + " reply to " +
                           to_string(req));
}

Frame call_expect(ShardConn& c, MsgType req, const ByteWriter& body,
                  MsgType want) {
  Frame f = c.call(req, body);
  expect_reply(c, req, f, want);
  return f;
}

/// ShardConn::call_all over the shards with a non-null body, checking
/// every reply's type.
std::vector<Frame> call_expect_all(
    const std::vector<std::shared_ptr<ShardConn>>& conns, MsgType req,
    const std::vector<const ByteWriter*>& bodies, MsgType want) {
  std::vector<Frame> fs = ShardConn::call_all(conns, req, bodies);
  for (std::size_t s = 0; s < conns.size(); ++s)
    if (bodies[s] != nullptr) expect_reply(*conns[s], req, fs[s], want);
  return fs;
}

[[noreturn]] void truncated(const ShardConn& c, const char* what) {
  throw ServiceError(ServiceStatus::kWireError,
                     c.endpoint() + ": truncated " + std::string(what) +
                         " reply");
}

/// Connection fan + the partition arithmetic of ShardedSensitivityIndex
/// (stride-sized ranges, trailing shards may be empty).
struct TierView {
  const std::vector<std::shared_ptr<ShardConn>>& conns;
  std::size_t n;
  std::size_t stride;

  std::size_t shard_of(Vertex v) const {
    return std::min(static_cast<std::size_t>(v) / stride, conns.size() - 1);
  }
  bool in_bounds(Vertex u, Vertex v) const {
    return u >= 0 && v >= 0 && u < static_cast<Vertex>(n) &&
           v < static_cast<Vertex>(n);
  }
};

WireStamp read_stamp(ByteReader& r, const ShardConn& c, const char* what) {
  WireStamp s;
  if (!decode_stamp(r, s) || !r.ok()) truncated(c, what);
  return s;
}

/// Answer every point query in `qs` (fan-out kinds are skipped), writing
/// into the parallel `out`.  The two-probe protocol of resolve(): round 0
/// probes shard_of(u) (one batched RPC per shard), unresolved keys go to
/// shard_of(v) in round 1, and a key neither shard knows is kUnknownEdge —
/// exactly the in-process precedence, since a key lives in at most one
/// shard's endpoint map.
void answer_points(const TierView& t, const std::vector<Query>& qs,
                   std::vector<Answer>& out, StampCheck& st) {
  std::vector<std::vector<std::size_t>> probe(t.conns.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const Query& q = qs[i];
    if (q.kind == QueryKind::kTopKFragile || q.kind == QueryKind::kStillMst)
      continue;
    if (!t.in_bounds(q.u, q.v)) {
      out[i].status = Status::kUnknownEdge;
      continue;
    }
    probe[t.shard_of(q.u)].push_back(i);
  }
  for (int round = 0; round < 2; ++round) {
    std::vector<ByteWriter> bodies(t.conns.size());
    std::vector<const ByteWriter*> send(t.conns.size(), nullptr);
    for (std::size_t s = 0; s < t.conns.size(); ++s) {
      if (probe[s].empty()) continue;
      bodies[s].u64(probe[s].size());
      for (const std::size_t i : probe[s]) encode_query(bodies[s], qs[i]);
      send[s] = &bodies[s];
    }
    const std::vector<Frame> fs = call_expect_all(
        t.conns, MsgType::kAnswerRun, send, MsgType::kAnswerRunReply);
    std::vector<std::vector<std::size_t>> next(t.conns.size());
    for (std::size_t s = 0; s < t.conns.size(); ++s) {
      if (probe[s].empty()) continue;
      const ShardConn& conn = *t.conns[s];
      ByteReader r(fs[s].body.data(), fs[s].body.size());
      if (r.u64() != probe[s].size()) truncated(conn, "answer_run");
      for (const std::size_t i : probe[s]) {
        const bool resolved = r.u8() != 0;
        Answer a;
        if (!decode_answer(r, a)) truncated(conn, "answer_run");
        if (resolved) {
          out[i] = std::move(a);
          continue;
        }
        const std::size_t second = t.shard_of(qs[i].v);
        if (round == 0 && second != s)
          next[second].push_back(i);
        else
          out[i].status = Status::kUnknownEdge;
      }
      st.observe(read_stamp(r, conn, "answer_run"), conn.endpoint());
    }
    probe = std::move(next);
  }
}

/// merge_top_k (router.cpp) over per-shard prefix replies: each shard hands
/// back its first min(k, |order|) fragility rows (already (sens, id)
/// ascending), and the same min-heap interleaves them.  Consuming at most k
/// rows total means the prefixes are always deep enough.
Answer merged_top_k(const TierView& t, const Query& q, StampCheck& st) {
  Answer a;
  const std::size_t total = t.n ? t.n - 1 : 0;
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(q.k), total);
  a.fragile.reserve(k);
  if (k == 0) return a;
  ByteWriter body;
  body.i64(static_cast<std::int64_t>(k));
  const std::vector<Frame> fs = call_expect_all(
      t.conns, MsgType::kTopK,
      std::vector<const ByteWriter*>(t.conns.size(), &body),
      MsgType::kTopKReply);
  std::vector<std::vector<FragileEntry>> per(t.conns.size());
  for (std::size_t s = 0; s < t.conns.size(); ++s) {
    const ShardConn& conn = *t.conns[s];
    ByteReader r(fs[s].body.data(), fs[s].body.size());
    per[s] = r.vec<FragileEntry>();
    if (!r.ok()) truncated(conn, "top_k");
    st.observe(read_stamp(r, conn, "top_k"), conn.endpoint());
  }
  struct Head {
    Weight sens;
    Vertex child;
    std::size_t shard;
    std::size_t pos;
  };
  const auto after = [](const Head& x, const Head& y) {
    return x.sens != y.sens ? x.sens > y.sens : x.child > y.child;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heap(after);
  for (std::size_t s = 0; s < per.size(); ++s)
    if (!per[s].empty())
      heap.push(Head{per[s][0].sens, per[s][0].child, s, 0});
  while (a.fragile.size() < k && !heap.empty()) {
    const Head head = heap.top();
    heap.pop();
    a.fragile.push_back(per[head.shard][head.pos]);
    const std::size_t next = head.pos + 1;
    if (next < per[head.shard].size())
      heap.push(Head{per[head.shard][next].sens, per[head.shard][next].child,
                     head.shard, next});
  }
  return a;
}

/// merge_still_mst's fan-out half over an already-resolved batch: every
/// shard certifies its roster against the batch, the certificates merge to
/// global ascending orig_id.
Answer merged_still_mst(const TierView& t,
                        const std::vector<verify::ResolvedChange>& resolved,
                        StampCheck& st) {
  Answer a;
  ByteWriter body;
  encode_resolved_changes(body, resolved);
  const std::vector<Frame> fs = call_expect_all(
      t.conns, MsgType::kCertify,
      std::vector<const ByteWriter*>(t.conns.size(), &body),
      MsgType::kCertifyReply);
  for (std::size_t s = 0; s < t.conns.size(); ++s) {
    const ShardConn& conn = *t.conns[s];
    ByteReader r(fs[s].body.data(), fs[s].body.size());
    const std::vector<verify::ViolationCert> certs =
        r.vec<verify::ViolationCert>();
    if (!r.ok()) truncated(conn, "certify");
    st.observe(read_stamp(r, conn, "certify"), conn.endpoint());
    a.certificates.insert(a.certificates.end(), certs.begin(), certs.end());
  }
  std::sort(a.certificates.begin(), a.certificates.end(),
            [](const verify::ViolationCert& x, const verify::ViolationCert& y) {
              return x.orig_id < y.orig_id;
            });
  a.still_optimal = a.certificates.empty();
  return a;
}

/// Two-probe batched endpoint resolution (the remote form of resolve()).
std::vector<std::optional<EdgeRef>> find_keys(
    const TierView& t, const std::vector<std::pair<Vertex, Vertex>>& keys,
    StampCheck& st) {
  std::vector<std::optional<EdgeRef>> out(keys.size());
  std::vector<std::vector<std::size_t>> probe(t.conns.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    if (t.in_bounds(keys[i].first, keys[i].second))
      probe[t.shard_of(keys[i].first)].push_back(i);
  for (int round = 0; round < 2; ++round) {
    std::vector<ByteWriter> bodies(t.conns.size());
    std::vector<const ByteWriter*> send(t.conns.size(), nullptr);
    for (std::size_t s = 0; s < t.conns.size(); ++s) {
      if (probe[s].empty()) continue;
      bodies[s].u64(probe[s].size());
      for (const std::size_t i : probe[s]) {
        bodies[s].i64(keys[i].first);
        bodies[s].i64(keys[i].second);
      }
      send[s] = &bodies[s];
    }
    const std::vector<Frame> fs = call_expect_all(
        t.conns, MsgType::kFindRun, send, MsgType::kFindRunReply);
    std::vector<std::vector<std::size_t>> next(t.conns.size());
    for (std::size_t s = 0; s < t.conns.size(); ++s) {
      if (probe[s].empty()) continue;
      const ShardConn& conn = *t.conns[s];
      ByteReader r(fs[s].body.data(), fs[s].body.size());
      if (r.u64() != probe[s].size()) truncated(conn, "find_run");
      for (const std::size_t i : probe[s]) {
        const bool has = r.u8() != 0;
        const bool is_tree = r.u8() != 0;
        const std::int64_t id = r.i64();
        if (has) {
          out[i] = EdgeRef{is_tree, id};
          continue;
        }
        const std::size_t second = t.shard_of(keys[i].second);
        if (round == 0 && second != s) next[second].push_back(i);
      }
      if (!r.ok()) truncated(conn, "find_run");
      st.observe(read_stamp(r, conn, "find_run"), conn.endpoint());
    }
    probe = std::move(next);
  }
  return out;
}

// --- RemoteShardBackend ---------------------------------------------------

/// Read-only attach to a running tier.  All tier-shape fields are cached
/// from the shards' kMeta replies.  Every operation pins its expected stamp
/// to the cached one before fanning out, so a reply from a newer epoch —
/// whose n/stride may no longer match the cached routing view — surfaces as
/// kEpochRetry, refreshes the metas, and retries against the new shape
/// rather than mis-routing (e.g. a vertex attach changes the stride).
class RemoteShardBackend final : public IndexBackend {
 public:
  RemoteShardBackend(const std::vector<std::string>& endpoints,
                     NetOptions opts) {
    MPCMST_CHECK(!endpoints.empty(),
                 "remote backend: the endpoint list is empty");
    conns_.reserve(endpoints.size());
    for (const std::string& ep : endpoints)
      conns_.push_back(std::make_shared<ShardConn>(ep, opts));
    refresh_metas();
  }

  Answer answer(const Query& q) const override {
    return with_retry([&](StampCheck& st) { return answer_at(q, st); });
  }

  std::vector<Answer> answer_many(
      const std::vector<Query>& qs) const override {
    return with_retry([&](StampCheck& st) {
      const TierView t = view();
      std::vector<Answer> out(qs.size());
      for (std::size_t i = 0; i < qs.size(); ++i)
        if (qs[i].kind == QueryKind::kTopKFragile ||
            qs[i].kind == QueryKind::kStillMst)
          out[i] = answer_at(qs[i], st);
      answer_points(t, qs, out, st);
      return out;
    });
  }

  std::size_t n() const override {
    return n_.load(std::memory_order_acquire);
  }
  std::size_t num_nontree() const override {
    return num_nontree_.load(std::memory_order_acquire);
  }
  bool is_mst() const override { return violations() == 0; }
  std::size_t violations() const override {
    return violations_.load(std::memory_order_acquire);
  }
  std::uint64_t fingerprint() const override {
    return fingerprint_.load(std::memory_order_acquire);
  }
  const CostReceipt& receipt() const override { return receipt_; }
  std::size_t num_shards() const override { return conns_.size(); }
  std::uint64_t generation() const override {
    return generation_.load(std::memory_order_acquire);
  }
  bool batched_runs() const override { return true; }

  std::size_t shard_hint(const Query& q) const override {
    if (q.kind == QueryKind::kTopKFragile || q.kind == QueryKind::kStillMst)
      return 0;
    const Vertex a = std::min(q.u, q.v);
    if (a < 0 || a >= static_cast<Vertex>(n())) return 0;
    return view().shard_of(a);
  }

  std::optional<EdgeRef> find(Vertex u, Vertex v) const override {
    return with_retry([&](StampCheck& st) {
      return find_keys(view(), {{u, v}}, st)[0];
    });
  }

  std::optional<NonTreeEdgeInfo> nontree_info(
      std::int64_t orig_id) const override {
    return with_retry(
        [&](StampCheck& st) -> std::optional<NonTreeEdgeInfo> {
          const TierView t = view();
          ByteWriter body;
          body.i64(orig_id);
          for (const auto& conn : t.conns) {
            Frame f = call_expect(*conn, MsgType::kNontreeInfo, body,
                                  MsgType::kNontreeInfoReply);
            ByteReader r(f.body.data(), f.body.size());
            const bool has = r.u8() != 0;
            const NonTreeEdgeInfo info = r.pod<NonTreeEdgeInfo>();
            st.observe(read_stamp(r, *conn, "nontree_info"),
                       conn->endpoint());
            if (has) return info;
          }
          return std::nullopt;
        });
  }

 private:
  TierView view() const {
    return TierView{conns_, n_.load(std::memory_order_acquire),
                    stride_.load(std::memory_order_acquire)};
  }

  Answer answer_at(const Query& q, StampCheck& st) const {
    const TierView t = view();
    if (q.kind == QueryKind::kTopKFragile) return merged_top_k(t, q, st);
    if (q.kind == QueryKind::kStillMst) {
      Answer a;
      std::vector<std::pair<Vertex, Vertex>> keys;
      keys.reserve(q.changes.size());
      for (const PriceChange& c : q.changes) keys.emplace_back(c.u, c.v);
      const auto refs = find_keys(t, keys, st);
      std::vector<verify::ResolvedChange> resolved;
      resolved.reserve(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!refs[i]) {
          a.status = Status::kUnknownEdge;
          return a;
        }
        resolved.push_back(verify::ResolvedChange{
            refs[i]->is_tree, refs[i]->id, q.changes[i].new_w});
      }
      return merged_still_mst(t, resolved, st);
    }
    const std::vector<Query> qs{q};
    std::vector<Answer> out(1);
    answer_points(t, qs, out, st);
    return out[0];
  }

  template <typename Fn>
  std::invoke_result_t<Fn&, StampCheck&> with_retry(Fn&& fn) const {
    for (int attempt = 0;; ++attempt) {
      try {
        // Pin the expected stamp to the cached one: the routing view (n,
        // stride) read inside fn() belongs to this stamp, so any reply from
        // a different epoch must force a refresh + retry, never a silent
        // merge over a stale view.
        StampCheck st;
        {
          std::lock_guard lock(stamp_mu_);
          st.expect =
              WireStamp{generation_.load(std::memory_order_relaxed),
                        fingerprint_.load(std::memory_order_relaxed)};
        }
        return fn(st);
      } catch (const ServiceError& e) {
        if (attempt >= 2 || !retryable(e.status())) throw;
        if (e.status() == ServiceStatus::kEpochRetry)
          net_counter("epoch_retries").inc();
        refresh_metas();
      }
    }
  }

  /// Fetch every shard's kMeta, cross-validate, and install the tier shape.
  /// Shards disagreeing among themselves (an update torn across the reads)
  /// surface as kEpochRetry so with_retry simply tries again.
  void refresh_metas() const {
    std::vector<WireMeta> metas(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Frame f = call_expect(*conns_[i], MsgType::kMeta, ByteWriter(),
                            MsgType::kMetaReply);
      ByteReader r(f.body.data(), f.body.size());
      if (!decode_meta(r, metas[i])) truncated(*conns_[i], "meta");
      if (metas[i].num_shards != conns_.size() || metas[i].shard_index != i)
        throw ServiceError(
            ServiceStatus::kInvalidRequest,
            conns_[i]->endpoint() + ": serves shard " +
                std::to_string(metas[i].shard_index) + " of " +
                std::to_string(metas[i].num_shards) +
                ", endpoint list expects shard " + std::to_string(i) +
                " of " + std::to_string(conns_.size()));
      if (metas[i].n != metas[0].n || metas[i].stride != metas[0].stride ||
          metas[i].fingerprint != metas[0].fingerprint ||
          metas[i].generation != metas[0].generation)
        throw ServiceError(ServiceStatus::kEpochRetry,
                           conns_[i]->endpoint() +
                               ": meta disagrees with shard 0 (torn update "
                               "or mixed tiers)");
    }
    std::lock_guard lock(stamp_mu_);
    n_.store(metas[0].n, std::memory_order_release);
    stride_.store(metas[0].stride, std::memory_order_release);
    num_nontree_.store(metas[0].num_nontree, std::memory_order_release);
    violations_.store(metas[0].violations, std::memory_order_release);
    if (metas[0].generation >=
        generation_.load(std::memory_order_relaxed)) {
      generation_.store(metas[0].generation, std::memory_order_release);
      fingerprint_.store(metas[0].fingerprint, std::memory_order_release);
    }
    receipt_ = metas[0].receipt;
  }

  std::vector<std::shared_ptr<ShardConn>> conns_;
  mutable std::mutex stamp_mu_;
  mutable std::atomic<std::size_t> n_{0};
  mutable std::atomic<std::size_t> stride_{1};
  mutable std::atomic<std::size_t> num_nontree_{0};
  mutable std::atomic<std::size_t> violations_{0};
  mutable std::atomic<std::uint64_t> generation_{0};
  mutable std::atomic<std::uint64_t> fingerprint_{0};
  mutable CostReceipt receipt_;
};

}  // namespace

// --- factories ------------------------------------------------------------

std::shared_ptr<const IndexBackend> make_remote_backend(
    const std::vector<std::string>& endpoints, NetOptions opts) {
  return std::make_shared<RemoteShardBackend>(endpoints, opts);
}

std::shared_ptr<UpdatableBackend> make_leader_backend(
    mpc::Engine& eng, const graph::Instance& inst,
    const std::vector<std::string>& endpoints, NetOptions opts) {
  std::vector<std::shared_ptr<ShardConn>> conns;
  conns.reserve(endpoints.size());
  for (const std::string& ep : endpoints)
    conns.push_back(std::make_shared<ShardConn>(ep, opts));
  return std::make_shared<LiveShardedBackend>(
      inst, SensitivityIndex::build(eng, inst), std::move(conns));
}

}  // namespace mpcmst::service::net

// --- LiveShardedBackend -----------------------------------------------------

namespace mpcmst::service {

using namespace net;

namespace {

/// k in-memory shard hosts, one connection each.
std::vector<std::shared_ptr<ShardConn>> in_memory_conns(std::size_t k) {
  std::vector<std::shared_ptr<ShardConn>> conns;
  conns.reserve(k);
  for (std::size_t i = 0; i < k; ++i)
    conns.push_back(ShardConn::in_memory(std::make_shared<LocalShard>(),
                                         "in-memory shard " +
                                             std::to_string(i)));
  return conns;
}

bool any_dirty(const std::vector<char>& dirty) {
  return std::any_of(dirty.begin(), dirty.end(),
                     [](char d) { return d != 0; });
}

}  // namespace

/// What a read takes from one committed epoch: the stamp every reply must
/// carry, the routing view, and each still_mst batch resolved against the
/// core (parallel to the queries; empty for other kinds).
struct LiveShardedBackend::Pin {
  /// The status resolve_changes() reported and, when kOk, the changes.
  struct Batch {
    Status status = Status::kOk;
    std::vector<verify::ResolvedChange> changes;
  };

  WireStamp stamp;
  std::size_t n = 0;
  std::size_t stride = 1;
  std::vector<Batch> batches;
};

LiveShardedBackend::LiveShardedBackend(
    graph::Instance inst, std::shared_ptr<const SensitivityIndex> snapshot,
    std::size_t num_shards)
    : LiveShardedBackend(
          std::move(inst), snapshot,
          in_memory_conns(clamp_shard_count(num_shards, snapshot->n()))) {}

LiveShardedBackend::LiveShardedBackend(
    graph::Instance inst, std::shared_ptr<const SensitivityIndex> snapshot,
    std::vector<std::shared_ptr<ShardConn>> conns)
    : LiveBackend(std::move(inst), snapshot, 0), conns_(std::move(conns)) {
  MPCMST_CHECK(!conns_.empty(), "leader: the endpoint list is empty");
  MPCMST_CHECK(
      conns_.size() == clamp_shard_count(conns_.size(), snapshot->n()),
      "leader: " << conns_.size() << " shard endpoints for " << snapshot->n()
                 << " vertices (a shard must own at least one vertex)");
  receipt_.effective_shards = conns_.size();
  dirty_.assign(conns_.size(), 1);
  std::vector<std::size_t> all(conns_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  MPCMST_CHECK(bootstrap_locked(all, 0) == all.size(),
               "leader: could not bootstrap every shard server");
}

std::shared_ptr<LiveShardedBackend> LiveShardedBackend::build(
    mpc::Engine& eng, const graph::Instance& inst, std::size_t num_shards) {
  return std::make_shared<LiveShardedBackend>(
      inst, SensitivityIndex::build(eng, inst), num_shards);
}

Answer LiveShardedBackend::answer(const Query& q) const {
  return answer_many({q})[0];
}

std::size_t LiveShardedBackend::shard_hint(const Query& q) const {
  if (q.kind == QueryKind::kTopKFragile || q.kind == QueryKind::kStillMst)
    return 0;
  const Vertex a = std::min(q.u, q.v);
  if (a < 0 || a >= static_cast<Vertex>(n_.load(std::memory_order_acquire)))
    return 0;
  return std::min(
      static_cast<std::size_t>(a) / stride_.load(std::memory_order_acquire),
      conns_.size() - 1);
}

LiveShardedBackend::Pin LiveShardedBackend::pin_locked(
    const std::vector<Query>& qs) const {
  Pin p;
  p.stamp = WireStamp{generation_.load(std::memory_order_relaxed),
                      core_.index().fingerprint()};
  p.n = n_.load(std::memory_order_relaxed);
  p.stride = stride_.load(std::memory_order_relaxed);
  p.batches.resize(qs.size());
  // The identical precedence resolve() applies in-process.
  for (std::size_t i = 0; i < qs.size(); ++i)
    if (qs[i].kind == QueryKind::kStillMst)
      p.batches[i].status = resolve_changes(
          [this](Vertex u, Vertex v) { return core_.index().find(u, v); },
          qs[i].changes, p.batches[i].changes);
  return p;
}

// Reads run against a pinned epoch without holding the reader lock across
// their RPCs, so an ingest never waits on a slow read.  The writer
// publishes epoch g+1 to the shards before it commits and stores g+1, so a
// reply stamped newer than the pin is a commit landing mid-read: re-pin
// (the shared lock waits for that commit) and retry.  Only replies carrying
// the pinned, committed stamp are merged, so no answer computed at an
// uncommitted epoch leaves the leader.  After two such re-pins the read
// keeps the lock, as a steady stream of commits must not starve it.  An
// older or foreign stamp, or a transport fault, suspects the tier and
// re-verifies it under the writer lock.
std::vector<Answer> LiveShardedBackend::answer_many(
    const std::vector<Query>& qs) const {
  check_not_poisoned();
  for (int attempt = 0, repins = 0;; ++attempt) {
    while (!dirty_any_.load(std::memory_order_acquire)) {
      std::shared_lock lock(mu_);
      check_not_poisoned();
      const Pin pin = pin_locked(qs);
      if (repins < 2) lock.unlock();
      StampCheck st;
      st.expect = pin.stamp;
      try {
        const TierView t{conns_, pin.n, pin.stride};
        std::vector<Answer> out(qs.size());
        for (std::size_t i = 0; i < qs.size(); ++i) {
          if (qs[i].kind == QueryKind::kTopKFragile) {
            out[i] = merged_top_k(t, qs[i], st);
          } else if (qs[i].kind == QueryKind::kStillMst) {
            if (pin.batches[i].status == Status::kOk)
              out[i] = merged_still_mst(t, pin.batches[i].changes, st);
            else
              out[i].status = pin.batches[i].status;
          }
        }
        answer_points(t, qs, out, st);
        return out;
      } catch (const ServiceError& e) {
        if (!lock.owns_lock() && st.newer &&
            e.status() == ServiceStatus::kEpochRetry) {
          net_counter("epoch_retries").inc();
          ++repins;
          continue;
        }
        if (attempt >= 2 || !retryable(e.status())) throw;
        if (e.status() == ServiceStatus::kEpochRetry)
          net_counter("epoch_retries").inc();
        // Somebody answered with foreign state or dropped the connection;
        // suspect the whole tier and re-verify under the writer lock.
        tier_suspect_.store(true, std::memory_order_release);
        break;
      }
    }
    if (dirty_any_.load(std::memory_order_acquire) && attempt >= 2)
      throw ServiceError(ServiceStatus::kUnavailable,
                         "shard tier degraded: a shard server cannot be "
                         "reached or re-bootstrapped");
    std::unique_lock lock(mu_);
    if (tier_suspect_.exchange(false, std::memory_order_acq_rel)) {
      std::fill(dirty_.begin(), dirty_.end(), 1);
      dirty_any_.store(true, std::memory_order_release);
    }
    resync_locked();
  }
}

void LiveShardedBackend::resync_locked() const {
  if (!dirty_any_.load(std::memory_order_relaxed)) return;
  const std::uint64_t epoch = generation_.load(std::memory_order_relaxed);
  const std::uint64_t fp = core_.index().fingerprint();
  std::vector<std::size_t> need;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (!dirty_[i]) continue;
    try {
      Frame f = call_expect(*conns_[i], MsgType::kMeta, ByteWriter(),
                            MsgType::kMetaReply);
      ByteReader r(f.body.data(), f.body.size());
      WireMeta m;
      if (decode_meta(r, m) && m.generation == epoch && m.fingerprint == fp &&
          m.shard_index == i && m.num_shards == conns_.size() &&
          m.n == core_.index().n()) {
        dirty_[i] = 0;
        continue;
      }
    } catch (const ServiceError&) {
      // Unreachable or unbootstrapped; fall through to a bootstrap try.
    }
    need.push_back(i);
  }
  if (!need.empty())
    net_counter("shard_rebootstraps").inc(bootstrap_locked(need, epoch));
  dirty_any_.store(any_dirty(dirty_), std::memory_order_release);
}

std::size_t LiveShardedBackend::bootstrap_locked(
    const std::vector<std::size_t>& which, std::uint64_t epoch) const {
  const auto split =
      ShardedSensitivityIndex::split(core_.index(), conns_.size());
  n_.store(split->n(), std::memory_order_release);
  stride_.store(split->stride(), std::memory_order_release);
  std::size_t took = 0;
  for (const std::size_t i : which) {
    ByteWriter body;
    {
      ShardHostState st = make_host_state(*split, i, receipt_);
      st.meta.generation = epoch;
      st.shard.generation = epoch;
      encode_host_state(body, st);
    }
    try {
      call_expect(*conns_[i], MsgType::kBootstrap, body, MsgType::kOk);
      dirty_[i] = 0;
      ++took;
    } catch (const ServiceError&) {
      dirty_[i] = 1;
      net_counter("bootstrap_failures").inc();
    }
  }
  dirty_any_.store(any_dirty(dirty_), std::memory_order_release);
  return took;
}

void LiveShardedBackend::publish(const ChangedSet& changed,
                                 std::uint64_t epoch) {
  persist_crash_point("shard-publish");
  const SensitivityIndex& m = core_.index();
  if (changed.full) {
    // A swap relabeled everything: re-bootstrap every shard from the core.
    std::vector<std::size_t> all(conns_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    bootstrap_locked(all, epoch);
    return;
  }
  WirePatch p;
  p.epoch = epoch;
  p.fingerprint = m.fingerprint();
  p.num_nontree = m.num_nontree();
  p.tree_children.reserve(changed.tree_children.size());
  p.tree_infos.reserve(changed.tree_children.size());
  for (const Vertex c : changed.tree_children) {
    p.tree_children.push_back(c);
    p.tree_infos.push_back(m.tree_edge(c));
  }
  p.nontree_ids.reserve(changed.nontree_ids.size());
  p.nontree_infos.reserve(changed.nontree_ids.size());
  for (const std::int64_t id : changed.nontree_ids) {
    p.nontree_ids.push_back(id);
    p.nontree_infos.push_back(m.nontree_edge(id));
  }
  p.endpoint_keys.reserve(changed.endpoints.size());
  for (const auto& [key, ref] : changed.endpoints) {
    p.endpoint_keys.push_back(key);
    p.endpoint_is_tree.push_back(ref.is_tree ? 1 : 0);
    p.endpoint_ids.push_back(ref.id);
  }
  ByteWriter body;
  encode_patch(body, p);
  bool newly_dirty = false;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (dirty_[i]) continue;  // already owes a bootstrap; skip the patch
    try {
      call_expect(*conns_[i], MsgType::kPatch, body, MsgType::kOk);
    } catch (const ServiceError&) {
      dirty_[i] = 1;
      newly_dirty = true;
      net_counter("patch_failures").inc();
    }
  }
  if (newly_dirty) dirty_any_.store(true, std::memory_order_release);
}

}  // namespace mpcmst::service
