#include "net/server.hpp"

#include <poll.h>

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "verify/still_mst.hpp"

namespace mpcmst::service::net {

namespace {

/// Wait for readability so idle server connections can poll the stop flag
/// without consuming partial frames: -1 error/close, 0 idle, 1 readable.
int wait_readable(const Socket& s, int timeout_ms) {
  pollfd pfd{s.fd(), POLLIN, 0};
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) return errno == EINTR ? 0 : -1;
  if (rc == 0) return 0;
  if (pfd.revents & (POLLERR | POLLNVAL)) return -1;
  return 1;
}

MsgType write_error(ByteWriter& rep, ServiceStatus status,
                    const std::string& msg) {
  encode_error(rep, status, msg);
  return MsgType::kError;
}

void send_error(Socket& s, ServiceStatus status, const std::string& msg) {
  ByteWriter body;
  encode_error(body, status, msg);
  try {
    send_frame(s, MsgType::kError, body);
  } catch (const ServiceError&) {
    // Best effort: the peer may already be gone.
  }
}

}  // namespace

// --- ShardHost ------------------------------------------------------------

ShardHost::ShardHost(ShardHostState st)
    : meta_(st.meta),
      shard_(std::move(st.shard)),
      parent_(std::move(st.parent)),
      tree_w_(std::move(st.tree_w)) {
  MPCMST_CHECK(parent_.size() == meta_.n && tree_w_.size() == meta_.n,
               "shard host: tree mirrors sized " << parent_.size() << "/"
                                                 << tree_w_.size()
                                                 << " for n = " << meta_.n);
  graph::RootedTree tree;
  tree.n = meta_.n;
  tree.root = meta_.root;
  tree.parent = parent_;
  tree.weight = tree_w_;
  if (meta_.n > 0) {
    MPCMST_CHECK(meta_.root >= 0 &&
                     static_cast<std::size_t>(meta_.root) < meta_.n,
                 "shard host: root " << meta_.root << " outside [0, "
                                     << meta_.n << ")");
    tree.parent[static_cast<std::size_t>(meta_.root)] = meta_.root;
    MPCMST_CHECK(tree.well_formed(),
                 "shard host: shipped parent column is not a rooted tree");
    topo_ = verify::TreeTopology(tree);
  }
}

std::size_t ShardHost::shard_of(Vertex v) const {
  return std::min(static_cast<std::size_t>(v) / meta_.stride,
                  static_cast<std::size_t>(meta_.num_shards) - 1);
}

MsgType ShardHost::answer_run(ByteReader& req, ByteWriter& rep) const {
  const std::uint64_t count = req.u64();
  if (!req.ok() || count > (1u << 24) ||
      count > req.remaining() / kMinQueryBytes)
    return write_error(rep, ServiceStatus::kInvalidRequest,
                       "answer_run: unreasonable query count");
  std::vector<Query> qs(static_cast<std::size_t>(count));
  for (Query& q : qs) {
    if (!decode_query(req, q))
      return write_error(rep, ServiceStatus::kWireError,
                         "answer_run: truncated query");
    if (q.kind == QueryKind::kTopKFragile || q.kind == QueryKind::kStillMst)
      return write_error(rep, ServiceStatus::kInvalidRequest,
                         "answer_run carries a fan-out query; use "
                         "top_k/certify");
  }
  rep.u64(qs.size());
  for (const Query& q : qs) {
    // Local-resolution half of ShardedSensitivityIndex::resolve(): the
    // client owns bounds checks and the second probe; an entry found here
    // always has its labels here (shard.hpp's ownership invariant).
    const std::optional<EdgeRef> ref = shard_.find(endpoint_key(q.u, q.v));
    if (!ref) {
      rep.u8(0);
      encode_answer(rep, Answer{});
      continue;
    }
    rep.u8(1);
    if (ref->is_tree) {
      encode_answer(rep,
                    answer_for_tree_edge(q, *ref, shard_.tree_edge(ref->id)));
    } else {
      const std::optional<NonTreeEdgeInfo> e = shard_.nontree_edge(ref->id);
      MPCMST_ASSERT(e.has_value(), "shard host: resolved non-tree edge "
                                       << ref->id << " missing locally");
      encode_answer(rep, answer_for_nontree_edge(q, *ref, *e));
    }
  }
  encode_stamp(rep, stamp());
  return MsgType::kAnswerRunReply;
}

MsgType ShardHost::top_k(ByteReader& req, ByteWriter& rep) const {
  const std::int64_t k = req.i64();
  if (!req.ok() || k < 0)
    return write_error(rep, ServiceStatus::kInvalidRequest, "top_k: bad k");
  const std::size_t take = std::min<std::size_t>(
      static_cast<std::size_t>(k), shard_.fragile_order.size());
  std::vector<FragileEntry> entries;
  entries.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const Vertex child = shard_.fragile_order[i];
    entries.push_back(make_fragile_entry(child, shard_.tree_edge(child)));
  }
  rep.vec(entries);
  encode_stamp(rep, stamp());
  return MsgType::kTopKReply;
}

MsgType ShardHost::certify(ByteReader& req, ByteWriter& rep) const {
  std::vector<verify::ResolvedChange> changes;
  if (!decode_resolved_changes(req, changes))
    return write_error(rep, ServiceStatus::kWireError,
                       "certify: truncated change batch");
  // The per-shard half of merge_still_mst (router.cpp): certify the local
  // roster, tree weights from the full mirror, path questions from the
  // local topology view.
  const verify::BatchCertifier cert(
      topo_,
      [this](Vertex child) {
        return tree_w_[static_cast<std::size_t>(child)];
      },
      changes);
  std::vector<verify::ViolationCert> certs;
  for (std::size_t r = 0; r < shard_.nontree_ids.size(); ++r)
    if (const auto viol = cert.certify(shard_.nontree_ids[r],
                                       shard_.nontree.u[r], shard_.nontree.v[r],
                                       shard_.nontree.w[r],
                                       shard_.nontree.maxpath[r]))
      certs.push_back(*viol);
  rep.vec(certs);
  encode_stamp(rep, stamp());
  return MsgType::kCertifyReply;
}

MsgType ShardHost::find_run(ByteReader& req, ByteWriter& rep) const {
  const std::uint64_t count = req.u64();
  if (!req.ok() || count > req.remaining() / 16)
    return write_error(rep, ServiceStatus::kWireError,
                       "find_run: truncated key list");
  rep.u64(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const Vertex u = req.i64();
    const Vertex v = req.i64();
    const std::optional<EdgeRef> ref = shard_.find(endpoint_key(u, v));
    rep.u8(ref.has_value() ? 1 : 0);
    rep.u8(ref && ref->is_tree ? 1 : 0);
    rep.i64(ref ? ref->id : -1);
  }
  if (!req.ok())
    return write_error(rep, ServiceStatus::kWireError,
                       "find_run: truncated key list");
  encode_stamp(rep, stamp());
  return MsgType::kFindRunReply;
}

MsgType ShardHost::nontree_info(ByteReader& req, ByteWriter& rep) const {
  const std::int64_t orig_id = req.i64();
  if (!req.ok())
    return write_error(rep, ServiceStatus::kWireError,
                       "nontree_info: truncated request");
  const std::optional<NonTreeEdgeInfo> info = shard_.nontree_edge(orig_id);
  rep.u8(info.has_value() ? 1 : 0);
  rep.pod(info.value_or(NonTreeEdgeInfo{}));
  encode_stamp(rep, stamp());
  return MsgType::kNontreeInfoReply;
}

void ShardHost::apply_patch(const WirePatch& p) {
  // Ownership is derived locally: tree infos refresh the full mirrors on
  // every host and patch labels on the owner; non-tree entries reconcile
  // against min-endpoint ownership (evicting stale slots everywhere else);
  // endpoint entries land on the shard owning the key's high vertex.
  for (std::size_t i = 0; i < p.tree_children.size(); ++i) {
    const Vertex c = p.tree_children[i];
    const TreeEdgeInfo& info = p.tree_infos[i];
    MPCMST_CHECK(c >= 0 && static_cast<std::size_t>(c) < meta_.n,
                 "patch: tree child " << c << " outside [0, " << meta_.n
                                      << ")");
    parent_[static_cast<std::size_t>(c)] = info.parent;
    tree_w_[static_cast<std::size_t>(c)] = info.w;
    if (shard_.owns(c)) shard_patch_tree(shard_, c, info);
  }
  for (std::size_t i = 0; i < p.nontree_ids.size(); ++i) {
    const NonTreeEdgeInfo& info = p.nontree_infos[i];
    const bool owned =
        shard_of(std::min(info.u, info.v)) == meta_.shard_index;
    shard_patch_nontree(shard_, owned, p.nontree_ids[i], info);
  }
  for (std::size_t i = 0; i < p.endpoint_keys.size(); ++i) {
    const std::uint64_t key = p.endpoint_keys[i];
    if (shard_of(static_cast<Vertex>(key >> 32)) != meta_.shard_index)
      continue;
    shard_patch_endpoint(
        shard_, key,
        EdgeRef{p.endpoint_is_tree[i] != 0, p.endpoint_ids[i]});
  }
  // Pure function of the slice — refreshing an untouched shard is a no-op.
  shard_refresh_cost(shard_);
  meta_.num_nontree = p.num_nontree;
  meta_.fingerprint = p.fingerprint;
  meta_.generation = p.epoch;
  shard_.generation = p.epoch;
}

ShardHostState make_host_state(const ShardedSensitivityIndex& idx,
                               std::size_t i, const CostReceipt& receipt) {
  ShardHostState st;
  st.meta.n = idx.n();
  st.meta.num_nontree = idx.num_nontree();
  st.meta.stride = idx.stride();
  st.meta.num_shards = idx.num_shards();
  st.meta.shard_index = i;
  st.meta.root = idx.root();
  st.meta.violations = idx.violations();
  st.meta.fingerprint = idx.fingerprint();
  st.meta.generation = idx.generation();
  st.meta.receipt = receipt;
  st.shard = idx.shard(i);
  // The full tree mirrors (same walk as rebuild_topology).
  st.parent.assign(idx.n(), -1);
  st.tree_w.assign(idx.n(), 0);
  for (std::size_t j = 0; j < idx.num_shards(); ++j) {
    const IndexShard& s = idx.shard(j);
    for (Vertex v = s.lo; v < s.hi; ++v) {
      const auto slot = static_cast<std::size_t>(v - s.lo);
      st.parent[static_cast<std::size_t>(v)] = s.tree.parent[slot];
      st.tree_w[static_cast<std::size_t>(v)] = s.tree.w[slot];
    }
  }
  return st;
}

// --- LocalShard -----------------------------------------------------------

void LocalShard::install(ShardHostState st) {
  auto host = std::make_unique<ShardHost>(std::move(st));
  std::unique_lock lock(mu_);
  host_ = std::move(host);
}

MsgType LocalShard::dispatch(MsgType t, ByteReader& req, ByteWriter& rep) {
  try {
    switch (t) {
      case MsgType::kPing:
        return MsgType::kPong;
      case MsgType::kBootstrap: {
        ShardHostState st;
        if (!decode_host_state(req, st))
          return write_error(rep, ServiceStatus::kWireError,
                             "bootstrap: truncated shard state");
        install(std::move(st));
        return MsgType::kOk;
      }
      case MsgType::kPatch: {
        WirePatch p;
        if (!decode_patch(req, p))
          return write_error(rep, ServiceStatus::kWireError,
                             "patch: truncated payload");
        std::unique_lock lock(mu_);
        if (!host_)
          return write_error(rep, ServiceStatus::kUnavailable,
                             "patch before bootstrap");
        host_->apply_patch(p);
        return MsgType::kOk;
      }
      default:
        break;
    }
    std::shared_lock lock(mu_);
    if (!host_)
      return write_error(rep, ServiceStatus::kUnavailable,
                         "shard server not bootstrapped yet");
    switch (t) {
      case MsgType::kMeta:
        encode_meta(rep, host_->meta());
        return MsgType::kMetaReply;
      case MsgType::kAnswerRun:
        return host_->answer_run(req, rep);
      case MsgType::kTopK:
        return host_->top_k(req, rep);
      case MsgType::kCertify:
        return host_->certify(req, rep);
      case MsgType::kFindRun:
        return host_->find_run(req, rep);
      case MsgType::kNontreeInfo:
        return host_->nontree_info(req, rep);
      default:
        return write_error(
            rep, ServiceStatus::kInvalidRequest,
            std::string("shard server cannot serve ") + to_string(t));
    }
  } catch (const ServiceError& e) {
    rep = ByteWriter();
    return write_error(rep, e.status(), e.what());
  } catch (const ModelError& e) {
    rep = ByteWriter();
    return write_error(rep, ServiceStatus::kInvalidRequest, e.what());
  }
}

// --- FrameServer ----------------------------------------------------------

namespace {

Gauge& connections_gauge() {
  static Gauge& g = MetricsRegistry::instance().gauge("net_server_connections");
  return g;
}

}  // namespace

FrameServer::FrameServer(Listener listener, NetOptions opts)
    : listener_(std::move(listener)), opts_(opts) {}

FrameServer::~FrameServer() { stop(); }

void FrameServer::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void FrameServer::stop() {
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  std::lock_guard lock(conns_mu_);
  for (Conn& c : conns_) c.thread.join();
  connections_gauge().sub(static_cast<std::int64_t>(conns_.size()));
  conns_.clear();
}

void FrameServer::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void FrameServer::shut_down(Socket& s) {
  send_frame(s, MsgType::kOk, ByteWriter());
  stop_.store(true, std::memory_order_release);
}

void FrameServer::reap_locked() {
  conns_.remove_if([](Conn& c) {
    if (!c.done.load(std::memory_order_acquire)) return false;
    c.thread.join();
    connections_gauge().sub(1);
    return true;
  });
}

void FrameServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Socket s = listener_.accept(stop_);
    if (!s.valid()) continue;
    std::lock_guard lock(conns_mu_);
    reap_locked();
    Conn& c = conns_.emplace_back();
    connections_gauge().add(1);
    c.thread = std::thread([this, &c, sock = std::move(s)]() mutable {
      serve_conn(std::move(sock));
      c.done.store(true, std::memory_order_release);
    });
  }
}

void FrameServer::serve_conn(Socket s) {
  s.set_io_timeout(opts_.io_timeout_ms);
  while (!stop_.load(std::memory_order_acquire)) {
    const int rc = wait_readable(s, 100);
    if (rc < 0) return;
    if (rc == 0) continue;
    Frame f;
    try {
      f = recv_frame(s);
    } catch (const ServiceError& e) {
      if (e.status() == ServiceStatus::kVersionMismatch)
        send_error(s, ServiceStatus::kVersionMismatch,
                   "this server speaks wire version " +
                       std::to_string(kWireVersion));
      return;
    }
    if (!handle_frame(s, f)) return;
  }
}

// --- ShardServer ----------------------------------------------------------

ShardServer::ShardServer(Listener listener, NetOptions opts)
    : FrameServer(std::move(listener), opts) {}

ShardServer::~ShardServer() { stop(); }

bool ShardServer::handle_frame(Socket& s, const Frame& f) {
  if (f.type == MsgType::kShutdown) {
    try {
      shut_down(s);
    } catch (const ServiceError&) {
      // The peer is gone before the acknowledgement; keep serving.
    }
    return false;
  }
  ByteReader req(f.body.data(), f.body.size());
  ByteWriter rep;
  const MsgType rtype = shard_.dispatch(f.type, req, rep);
  try {
    send_frame(s, rtype, rep);
  } catch (const ServiceError&) {
    return false;
  }
  return true;
}

// --- ServiceServer --------------------------------------------------------

ServiceServer::ServiceServer(Listener listener, ServiceProvider provider,
                             NetOptions opts)
    : FrameServer(std::move(listener), opts), provider_(std::move(provider)) {}

ServiceServer::~ServiceServer() { stop(); }

bool ServiceServer::handle_frame(Socket& s, const Frame& f) {
  ByteReader req(f.body.data(), f.body.size());
  ByteWriter rep;
  MsgType rtype = MsgType::kOk;
  try {
    switch (f.type) {
      case MsgType::kPing:
        rtype = MsgType::kPong;
        break;
      case MsgType::kShutdown:
        shut_down(s);
        return false;
      case MsgType::kQuery: {
        const std::shared_ptr<QueryService> svc = provider_();
        if (!svc) {
          rtype = write_error(rep, ServiceStatus::kUnavailable,
                              "no backend behind this endpoint yet");
          break;
        }
        Query q;
        if (!decode_query(req, q)) {
          rtype = write_error(rep, ServiceStatus::kWireError,
                              "query: truncated payload");
          break;
        }
        const Answer a = svc->answer(q);
        encode_answer(rep, a);
        encode_stamp(rep, WireStamp{svc->backend().generation(),
                                    svc->backend().fingerprint()});
        rtype = MsgType::kQueryReply;
        break;
      }
      case MsgType::kStats: {
        const std::shared_ptr<QueryService> svc = provider_();
        WireStats st;
        if (svc) {
          const IndexBackend& b = svc->backend();
          st.generation = b.generation();
          st.fingerprint = b.fingerprint();
          st.n = b.n();
          st.num_nontree = b.num_nontree();
          st.violations = b.violations();
          st.num_shards = b.num_shards();
          st.serving = 1;
        } else {
          st.serving = 0;
        }
        encode_stats(rep, st);
        rtype = MsgType::kStatsReply;
        break;
      }
      case MsgType::kIngest: {
        if (!ingest_) {
          rtype = write_error(rep, ServiceStatus::kNotLeader,
                              "this endpoint does not accept mutations");
          break;
        }
        const std::uint64_t count = req.u64();
        if (!req.ok() || count > (1u << 24) ||
            count > req.remaining() / kEdgeEventBytes) {
          rtype = write_error(rep, ServiceStatus::kWireError,
                              "ingest: unreasonable event count");
          break;
        }
        std::vector<EdgeEvent> events(static_cast<std::size_t>(count));
        bool ok = true;
        for (EdgeEvent& ev : events)
          if (!decode_edge_event(req, ev)) {
            ok = false;
            break;
          }
        if (!ok) {
          rtype = write_error(rep, ServiceStatus::kWireError,
                              "ingest: truncated event stream");
          break;
        }
        const std::vector<UpdateReceipt> receipts = ingest_(events);
        rep.u64(receipts.size());
        for (const UpdateReceipt& rc : receipts) encode_update_receipt(rep, rc);
        rtype = MsgType::kIngestReply;
        break;
      }
      case MsgType::kSubscribe: {
        const std::uint64_t last_gen = req.u64();
        const bool have_state = req.u8() != 0;
        if (!req.ok()) {
          rtype = write_error(rep, ServiceStatus::kWireError,
                              "subscribe: truncated payload");
          break;
        }
        if (!subscribe_) {
          rtype = write_error(rep, ServiceStatus::kNotLeader,
                              "this endpoint has no replication hub");
          break;
        }
        send_frame(s, MsgType::kOk, rep);
        subscribe_(std::move(s), last_gen, have_state);
        return false;  // handed off: the replication hub owns the socket
      }
      default:
        rtype = write_error(
            rep, ServiceStatus::kInvalidRequest,
            std::string("service server cannot serve ") + to_string(f.type));
        break;
    }
  } catch (const ServiceError& e) {
    rep = ByteWriter();
    rtype = write_error(rep, e.status(), e.what());
  } catch (const ModelError& e) {
    rep = ByteWriter();
    rtype = write_error(rep, ServiceStatus::kInvalidRequest, e.what());
  }
  try {
    send_frame(s, rtype, rep);
  } catch (const ServiceError&) {
    return false;
  }
  return true;
}

}  // namespace mpcmst::service::net
