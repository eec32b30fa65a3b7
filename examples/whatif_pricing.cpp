// Scenario: what-if pricing for a utility's distribution network.  The
// operator runs the network as an MST of candidate corridors; procurement
// wants to know, per corridor:
//   - for built corridors (tree edges): how much the maintenance price can
//     rise before the corridor drops out of the optimal plan, and which
//     corridor replaces it (Definition 1.2, tree side);
//   - for unbuilt corridors (non-tree edges): the price cut needed before
//     building it becomes optimal (Definition 1.2, non-tree side).
// One distributed run builds the sensitivity index; every corridor question
// after that is a cheap local query against the service (src/service/).
// Corridors nothing can replace report "unbounded" headroom — the kPosInfW
// sentinel is never printed as if it were a price.
//
//   $ ./whatif_pricing [n]
#include <algorithm>
#include <iostream>
#include <vector>

#include "graph/generators.hpp"
#include "mpc/config.hpp"
#include "mpc/engine.hpp"
#include "service/service.hpp"
#include "seq/oracles.hpp"

using namespace mpcmst;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 2000;

  // Semi-rural network: a few long feeder lines (deepish tree) plus local
  // meshing proposals.
  auto tree = graph::caterpillar_tree(n, n / 8, 17);
  graph::assign_random_tree_weights(tree, 100, 999, 23);
  auto inst = graph::make_mst_instance(std::move(tree), 3 * n, 29,
                                       /*slack=*/400);

  mpc::Engine eng(mpc::MpcConfig::scaled(inst.input_words(), 0.5, 64.0));
  auto service =
      service::QueryService::open({.engine = &eng, .instance = &inst});
  const auto& index = service->index();

  // Built corridors with the least pricing headroom, via one top-k query.
  std::cout << "corridors at pricing risk (price rise that changes the "
               "optimal plan):\n";
  std::cout << "  corridor  price  cheapest-alternative  headroom\n";
  const auto fragile = service->top_k_fragile(8);
  for (const auto& f : fragile.fragile) {
    std::cout << "  {" << f.child << "," << f.parent << "}  " << f.w << "  ";
    if (f.replacement < 0) {
      // Uncovered corridor: nothing can replace it, headroom is unbounded.
      std::cout << "none  unbounded\n";
      continue;
    }
    const auto& alt = index.nontree_edge(f.replacement);
    std::cout << alt.w << " (corridor {" << alt.u << "," << alt.v << "})  "
              << f.sens << "\n";
  }

  // Unbuilt corridors closest to entering the optimal plan: smallest
  // non-tree headroom.  Edges that cover nothing (kPosInfW headroom) can
  // never enter and are skipped rather than printed as prices.
  struct Candidate {
    std::int64_t id;
    graph::Weight sens;
  };
  std::vector<Candidate> unbuilt;
  unbuilt.reserve(index.num_nontree());
  for (std::size_t i = 0; i < index.num_nontree(); ++i) {
    const auto& e = index.nontree_edge(static_cast<std::int64_t>(i));
    if (e.sens >= graph::kPosInfW) continue;
    // Skip corridors shadowed by a parallel edge: endpoint queries resolve
    // to the tree edge (or the lightest duplicate), so the service would be
    // answering about a different corridor than this row.
    const auto ref = index.find(e.u, e.v);
    if (!ref || ref->is_tree || ref->id != static_cast<std::int64_t>(i))
      continue;
    unbuilt.push_back({static_cast<std::int64_t>(i), e.sens});
  }
  std::sort(unbuilt.begin(), unbuilt.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.sens != b.sens ? a.sens < b.sens : a.id < b.id;
            });
  std::cout << "\nunbuilt corridors closest to viability (required price "
               "cut):\n";
  std::cout << "  corridor  price  displaces-at  cut-needed\n";
  for (std::size_t i = 0; i < 8 && i < unbuilt.size(); ++i) {
    const auto& e = index.nontree_edge(unbuilt[i].id);
    const auto a = service->price_change(e.u, e.v, -e.sens - 1);
    std::cout << "  {" << e.u << "," << e.v << "}  " << e.w << "  "
              << e.maxpath << "  " << e.sens
              << (a.still_optimal ? "" : "  (cut+1 flips the plan)") << "\n";
  }

  // Sanity: the cheapest projected swap really keeps the plan optimal.
  // (Lower the best unbuilt corridor by its headroom and re-verify.)
  if (!unbuilt.empty() && unbuilt.front().sens > 0) {
    const auto& e = index.nontree_edge(unbuilt.front().id);
    const auto at_tie = service->price_change(e.u, e.v, -unbuilt.front().sens);
    auto mutated = inst;
    mutated.nontree[unbuilt.front().id].w -= unbuilt.front().sens;
    const bool oracle = seq::verify_mst(mutated);
    std::cout << "\nafter applying the top cut, the tree is "
              << (oracle ? "still optimal (tie swap)"
                         : "no longer uniquely optimal")
              << "; the service " << (at_tie.still_optimal == oracle
                                          ? "agrees"
                                          : "DISAGREES (bug!)")
              << "\n";
  }

  const auto stats = service->stats();
  std::cout << "\nanswered " << stats.queries_served
            << " corridor questions against one index built in "
            << index.receipt().build_rounds << " MPC rounds ("
            << inst.m() << " corridors indexed)\n";
  return 0;
}
