#include "core/residual_search.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "core/message_recovery.hpp"
#include "seal/modarith.hpp"
#include "seal/poly.hpp"
#include "seal/sampler.hpp"

namespace reveal::core {

namespace {

/// Per-coefficient candidate list sorted by decreasing posterior.
struct CandidateList {
  std::size_t coeff_index = 0;
  std::vector<std::int64_t> values;
  std::vector<double> log_probs;  // aligned, non-increasing
  /// (values[r] - values[0]) mod q_j at [r * moduli + j]; searched lists only.
  std::vector<std::uint64_t> deltas;
};

/// Log-posterior lost by moving a list off its most likely candidate.
double first_step(const CandidateList& l) { return l.log_probs[0] - l.log_probs[1]; }

/// Heap node: one rank assignment R over the searched positions (its ranks
/// live in the search's rank pool at `slot`), the highest position `last`
/// with a nonzero rank, and its log-posterior loss against the all-top
/// assignment. Every node is a real assignment, so each pop is one try.
struct Node {
  double cost = 0.0;
  std::size_t slot = 0;
  std::size_t last = 0;
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const { return a.cost > b.cost; }
};

/// v mod q for a small signed v.
std::uint64_t reduce_signed(std::int64_t v, const seal::Modulus& q) {
  const std::uint64_t mag = static_cast<std::uint64_t>(v < 0 ? -v : v) % q.value();
  return v < 0 ? seal::negate_mod(mag, q) : mag;
}

}  // namespace

ResidualSearchResult residual_search(const seal::Context& context, const seal::PublicKey& pk,
                                     const seal::Ciphertext& ct,
                                     const std::vector<CoefficientGuess>& guesses,
                                     const ResidualSearchConfig& config) {
  using namespace reveal::seal;
  if (guesses.size() != context.n())
    throw std::invalid_argument("residual_search: guess count does not match context");
  if (ct.size() != 2)
    throw std::invalid_argument("residual_search: need a fresh 2-part ciphertext");
  if (config.max_candidates_per_coeff < 1 || config.max_candidates_per_coeff > 256)
    throw std::invalid_argument("residual_search: max_candidates_per_coeff must be in [1, 256]");
  if (config.max_tries == 0)
    throw std::invalid_argument("residual_search: max_tries must be positive");

  ResidualSearchResult result;

  // Maximum-likelihood baseline assignment.
  std::vector<std::int64_t> e2(context.n());
  for (std::size_t i = 0; i < context.n(); ++i) e2[i] = guesses[i].value;

  // Rank coefficients by certainty; collect candidate lists for the
  // uncertain ones.
  std::vector<CandidateList> lists;
  for (std::size_t i = 0; i < context.n(); ++i) {
    const auto& g = guesses[i];
    if (g.support.size() < 2) continue;
    double top = 0.0;
    for (const double p : g.posterior) top = std::max(top, p);
    if (top >= config.certain_threshold) continue;

    CandidateList list;
    list.coeff_index = i;
    std::vector<std::size_t> order(g.support.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&g](std::size_t a, std::size_t b) {
      return g.posterior[a] > g.posterior[b];
    });
    const std::size_t keep = std::min(order.size(), config.max_candidates_per_coeff);
    for (std::size_t k = 0; k < keep; ++k) {
      const double p = std::max(g.posterior[order[k]], 1e-30);
      list.values.push_back(g.support[order[k]]);
      list.log_probs.push_back(std::log(p));
    }
    lists.push_back(std::move(list));
  }
  // Search the least certain coefficients; pin the rest to their ML value.
  std::sort(lists.begin(), lists.end(), [](const CandidateList& a, const CandidateList& b) {
    return a.log_probs[0] < b.log_probs[0];
  });
  if (lists.size() > config.max_uncertain) lists.resize(config.max_uncertain);
  result.uncertain_count = lists.size();

  // Full consistency oracle. Precompute everything that does not depend on
  // the candidate: NTT(c1), the NTT-domain inverse of p1, and NTT(p0) — each
  // check is then one forward + one inverse transform.
  const double max_dev = context.parms().noise_max_deviation();
  const auto& tables = context.fast_ntt_tables();
  const auto& moduli = context.coeff_modulus();
  const std::size_t n = context.n();

  Poly c1_ntt = ct[1];
  polyops::ntt_forward(c1_ntt, tables);
  Poly p1_ntt = pk.p1;
  polyops::ntt_forward(p1_ntt, tables);
  Poly p1_inv_ntt(n, moduli.size());
  bool p1_invertible = true;
  for (std::size_t j = 0; j < moduli.size() && p1_invertible; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t denom = p1_ntt.at(i, j);
      if (denom == 0) {
        p1_invertible = false;
        break;
      }
      p1_inv_ntt.at(i, j) = inverse_mod(denom, moduli[j]);
    }
  }
  if (!p1_invertible) return result;  // no unique u: cannot search
  Poly p0_ntt = pk.p0;
  polyops::ntt_forward(p0_ntt, tables);

  const std::uint64_t delta = context.delta().low_word();
  const std::uint64_t t = context.plain_modulus().value();
  const std::uint64_t q0 = moduli[0].value();
  const double slack = max_dev + static_cast<double>(q0 % t) + 1.0;

  Poly scratch(n, moduli.size());
  Poly u_ntt(n, moduli.size());
  // u = (c1 - e2) * p1^{-1} in the NTT domain.
  auto u_ntt_of = [&](const std::vector<std::int64_t>& candidate_e2) {
    encode_noise_values(candidate_e2, context, scratch);
    polyops::ntt_forward(scratch, tables);
    for (std::size_t j = 0; j < moduli.size(); ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t num = seal::sub_mod(c1_ntt.at(i, j), scratch.at(i, j), moduli[j]);
        u_ntt.at(i, j) = seal::mul_mod(num, p1_inv_ntt.at(i, j), moduli[j]);
      }
    }
  };
  auto consistent = [&](const std::vector<std::int64_t>& candidate_e2) -> bool {
    // Ternary check first (the cheap, powerful filter), then the e1-bound
    // check on survivors.
    u_ntt_of(candidate_e2);
    Poly u = u_ntt;
    polyops::ntt_inverse(u, tables);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t centered = seal::center_mod(u.at(i, 0), moduli[0]);
      if (centered < -1 || centered > 1) return false;
      for (std::size_t j = 1; j < moduli.size(); ++j) {
        if (seal::center_mod(u.at(i, j), moduli[j]) != centered) return false;
      }
    }
    // e1 bound: x = c0 - p0*u must sit near a multiple of Delta.
    Poly p0u = u_ntt;
    polyops::dyadic_product(p0u, p0_ntt, moduli, p0u);
    polyops::ntt_inverse(p0u, tables);
    Poly x;
    polyops::sub(ct[0], p0u, moduli, x);
    if (context.coeff_mod_count() == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t rem = x.at(i, 0) % delta;
        const std::uint64_t dist = rem > delta / 2 ? delta - rem : rem;
        if (static_cast<double>(dist) > slack) return false;
      }
    }
    return true;
  };

  // Try the ML assignment first.
  ++result.tried;
  if (consistent(e2)) {
    result.found = true;
    result.e2 = e2;
    return result;
  }
  if (lists.empty() || config.max_candidates_per_coeff == 1) return result;  // nothing to enumerate

  // k-best chain enumeration over the searched positions sorted by
  // first-step cost. A node is an assignment R with its highest nonzero
  // position m; popping it pushes
  //   R + e_m              (increment child),
  //   R + e_{m+1}          (next-position child),
  //   R - e_m + e_{m+1}    (chain sibling, only when R[m] == 1).
  // Every R != 0 has exactly one parent under these rules, so no assignment
  // is pushed twice, and the sort makes every child cost at least as much
  // as its parent, so popping the cheapest node is exact best-first order.
  std::stable_sort(lists.begin(), lists.end(), [](const CandidateList& a, const CandidateList& b) {
    return first_step(a) < first_step(b);
  });
  const std::size_t width = lists.size();

  // Incremental ternary oracle. u is linear in e2: against the all-top
  // assignment `base`, a candidate differing by delta_k at coefficients p_k
  // has u = u_base - sum_k delta_k * x^{p_k} * w with w = p1^{-1}. Checking
  // it coefficient by coefficient rejects a wrong candidate at its first
  // non-ternary coefficient; survivors still run the full oracle.
  std::vector<std::int64_t> base = e2;
  for (const auto& l : lists) base[l.coeff_index] = l.values[0];
  u_ntt_of(base);
  Poly u_base = u_ntt;
  polyops::ntt_inverse(u_base, tables);
  Poly w = p1_inv_ntt;
  polyops::ntt_inverse(w, tables);
  for (auto& l : lists) {
    for (const std::int64_t v : l.values) {
      for (const Modulus& q : moduli) l.deltas.push_back(reduce_signed(v - l.values[0], q));
    }
  }
  struct Change {
    std::size_t pos;
    const std::uint64_t* delta;  // one residue per modulus
  };
  std::vector<Change> changes;
  changes.reserve(width);
  auto ternary = [&]() -> bool {
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t centered = 0;
      for (std::size_t j = 0; j < moduli.size(); ++j) {
        const Modulus& q = moduli[j];
        std::uint64_t v = u_base.at(i, j);
        for (const Change& c : changes) {
          // Negacyclic: (x^p * w)[i] = w[i - p], or -w[n + i - p] on wrap.
          if (i >= c.pos) {
            v = seal::sub_mod(v, seal::mul_mod(c.delta[j], w.at(i - c.pos, j), q), q);
          } else {
            v = seal::add_mod(v, seal::mul_mod(c.delta[j], w.at(n + i - c.pos, j), q), q);
          }
        }
        const std::int64_t cv = seal::center_mod(v, q);
        if (j == 0) {
          if (cv < -1 || cv > 1) return false;
          centered = cv;
        } else if (cv != centered) {
          return false;
        }
      }
    }
    return true;
  };

  // Ranks of live nodes, `width` bytes per slot; popped slots are reused.
  std::vector<std::uint8_t> pool;
  std::vector<std::size_t> free_slots;
  std::priority_queue<Node, std::vector<Node>, NodeOrder> heap;
  std::vector<std::uint8_t> ranks(width, 0);
  // Pushes the assignment currently in `ranks`.
  auto push = [&](double cost, std::size_t last) {
    std::size_t slot;
    if (free_slots.empty()) {
      slot = pool.size() / width;
      pool.resize(pool.size() + width);
    } else {
      slot = free_slots.back();
      free_slots.pop_back();
    }
    std::copy(ranks.begin(), ranks.end(), pool.begin() + static_cast<std::ptrdiff_t>(slot * width));
    heap.push(Node{cost, slot, last});
  };
  ranks[0] = 1;
  push(first_step(lists[0]), 0);

  std::vector<std::int64_t> candidate = base;
  while (!heap.empty() && result.tried < config.max_tries) {
    const Node node = heap.top();
    heap.pop();
    const auto stored = pool.begin() + static_cast<std::ptrdiff_t>(node.slot * width);
    std::copy(stored, stored + static_cast<std::ptrdiff_t>(width), ranks.begin());
    free_slots.push_back(node.slot);

    ++result.tried;
    changes.clear();
    for (std::size_t k = 0; k < width; ++k) {
      if (ranks[k] != 0) {
        changes.push_back({lists[k].coeff_index, &lists[k].deltas[ranks[k] * moduli.size()]});
      }
    }
    if (ternary()) {
      for (std::size_t k = 0; k < width; ++k) {
        candidate[lists[k].coeff_index] = lists[k].values[ranks[k]];
      }
      if (consistent(candidate)) {
        result.found = true;
        result.e2 = candidate;
        return result;
      }
    }

    const std::size_t m = node.last;
    const std::uint8_t r = ranks[m];
    const auto& lp = lists[m].log_probs;
    if (r + 1u < lp.size()) {
      ranks[m] = static_cast<std::uint8_t>(r + 1u);
      push(node.cost + (lp[r] - lp[r + 1u]), m);
      ranks[m] = r;
    }
    if (m + 1 < width) {
      const double next_step = first_step(lists[m + 1]);
      ranks[m + 1] = 1;
      push(node.cost + next_step, m + 1);
      if (r == 1) {
        ranks[m] = 0;
        push(node.cost + (next_step - first_step(lists[m])), m + 1);
      }
    }
  }
  return result;
}

}  // namespace reveal::core
