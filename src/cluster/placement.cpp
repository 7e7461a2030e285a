#include "cluster/placement.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

const char* placement_rule_name(PlacementRule rule) {
  switch (rule) {
    case PlacementRule::kWorstFit: return "WF";
    case PlacementRule::kFirstFit: return "FF";
    case PlacementRule::kBestFit: return "BF";
    case PlacementRule::kLoadAware: return "LA";
  }
  return "?";
}

PlacementRule parse_placement_rule(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "wf" || lower == "worst-fit" || lower == "worstfit") {
    return PlacementRule::kWorstFit;
  }
  if (lower == "ff" || lower == "first-fit" || lower == "firstfit") {
    return PlacementRule::kFirstFit;
  }
  if (lower == "bf" || lower == "best-fit" || lower == "bestfit") {
    return PlacementRule::kBestFit;
  }
  if (lower == "la" || lower == "load-aware" || lower == "loadaware") {
    return PlacementRule::kLoadAware;
  }
  MCSIM_REQUIRE(false,
                "unknown placement rule: " + name + " (expected WF, FF, BF, or LA)");
  return PlacementRule::kWorstFit;
}

namespace {

bool is_non_increasing(const std::vector<std::uint32_t>& v) {
  return std::is_sorted(v.rbegin(), v.rend());
}

/// Fill `order` with cluster ids by (idle desc, id asc). Stable insertion
/// sort into the scratch vector: no allocation once the scratch holds its
/// capacity (std::stable_sort would take a temporary buffer per call), and
/// C is small — the paper's systems have 4-8 clusters.
void clusters_by_idle_desc(const std::vector<std::uint32_t>& idle,
                           std::vector<ClusterId>& order) {
  order.clear();
  order.reserve(idle.size());
  for (ClusterId c = 0; c < idle.size(); ++c) {
    auto it = order.begin();
    while (it != order.end() && idle[*it] >= idle[c]) ++it;
    order.insert(it, c);
  }
}

/// Pair the i-th largest component with the i-th cluster of `order`. The
/// pairing doubles as the fit test and is decided before `out` is touched,
/// so a reject (the common case for a blocked head job) writes nothing.
bool place_in_order(const std::vector<std::uint32_t>& components,
                    const std::vector<std::uint32_t>& idle,
                    const std::vector<ClusterId>& order, Allocation& out) {
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (components[i] > idle[order[i]]) return false;
  }
  out.clear();
  for (std::size_t i = 0; i < components.size(); ++i) {
    out.push_back(ComponentPlacement{order[i], components[i]});
  }
  return true;
}

bool place_first_fit(const std::vector<std::uint32_t>& components,
                     const std::vector<std::uint32_t>& idle, PlacementScratch& scratch,
                     Allocation& out) {
  scratch.used.assign(idle.size(), 0);
  out.clear();
  for (std::uint32_t component : components) {
    bool placed = false;
    for (ClusterId c = 0; c < idle.size(); ++c) {
      if (scratch.used[c] == 0 && component <= idle[c]) {
        scratch.used[c] = 1;
        out.push_back(ComponentPlacement{c, component});
        placed = true;
        break;
      }
    }
    if (!placed) return false;
  }
  return true;
}

/// Fill `order` with cluster ids by (idle fraction desc, id asc). The
/// comparison cross-multiplies (idle[a]/cap[a] vs idle[b]/cap[b] becomes
/// idle[a]*cap[b] vs idle[b]*cap[a]) so ordering stays exact — no floating
/// point, no platform drift.
void clusters_by_idle_fraction_desc(const std::vector<std::uint32_t>& idle,
                                    const std::vector<std::uint32_t>& capacities,
                                    std::vector<ClusterId>& order) {
  order.clear();
  order.reserve(idle.size());
  const auto fraction_at_least = [&](ClusterId a, ClusterId b) {
    // idle[a]/cap[a] >= idle[b]/cap[b], exactly.
    return static_cast<std::uint64_t>(idle[a]) * capacities[b] >=
           static_cast<std::uint64_t>(idle[b]) * capacities[a];
  };
  for (ClusterId c = 0; c < idle.size(); ++c) {
    auto it = order.begin();
    while (it != order.end() && fraction_at_least(*it, c)) ++it;
    order.insert(it, c);
  }
}

bool place_best_fit(const std::vector<std::uint32_t>& components,
                    const std::vector<std::uint32_t>& idle, PlacementScratch& scratch,
                    Allocation& out) {
  scratch.used.assign(idle.size(), 0);
  out.clear();
  for (std::uint32_t component : components) {
    ClusterId best = static_cast<ClusterId>(idle.size());
    std::uint32_t best_idle = 0;
    for (ClusterId c = 0; c < idle.size(); ++c) {
      if (scratch.used[c] != 0 || component > idle[c]) continue;
      if (best == idle.size() || idle[c] < best_idle) {
        best = c;
        best_idle = idle[c];
      }
    }
    if (best == idle.size()) return false;
    scratch.used[best] = 1;
    out.push_back(ComponentPlacement{best, component});
  }
  return true;
}

}  // namespace

bool place_components(const std::vector<std::uint32_t>& components,
                      const std::vector<std::uint32_t>& idle_counts,
                      const std::vector<std::uint32_t>& capacities, PlacementRule rule,
                      PlacementScratch& scratch, Allocation& out) {
  MCSIM_REQUIRE(!components.empty(), "request has no components");
  MCSIM_REQUIRE(components.size() <= idle_counts.size(),
                "more components than clusters");
  MCSIM_REQUIRE(is_non_increasing(components), "components must be non-increasing");
  bool fits = false;
  switch (rule) {
    case PlacementRule::kWorstFit:
      clusters_by_idle_desc(idle_counts, scratch.order);
      fits = place_in_order(components, idle_counts, scratch.order, out);
      break;
    case PlacementRule::kFirstFit:
      fits = place_first_fit(components, idle_counts, scratch, out);
      break;
    case PlacementRule::kBestFit:
      fits = place_best_fit(components, idle_counts, scratch, out);
      break;
    case PlacementRule::kLoadAware:
      MCSIM_REQUIRE(capacities.size() == idle_counts.size(),
                    "load-aware placement needs one capacity per cluster "
                    "(use the capacity-aware overload)");
      // Like WF, but the fraction pairing is not a complete fit test on
      // heterogeneous layouts — a reject here is the rule's decision, not a
      // proof nothing fits.
      clusters_by_idle_fraction_desc(idle_counts, capacities, scratch.order);
      fits = place_in_order(components, idle_counts, scratch.order, out);
      break;
  }
  if (!fits) out.clear();
  return fits;
}

std::optional<Allocation> place_components(const std::vector<std::uint32_t>& components,
                                           const std::vector<std::uint32_t>& idle_counts,
                                           PlacementRule rule) {
  PlacementScratch scratch;
  Allocation allocation;
  allocation.reserve(components.size());
  if (!place_components(components, idle_counts, {}, rule, scratch, allocation)) {
    return std::nullopt;
  }
  return allocation;
}

std::optional<Allocation> place_on_cluster(std::uint32_t processors, ClusterId cluster,
                                           const std::vector<std::uint32_t>& idle_counts) {
  MCSIM_REQUIRE(cluster < idle_counts.size(), "unknown cluster");
  if (processors > idle_counts[cluster]) return std::nullopt;
  return Allocation{ComponentPlacement{cluster, processors}};
}

bool place_ordered(const std::vector<std::uint32_t>& components,
                   const std::vector<ClusterId>& clusters,
                   const std::vector<std::uint32_t>& idle_counts, Allocation& out) {
  MCSIM_REQUIRE(!components.empty(), "request has no components");
  MCSIM_REQUIRE(components.size() == clusters.size(),
                "ordered request needs one cluster per component");
  out.clear();
  for (std::size_t i = 0; i < components.size(); ++i) {
    MCSIM_REQUIRE(clusters[i] < idle_counts.size(), "ordered request names unknown cluster");
    // Components already placed on the same cluster (an ordered request may
    // name one twice) use up its idle processors first.
    std::uint32_t taken = 0;
    for (const ComponentPlacement& placed : out) {
      if (placed.cluster == clusters[i]) taken += placed.processors;
    }
    if (components[i] > idle_counts[clusters[i]] - taken) {
      out.clear();
      return false;
    }
    out.push_back(ComponentPlacement{clusters[i], components[i]});
  }
  return true;
}

bool place_flexible(std::uint32_t total, const std::vector<std::uint32_t>& idle_counts,
                    PlacementScratch& scratch, Allocation& out) {
  MCSIM_REQUIRE(total > 0, "request must ask for processors");
  out.clear();
  // Whole-job fit on one cluster first (Worst Fit keeps big holes open).
  clusters_by_idle_desc(idle_counts, scratch.order);
  const std::vector<ClusterId>& order = scratch.order;
  if (idle_counts[order.front()] >= total) {
    out.push_back(ComponentPlacement{order.front(), total});
    return true;
  }
  // Otherwise spread greedily over clusters by decreasing idle count.
  std::uint32_t left = total;
  for (ClusterId cluster : order) {
    const std::uint32_t take = std::min(left, idle_counts[cluster]);
    if (take == 0) break;
    out.push_back(ComponentPlacement{cluster, take});
    left -= take;
    if (left == 0) return true;
  }
  out.clear();
  return false;
}

bool components_fit(const std::vector<std::uint32_t>& components,
                    const std::vector<std::uint32_t>& idle_counts) {
  if (components.size() > idle_counts.size()) return false;
  MCSIM_ASSERT(is_non_increasing(components));
  // Sort idle counts decreasingly; the i-th largest component must fit the
  // i-th most idle cluster (matching the WF feasibility argument).
  std::vector<std::uint32_t> idle = idle_counts;
  std::sort(idle.rbegin(), idle.rend());
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (components[i] > idle[i]) return false;
  }
  return true;
}

}  // namespace mcsim
