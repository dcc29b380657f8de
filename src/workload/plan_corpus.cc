#include "workload/plan_corpus.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "advisor/greedy_advisor.h"
#include "advisor/search_advisor.h"
#include "workload/workload_family.h"

namespace pinum {

namespace {

/// Bit-exact double rendering (C99 hex float). Decimal would round —
/// and a corpus that rounds cannot distinguish a one-ULP cost drift
/// from stability.
std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Total leaf access cost recorded at harvest time: the
/// configuration-dependent half of the plan's build-time total, the
/// counterpart of internal_cost.
double HarvestAccessCost(const CachedPlan& plan) {
  double sum = 0;
  for (const LeafSlot& s : plan.slots) sum += s.multiplier * s.unit_cost;
  return sum;
}

/// FNV-1a over the bit patterns of every entry of an access-cost table:
/// one line that moves when any per-index access cost does.
uint64_t AccessTableHash(const AccessCostTable& access) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (v >> b) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  auto mix_double = [&mix](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  auto mix_column = [&mix](ColumnRef c) {
    mix(static_cast<uint64_t>(c.table));
    mix(static_cast<uint64_t>(c.column));
  };
  mix(static_cast<uint64_t>(access.NumTables()));
  for (int pos = 0; pos < access.NumTables(); ++pos) {
    mix_double(access.HeapCost(pos));
    for (const auto& [id, costs] : *access.IndexCostsAt(pos)) {
      mix(static_cast<uint64_t>(id));
      mix_column(costs.probe_column);
      mix_double(costs.scan_cost);
      for (const IndexAccessCosts::OrderedCost& o : costs.ordered) {
        mix_column(o.column);
        mix_double(o.cost);
      }
      mix_double(costs.probe_cost);
      mix_double(costs.probe_rows);
    }
  }
  return h;
}

std::string NameOf(const CandidateSet& set, IndexId id) {
  const IndexDef* def = set.universe.FindIndex(id);
  return def != nullptr ? def->name : ("id" + std::to_string(id));
}

/// First non-space run up to " = " is the key, the rest the value.
bool ParseLine(const std::string& line, std::string* key, std::string* value) {
  if (line.empty() || line[0] == '#') return false;
  const size_t sep = line.find(" = ");
  if (sep == std::string::npos) return false;
  *key = line.substr(0, sep);
  *value = line.substr(sep + 3);
  return true;
}

std::vector<std::pair<std::string, std::string>> ParseCorpus(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> entries;
  std::istringstream in(text);
  std::string line, key, value;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (ParseLine(line, &key, &value)) entries.emplace_back(key, value);
  }
  return entries;
}

}  // namespace

std::vector<CorpusSpec> DefaultCorpusSpecs() {
  std::vector<CorpusSpec> specs;
  for (const std::string& family : WorkloadFamilyNames()) {
    for (uint64_t seed : {1, 2}) {
      specs.push_back({family, seed, CorpusSpec{}.budget_bytes});
    }
  }
  return specs;
}

std::string CorpusFileName(const CorpusSpec& spec) {
  return spec.family + "_s" + std::to_string(spec.seed) + ".corpus";
}

StatusOr<std::string> BuildCorpusText(const CorpusSpec& spec,
                                      const WorkloadCacheOptions& base_opts) {
  WorkloadFamilyOptions wopts;
  wopts.seed = spec.seed;
  PINUM_ASSIGN_OR_RETURN(auto inst, MakeWorkloadInstance(spec.family, wopts));

  WorkloadCacheOptions opts = base_opts;
  opts.num_threads = 1;  // scheduling-independent accounting
  WorkloadCacheBuilder builder(&inst->catalog(), &inst->set, &inst->stats(),
                               opts);
  PINUM_ASSIGN_OR_RETURN(WorkloadCacheResult result,
                         builder.BuildAll(inst->queries));

  AdvisorOptions aopts;
  aopts.budget_bytes = spec.budget_bytes;
  const AdvisorResult advisor =
      RunGreedyAdvisor(result.sealed, inst->set, aopts);

  std::ostringstream out;
  out << "# pinum plan-stability corpus v1 (docs/WORKLOADS.md)\n";
  out << "workload.family = " << spec.family << "\n";
  out << "workload.seed = " << spec.seed << "\n";
  out << "workload.budget_bytes = " << spec.budget_bytes << "\n";
  out << "workload.queries = " << inst->queries.size() << "\n";
  out << "workload.candidates = " << inst->set.candidate_ids.size() << "\n";
  out << "workload.universe_ids = " << inst->set.NumIndexIds() << "\n";
  out << "workload.plans_cached = " << result.totals.plans_cached << "\n";
  out << "workload.plans_pruned = " << result.totals.plans_pruned << "\n";
  out << "workload.terms = " << result.totals.terms << "\n";
  out << "workload.postings = " << result.totals.postings << "\n";

  for (size_t i = 0; i < inst->queries.size(); ++i) {
    const std::string q = "query[" + inst->queries[i].name + "]";
    const InumCache& cache = result.caches[i];
    const SealedCache& sealed = result.sealed[i];
    out << q << ".plans = " << cache.NumPlans() << "\n";
    out << q << ".plans_pruned = " << sealed.NumPlansPruned() << "\n";
    out << q << ".terms = " << sealed.NumTerms() << "\n";
    out << q << ".postings = " << sealed.NumPostings() << "\n";
    for (size_t p = 0; p < cache.plans().size(); ++p) {
      const CachedPlan& plan = cache.plans()[p];
      out << q << ".plan[" << p << "] = " << plan.RequirementKey()
          << " internal=" << Hex(plan.internal_cost)
          << " access=" << Hex(HarvestAccessCost(plan))
          << " sig=" << plan.signature << "\n";
    }
    if (opts.mode == CacheBuildMode::kPinum) {
      // Each plan-cache optimizer call of an unshared per-query build:
      // the winner's cost and the search effort behind it, so a planner
      // change that keeps the harvested plans but alters the search
      // (or an access-cost call that prices differently) still shows.
      PinumBuildOptions popts = opts.pinum;
      popts.shared_access = nullptr;
      PinumBuildStats pstats;
      PINUM_RETURN_IF_ERROR(BuildInumCachePinum(inst->queries[i],
                                                inst->catalog(), inst->set,
                                                inst->stats(), popts, &pstats)
                                .status());
      for (const PinumCallRecord& call : pstats.calls) {
        out << q << ".call[" << call.kind << "] = best="
            << Hex(call.best_cost) << " exported=" << call.plans_exported
            << " considered=" << call.paths_considered << "\n";
      }
    }
    char access_hash[32];
    std::snprintf(access_hash, sizeof(access_hash), "%016llx",
                  static_cast<unsigned long long>(
                      AccessTableHash(cache.access())));
    out << q << ".access_hash = " << access_hash << "\n";
    // The two configurations every regression cares about: no indexes,
    // and the advisor's final pick.
    const CachedPlan* base_best = cache.BestPlan({});
    out << q << ".cost[base] = " << Hex(sealed.Cost({})) << "\n";
    out << q << ".best[base] = "
        << (base_best != nullptr ? base_best->RequirementKey() : "none")
        << "\n";
    const CachedPlan* final_best = cache.BestPlan(advisor.chosen);
    out << q << ".cost[chosen] = " << Hex(sealed.Cost(advisor.chosen)) << "\n";
    out << q << ".best[chosen] = "
        << (final_best != nullptr ? final_best->RequirementKey() : "none")
        << "\n";
  }

  out << "advisor.cost_before = " << Hex(advisor.workload_cost_before) << "\n";
  for (size_t s = 0; s < advisor.steps.size(); ++s) {
    const AdvisorStep& step = advisor.steps[s];
    out << "advisor.step[" << s << "] = " << NameOf(inst->set, step.chosen)
        << " benefit=" << Hex(step.benefit) << " size=" << step.size_bytes
        << " after=" << Hex(step.workload_cost_after) << "\n";
  }
  out << "advisor.chosen = ";
  if (advisor.chosen.empty()) {
    out << "none";
  } else {
    for (size_t c = 0; c < advisor.chosen.size(); ++c) {
      out << (c > 0 ? " " : "") << NameOf(inst->set, advisor.chosen[c]);
    }
  }
  out << "\n";
  out << "advisor.cost_after = " << Hex(advisor.workload_cost_after) << "\n";
  out << "advisor.total_size_bytes = " << advisor.total_size_bytes << "\n";
  out << "advisor.evaluations = " << advisor.evaluations << "\n";

  // Search-advisor trajectory (docs/ADVISOR.md): serial, fixed seed, no
  // time budget — fully covered by the determinism contract, so every
  // line below is as byte-stable as the greedy block above. A drift here
  // with stable advisor.* lines localizes the change to the restart or
  // swap machinery.
  SearchOptions sopts;
  sopts.base = aopts;
  sopts.seed = 1;
  sopts.max_restarts = 6;
  const SearchResult search = RunSearchAdvisor(result.sealed, inst->set,
                                               sopts);
  out << "search.seed = " << sopts.seed << "\n";
  out << "search.max_restarts = " << sopts.max_restarts << "\n";
  for (const SearchRestart& r : search.restarts) {
    out << "search.restart[" << r.restart << "] = prefix=" << r.prefix_size
        << " chosen=" << r.num_chosen << " after=" << Hex(r.cost_after)
        << "\n";
  }
  for (size_t s = 0; s < search.swaps.size(); ++s) {
    const SearchSwap& swap = search.swaps[s];
    out << "search.swap[" << s << "] = pass=" << swap.pass
        << " evict=" << NameOf(inst->set, swap.evicted) << " insert="
        << (swap.inserted == kInvalidIndexId
                ? std::string("none")
                : NameOf(inst->set, swap.inserted))
        << " chain=" << swap.chain_length << " after=" << Hex(swap.cost_after)
        << "\n";
  }
  out << "search.chosen = ";
  if (search.chosen.empty()) {
    out << "none";
  } else {
    for (size_t c = 0; c < search.chosen.size(); ++c) {
      out << (c > 0 ? " " : "") << NameOf(inst->set, search.chosen[c]);
    }
  }
  out << "\n";
  out << "search.cost_after = " << Hex(search.workload_cost_after) << "\n";
  out << "search.total_size_bytes = " << search.total_size_bytes << "\n";
  out << "search.evaluations = " << search.evaluations << "\n";
  out << "search.swaps_accepted = " << search.swaps_accepted << "\n";
  out << "search.pruned = " << search.swap_candidates_pruned << "\n";
  out << "search.matches_greedy = "
      << (search.workload_cost_after == search.greedy_cost_after ? 1 : 0)
      << "\n";
  return out.str();
}

std::vector<CorpusDelta> DiffCorpusText(const std::string& golden,
                                        const std::string& fresh) {
  const auto old_entries = ParseCorpus(golden);
  const auto new_entries = ParseCorpus(fresh);
  std::map<std::string, std::string> new_by_key(new_entries.begin(),
                                                new_entries.end());
  std::map<std::string, std::string> old_by_key(old_entries.begin(),
                                                old_entries.end());

  std::vector<CorpusDelta> deltas;
  for (const auto& [key, old_value] : old_entries) {
    auto it = new_by_key.find(key);
    if (it == new_by_key.end()) {
      deltas.push_back({key, old_value, ""});
    } else if (it->second != old_value) {
      deltas.push_back({key, old_value, it->second});
    }
  }
  for (const auto& [key, new_value] : new_entries) {
    if (old_by_key.find(key) == old_by_key.end()) {
      deltas.push_back({key, "", new_value});
    }
  }
  return deltas;
}

std::string FormatDeltas(const std::vector<CorpusDelta>& deltas) {
  std::ostringstream out;
  for (const CorpusDelta& d : deltas) {
    if (d.old_value.empty() && !d.new_value.empty()) {
      out << "+ " << d.key << " = " << d.new_value << "\n";
    } else if (d.new_value.empty() && !d.old_value.empty()) {
      out << "- " << d.key << " = " << d.old_value << "\n";
    } else {
      out << "~ " << d.key << ": " << d.old_value << " -> " << d.new_value
          << "\n";
    }
  }
  return out.str();
}

}  // namespace pinum
