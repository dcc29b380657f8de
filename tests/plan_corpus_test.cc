// Plan-stability corpus contract (src/workload/plan_corpus.h): corpus
// text is a deterministic function of its spec, the differ reports
// exactly the entries that changed (verified against an independent
// reparse in this file), and — the reason the corpus exists — an
// intentional cost-model perturbation is caught with its precise blast
// radius: cost-bearing entries move, the workload's structural identity
// does not.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "pinum/pinum_builder.h"
#include "workload/plan_corpus.h"
#include "workload/workload_family.h"

namespace pinum {
namespace {

/// Independent reference parser for the `key = value` corpus format —
/// deliberately NOT sharing code with DiffCorpusText, so the differ's
/// answer is cross-checked against a second implementation.
std::map<std::string, std::string> Reparse(const std::string& text) {
  std::map<std::string, std::string> entries;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t sep = line.find(" = ");
    if (sep == std::string::npos) continue;
    entries[line.substr(0, sep)] = line.substr(sep + 3);
  }
  return entries;
}

TEST(PlanCorpusTest, DefaultGridCoversEveryFamilyAtTwoSeeds) {
  const std::vector<CorpusSpec> specs = DefaultCorpusSpecs();
  ASSERT_EQ(specs.size(), WorkloadFamilyNames().size() * 2);
  std::set<std::string> files;
  for (const CorpusSpec& spec : specs) {
    EXPECT_TRUE(spec.seed == 1 || spec.seed == 2);
    EXPECT_EQ(CorpusFileName(spec),
              spec.family + "_s" + std::to_string(spec.seed) + ".corpus");
    EXPECT_TRUE(files.insert(CorpusFileName(spec)).second);
  }
  for (const std::string& family : WorkloadFamilyNames()) {
    EXPECT_TRUE(files.count(family + "_s1.corpus")) << family;
    EXPECT_TRUE(files.count(family + "_s2.corpus")) << family;
  }
}

TEST(PlanCorpusTest, CorpusTextIsDeterministic) {
  for (const std::string& family : WorkloadFamilyNames()) {
    SCOPED_TRACE("family=" + family);
    CorpusSpec spec;
    spec.family = family;
    auto a = BuildCorpusText(spec);
    auto b = BuildCorpusText(spec);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*a, *b);
    EXPECT_TRUE(DiffCorpusText(*a, *b).empty());
    // And the text carries actual plan entries, not just headers.
    const auto entries = Reparse(*a);
    EXPECT_GT(entries.size(), 10u);
    EXPECT_TRUE(entries.count("workload.family"));
    EXPECT_EQ(entries.at("workload.family"), family);
  }
}

TEST(PlanCorpusTest, RecordsEveryPinumOptimizerCall) {
  // One call[...] line per plan-cache optimizer call of each query's
  // unshared build, and one access-cost hash per query.
  CorpusSpec spec;
  spec.family = "star";
  WorkloadFamilyOptions wopts;
  wopts.seed = spec.seed;
  const auto inst = MakeWorkloadInstance(spec.family, wopts);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  auto text = BuildCorpusText(spec);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const auto entries = Reparse(*text);
  for (const Query& q : (*inst)->queries) {
    const std::string prefix = "query[" + q.name + "]";
    PinumBuildStats stats;
    ASSERT_TRUE(BuildInumCachePinum(q, (*inst)->catalog(), (*inst)->set,
                                    (*inst)->stats(), PinumBuildOptions{},
                                    &stats)
                    .ok());
    ASSERT_EQ(stats.calls.size(),
              static_cast<size_t>(stats.plan_cache_calls));
    for (const PinumCallRecord& call : stats.calls) {
      const auto it = entries.find(prefix + ".call[" + call.kind + "]");
      ASSERT_NE(it, entries.end()) << prefix << " " << call.kind;
      EXPECT_NE(it->second.find(" considered=" +
                                std::to_string(call.paths_considered)),
                std::string::npos)
          << it->second;
    }
    ASSERT_TRUE(entries.count(prefix + ".call[export]")) << prefix;
    ASSERT_TRUE(entries.count(prefix + ".access_hash")) << prefix;
    EXPECT_EQ(entries.at(prefix + ".access_hash").size(), 16u);
  }
}

TEST(PlanCorpusTest, UnknownFamilyPropagatesTheError) {
  CorpusSpec spec;
  spec.family = "no_such_family";
  auto text = BuildCorpusText(spec);
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanCorpusTest, DiffReportsChangedRemovedThenAdded) {
  const std::string golden =
      "# comment\n"
      "a = 1\n"
      "b = 2\n"
      "\n"
      "c = 3\n";
  const std::string fresh =
      "a = 1\n"
      "b = 9\n"
      "# other comment\n"
      "d = 4\n";
  const std::vector<CorpusDelta> deltas = DiffCorpusText(golden, fresh);
  ASSERT_EQ(deltas.size(), 3u);
  // Changed and removed keys in golden order first, then added keys.
  EXPECT_EQ(deltas[0].key, "b");
  EXPECT_EQ(deltas[0].old_value, "2");
  EXPECT_EQ(deltas[0].new_value, "9");
  EXPECT_EQ(deltas[1].key, "c");
  EXPECT_EQ(deltas[1].old_value, "3");
  EXPECT_EQ(deltas[1].new_value, "");
  EXPECT_EQ(deltas[2].key, "d");
  EXPECT_EQ(deltas[2].old_value, "");
  EXPECT_EQ(deltas[2].new_value, "4");

  const std::string report = FormatDeltas(deltas);
  EXPECT_NE(report.find("b"), std::string::npos);
  EXPECT_NE(report.find("d"), std::string::npos);
}

TEST(PlanCorpusTest, CostModelPerturbationIsCaughtWithExactBlastRadius) {
  // The acceptance property behind the CI corpus-diff job: nudge one
  // cost constant (random_page_cost 4.0 -> 4.5 — the kind of tweak that
  // silently flips plans in systems without plan-stability testing) and
  // the diff must (a) fire, (b) agree entry-for-entry with an
  // independent reparse of both texts, and (c) touch only cost-bearing
  // entries — the workload's structural identity lines must not move.
  CorpusSpec spec;
  spec.family = "skew";
  auto golden = BuildCorpusText(spec);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  WorkloadCacheOptions perturbed;
  perturbed.pinum.base_knobs.cost.random_page_cost = 4.5;
  auto fresh = BuildCorpusText(spec, perturbed);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_NE(*golden, *fresh);

  const std::vector<CorpusDelta> deltas = DiffCorpusText(*golden, *fresh);
  ASSERT_FALSE(deltas.empty());

  // (b) exactness: the differ's report equals the set difference a
  // reference parser computes — no entry over- or under-reported.
  const auto golden_entries = Reparse(*golden);
  const auto fresh_entries = Reparse(*fresh);
  std::set<std::string> expected;
  for (const auto& [key, value] : golden_entries) {
    auto it = fresh_entries.find(key);
    if (it == fresh_entries.end() || it->second != value) {
      expected.insert(key);
    }
  }
  for (const auto& [key, value] : fresh_entries) {
    if (!golden_entries.count(key)) expected.insert(key);
  }
  std::set<std::string> reported;
  for (const CorpusDelta& d : deltas) {
    EXPECT_TRUE(reported.insert(d.key).second)
        << "duplicate delta for " << d.key;
    EXPECT_NE(d.old_value, d.new_value) << d.key;
    // Every reported old/new value matches what the texts actually say.
    auto g = golden_entries.find(d.key);
    EXPECT_EQ(d.old_value, g == golden_entries.end() ? "" : g->second)
        << d.key;
    auto f = fresh_entries.find(d.key);
    EXPECT_EQ(d.new_value, f == fresh_entries.end() ? "" : f->second)
        << d.key;
  }
  EXPECT_EQ(reported, expected);

  // (c) blast radius: costs moved, identity did not. Page-cost changes
  // reprice plans (per-plan internal/access hex costs, cost[...] rows,
  // advisor trajectory) but never the workload's shape.
  bool plan_cost_moved = false;
  for (const CorpusDelta& d : deltas) {
    if (d.key.find(".plan[") != std::string::npos ||
        d.key.find(".cost[") != std::string::npos) {
      plan_cost_moved = true;
    }
  }
  EXPECT_TRUE(plan_cost_moved)
      << "perturbation fired but no per-plan cost entry changed";
  for (const char* stable :
       {"workload.family", "workload.seed", "workload.queries",
        "workload.candidates", "workload.universe_ids"}) {
    EXPECT_FALSE(reported.count(stable)) << stable << " must not change";
  }
}

}  // namespace
}  // namespace pinum
