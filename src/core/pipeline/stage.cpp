#include "core/pipeline/stage.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <unordered_map>

namespace mt4g::core::pipeline {

std::size_t StageGraph::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].name == name) return i;
  }
  return npos;
}

namespace {

/// name -> declaration index, throwing on duplicates.
std::unordered_map<std::string, std::size_t> name_index(
    const StageGraph& graph) {
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < graph.stages.size(); ++i) {
    const auto [it, inserted] = index.emplace(graph.stages[i].name, i);
    if (!inserted) {
      throw std::invalid_argument("stage graph: duplicate stage name '" +
                                  graph.stages[i].name + "'");
    }
  }
  return index;
}

/// Dependency indices per stage; throws on unknown or self dependencies.
std::vector<std::vector<std::size_t>> dep_indices(const StageGraph& graph) {
  const auto index = name_index(graph);
  std::vector<std::vector<std::size_t>> deps(graph.stages.size());
  for (std::size_t i = 0; i < graph.stages.size(); ++i) {
    for (const std::string& dep : graph.stages[i].deps) {
      const auto it = index.find(dep);
      if (it == index.end()) {
        throw std::invalid_argument("stage graph: stage '" +
                                    graph.stages[i].name +
                                    "' depends on unknown stage '" + dep +
                                    "'");
      }
      if (it->second == i) {
        throw std::invalid_argument("stage graph: stage '" +
                                    graph.stages[i].name +
                                    "' depends on itself");
      }
      deps[i].push_back(it->second);
    }
  }
  return deps;
}

/// Kahn's algorithm with a smallest-declaration-index ready set. Throws on
/// cycles, naming every stage on one.
std::vector<std::size_t> kahn_order(
    const StageGraph& graph, const std::vector<std::vector<std::size_t>>& deps) {
  const std::size_t n = graph.stages.size();
  std::vector<std::size_t> remaining(n, 0);
  std::vector<std::vector<std::size_t>> dependents(n);
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = deps[i].size();
    for (const std::size_t d : deps[i]) dependents[d].push_back(i);
  }
  std::set<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (remaining[i] == 0) ready.insert(i);
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t next = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(next);
    for (const std::size_t dependent : dependents[next]) {
      if (--remaining[dependent] == 0) ready.insert(dependent);
    }
  }
  if (order.size() != n) {
    std::string cycle;
    for (std::size_t i = 0; i < n; ++i) {
      if (remaining[i] > 0) {
        if (!cycle.empty()) cycle += ", ";
        cycle += graph.stages[i].name;
      }
    }
    throw std::invalid_argument(
        "stage graph: dependency cycle involving stages [" + cycle + "]");
  }
  return order;
}

}  // namespace

GraphAnalysis analyze(const StageGraph& graph) {
  GraphAnalysis analysis;
  analysis.deps = dep_indices(graph);
  analysis.order = kahn_order(graph, analysis.deps);
  for (const Stage& stage : graph.stages) {
    if (!stage.run) {
      throw std::invalid_argument("stage graph: stage '" + stage.name +
                                  "' has no run function");
    }
  }
  return analysis;
}

void validate(const StageGraph& graph) { analyze(graph); }

namespace {

/// Transitive dependency closure per stage, as index lists sorted by
/// declaration index. Validates like validate().
std::vector<std::vector<std::size_t>> ancestor_sets(const StageGraph& graph) {
  const GraphAnalysis analysis = analyze(graph);
  std::vector<std::set<std::size_t>> closure(graph.stages.size());
  for (const std::size_t i : analysis.order) {
    for (const std::size_t d : analysis.deps[i]) {
      closure[i].insert(d);
      closure[i].insert(closure[d].begin(), closure[d].end());
    }
  }
  std::vector<std::vector<std::size_t>> ancestors(graph.stages.size());
  for (std::size_t i = 0; i < graph.stages.size(); ++i) {
    ancestors[i].assign(closure[i].begin(), closure[i].end());  // sorted
  }
  return ancestors;
}

}  // namespace

void prune(StageGraph& graph, const std::vector<sim::Element>& only) {
  if (only.empty()) return;
  const auto ancestors = ancestor_sets(graph);  // validates as a side effect
  std::vector<bool> keep(graph.stages.size(), false);
  for (std::size_t i = 0; i < graph.stages.size(); ++i) {
    const Stage& stage = graph.stages[i];
    if (stage.full_run_only) continue;
    if (std::find(only.begin(), only.end(), stage.element) == only.end()) {
      continue;
    }
    keep[i] = true;
    for (const std::size_t a : ancestors[i]) keep[a] = true;
  }
  StageGraph pruned;
  pruned.row_order = graph.row_order;
  for (std::size_t i = 0; i < graph.stages.size(); ++i) {
    if (keep[i]) pruned.stages.push_back(std::move(graph.stages[i]));
  }
  graph = std::move(pruned);
}

}  // namespace mt4g::core::pipeline
