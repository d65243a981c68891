#include "green/search/nsga2.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "green/common/mathutil.h"

namespace green {

namespace {

/// True if a dominates b (all objectives >=, at least one >).
bool Dominates(const Nsga2Individual& a, const Nsga2Individual& b) {
  bool strictly_better = false;
  for (size_t i = 0; i < a.objectives.size(); ++i) {
    if (a.objectives[i] < b.objectives[i]) return false;
    if (a.objectives[i] > b.objectives[i]) strictly_better = true;
  }
  return strictly_better;
}

}  // namespace

std::vector<std::vector<size_t>> NonDominatedSort(
    std::vector<Nsga2Individual>* population) {
  const size_t n = population->size();
  std::vector<std::vector<size_t>> dominated(n);
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<size_t>> fronts;
  std::vector<size_t> current;

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (Dominates((*population)[i], (*population)[j])) {
        dominated[i].push_back(j);
      } else if (Dominates((*population)[j], (*population)[i])) {
        ++domination_count[i];
      }
    }
    if (domination_count[i] == 0) {
      (*population)[i].rank = 0;
      current.push_back(i);
    }
  }
  int rank = 0;
  while (!current.empty()) {
    fronts.push_back(current);
    std::vector<size_t> next;
    for (size_t i : current) {
      for (size_t j : dominated[i]) {
        if (--domination_count[j] == 0) {
          (*population)[j].rank = rank + 1;
          next.push_back(j);
        }
      }
    }
    current = std::move(next);
    ++rank;
  }
  return fronts;
}

void AssignCrowdingDistance(const std::vector<size_t>& front,
                            std::vector<Nsga2Individual>* population) {
  if (front.empty()) return;
  const size_t m = (*population)[front[0]].objectives.size();
  for (size_t i : front) (*population)[i].crowding = 0.0;
  std::vector<size_t> order = front;
  for (size_t obj = 0; obj < m; ++obj) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return (*population)[a].objectives[obj] <
             (*population)[b].objectives[obj];
    });
    (*population)[order.front()].crowding =
        std::numeric_limits<double>::infinity();
    (*population)[order.back()].crowding =
        std::numeric_limits<double>::infinity();
    const double lo = (*population)[order.front()].objectives[obj];
    const double hi = (*population)[order.back()].objectives[obj];
    if (hi - lo <= 1e-15) continue;
    for (size_t i = 1; i + 1 < order.size(); ++i) {
      (*population)[order[i]].crowding +=
          ((*population)[order[i + 1]].objectives[obj] -
           (*population)[order[i - 1]].objectives[obj]) /
          (hi - lo);
    }
  }
}

Nsga2Result Nsga2(
    const ParamSpace& space, const Nsga2Options& options,
    const std::function<Result<std::vector<double>>(const ParamPoint&)>&
        evaluate,
    const std::function<bool()>& should_stop) {
  Nsga2Result result;
  Rng rng(options.seed);

  auto evaluate_unit =
      [&](const std::vector<double>& unit) -> Result<Nsga2Individual> {
    GREEN_ASSIGN_OR_RETURN(ParamPoint point, space.Decode(unit));
    GREEN_ASSIGN_OR_RETURN(std::vector<double> objectives,
                           evaluate(point));
    ++result.evaluations;
    Nsga2Individual ind;
    ind.unit = unit;
    ind.objectives = std::move(objectives);
    return ind;
  };

  // Initial random population.
  std::vector<Nsga2Individual> population;
  for (int i = 0;
       i < options.population_size &&
       !(should_stop && should_stop());
       ++i) {
    auto ind = evaluate_unit(space.Sample(&rng).unit);
    if (ind.ok()) population.push_back(std::move(ind).value());
  }
  if (population.empty()) return result;

  auto tournament = [&]() -> const Nsga2Individual& {
    const size_t a =
        static_cast<size_t>(rng.NextBounded(population.size()));
    const size_t b =
        static_cast<size_t>(rng.NextBounded(population.size()));
    const Nsga2Individual& ia = population[a];
    const Nsga2Individual& ib = population[b];
    if (ia.rank != ib.rank) return ia.rank < ib.rank ? ia : ib;
    return ia.crowding > ib.crowding ? ia : ib;
  };

  for (int gen = 0; gen < options.generations; ++gen) {
    if (should_stop && should_stop()) break;
    {
      auto fronts = NonDominatedSort(&population);
      for (const auto& front : fronts) {
        AssignCrowdingDistance(front, &population);
      }
    }
    // Offspring.
    std::vector<Nsga2Individual> offspring;
    while (offspring.size() < population.size()) {
      if (should_stop && should_stop()) break;
      std::vector<double> child = tournament().unit;
      if (rng.NextBool(options.crossover_prob)) {
        const std::vector<double>& other = tournament().unit;
        for (size_t i = 0; i < child.size(); ++i) {
          if (rng.NextBool(0.5)) child[i] = other[i];
        }
      }
      for (double& gene : child) {
        if (rng.NextBool(options.mutation_prob)) {
          gene = Clamp(gene + rng.NextGaussian() * options.mutation_sigma,
                       0.0, 1.0);
        }
      }
      auto ind = evaluate_unit(child);
      if (ind.ok()) offspring.push_back(std::move(ind).value());
    }
    // Environmental selection from parents + offspring.
    for (auto& ind : offspring) population.push_back(std::move(ind));
    auto fronts = NonDominatedSort(&population);
    for (const auto& front : fronts) {
      AssignCrowdingDistance(front, &population);
    }
    std::vector<Nsga2Individual> next;
    for (const auto& front : fronts) {
      if (next.size() >= static_cast<size_t>(options.population_size)) {
        break;
      }
      std::vector<size_t> sorted = front;
      std::stable_sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
        return population[a].crowding > population[b].crowding;
      });
      for (size_t i : sorted) {
        if (next.size() >= static_cast<size_t>(options.population_size)) {
          break;
        }
        next.push_back(population[i]);
      }
    }
    population = std::move(next);
  }

  {
    auto fronts = NonDominatedSort(&population);
    for (const auto& front : fronts) {
      AssignCrowdingDistance(front, &population);
    }
  }
  std::stable_sort(population.begin(), population.end(),
                   [](const Nsga2Individual& a, const Nsga2Individual& b) {
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.crowding > b.crowding;
                   });
  result.population = std::move(population);
  return result;
}

}  // namespace green
