#include "mmc/problem.h"

#include <algorithm>

#include "graph/generators.h"
#include "model/validator.h"
#include "support/contracts.h"

namespace mg::mmc {

MmcInstance::MmcInstance(graph::Vertex processors,
                         std::vector<MmcMessage> messages)
    : n_(processors), messages_(std::move(messages)) {
  MG_EXPECTS(n_ >= 2);
  std::vector<std::size_t> sends(n_, 0);
  std::vector<std::size_t> receptions(n_, 0);
  for (std::size_t idx = 0; idx < messages_.size(); ++idx) {
    auto& message = messages_[idx];
    MG_EXPECTS_MSG(message.id == idx, "message ids must be dense 0..k-1");
    MG_EXPECTS(message.source < n_);
    MG_EXPECTS_MSG(!message.destinations.empty(),
                   "a message needs at least one destination");
    MG_EXPECTS(std::is_sorted(message.destinations.begin(),
                              message.destinations.end()));
    ++sends[message.source];
    for (graph::Vertex d : message.destinations) {
      MG_EXPECTS(d < n_);
      MG_EXPECTS_MSG(d != message.source, "no self-destinations");
      ++receptions[d];
    }
  }
  for (graph::Vertex v = 0; v < n_; ++v) {
    degree_ = std::max({degree_, sends[v], receptions[v]});
  }
}

std::vector<std::vector<model::Message>> MmcInstance::initial_sets() const {
  std::vector<std::vector<model::Message>> sets(n_);
  for (const auto& message : messages_) {
    sets[message.source].push_back(message.id);
  }
  return sets;
}

std::string MmcInstance::check(const model::Schedule& schedule) const {
  model::ValidatorOptions options;
  options.require_completion = false;  // coverage is message-specific
  const auto report = model::validate_schedule_general(
      graph::complete(n_), schedule, initial_sets(), message_count(),
      options);
  if (!report.ok) return report.error;

  // Coverage: every message reaches every destination.
  std::vector<std::vector<char>> delivered(message_count(),
                                           std::vector<char>(n_, 0));
  for (model::RoundCursor round(schedule); round.next();) {
    for (const model::Tx& tx : round.txs()) {
      for (graph::Vertex r : schedule.receivers(tx)) {
        delivered[tx.message][r] = 1;
      }
    }
  }
  for (const auto& message : messages_) {
    for (graph::Vertex d : message.destinations) {
      if (!delivered[message.id][d]) {
        return "message " + std::to_string(message.id) +
               " never reaches destination " + std::to_string(d);
      }
    }
  }
  return {};
}

MmcInstance MmcInstance::gossip_restriction(graph::Vertex n) {
  std::vector<MmcMessage> messages;
  for (graph::Vertex v = 0; v < n; ++v) {
    MmcMessage message;
    message.id = v;
    message.source = v;
    for (graph::Vertex d = 0; d < n; ++d) {
      if (d != v) message.destinations.push_back(d);
    }
    messages.push_back(std::move(message));
  }
  return MmcInstance(n, std::move(messages));
}

}  // namespace mg::mmc
