#include "model/comm_model.h"

#include <algorithm>
#include <bit>

#include "support/contracts.h"

namespace mg::model {

namespace {

/// ceil(log2 n) + 1: bits to name one of n messages plus a framing bit —
/// the per-hop slot count of the beep serialization.
std::size_t bits_per_message(graph::Vertex n) {
  if (n <= 1) return 1;
  return static_cast<std::size_t>(std::bit_width(n - 1u)) + 1;
}

class MulticastModel final : public CommModel {
 public:
  [[nodiscard]] ModelKind kind() const override {
    return ModelKind::kMulticast;
  }
  [[nodiscard]] std::string name() const override { return "multicast"; }
};

class TelephoneModel final : public CommModel {
 public:
  [[nodiscard]] ModelKind kind() const override {
    return ModelKind::kTelephone;
  }
  [[nodiscard]] std::string name() const override { return "telephone"; }

  [[nodiscard]] bool constrains_receiver_set() const override { return true; }

  [[nodiscard]] std::string receiver_set_error(
      const graph::Graph&, graph::Vertex,
      std::span<const graph::Vertex> receivers) const override {
    if (receivers.size() != 1) return "multicast under telephone model";
    return {};
  }
};

/// Shared structural rules of the broadcast-channel models (radio, beep):
/// a transmission reaches the sender's entire neighborhood — no receiver
/// addressing — so the schedule's D set must be exactly N(sender).
class BroadcastChannelModel : public CommModel {
 public:
  [[nodiscard]] bool constrains_receiver_set() const override { return true; }

  [[nodiscard]] std::string receiver_set_error(
      const graph::Graph& g, graph::Vertex sender,
      std::span<const graph::Vertex> receivers) const override {
    const auto neighbors = g.neighbors(sender);
    if (receivers.size() == neighbors.size() &&
        std::equal(receivers.begin(), receivers.end(), neighbors.begin())) {
      return {};
    }
    return name() +
           " transmission must reach the sender's entire neighborhood";
  }

  [[nodiscard]] bool exclusive_receivers() const override { return false; }
};

class RadioModel final : public BroadcastChannelModel {
 public:
  [[nodiscard]] ModelKind kind() const override { return ModelKind::kRadio; }
  [[nodiscard]] std::string name() const override { return "radio"; }
};

class BeepModel final : public BroadcastChannelModel {
 public:
  [[nodiscard]] ModelKind kind() const override { return ModelKind::kBeep; }
  [[nodiscard]] std::string name() const override { return "beep"; }

  [[nodiscard]] std::size_t round_cost(graph::Vertex n) const override {
    return bits_per_message(n);
  }
};

class DirectModel final : public CommModel {
 public:
  [[nodiscard]] ModelKind kind() const override { return ModelKind::kDirect; }
  [[nodiscard]] std::string name() const override { return "direct"; }
  [[nodiscard]] bool requires_adjacency() const override { return false; }
};

}  // namespace

std::string CommModel::receiver_set_error(
    const graph::Graph&, graph::Vertex,
    std::span<const graph::Vertex>) const {
  return {};
}

std::size_t CommModel::round_cost(graph::Vertex) const { return 1; }

const CommModel& multicast_model() {
  static const MulticastModel model;
  return model;
}

const CommModel& telephone_model() {
  static const TelephoneModel model;
  return model;
}

const CommModel& radio_model() {
  static const RadioModel model;
  return model;
}

const CommModel& beep_model() {
  static const BeepModel model;
  return model;
}

const CommModel& direct_model() {
  static const DirectModel model;
  return model;
}

const CommModel& builtin_model(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMulticast:
      return multicast_model();
    case ModelKind::kTelephone:
      return telephone_model();
    case ModelKind::kRadio:
      return radio_model();
    case ModelKind::kBeep:
      return beep_model();
    case ModelKind::kDirect:
      return direct_model();
  }
  MG_EXPECTS(false);
  return multicast_model();
}

const std::vector<const CommModel*>& all_models() {
  static const std::vector<const CommModel*> models = {
      &multicast_model(), &telephone_model(), &radio_model(), &beep_model(),
      &direct_model()};
  return models;
}

}  // namespace mg::model
