#include "gossip/timetable.h"

#include <algorithm>

#include "support/contracts.h"
#include "support/table.h"

namespace mg::gossip {

VertexTimetable vertex_timetable(const Instance& instance,
                                 const model::Schedule& schedule,
                                 graph::Vertex v) {
  const auto& tree = instance.tree();
  MG_EXPECTS(v < tree.vertex_count());
  const std::size_t horizon = schedule.total_time() + 1;

  VertexTimetable table;
  table.vertex = v;
  table.receive_from_parent.assign(horizon, std::nullopt);
  table.receive_from_child.assign(horizon, std::nullopt);
  table.send_to_parent.assign(horizon, std::nullopt);
  table.send_to_children.assign(horizon, std::nullopt);

  const bool has_parent = !tree.is_root(v);
  for (model::RoundCursor round(schedule); round.next();) {
    const std::size_t t = round.index();
    for (const model::Tx& tx : round.txs()) {
      const auto receivers = schedule.receivers(tx);
      if (tx.sender == v) {
        for (graph::Vertex r : receivers) {
          if (has_parent && r == tree.parent(v)) {
            MG_ASSERT(!table.send_to_parent[t] ||
                      *table.send_to_parent[t] == tx.message);
            table.send_to_parent[t] = tx.message;
          } else {
            MG_ASSERT(!table.send_to_children[t] ||
                      *table.send_to_children[t] == tx.message);
            table.send_to_children[t] = tx.message;
          }
        }
      } else if (std::binary_search(receivers.begin(), receivers.end(), v)) {
        if (has_parent && tx.sender == tree.parent(v)) {
          MG_ASSERT(!table.receive_from_parent[t + 1]);
          table.receive_from_parent[t + 1] = tx.message;
        } else {
          MG_ASSERT(!table.receive_from_child[t + 1]);
          table.receive_from_child[t + 1] = tx.message;
        }
      }
    }
  }
  return table;
}

std::string render_timetable(const VertexTimetable& table) {
  const std::size_t horizon = table.receive_from_parent.size();
  TextTable text;
  text.new_row();
  text.cell(std::string("Time"));
  for (std::size_t t = 0; t < horizon; ++t) text.cell(t);

  auto emit_row = [&](const std::string& name,
                      const std::vector<std::optional<model::Message>>& row) {
    if (std::all_of(row.begin(), row.end(),
                    [](const auto& entry) { return !entry.has_value(); })) {
      return;
    }
    text.new_row();
    text.cell(name);
    for (const auto& entry : row) {
      text.cell(entry ? std::to_string(*entry) : std::string("-"));
    }
  };
  emit_row("Receive from Parent", table.receive_from_parent);
  emit_row("Receive from Child", table.receive_from_child);
  emit_row("Send to Parent", table.send_to_parent);
  emit_row("Send to Children", table.send_to_children);
  return text.render();
}

}  // namespace mg::gossip
