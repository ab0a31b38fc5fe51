#include "core/mule.h"

namespace enviromic::core {

namespace {
/// Harvest cadence; must be a fraction of the time the mule spends within
/// radio range of a node, or it will walk past without draining anyone.
constexpr sim::Time kQueryPeriod = sim::Time::seconds_i(2);
}  // namespace

DataMule::DataMule(World& world, std::vector<sim::Position> path,
                   sim::Time start, MuleConfig cfg)
    : world_(world),
      cfg_(cfg),
      path_(path, cfg.speed_ft_s),
      start_(start) {
  double length = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    length += sim::distance(path[i - 1], path[i]);
  }
  walk_duration_ = sim::Time::seconds(length / cfg.speed_ft_s);
  radio_ = world_.channel().create_radio(cfg.mule_id, path_.position(0.0));
  radio_->set_on(false);  // dark until the visit begins
  radio_->set_receive_handler([this](const net::Packet& p) {
    for (const auto& m : p.messages) {
      const auto* reply = std::get_if<net::QueryReply>(&m);
      if (!reply || reply->sink != cfg_.mule_id) continue;
      if (!seen_.insert(reply->meta.key).second) continue;
      collected_.add(reply->meta, reply->sender);
      metas_.push_back(reply->meta);
      ++chunks_;
      bytes_ += reply->meta.bytes;
    }
  });
}

bool DataMule::in_field(sim::Time t) const {
  return t >= start_ && t <= start_ + walk_duration_;
}

void DataMule::start() {
  if (started_) return;
  started_ = true;
  world_.sched().at(start_, [this] {
    radio_->set_on(true);
    tick();
  });
}

void DataMule::tick() {
  const sim::Time now = world_.sched().now();
  if (now > start_ + walk_duration_) {
    radio_->set_on(false);  // the mule left the field
    return;
  }
  radio_->set_position(path_.position((now - start_).to_seconds()));

  net::Packet p;
  p.src = cfg_.mule_id;
  p.dst = net::kBroadcast;
  net::QueryRequest q;
  q.sink = cfg_.mule_id;
  q.from = sim::Time::zero();
  q.to = sim::Time::max();
  q.hops_left = 1;
  q.query_id = next_query_++;
  q.harvest = true;
  p.messages.push_back(q);
  radio_->send(std::move(p));

  world_.sched().after(kQueryPeriod, [this] { tick(); });
}

}  // namespace enviromic::core
