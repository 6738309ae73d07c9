#include "server/fair_share.h"

#include <algorithm>
#include <limits>

namespace minoan {
namespace server {

FairShare::FairShare(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

FairShare::Slot::~Slot() {
  gate_->Release(vtime_, std::max<uint64_t>(1, cost_));
}

FairShare::Slot FairShare::Acquire(const std::string& tenant) {
  std::unique_lock<std::mutex> lock(mu_);

  // Start-time rule: a tenant whose spend lags every live tenant enters at
  // the live minimum, not at its stale (or zero) history — it gets its
  // fair share from now on, not a monopolizing refund of its idle past.
  uint64_t floor = std::numeric_limits<uint64_t>::max();
  for (const Waiter& w : waiters_) floor = std::min(floor, w.vtime);
  uint64_t& vtime = vtime_.try_emplace(tenant, 0).first->second;
  if (floor != std::numeric_limits<uint64_t>::max()) {
    vtime = std::max(vtime, floor);
  }

  waiters_.push_back(Waiter{vtime, arrivals_++});
  auto self = std::prev(waiters_.end());
  AdmitLocked();
  cv_.wait(lock, [&] { return self->admitted; });
  waiters_.erase(self);
  return Slot(this, &vtime);
}

void FairShare::Release(uint64_t* vtime, uint64_t cost) {
  std::lock_guard<std::mutex> lock(mu_);
  *vtime += cost;
  if (in_flight_ > 0) --in_flight_;
  AdmitLocked();
  cv_.notify_all();
}

void FairShare::AdmitLocked() {
  while (in_flight_ < capacity_) {
    std::list<Waiter>::iterator best = waiters_.end();
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (it->admitted) continue;
      if (best == waiters_.end() || it->vtime < best->vtime ||
          (it->vtime == best->vtime && it->arrival < best->arrival)) {
        best = it;
      }
    }
    if (best == waiters_.end()) return;
    best->admitted = true;
    ++in_flight_;
    cv_.notify_all();
  }
}

uint64_t FairShare::TenantCost(std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = vtime_.find(std::string(tenant));
  return it == vtime_.end() ? 0 : it->second;
}

}  // namespace server
}  // namespace minoan
